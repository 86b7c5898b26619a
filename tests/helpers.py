"""Shared test oracles, independent of the library internals."""

from dataclasses import dataclass

import numpy as np
from scipy.special import log_expit

from rmpolar import (
    METRIC_TIE_EPS,
    Candidate,
    CodeSpec,
    ListResult,
    OpCounter,
    Path,
    combine_u_llr,
    combine_v_llr,
)


def gf2_rank(matrix):
    """Rank over GF(2) by plain Gaussian elimination."""
    rows = [int("".join(str(int(b)) for b in row), 2) for row in np.asarray(matrix) % 2]
    rank = 0
    for bit in range(np.asarray(matrix).shape[1] - 1, -1, -1):
        pivot = None
        for i in range(rank, len(rows)):
            if (rows[i] >> bit) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(len(rows)):
            if i != rank and (rows[i] >> bit) & 1:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


def eval_polynomial_oracle(spec, info_bits):
    """Evaluate the boolean polynomial named by (spec, bits) point by point.

    Pure-python, position p encodes (x1..xm) with x1 most significant.
    """
    m, n = spec.m, spec.n
    out = []
    for p in range(n):
        x = [(p >> (m - 1 - level)) & 1 for level in range(m)]
        acc = 0
        for path, bit in zip(spec.info_set, np.asarray(info_bits).astype(int)):
            if not bit:
                continue
            term = 1
            for xl, il in zip(x, path.bits):
                if il and not xl:
                    term = 0
                    break
            acc ^= term
        out.append(acc)
    return np.array(out, dtype=np.uint8)


def q_domain_reference_decode(spec, q):
    """Probability-domain recursion with normalized posteriors.

    Independent of the LLR implementation: the i=1 child belief comes from
    the offset product, the i=0 child belief from the normalized likelihood
    product given the decided symbols.  Returns (info_bits, info_posteriors).
    """
    info = spec.info_mask_by_leaf
    bits = []
    posts = []
    cursor = [0]

    def walk(qv):
        if qv.size == 1:
            s = cursor[0]
            cursor[0] += 1
            if info[s]:
                b = 1 if qv[0] < 0.5 else 0
                bits.append(b)
                posts.append(qv[0])
            else:
                b = 0
            return np.array([1.0 - 2.0 * b])
        h = qv.size // 2
        q0, q1 = qv[:h], qv[h:]
        g = (2.0 * q0 - 1.0) * (2.0 * q1 - 1.0)
        v = walk((1.0 + g) / 2.0)
        q1v = np.where(v > 0, q1, 1.0 - q1)
        num = q0 * q1v
        u = walk(num / (num + (1.0 - q0) * (1.0 - q1v)))
        return np.concatenate([u, u * v])

    walk(np.asarray(q, dtype=np.float64))
    return np.array(bits, dtype=np.uint8), np.array(posts)


def full_spec(m):
    """Every path informational."""
    return CodeSpec(m=m, info_set=tuple(Path.from_index(i, m) for i in range(1 << m)))


def random_spec(m, k, rng):
    """A uniformly random k-path information set."""
    chosen = rng.choice(1 << m, size=k, replace=False)
    return CodeSpec(m=m, info_set=tuple(Path.from_index(int(i), m) for i in chosen))


def leaf_bits_for(spec, info_bits):
    """Per-leaf bits (processing order) of the word named by info_bits."""
    coeff = np.zeros(spec.n, dtype=np.uint8)
    if spec.dimension:
        coeff[[p.index for p in spec.info_set]] = np.asarray(info_bits, dtype=np.uint8)
    return coeff[::-1]


def metric_replay(spec, llr, info_bits, frozen_metric="include"):
    """Recompute a path metric by one clean depth-first pass.

    Follows the decision path named by info_bits (frozen leaves at 0) and
    sums the log posterior of each decided bit.  Recursive and stateless, a
    cross-check for the iterative lazy-refresh bookkeeping.
    """
    leaf = leaf_bits_for(spec, info_bits)
    info = spec.info_mask_by_leaf
    cursor = [0]
    total = [0.0]

    def walk(lam):
        if lam.size == 1:
            s = cursor[0]
            cursor[0] += 1
            b = int(leaf[s])
            if info[s] or frozen_metric == "include":
                total[0] += float(log_expit((1.0 - 2.0 * b) * lam[0]))
            return np.array([1.0 - 2.0 * b])
        h = lam.size // 2
        v = walk(combine_v_llr(lam[:h], lam[h:]))
        u = walk(combine_u_llr(lam[:h], lam[h:], v))
        return np.concatenate([u, u * v])

    walk(np.asarray(llr, dtype=np.float64))
    return total[0]


def all_hard_patterns(n):
    """Every +-1 observation vector of length n, as rows."""
    count = 1 << n
    shifts = np.arange(n - 1, -1, -1)
    bits = ((np.arange(count)[:, None] >> shifts) & 1).astype(np.float64)
    return 1.0 - 2.0 * bits


def info_bits_to_int_loop(bits):
    """Read an information word as an integer, first bit first, bit by bit."""
    value = 0
    for b in np.asarray(bits).ravel():
        value = (value << 1) | int(b)
    return value


# ---------------------------------------------------------------------------
# Reference list decoder: one object per hypothesis, blocks shared by
# reference, survivors chosen by sorting Extension records.  Written
# independently of the array decoder in rmpolar.list_decoder, which must
# match it decision for decision, metric for metric and count for count.


@dataclass
class Extension:
    """One candidate extension: parent rank, appended bit, updated metric."""

    parent: int
    bit: int
    metric: float


def reference_extend_leaf(metrics, leaf_llrs, frozen, frozen_metric="include"):
    """Extension pool of one leaf: bit 0 only when frozen, else both bits."""
    pool = []
    for rank, (metric, lam) in enumerate(zip(metrics, leaf_llrs)):
        if frozen:
            delta = float(log_expit(lam)) if frozen_metric == "include" else 0.0
            pool.append(Extension(rank, 0, metric + delta))
        else:
            pool.append(Extension(rank, 0, metric + float(log_expit(lam))))
            pool.append(Extension(rank, 1, metric + float(log_expit(-lam))))
    return pool


def reference_select_top(pool, limit, counter):
    """The `limit` best extensions; ties go to the earlier parent, then bit 0."""
    counter.select += len(pool)
    return sorted(pool, key=lambda e: (-e.metric, e.parent, e.bit))[:limit]


class _Hypothesis:
    """Live decoder state: shared belief/symbol blocks plus the bit trail."""

    __slots__ = ("bel", "vsym", "metric", "trail", "code_syms")

    def __init__(self, bel, vsym, metric, trail):
        self.bel = bel      # bel[0] is the channel block, bel[lvl] level-lvl beliefs
        self.vsym = vsym    # vsym[lvl] decided symbols of the pending i=1 child
        self.metric = metric
        self.trail = trail  # cons list of info-leaf bits, newest first
        self.code_syms = None


def _refresh(hyp, j, m, counter):
    """Bring hyp.bel[m] up to date for leaf step j."""
    if j == 0:
        lam = hyp.bel[0]
        start = 1
    else:
        tz = (j & -j).bit_length() - 1
        start = m - tz
        base = hyp.bel[start - 1]
        h = 1 << (m - start)
        counter.kernel += h
        lam = combine_u_llr(base[:h], base[h:], hyp.vsym[start])
        hyp.bel[start] = lam
        start += 1
    for lvl in range(start, m + 1):
        h = 1 << (m - lvl)
        counter.kernel += h
        lam = combine_v_llr(lam[:h], lam[h:])
        hyp.bel[lvl] = lam


def _propagate(hyp, j, m, bit):
    """Fold the decided leaf symbol back up the completed subtrees."""
    cur = np.array([1.0 - 2.0 * bit])
    d = m
    while d >= 1 and (j >> (m - d)) & 1:
        cur = np.concatenate([cur, cur * hyp.vsym[d]])
        d -= 1
    if d >= 1:
        hyp.vsym[d] = cur
    else:
        hyp.code_syms = cur


def _fork(parent, bit, metric, is_info):
    trail = (parent.trail, bit) if is_info else parent.trail
    return _Hypothesis(parent.bel.copy(), parent.vsym.copy(), metric, trail)


def _unwind(trail, count):
    bits = np.zeros(count, dtype=np.uint8)
    pos = count - 1
    while trail is not None:
        trail, bit = trail[0], trail[1]
        bits[pos] = bit
        pos -= 1
    return bits


def reference_list_decode(spec, llr, list_size, frozen_metric="include"):
    """Per-hypothesis list decoder; returns an rmpolar.ListResult."""
    llr0 = np.asarray(llr, dtype=np.float64)
    n, m = spec.n, spec.m
    info_by_leaf = spec.info_mask_by_leaf
    counter = OpCounter()
    root = _Hypothesis([llr0] + [None] * m, [None] * (m + 1), 0.0, None)
    live = [root]

    for j in range(n):
        for hyp in live:
            _refresh(hyp, j, m, counter)
        pool = reference_extend_leaf(
            [hyp.metric for hyp in live],
            [float(hyp.bel[m][0]) for hyp in live],
            frozen=not info_by_leaf[j],
            frozen_metric=frozen_metric,
        )
        survivors = reference_select_top(pool, list_size, counter)
        next_live = []
        for ext in survivors:
            child = _fork(live[ext.parent], ext.bit, ext.metric, info_by_leaf[j])
            _propagate(child, j, m, ext.bit)
            next_live.append(child)
        live = next_live

    ranked = []
    for hyp in live:
        bits = _unwind(hyp.trail, spec.dimension)
        codeword = (hyp.code_syms < 0.0).astype(np.uint8)
        ranked.append((hyp.metric, info_bits_to_int_loop(bits), bits, codeword))
    ranked.sort(key=lambda t: (-t[0], t[1]))
    top_metric = ranked[0][0]
    best = min(
        (t for t in ranked if t[0] >= top_metric - METRIC_TIE_EPS),
        key=lambda t: t[1],
    )
    ranked.remove(best)
    ranked.insert(0, best)

    return ListResult(
        candidates=[Candidate(info_bits=t[2], codeword=t[3], metric=t[0]) for t in ranked],
        kernel_ops=counter.kernel,
        select_ops=counter.select,
    )


def same_list_result(a, b):
    """Whether two ListResults agree exactly: every candidate's information
    bits, codeword and metric, in order, and both work counts."""
    if len(a.candidates) != len(b.candidates):
        return False
    if (a.kernel_ops, a.select_ops) != (b.kernel_ops, b.select_ops):
        return False
    return all(
        np.array_equal(c.info_bits, d.info_bits)
        and np.array_equal(c.codeword, d.codeword)
        and c.metric == d.metric
        for c, d in zip(a.candidates, b.candidates)
    )
