"""Shared test oracles, independent of the library internals."""

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_expit

from rmpolar import (
    LLR_CLAMP,
    METRIC_TIE_EPS,
    CodeSpec,
    ListResult,
    OpCounter,
    Path,
    SoftVector,
    combine_u_llr,
    combine_v_llr,
    monomial_codeword,
)


def info_paths(spec):
    """The information paths of `spec` as Path objects, in processing order
    (decreasing index, the i=1 branch first)."""
    return tuple(Path.from_index(int(i), spec.m) for i in spec.info_indices[::-1])


def combine_v(g0, g1):
    """Offset-domain belief of the i=1 child: the product g0 * g1.

    Degrading: |result| <= min(|g0|, |g1|).
    """
    return np.multiply(g0, g1)


def combine_u(h0, h1, v):
    """Likelihood-ratio belief of the i=0 child: h0 * h1**v.

    `v` holds the decided +-1 symbols of the i=1 child.  A zero ratio on the
    inverted side saturates at the clamp scale instead of dividing by zero.
    """
    h0 = np.asarray(h0, dtype=np.float64)
    h1 = np.asarray(h1, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    h1 = np.maximum(h1, np.exp(-LLR_CLAMP))
    return np.where(v > 0, h0 * h1, h0 / h1)


def encode_reference(spec, info_bits):
    """Reference encoder: XOR of monomial evaluations, O(n * 2**m) per word.

    Built on monomial_codeword and never on the library's butterfly encoder.
    Takes one word of shape (N,) or a batch (batch, N).
    """
    words = np.asarray(info_bits, dtype=np.uint8)
    squeeze = words.ndim == 1
    if squeeze:
        words = words[None, :]
    out = np.zeros((words.shape[0], spec.n), dtype=np.uint8)
    for col, path in enumerate(info_paths(spec)):
        rows = words[:, col] == 1
        if rows.any():
            out[rows] ^= monomial_codeword(path)
    return out[0] if squeeze else out


def reference_plotkin_transform(coeff):
    """Reference butterfly: the m stages (c0, c0 + c1) along the last axis,
    one uint8 per bit, with the c1 half of every block of `step` XORed in
    place from its c0 half, widest blocks first."""
    n = coeff.shape[-1]
    m = n.bit_length() - 1
    out = np.array(coeff, dtype=np.uint8)
    lead = out.shape[:-1]
    for level in range(1, m + 1):
        step = 1 << (m - level + 1)
        half = step >> 1
        view = out.reshape(lead + (n // step, step))
        view[..., half:] ^= view[..., :half]
    return out


def codeword_loglik(codeword, beliefs):
    """Log-likelihood of one codeword: sum over positions of ln q if the bit
    is 0, else ln(1 - q)."""
    bits = np.asarray(codeword, dtype=np.float64)
    llr = np.asarray(beliefs.llr if isinstance(beliefs, SoftVector) else beliefs, dtype=np.float64)
    if bits.shape != llr.shape:
        raise ValueError(f"codeword shape {bits.shape} does not match beliefs shape {llr.shape}")
    return float(np.sum(log_expit((1.0 - 2.0 * bits) * llr)))


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
        for path, bit in zip(info_paths(spec), np.asarray(info_bits).astype(int)):
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


def reference_combine_v_llr(l0, l1):
    """combine_v_llr in its row-major fused form, kept as the byte reference.

    The two correction terms are the rows of one (2, ...) block built by
    np.multiply.outer, so the block is C-ordered whatever the operands'
    order.  Any rewrite of the library kernel must give these bytes.
    """
    out = np.copysign(np.minimum(np.abs(l0), np.abs(l1)), l0 * l1)
    corr = np.multiply.outer(np.array([1.0, -1.0]), l1)
    corr += l0
    np.abs(corr, out=corr)
    np.negative(corr, out=corr)
    np.exp(corr, out=corr)
    np.log1p(corr, out=corr)
    out += corr[0]
    out -= corr[1]
    return out


def reference_sc_decode(spec, llr, truth_syms=None, counter=None):
    """Recursive successive cancellation over a (trials, n) belief matrix.

    Returns (bits, posteriors, codeword_symbols), each (trials, n), where
    bits are the raw per-leaf decisions in processing order.  When
    truth_syms is given the recursion propagates those symbols instead of
    the decisions (the genie mode).  A depth-first walk written apart from
    the library's step-by-step decoder core, which must match it decision
    for decision, posterior for posterior and count for count.
    """
    info_by_leaf = spec.info_mask_by_leaf
    trials, n = llr.shape
    bits = np.zeros((trials, n), dtype=np.uint8)
    post = np.empty((trials, n), dtype=np.float64)
    cursor = [0]

    def walk(lam):
        width = lam.shape[1]
        if width == 1:
            s = cursor[0]
            cursor[0] += 1
            flat = lam[:, 0]
            post[:, s] = expit(flat)
            if info_by_leaf[s]:
                bits[:, s] = flat < 0.0
            if truth_syms is not None:
                return truth_syms[:, s : s + 1]
            return 1.0 - 2.0 * bits[:, s : s + 1].astype(np.float64)
        h = width // 2
        l0 = lam[:, :h]
        l1 = lam[:, h:]
        if counter is not None:
            counter.kernel += h
        v = walk(combine_v_llr(l0, l1))
        if counter is not None:
            counter.kernel += h
        u = walk(combine_u_llr(l0, l1, v))
        return np.concatenate([u, u * v], axis=1)

    code_syms = walk(llr)
    return bits, post, code_syms


def full_spec(m):
    """Every path informational."""
    return CodeSpec(m=m, info_indices=range(1 << m))


def random_spec(m, k, rng):
    """A uniformly random k-path information set."""
    chosen = rng.choice(1 << m, size=k, replace=False)
    return CodeSpec(m=m, info_indices=chosen)


def decode_steps(spec):
    """The list decoder's steps under `spec`, as (first leaf, node level) pairs.

    An information leaf is a step of its own at level m.  Frozen leaves are
    grouped into maximal aligned all-frozen blocks: the 2**(m - level) leaves
    of one level-`level` subtree, decoded in one step.  The steps cover every
    leaf once, in processing order.  Read from the library's
    CodeSpec.decode_plan, whose steps start with (j, node).
    """
    return tuple(step[:2] for step in spec.decode_plan)


def leaf_bits_for(spec, info_bits):
    """Per-leaf bits (processing order) of the word named by info_bits."""
    coeff = np.zeros(spec.n, dtype=np.uint8)
    if spec.dimension:
        coeff[[p.index for p in info_paths(spec)]] = np.asarray(info_bits, dtype=np.uint8)
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
# reference, survivors chosen by sorting Extension records (at L=1 by the
# sign test of successive cancellation).  Written
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


def broadcast_extend_leaf(cost, leaf_llrs):
    """The (2 * live, frames) cost pool of list_decoder.extend_leaf in its
    broadcast form: each (live, frames) leaf belief times the (2, 1) column
    of the negated bit symbols, logaddexp(0, .), plus the costs broadcast
    over the bit axis."""
    pool = leaf_llrs[:, None] * np.array([[-1.0], [1.0]])
    np.logaddexp(0.0, pool, out=pool)
    pool += cost[:, None]
    return pool.reshape(-1, cost.shape[1])


def broadcast_flat_offsets(ranks):
    """Flat indices rank * frames + frame of a (rows, frames) rank block of a
    hypothesis-major block, the frame numbers broadcast over the rows."""
    frames = ranks.shape[1]
    return ranks * frames + np.arange(frames)


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
        if list_size == 1 and info_by_leaf[j]:
            # successive cancellation: the sign test, the tie going to bit 0
            counter.select += len(pool)
            survivors = [pool[int(live[0].bel[m][0] < 0.0)]]
        else:
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
        info_bits=np.stack([t[2] for t in ranked]),
        codewords=np.stack([t[3] for t in ranked]),
        metrics=np.array([t[0] for t in ranked]),
        kernel_ops=counter.kernel,
        select_ops=counter.select,
    )


def frame_of(block, f):
    """Frame f of a block's ListResult, as a one-frame ListResult."""
    return ListResult(block.info_bits[f], block.codewords[f], block.metrics[f], block.kernel_ops, block.select_ops)


def same_list_result(a, b):
    """Whether two ListResults agree exactly: the shapes, every candidate's
    information bits, codeword and metric bytes (so -0.0 is not 0.0), in
    order, and both work counts."""
    return (
        (a.kernel_ops, a.select_ops) == (b.kernel_ops, b.select_ops)
        and a.metrics.shape == b.metrics.shape
        and np.array_equal(a.info_bits, b.info_bits)
        and np.array_equal(a.codewords, b.codewords)
        and a.metrics.tobytes() == b.metrics.tobytes()
    )
