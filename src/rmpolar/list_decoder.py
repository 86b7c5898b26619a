"""Successive-cancellation list decoding.

The decoder advances leaf by leaf in processing order, and all live
hypotheses move together as the rows of per-level arrays: bel[lvl] holds
the level-lvl belief blocks, shape (live, 2**(m-lvl)); vsym[lvl] the decided
symbols of the pending i=1 child at that level, same shape; and a (live, N)
array the decided information bits.  bel[0] is the channel block, one row
shared by every hypothesis.  A refresh runs each kernel once per level on
all rows at once, so the total work stays L * n * log2(n) kernel
evaluations at most.

At an information leaf every hypothesis forks on the two bit values, the
metric of each child growing by the log posterior of its bit; at a frozen
leaf the single bit-0 extension either collects the same log posterior
(frozen_metric='include', the default) or nothing ('ignore').  The pool of
extensions is laid out by parent rank, then bit, so one stable sort on the
negated metrics keeps the L best and breaks exact ties toward the earlier
parent, then bit 0.  Survivors become the new rows in that order: a fork is
one row gather arr[parent] per level, skipped when the survivors are the
live hypotheses in their old order.  Only the rows that will be read again
are gathered: at each level either the node's first-child beliefs (its
second child still to come) or the pending i=1 symbols.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import log_expit

from .channel import SoftVector
from .encoder import info_bits_to_int
from .sc_decoder import OpCounter, combine_u_llr, combine_v_llr

__all__ = [
    "METRIC_TIE_EPS",
    "Candidate",
    "ListResult",
    "extend_leaf",
    "select_top",
    "list_decode",
]

# Metric gaps below this are treated as exact ties (which arise routinely on
# hard-decision channels) and resolved toward the smaller information word.
METRIC_TIE_EPS = 1e-9

_FROZEN_METRIC_MODES = ("include", "ignore")

# The leaf belief is multiplied by these to score bit 0 and bit 1.
_BIT_SIGNS = np.array([1.0, -1.0])


def _read_only(arr):
    arr.setflags(write=False)
    return arr


# Shared results of the one-survivor cases, which are most of an L=1 decode.
_FIRST, _SECOND = _read_only(np.array([0])), _read_only(np.array([1]))
_SYMBOL_OF_BIT = (_read_only(np.array([[1.0]])), _read_only(np.array([[-1.0]])))


@dataclass
class Candidate:
    """A ranked decoding hypothesis in a ListResult."""

    info_bits: np.ndarray
    codeword: np.ndarray
    metric: float


@dataclass
class ListResult:
    """Candidates ranked by metric descending; rank 1 is the decision."""

    candidates: list
    kernel_ops: int
    select_ops: int

    @property
    def best(self):
        return self.candidates[0]


def extend_leaf(metrics, leaf_llrs, frozen, frozen_metric="include"):
    """Extend every candidate through one leaf.

    Parameters
    ----------
    metrics : per-candidate log metrics, in rank order.
    leaf_llrs : per-candidate leaf belief (positive favors bit 0).
    frozen : whether the leaf is frozen to bit 0.
    frozen_metric : 'include' adds the bit-0 log posterior at frozen leaves,
        'ignore' leaves the metric unchanged there.

    Returns the extension pool as a 1-d array of metrics ordered by parent
    rank, then bit: at a frozen leaf one bit-0 entry per candidate (entry i
    extends parent i), otherwise both bits per candidate (entry i extends
    parent i // 2 with bit i % 2).
    """
    if frozen_metric not in _FROZEN_METRIC_MODES:
        raise ValueError(f"frozen_metric must be one of {_FROZEN_METRIC_MODES}, got {frozen_metric!r}")
    metrics = np.asarray(metrics, dtype=np.float64)
    lam = np.asarray(leaf_llrs, dtype=np.float64)
    if metrics.shape != lam.shape or metrics.ndim != 1:
        raise ValueError("metrics and leaf_llrs must have one entry per candidate")
    if frozen:
        return metrics + log_expit(lam) if frozen_metric == "include" else metrics + 0.0
    return (metrics[:, None] + log_expit(np.multiply.outer(lam, _BIT_SIGNS))).ravel()


def select_top(pool, limit, counter=None):
    """Indices of the `limit` best pool entries, by metric descending.

    Ties go to the earlier entry, which in an :func:`extend_leaf` pool is the
    earlier parent rank, then bit 0.  A pool no larger than `limit` passes
    through (re-ranked).
    """
    if limit < 1:
        raise ValueError(f"list size must be >= 1, got {limit}")
    size = len(pool)
    if counter is not None:
        counter.select += size
    if size == 1:
        return _FIRST
    if size == 2 and limit == 1:
        return _FIRST if pool[0] >= pool[1] else _SECOND
    return np.argsort(-np.asarray(pool, dtype=np.float64), kind="stable")[:limit]


def list_decode(spec, beliefs, list_size, frozen_metric="include"):
    """List-decode one frame of channel beliefs under `spec`.

    Parameters
    ----------
    spec : CodeSpec
    beliefs : SoftVector of length spec.n, or an array of finite LLRs.
    list_size : maximum number of live hypotheses L >= 1.
    frozen_metric : see :func:`extend_leaf`.  With 'include' and
        list_size >= 2**N the rank-1 candidate is a maximum-likelihood
        decision.

    Returns
    -------
    ListResult with at most list_size candidates, ranked by metric
    descending; metric ties within METRIC_TIE_EPS of the best resolve the
    rank-1 slot toward the smaller information-word integer.
    """
    if list_size < 1:
        raise ValueError(f"list size must be >= 1, got {list_size}")
    if frozen_metric not in _FROZEN_METRIC_MODES:
        raise ValueError(f"frozen_metric must be one of {_FROZEN_METRIC_MODES}, got {frozen_metric!r}")
    if isinstance(beliefs, SoftVector):
        llr0 = beliefs.llr
    else:
        llr0 = np.asarray(beliefs, dtype=np.float64)
        if not np.isfinite(llr0).all():
            raise ValueError("beliefs must be finite (no NaN or infinity)")
    if llr0.ndim != 1 or llr0.size != spec.n:
        raise ValueError(f"beliefs must have {spec.n} positions, got shape {llr0.shape}")

    n, m = spec.n, spec.m
    info_by_leaf = spec.info_mask_by_leaf
    counter = OpCounter()
    bel = [llr0[None, :]] + [None] * m
    vsym = [None] * (m + 1)
    bits = np.zeros((1, spec.dimension), dtype=np.uint8)
    metrics = np.zeros(1)
    live = 1
    col = 0
    code_syms = None

    for j in range(n):
        # refresh bel[m] from the deepest level still valid
        if j == 0:
            lam = bel[0]
            start = 1
        else:
            start = m - ((j & -j).bit_length() - 1)
            base = bel[start - 1]
            h = 1 << (m - start)
            counter.kernel += h * live
            lam = combine_u_llr(base[:, :h], base[:, h:], vsym[start])
            bel[start] = lam
            start += 1
        for lvl in range(start, m + 1):
            h = 1 << (m - lvl)
            counter.kernel += h * live
            lam = combine_v_llr(lam[:, :h], lam[:, h:])
            bel[lvl] = lam

        is_info = info_by_leaf[j]
        pool = extend_leaf(metrics, lam[:, 0], frozen=not is_info, frozen_metric=frozen_metric)
        keep = select_top(pool, list_size, counter=counter)
        metrics = pool[keep]
        if len(keep) == 1:
            # a lone survivor extends the lone live hypothesis: no gather
            bit = int(keep[0]) if is_info else 0
            cur = _SYMBOL_OF_BIT[bit]
        else:
            parent, bit = np.divmod(keep, 2) if is_info else (keep, 0)
            if len(keep) != live or (parent != np.arange(live)).any():
                # carry what is read again: the pending i=1 symbols where the
                # level-d first child is done, else the beliefs its second
                # child will be formed from (bel[0] is shared)
                for d in range(1, m + 1):
                    if (j >> (m - d)) & 1:
                        vsym[d] = vsym[d].take(parent, axis=0)
                    elif d > 1:
                        bel[d - 1] = bel[d - 1].take(parent, axis=0)
                bits = bits.take(parent, axis=0)
            cur = (1.0 - 2.0 * bit)[:, None] if is_info else np.ones((len(keep), 1))
        live = len(keep)
        if is_info:
            bits[:, col] = bit
            col += 1

        # fold the decided leaf symbols back up the completed subtrees
        d = m
        while d >= 1 and (j >> (m - d)) & 1:
            cur = np.concatenate([cur, cur * vsym[d]], axis=1)
            d -= 1
        if d >= 1:
            vsym[d] = cur
        else:
            code_syms = cur

    ranked = []
    for r in range(live):
        word = bits[r]
        codeword = (code_syms[r] < 0.0).astype(np.uint8)
        ranked.append((float(metrics[r]), info_bits_to_int(word), word, codeword))
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
