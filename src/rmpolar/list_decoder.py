"""Successive-cancellation list decoding: the one decoder core.

The core (_decode) serves every decoder of the package: list_decode, and at
list size 1 the successive-cancellation wrappers of rmpolar.sc_decoder.  The
kernels it calls, combine_v_llr and combine_u_llr, and its work tally
OpCounter are defined here; rmpolar.sc_decoder re-exports all three.  It
advances step by step in leaf processing order, and the live hypotheses of
every frame in a block move together.

Layout.  Arrays are position-major: bel[lvl] holds the level-lvl beliefs,
shape (2**(m-lvl), rows), so the two halves lam[:h] and lam[h:] of a node
are contiguous blocks.  The decided symbols live in one (n, L*F) buffer
that ends as the codewords: leaf j writes position n-1-j (a frozen subtree
fills its positions with +1), a node's i=0 child is its lower half and its
pending i=1 child its upper half, so folding a completed node multiplies
its upper half by its lower half in place.  The row axis, the last, is
hypothesis-major: with F frames, row r*F + f holds hypothesis r of frame f.
bel[0] is the channel block, transposed once on entry, with one row per
frame, shared by every hypothesis of that frame; the signs of the symbol
buffer are transposed once on exit.  The kernels are called on transposed
views, combine_v_llr(lam[:h].T, lam[h:].T).T, so the half width is always
their last axis.  A refresh runs each kernel once per level on all rows at
once, so the work per frame stays L * n * log2(n) kernel evaluations at
most.  A list's decided information bits are read off its final codewords
by inverting the encoder.

Steps.  A step is one information leaf, or one maximal aligned block of
frozen leaves: a whole subtree whose leaves are all frozen.  The loop reads
them from CodeSpec.decode_plan, built once per spec in one numpy pass: each
step's refresh start and half width, the levels it forms, its width, the
level where its fold stops and its kernel work per hypothesis, all as
Python ints, so that a step spends its Python-level calls on the kernels
and the selection, not on deriving its shape.  The work counts build up in
local ints.

At L > 1 the core carries each hypothesis's cost, its negated metric: a
non-negative penalty (Balatsoukas-Stimming, Bastani Parizi and Burg) that
starts at +0.0 and grows by -log_expit(+-b) = logaddexp(0, -+b) per leaf;
the metrics are 0.0 - cost, formed once on exit.  Round-to-nearest is
symmetric, so each cost is exactly its metric negated, up to the sign of an
exact zero, which no sort tells apart; a metric summed from +0.0 is never
-0.0, so 0.0 - cost gives back its bytes.  At an information leaf every
hypothesis forks on the two bit values, the cost of each child growing by
that of its bit.  The pool of extensions is shaped (entries, F), each
column laid out by parent rank, then bit, so one ascending stable sort of
the costs down axis 0 keeps the L cheapest of every frame and breaks exact
ties toward the earlier parent, then bit 0.  Two tables, built once per
call, give the parent row and the negated symbol of every flat pool entry,
so the survivors' rows and symbols are two takes.

Same-shape operands.  Every per-leaf numpy call of the L > 1 loop runs on
operands of one shape, or on an array and a scalar.  With numpy 2.4 an
in-place add of two (32, 2) blocks costs about 0.4 us, and one that
broadcasts an (L, 1, F) or (F,) operand 0.9-1.5 us, because it sets up
numpy's general iterator (timeit, 2-core x86-64 host).  So extend_leaf
repeats the leaf beliefs twice down axis 0 and multiplies them by a
(2 L, F) table of -1 (bit 0) and +1 (bit 1) rows, takes logaddexp(0, .)
in place, and adds the costs repeated twice.  The survivors' flat indices,
and the parent rows of a frozen re-rank, add an (L, F) table of frame
numbers sliced to the rows kept.  Negation and multiplication by +-1 are
exact, so the bytes are those of the broadcast forms, which
tests/helpers.py keeps as the reference.  The tables (_pool_tables) are
built once per _decode call, for its list size and frames: built per leaf
they cost more than they save, and a module-level table sized for the
largest call would hold its memory for the life of the process.

Lazy forks (Tal and Vardy's lazy copying, in array form).  Survivors
become the new rows in rank order, but no stored array moves at a fork.
One (slots, rows) integer map holds, for each stored array, the physical
row that each current row reads; a fork composes every map with the survivors'
parent rows in one take, after resetting to identity the maps of the
arrays written since the previous fork (a fixed list of per-slot flags and
the list of slots flagged).  A fork that keeps the live rows in their order,
told by comparing the parent rows' bytes with those of the identity,
composes nothing.  An array is gathered through its map only where it is
read: the parent's beliefs at a refresh, and the pending symbols in the
fold, gathered into their product.  The pending i=1 symbols that a refresh
reads are current by construction: a step's fold stops at the level where
the next step's refresh starts, and it writes them in the current row
order after the step's fork.
OpCounter.moved counts the entries gathered: about 1-1.5 times the kernel
work, where copying every pending level at each fork moves about n entries
per row and information leaf.

Frozen subtrees.  A frozen subtree's symbols are all known (+1), so its
leaf beliefs are formed breadth first over (size, nodes, rows) blocks, one
combine_v_llr and one combine_u_llr call per level over all of its nodes,
and every kernel of the leaf-by-leaf order is still evaluated.  Each frozen
leaf either adds the cost of bit 0 to the cost (frozen_metric='include',
the default), leaf by leaf in order, or nothing ('ignore').  The hypotheses
are then re-ranked once, as the stable sort after every frozen leaf would
have left them: one fork.  A lone frozen leaf (width 1) is its node: its
cost is added in place, and the one-key sort is a stable argsort of the
costs.

At L = 1 there is no pool, no fork and no metric: an information leaf
takes the sign of its belief, the tie going to bit 0, and the core records
every leaf's belief in a position-major (n, frames) buffer, one contiguous
row per leaf.  The decided bits are read back as the sign bits of the
information leaves' recorded beliefs (each recorded as belief + 0.0, so a
-0.0 tie reads as bit 0), not by inverting the encoder.  The metric, which
only ranks a list, is summed from the same beliefs when ListResult.metrics
is first read, leaf by leaf in order as the pool entries would have grown
it, so a caller that reads only the decisions never pays for it.

How many hypotheses live after each step depends only on the frozen set
and L, never on the beliefs, so the frames of a block always have the same
number of rows, and each frame's result, work counts included, is exactly
what decoding it alone gives.  A single frame is the F = 1 block.  _rank
ranks the survivors of every frame at once, in arrays, for one ListResult.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channel import SoftVector
from .encoder import info_bits_of

__all__ = [
    "METRIC_TIE_EPS",
    "Candidate",
    "ListResult",
    "list_decode",
]

# Metric gaps below this are treated as exact ties (which arise routinely on
# hard-decision channels) and resolved toward the smaller information word.
METRIC_TIE_EPS = 1e-9

# Most float64 entries (1 GiB) that the stored levels of one frame may take,
# about 2 * min(L, 2**N) * n; a larger list is refused before allocating.
MAX_LIST_ENTRIES = 1 << 27

# Upper bound on frames * min(L, 2**N) * n for one list_decode call of a
# simulation or CLI decode (block_frames), which keeps the widest float64
# belief level of a block within 8 MiB.
DECODE_BLOCK_ENTRIES = 1 << 20

_FROZEN_METRIC_MODES = ("include", "ignore")

# Channel beliefs may be at most this over 2 * n in magnitude (_check_beliefs).
_MAX_FLOAT = float(np.finfo(np.float64).max)

# The decided symbol of every frozen leaf.  A numpy scalar rather than 1.0,
# because perfbench's kernel tracer sizes every kernel argument by nbytes.
_PLUS_ONE = np.float64(1.0)


@dataclass
class OpCounter:
    """Running totals of decoder work, in per-frame units.

    kernel counts one combine_v_llr or combine_u_llr evaluation per vector
    element; select counts the extensions weighed per live hypothesis: two
    at an information leaf, one at a frozen leaf, at every list size.  moved
    counts the stored decoder entries gathered into a new row order after
    forks of the list decoder (none at list size 1).
    """

    kernel: int = 0
    select: int = 0
    moved: int = 0


def combine_v_llr(l0, l1):
    """Belief of the i=1 child: 2*atanh(tanh(l0/2) * tanh(l1/2)).

    Evaluated in the exact min-sum-with-correction form, which is stable for
    any finite inputs and keeps zeros exact:
    sign(l0*l1) * min(|l0|, |l1|) + log1p(exp(-|l0 + l1|)) - log1p(exp(-|l0 - l1|)).
    `l0` must broadcast to the shape of `l1`.  Both correction terms are
    formed in one (..., 2) block, so each of its four steps is one call.  The
    block is Fortran-ordered, so each term is laid out like the decoder's
    operands, transposed views of C-ordered levels.  Every step is an
    elementwise ufunc, so any memory order of the operands (C, Fortran,
    strided views) gives the same bits.
    """
    out = np.abs(l1)
    np.minimum(np.abs(l0), out, out=out)
    np.copysign(out, l0 * l1, out=out)
    corr = np.empty(out.shape + (2,), order="F")
    plus, minus = corr[..., 0], corr[..., 1]
    np.add(l0, l1, out=plus)
    np.subtract(l0, l1, out=minus)
    np.abs(corr, out=corr)
    np.negative(corr, out=corr)
    np.exp(corr, out=corr)
    np.log1p(corr, out=corr)
    out += plus
    out -= minus
    return out


def combine_u_llr(l0, l1, v):
    """Belief of the i=0 child: l0 + v * l1 for the decided +-1 symbols v
    of the i=1 child."""
    return l0 + v * l1


def log_expit(x):
    """ln(1 / (1 + e^-x)), the log posterior of bit 0 at LLR x, as
    -np.logaddexp(0, -x) = -(max(0, -x) + log1p(exp(-|x|))): the usual
    two-branch form, stable for any finite x, bit for bit.  The decoder
    core folds the negation into its own arithmetic; this function sums
    the metric of a list of one (_SCResult)."""
    return -np.logaddexp(0.0, -x)


@dataclass
class Candidate:
    """A ranked decoding hypothesis in a ListResult."""

    info_bits: np.ndarray
    codeword: np.ndarray
    metric: float


@dataclass
class ListResult:
    """Candidates ranked by metric descending; rank 1 is the decision.  The
    arrays info_bits (..., live, N), codewords (..., live, n) and metrics
    (..., live) have a leading frames axis for a block; the work counts are
    one frame's.  Each of `candidates` and `best` views one rank of them.
    At L = 1, `metrics` (and so `candidates` and `best`) is computed when
    first read; the decisions alone need no metric."""

    info_bits: np.ndarray
    codewords: np.ndarray
    metrics: np.ndarray
    kernel_ops: int
    select_ops: int

    @cached_property
    def candidates(self):
        ranks = range(self.metrics.shape[-1])
        return [Candidate(self.info_bits[..., r, :], self.codewords[..., r, :], self.metrics[..., r]) for r in ranks]

    @property
    def best(self):
        return self.candidates[0]


class _SCResult(ListResult):
    """The ListResult of a decode that kept one hypothesis (L = 1), whose
    metrics are summed from the (n, frames) leaf beliefs by log_expit on
    first read, so that a caller of the decisions alone never computes a
    log posterior."""

    def __init__(self, info_bits, codewords, spec, leaf_llr, frozen_metric, kernel_ops, select_ops):
        self.info_bits = info_bits
        self.codewords = codewords
        self.kernel_ops = kernel_ops
        self.select_ops = select_ops
        self._leaves = spec.info_mask_by_leaf, leaf_llr, frozen_metric == "include"

    @cached_property
    def metrics(self):
        info, leaf_llr, include = self._leaves
        leaf_llr = leaf_llr.T
        # log_expit(|b|) at an information leaf, the log posterior of the bit
        # its sign decides; under 'include' log_expit(b) at a frozen leaf
        beliefs = np.where(info, np.abs(leaf_llr), leaf_llr) if include else np.abs(leaf_llr[:, info])
        terms = np.zeros((len(beliefs), 1 + beliefs.shape[1]))
        terms[:, 1:] = log_expit(beliefs)
        # one leaf at a time from +0.0, as the extensions grow a list's metric:
        # not np.sum, whose pairwise order rounds differently
        total = np.add.accumulate(terms, axis=1)[:, -1]
        return total.reshape(self.info_bits.shape[:-1])


def extend_leaf(cost, leaf_llrs, signs):
    """Extend every hypothesis through one information leaf.

    `cost` and `leaf_llrs` are (live, frames) float64 arrays in rank order:
    the cost of each hypothesis (its negated log metric, >= 0) and its leaf
    belief (positive favors bit 0).  `signs` is the (2 * live, frames) sign
    table of _pool_tables, -1.0 on even rows and +1.0 on odd ones.  Returns
    the (2 * live, frames) cost pool, each column ordered by parent rank,
    then bit: entry i extends parent i // 2 with bit i % 2, its cost grown
    by logaddexp(0, -+b), the negated log posterior of that bit.  Every
    call runs on operands of one shape (see Same-shape operands).
    """
    pool = leaf_llrs.repeat(2, axis=0)
    pool *= signs
    np.logaddexp(0.0, pool, out=pool)
    pool += cost.repeat(2, axis=0)
    return pool


def _pool_tables(list_size, frames):
    """The tables of the L > 1 step loop for up to `list_size` live
    hypotheses of `frames` frames, built once per _decode call.

    Returns (signs, cols, row_of):

    - signs, (2 * list_size, frames): the negated symbol of each pool row's
      bit, -1.0 on the rows of bit 0 and +1.0 on those of bit 1; rows
      :2 * live are extend_leaf's sign table at `live` hypotheses, and the
      symbol of flat pool entry e is -signs.flat[e];
    - cols, (list_size, frames): the frame of every column, which turns
      the ranks of `kept` rows into the flat indices rank * frames + frame
      of a hypothesis-major block when its rows :kept are added;
    - row_of: flat pool entry e = i * frames + f extends parent i >> 1,
      physical row row_of[e] = (i >> 1) * frames + f.
    """
    entry = np.arange(2 * list_size * frames)
    row_of = (entry // frames >> 1) * frames + entry % frames
    # the leaf belief times the negated symbol costs the bit, since
    # -log_expit(x) is logaddexp(0, -x)
    signs = np.where(entry // frames & 1, 1.0, -1.0).reshape(-1, frames)
    cols = np.tile(np.arange(frames), (list_size, 1))
    return signs, cols, row_of


def select_top(pool, limit):
    """Indices of the `limit` cheapest entries of a float64 `pool`, by cost
    ascending; the core passes the live list size of check_list_size.

    A 2-d pool is ranked down axis 0, one column per frame, and gives indices
    of shape (kept, frames).  Ties go to the earlier entry, which in an
    :func:`extend_leaf` pool is the earlier parent rank, then bit 0.  A pool
    no larger than `limit` passes through (re-ranked).
    """
    return pool.argsort(axis=0, kind="stable")[:limit]


def check_list_size(m, dimension, list_size):
    """Raise ValueError unless list_size >= 1 and the stored levels of one
    frame of length 2**m, about 2 * live * 2**m entries, fit in MAX_LIST_ENTRIES;
    return live = min(list_size, 2**dimension), never building 2**dimension."""
    if list_size < 1:
        raise ValueError(f"list size must be >= 1, got {list_size}")
    live = 1 << dimension if int(list_size).bit_length() > dimension else int(list_size)
    if live << (m + 1) > MAX_LIST_ENTRIES:
        raise ValueError(
            f"list size {list_size} at m={m}, k={dimension} would store about {live << (m + 1)} "
            f"entries per frame, above MAX_LIST_ENTRIES={MAX_LIST_ENTRIES}"
        )
    return live


def block_frames(spec, list_size):
    """Frames per list_decode call at `list_size`: the most whose widest
    level, frames * live * n entries for the live list of check_list_size,
    fits in DECODE_BLOCK_ENTRIES, and at least one.  Raises as
    check_list_size does."""
    live = check_list_size(spec.m, spec.dimension, list_size)
    return max(1, DECODE_BLOCK_ENTRIES // (live * spec.n))


def check_frozen_metric(frozen_metric):
    """Raise ValueError unless `frozen_metric` is one of _FROZEN_METRIC_MODES."""
    if frozen_metric not in _FROZEN_METRIC_MODES:
        raise ValueError(f"frozen_metric must be one of {_FROZEN_METRIC_MODES}, got {frozen_metric!r}")


def _frozen_leaf_beliefs(lam, depth):
    """Leaf beliefs of an all-frozen subtree, formed breadth first.

    `lam` holds the (2**depth, rows) position-major beliefs of the subtree's
    root.  Every symbol decided below it is +1, so each level's children
    come from one combine_v_llr and one combine_u_llr call over all nodes of
    that level: the same kernels on the same operands as a depth-first walk.
    The blocks are (size, nodes, 1, rows), position-major like the decoder's
    levels, so the kernels see (rows, 1, nodes, h) transposed views.  Returns
    (2**depth, rows) leaf beliefs in processing order.
    """
    width, rows = lam.shape
    blocks = lam.reshape(width, 1, 1, rows)
    for _ in range(depth):
        h, nodes = len(blocks) // 2, blocks.shape[1]
        a, b = blocks[:h].T, blocks[h:].T
        # each node's children in processing order: the i=1 child (v) first
        pair = combine_v_llr(a, b).T, combine_u_llr(a, b, _PLUS_ONE).T
        blocks = np.concatenate(pair, axis=2).reshape(h, 2 * nodes, 1, rows)
    return blocks.reshape(width, rows)


def _check_beliefs(spec, beliefs):
    """Beliefs as a (frames, spec.n) float64 LLR block, and whether they were
    one frame: a SoftVector, a 1-d array or a 2-d array of finite LLRs.

    Every belief the decoder forms is at most about n times the largest
    channel belief, so beliefs above _MAX_FLOAT / (2 n) in magnitude are
    refused too: an infinite sum inside the tree would give NaN leaves, whose
    decisions would follow the sign bit of a NaN.
    """
    llr = beliefs.llr if isinstance(beliefs, SoftVector) else np.asarray(beliefs, dtype=np.float64)
    single = llr.ndim == 1
    if single:
        llr = llr[None, :]
    if llr.ndim != 2 or llr.shape[1] != spec.n:
        raise ValueError(f"beliefs must have {spec.n} positions, got shape {llr.shape}")
    limit = _MAX_FLOAT / (2 * spec.n)
    # NaN fails the comparison too
    if not np.abs(llr).max(initial=0.0) <= limit:
        raise ValueError(f"beliefs must be finite (no NaN or infinity) and at most {limit:.4g} in magnitude")
    return llr, single


def _one_frame(spec, beliefs):
    """Checked beliefs of exactly one frame, as a (1, n) block."""
    llr, _ = _check_beliefs(spec, beliefs)
    if len(llr) != 1:
        raise ValueError(f"expected one frame of beliefs, got {len(llr)}")
    return llr


def list_decode(spec, beliefs, list_size, frozen_metric="include"):
    """List-decode channel beliefs under `spec`, one frame or a block.

    Parameters
    ----------
    spec : CodeSpec
    beliefs : SoftVector of length spec.n, an array of spec.n finite LLRs, or
        a (frames, spec.n) array of finite LLRs, one frame per row.  Raw
        arrays are decoded as given, up to float64 max / (2 n) in magnitude;
        only SoftVector clips to +-LLR_CLAMP.
    list_size : maximum number of live hypotheses L >= 1, bounded by
        check_list_size.  L = 1 is successive cancellation: each information
        bit is the sign of its leaf belief, the tie going to bit 0.
    frozen_metric : 'include' adds the bit-0 log posterior of every frozen
        leaf to the metric, 'ignore' leaves the metric unchanged there.
        With 'include' and list_size >= 2**N the rank-1 candidate is a
        maximum-likelihood decision.

    Returns
    -------
    A ListResult of min(list_size, 2**N) candidates per frame by metric
    descending, exact ties and the rank-1 slot among metrics within
    METRIC_TIE_EPS of the best going to the smaller information-word integer.
    A 2-d block gives one ListResult with a leading frames axis, each frame's
    entries equal to decoding that row alone.
    """
    live = check_list_size(spec.m, spec.dimension, list_size)
    check_frozen_metric(frozen_metric)
    llr, single = _check_beliefs(spec, beliefs)
    if not len(llr):
        bits, codewords = (np.zeros((0, live, width), dtype=np.uint8) for width in (spec.dimension, spec.n))
        return ListResult(bits, codewords, np.zeros((0, live)), 0, 0)
    code_syms, metrics, live, counter, leaf_llr = _decode(spec, llr, live, frozen_metric)
    # the signs transposed as bytes, not the float symbols
    codewords = np.ascontiguousarray((code_syms < 0.0).T).view(np.uint8).reshape(live, len(llr), spec.n)
    if leaf_llr is not None:
        # the decided bits are the sign bits of the information leaves'
        # beliefs; the one hypothesis needs no ranking: (frames, 1, ...)
        # views, or (1, ...)
        bits = np.signbit(leaf_llr[spec.info_mask_by_leaf]).T.view(np.uint8)
        bits, codewords = (a if single else a[:, None] for a in (bits, codewords[0]))
        return _SCResult(bits, codewords, spec, leaf_llr, frozen_metric, counter.kernel, counter.select)
    bits = info_bits_of(spec, codewords)
    order = _rank(metrics, bits)
    # every frame's hypotheses in rank order: (frames, live) indices, or (live,)
    rows = (order[:, 0], 0) if single else (order.T, np.arange(len(llr))[:, None])
    return ListResult(bits[rows], codewords[rows], metrics[rows], counter.kernel, counter.select)


def _rank(metrics, bits):
    """The (live, frames) rank order of hypotheses with (live, frames) `metrics`
    and (live, frames, N) words `bits`: metric descending, exact ties to the
    smaller word, then the smallest word within METRIC_TIE_EPS of the top."""
    live, frames = metrics.shape
    # one key per word: its bits packed big-endian into one byte string,
    # which orders as the integer info_bits_to_int reads
    packed = np.ascontiguousarray(np.packbits(bits, axis=-1))
    words = packed.view(f"S{packed.shape[-1]}")[..., 0]
    cols = np.arange(frames)
    order = np.lexsort((words, -metrics), axis=0)
    ranked = metrics[order, cols]
    # the rank of the smallest word within METRIC_TIE_EPS of the top
    pick = np.lexsort((words[order, cols], ranked < ranked[0] - METRIC_TIE_EPS), axis=0)[0]
    rank = np.arange(live)[:, None]
    return order[np.where(rank == 0, pick, rank - (rank <= pick)), cols]


def _decode(spec, llr, list_size, frozen_metric, truth=None):
    """The decoder core: decode a checked (frames, n) LLR block, list_size <= 2**N.

    Returns (code_syms, metrics, live, counter, leaf_llr): the +-1 codeword
    symbols of every surviving hypothesis, position-major, shape
    (n, live*frames) with hypothesis-major rows, their metrics, shape
    (live, frames), in rank order, the work counts and None.  At list_size
    1 an information leaf takes the sign of its belief, the tie going to
    bit 0, and there is no metric (None): leaf_llr is instead the
    position-major (n, frames) belief of every leaf, + 0.0 at an
    information leaf, so that its sign bit is the decided bit.  `truth`,
    (n, frames) per-leaf +-1 symbols, is propagated in place of the
    decisions of that pass (the genie mode).  Both are read or written one
    contiguous row block per step.  The list's metrics are carried as their
    negations, the costs, and formed once on exit.
    """
    m, n = spec.m, spec.n
    frames = len(llr)
    # a list's metric; at list_size 1 the leaf beliefs stand in for it
    include = frozen_metric == "include" and list_size > 1
    kernel = select = moved = 0
    bel = [np.ascontiguousarray(llr.T)] + [None] * m
    # the decided symbols, ending as the codewords (see Layout): the step
    # at leaves j .. j + width - 1 spans positions n - j - width .. n - j - 1.
    # Its pages are touched as the steps write them, not up front
    syms = np.empty((n, list_size * frames))
    leaf_llr = np.empty((n, frames)) if list_size == 1 else None
    # the columns of the current rows; the physical rows that the row maps
    # name are among them, since the list never shrinks
    sym = syms[:, :frames]
    # Row maps of the stored arrays, bel[lvl] in slot lvl and the pending
    # symbols at level lvl in slot m + lvl: physical row maps[s, r] of stored
    # array s holds current row r.  The slots listed in `written` (fresh[s]
    # True) were written since the last fork, so their physical rows are the
    # current rows and their maps are stale.
    maps = np.zeros((2 * m + 1, frames), dtype=np.intp)
    fresh = [False] * (2 * m + 1)
    written = []

    cost = None
    if list_size > 1:
        # the negated metrics, (live, frames) in rank order
        cost = np.zeros((1, frames))
        signs, cols, row_of = _pool_tables(list_size, frames)
        # extend_leaf's sign table at the live list size
        flips = signs[:2]
        # the parent rows of a fork that keeps every row in place, as bytes
        unmoved = np.arange(list_size * frames).tobytes()
    live = 1

    for j, node, start, half, levels, info, width, stop, work in spec.decode_plan:
        kernel += work * live
        # refresh the level-node beliefs from the deepest level still valid
        if half:
            # the pending i=1 symbols, which the previous step's fold left
            # fresh in the current row order
            v = sym[n - j : n - j + half]
            base = bel[start - 1]
            # the level start-1 node gets its last child: free its beliefs
            bel[start - 1] = None
            if start == 1:
                # bel[0] has one row per frame, shared by its hypotheses
                u = combine_u_llr(base[:half, None].T, base[half:, None].T, v.reshape(half, live, frames).T)
                lam = u.T.reshape(half, -1)
            else:
                if not fresh[start - 1]:
                    base = base.take(maps[start - 1], axis=1)
                    moved += base.size // frames
                lam = combine_u_llr(base[:half].T, base[half:].T, v.T).T
            bel[start] = lam
            if not fresh[start]:
                fresh[start] = True
                written.append(start)
        else:
            lam = bel[0]
        for lvl in levels:
            h = 1 << (m - lvl)
            lam = combine_v_llr(lam[:h].T, lam[h:].T).T
            bel[lvl] = lam
            if not fresh[lvl]:
                fresh[lvl] = True
                written.append(lvl)

        rows = None  # parent row of each survivor, where rows may move
        if info and list_size == 1:
            # recorded as lam + 0.0, so that a -0.0 belief reads +0.0: its
            # sign bit is the decided bit, the tie going to bit 0
            leaf = leaf_llr[j : j + 1]
            np.add(lam, 0.0, out=leaf)
            select += 2
            if truth is None:
                np.copysign(1.0, leaf, out=sym[n - 1 - j : n - j])
            else:
                sym[n - 1 - j] = truth[j]
        elif info:
            pool = extend_leaf(cost, lam.reshape(live, frames), flips)
            select += len(pool)
            # the survivors' flat pool entries
            flat = select_top(pool, list_size)
            if frames > 1:
                flat *= frames
                flat += cols[: len(flat)]
            cost = pool.take(flat)
            flat = flat.ravel()
            rows = row_of.take(flat)
            np.negative(signs.take(flat), out=syms[n - 1 - j, : flat.size])
        else:
            select += live * width
            if width == 1:
                # one frozen leaf: its belief is the node's
                if leaf_llr is not None:
                    leaf_llr[j] = lam[0]
                if include:
                    cost += np.logaddexp(0.0, -lam).reshape(live, frames)
                    parent = cost.argsort(axis=0, kind="stable")
            else:
                leaves = _frozen_leaf_beliefs(lam, m - node).reshape(width, live, frames)
                if leaf_llr is not None:
                    leaf_llr[j : j + width] = leaves[:, 0]
                if include:
                    # the cost after each leaf, (c1 + cost) + c2 + ... in
                    # leaf order for leaf costs c = -log_expit(leaf),
                    # rounded as one extension per leaf rounds it
                    run = np.logaddexp(0.0, -leaves)
                    run[0] += cost
                    run = np.add.accumulate(run, axis=0)
                    cost = run[-1]
                    # one stable sort per leaf, composed: the last leaf's
                    # cost ranks first, earlier leaves break its ties
                    parent = np.lexsort(run, axis=0)
            if include:
                # re-rank by parent rank: a lone row keeps its place, and the
                # fork below skips it
                if frames > 1:
                    parent *= frames
                    parent += cols[:live]
                cost = cost.take(parent)
                rows = parent.ravel()
            # with 'ignore' the costs, ranked already, do not change
            # every frozen leaf decides +1
            sym[n - j - width : n - j] = 1.0

        if rows is not None:
            survivors = len(cost)
            if survivors != live or not unmoved.startswith(rows.tobytes()):
                # a lazy fork: survivor r reads what its parent row read.  The
                # fresh maps are identity, and identity composed with the
                # parent rows is the parent rows themselves
                maps = maps.take(rows, axis=1)
                for s in written:
                    maps[s] = rows
                    fresh[s] = False
                written.clear()
            if survivors != live:
                live = survivors
                sym = syms[:, : live * frames]
                flips = signs[: 2 * live]

        # fold the decided symbols back up the completed subtrees: each
        # node's upper half becomes the product of its halves
        low = n - j - width
        for d in range(node, stop, -1):
            size = 1 << (m - d)
            upper = sym[low + size : low + 2 * size]
            if fresh[m + d]:
                upper *= sym[low : low + size]
            else:
                moved += size * live
                np.multiply(upper.take(maps[m + d], axis=1), sym[low : low + size], out=upper)
        if stop and not fresh[m + stop]:
            fresh[m + stop] = True
            written.append(m + stop)

    # not -cost: a metric summed from +0.0 is never -0.0
    metrics = None if cost is None else 0.0 - cost
    return syms, metrics, live, OpCounter(kernel, select, moved), leaf_llr
