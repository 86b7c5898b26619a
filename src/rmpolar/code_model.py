"""Path algebra, code specifications, and frozen-set constructions.

A code of length n = 2**m is organized by binary paths (i1, ..., im) through a
depth-m recursion tree.  Each path names one monomial x1**i1 * ... * xm**im in
m boolean variables; a code is fixed by the set T of paths that carry free
coefficients (the information set), stored as an ascending index array.
Choosing T by degree (popcount) gives the weight-rule codes, by reliability
the bit-frozen subcodes tuned to a target channel.  freeze_montecarlo
estimates that reliability with rmpolar.sc_decoder.genie_error_counts, a
pass of the decoder core of rmpolar.list_decoder, where the combine kernels
live.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .channel import modulate, posteriors, transmit
from .encoder import encode
from .sc_decoder import genie_error_counts

__all__ = [
    "Path",
    "CodeSpec",
    "rm_dimension",
    "monomial_codeword",
    "bec_erasure_parameters",
    "freeze_rm",
    "freeze_bec",
    "freeze_montecarlo",
    "save_frozen_set",
    "load_frozen_set",
]


# Largest recursion depth accepted anywhere.  One float64 belief block of
# a length-2**m frame takes 8 * 2**m bytes, 128 MiB at m=24, and a decode
# holds several; past that a run would exhaust memory, not finish.
MAX_M = 24


def check_m(m):
    """Raise ValueError unless 1 <= m <= MAX_M."""
    if not 1 <= m <= MAX_M:
        raise ValueError(f"m must lie in [1, {MAX_M}] (block length up to 2**{MAX_M}), got m={m}")


def rm_dimension(r, m):
    """Number of monomials of degree <= r in m variables: sum_{i<=r} C(m, i)."""
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    if r < 0 or r > m:
        raise ValueError(f"order r must satisfy 0 <= r <= m, got r={r}, m={m}")
    return sum(math.comb(m, i) for i in range(r + 1))


@dataclass(frozen=True)
class Path:
    """A binary tuple (i1, ..., im) naming one leaf of the recursion tree.

    The path doubles as the exponent vector of the monomial
    x1**i1 * ... * xm**im.  Bit i1 is the most significant bit of the
    integer index, so sibling leaves differ in the last bit.
    """

    bits: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if len(bits) == 0:
            raise ValueError("a path needs at least one bit")
        if any(b not in (0, 1) for b in bits):
            raise ValueError(f"path bits must be 0/1, got {self.bits!r}")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_index(cls, index, m):
        """Build the path whose integer index is `index` in an m-level tree."""
        if m < 1:
            raise ValueError(f"m must be >= 1, got {m}")
        if index < 0 or index >= (1 << m):
            raise ValueError(f"index {index} out of range for m={m}")
        return cls(tuple((index >> (m - 1 - t)) & 1 for t in range(m)))

    @property
    def m(self):
        return len(self.bits)

    @property
    def weight(self):
        """Hamming weight, i.e. the degree of the named monomial."""
        return sum(self.bits)

    @property
    def index(self):
        """Integer index sum_l i_l * 2**(m-l) with i1 most significant."""
        idx = 0
        for b in self.bits:
            idx = (idx << 1) | b
        return idx

    def __str__(self):
        return "".join(str(b) for b in self.bits)


def monomial_codeword(path):
    """Evaluate the monomial named by `path` at every point of F_2^m.

    Returns a uint8 array of length 2**m.  Position p encodes the point
    (x1, ..., xm) through p = sum_l x_l * 2**(m-l), so the first half of the
    block is the x1 = 0 half.  The result has weight 2**(m - weight(path)).
    """
    m = path.m
    check_m(m)
    n = 1 << m
    positions = np.arange(n)
    word = np.ones(n, dtype=np.uint8)
    for level, bit in enumerate(path.bits, start=1):
        if bit:
            word &= ((positions >> (m - level)) & 1).astype(np.uint8)
    return word


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """A code of length 2**m fixed by its information set.

    `info_indices` takes distinct integers in [0, 2**m) in any order and is
    stored as a read-only ascending int64 array.  Input that already
    ascends strictly is neither sorted nor searched for duplicates.  Such an
    int64 array is stored as it is when it is read-only, which marks it as
    one nobody writes to; any other input is copied, so writing to the
    caller's array never changes the spec.  Specs with equal (m,
    info_indices) are equal and hash equal.
    """

    m: int
    info_indices: np.ndarray

    def __post_init__(self):
        check_m(self.m)
        raw = np.asarray(self.info_indices)
        if raw.ndim != 1 or (raw.size and not np.issubdtype(raw.dtype, np.integer)):
            raise ValueError(f"info_indices must be 1-d integers, got {raw.dtype} of shape {raw.shape}")
        if raw.size and (raw.min() < 0 or raw.max() >= self.n):
            raise ValueError(f"info_indices must lie in [0, {self.n}) for m={self.m}")
        if not np.all(raw[1:] > raw[:-1]):
            indices = np.sort(raw).astype(np.int64, copy=False)
            if np.any(indices[1:] == indices[:-1]):
                raise ValueError("info_indices contains duplicates")
        elif raw.dtype != np.int64 or raw.flags.writeable:
            indices = raw.astype(np.int64)
        else:
            indices = raw
        indices.setflags(write=False)
        object.__setattr__(self, "info_indices", indices)

    def __eq__(self, other):
        if not isinstance(other, CodeSpec):
            return NotImplemented
        return self.m == other.m and np.array_equal(self.info_indices, other.info_indices)

    def __hash__(self):
        return hash((self.m, self.info_indices.tobytes()))

    @property
    def n(self):
        return 1 << self.m

    @property
    def dimension(self):
        return self.info_indices.size

    @property
    def info_mask(self):
        """True at each informational path index 0..n-1: a read-only view."""
        return self.info_mask_by_leaf[::-1]

    @cached_property
    def info_mask_by_leaf(self):
        """info_mask in leaf processing order: leaf s is path index n - 1 - s."""
        mask = np.zeros(self.n, dtype=bool)
        mask[self.n - 1 - self.info_indices] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def decode_plan(self):
        """The decode steps, compiled for the list decoder's step loop.

        Each information leaf is a step at level m.  A frozen leaf j lies in
        the aligned block of 2**t leaves from (j >> t) << t, which holds no
        information leaf exactly when bit t is at or below the highest bit
        where j differs from the information leaf before it, and from the
        one after it; the largest such block is one step.  The leaves are
        offset by n, so that the stand-ins n - 1 (none before) and 2n (none
        after) allow every t up to m.

        One tuple per step in processing order, (j, node, start, half,
        levels, info, width, stop, work), all Python ints but `levels` and
        `info`:

        - j, node: the step's first leaf and node level;
        - start, half: the level whose beliefs the step refreshes first, from
          its parent's through combine_u_llr at half width half = j & -j, the
          lowest set bit of j; the first step (j = 0, half = 0) starts from
          the channel beliefs at level 0 instead;
        - levels: range(start + 1, node + 1), the levels then formed by
          combine_v_llr down to the node;
        - info: True at an information leaf (a Python bool);
        - width: 2**(m - node), the leaves of the step;
        - stop: the level where the fold of the step's symbols ends, node
          minus the trailing ones of j >> (m - node): the decided symbols
          are stored there as pending i=1 symbols, or form the codeword at 0;
        - work: the kernel evaluations of the step per live hypothesis,
          2 * half - width for the refresh (n - width at j = 0), plus
          width * (m - node) in a frozen subtree.
        """
        m, n = self.m, self.n
        info = self.info_mask_by_leaf
        leaf = np.arange(n, 2 * n)
        before = np.maximum.accumulate(np.where(info, leaf, n - 1))
        after = np.minimum.accumulate(np.where(info, leaf, 2 * n)[::-1])[::-1]
        # frexp(x)[1] is the bit length of an integer x; an information leaf
        # differs from neither, and gets t = -1
        t = np.minimum(np.frexp(leaf ^ before)[1], np.frexp(leaf ^ after)[1]) - 1
        level = m - np.maximum(t, 0)
        first = np.flatnonzero((leaf & ((1 << (m - level)) - 1)) == 0)
        node = level[first]
        half = first & -first
        # half = 2**t is refreshed at level m - t: frexp(2**t) has exponent t + 1
        start = m + 1 - np.frexp(half)[1]
        start[0] = 0
        width = 1 << (m - node)
        work = 2 * half + width * (m - node - 1)
        work[0] += n
        # j + width carries through the trailing ones of j >> (m - node), so
        # the fold ends where the next step's refresh starts
        stop = np.append(start[1:], 0)
        return tuple(
            zip(
                first.tolist(),
                node.tolist(),
                start.tolist(),
                half.tolist(),
                _level_ranges(m)[start, node].tolist(),
                info[first].tolist(),
                width.tolist(),
                stop.tolist(),
                work.tolist(),
            )
        )


@cache
def _level_ranges(m):
    """range(start + 1, node + 1) at [start, node], for 0 <= start, node <= m."""
    ranges = np.empty((m + 1, m + 1), dtype=object)
    for start in range(m + 1):
        for node in range(m + 1):
            ranges[start, node] = range(start + 1, node + 1)
    return ranges


def freeze_rm(r, m):
    """Weight-rule information set: keep every path of weight <= r.

    Parameters
    ----------
    r : int
        Largest monomial degree kept free, 0 <= r <= m.
    m : int
        Number of recursion levels; block length is 2**m.

    Returns
    -------
    CodeSpec with dimension rm_dimension(r, m).
    """
    check_m(m)
    rm_dimension(r, m)  # validates r
    # popcount of every index, doubling one level at a time: index i + 2**l
    # has one more set bit than i < 2**l
    weight = np.zeros(1, dtype=np.uint8)
    for _ in range(m):
        weight = np.concatenate([weight, weight + np.uint8(1)])
    info = np.flatnonzero(weight <= r)
    info.setflags(write=False)  # ascending and unshared: CodeSpec keeps it
    return CodeSpec(m=m, info_indices=info)


def bec_erasure_parameters(m, z):
    """Erasure parameter of every depth-m leaf channel of a BEC(z).

    One recursion level maps a parent parameter z to 2z - z**2 on the i=1
    branch (the degraded product combination) and z**2 on the i=0 branch (the
    upgraded combination).  Returns an array indexed by path index.
    """
    if not 0.0 <= z <= 1.0:
        raise ValueError(f"erasure parameter must lie in [0, 1], got {z}")
    check_m(m)
    params = np.array([z], dtype=np.float64)
    for _ in range(m):
        nxt = np.empty(2 * params.size, dtype=np.float64)
        nxt[1::2] = 2.0 * params - params * params
        nxt[0::2] = params * params
        params = nxt
    return params


def freeze_bec(m, k, z):
    """Erasure-designed information set: the k most reliable leaf channels.

    Parameters
    ----------
    m : int
        Number of recursion levels.
    k : int
        Target dimension, 0 <= k <= 2**m.
    z : float
        Design erasure probability of the reference erasure channel.

    Returns
    -------
    CodeSpec holding the k paths with the smallest erasure parameter,
    ties broken toward the smaller path index.
    """
    check_m(m)
    n = 1 << m
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    params = bec_erasure_parameters(m, z)
    order = np.lexsort((np.arange(n), params))
    return CodeSpec(m=m, info_indices=order[:k])


def freeze_montecarlo(m, k, channel, trials, seed=0):
    """Information set estimated by genie-aided decoding of random frames.

    Runs `trials` transmissions of random full-rate codewords over `channel`,
    decodes each with every earlier decision corrected to the truth, and
    tallies how often the raw decision at each leaf is wrong.  The k paths
    with the lowest estimated error rate form the information set, ties broken
    toward the smaller path index.  Deterministic for a given (seed, trials).
    """
    check_m(m)
    n = 1 << m
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")

    full = CodeSpec(m=m, info_indices=np.arange(n))
    rng = np.random.default_rng(seed)
    errors = np.zeros(n, dtype=np.int64)  # by leaf step
    batch = 4096
    done = 0
    while done < trials:
        b = min(batch, trials - done)
        words = rng.integers(0, 2, size=(b, n), dtype=np.uint8)
        # the symbols and channel outputs are not kept through the decode
        llr = posteriors(channel, transmit(channel, modulate(encode(full, words)), rng))
        errors += genie_error_counts(full, llr, words)
        done += b

    rates_by_leaf = errors / float(trials)
    rates_by_index = rates_by_leaf[::-1]  # leaf step s holds index n-1-s
    order = np.lexsort((np.arange(n), rates_by_index))
    return CodeSpec(m=m, info_indices=order[:k])


# Index lines formatted per write by save_frozen_set.
_SAVE_CHUNK = 1 << 16


def save_frozen_set(spec, path):
    """Write `spec` to a frozen-set file.

    Line 1 is ``m=<m> k=<k>``; then one ascending decimal path index per line;
    newline-terminated lines, no trailing whitespace.
    """
    indices = spec.info_indices
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"m={spec.m} k={spec.dimension}\n")
        # a bounded run of lines at a time, not one string per index
        for first in range(0, len(indices), _SAVE_CHUNK):
            fh.write("\n".join(map(str, indices[first : first + _SAVE_CHUNK].tolist())) + "\n")


def _header(path, line):
    """(m, k) from a frozen-set header, which holds exactly m=<m> and k=<k>."""
    fields = {}
    # ASCII only: str.split would also cut at a latin-1 no-break space
    for part in line.split() if line.isascii() else ():
        key, _, value = part.partition("=")
        if key not in ("m", "k") or key in fields:
            break
        fields[key] = value
    else:
        # ASCII digits only, as on index lines (the line is ASCII, so
        # str.isdigit means 0-9): int() would also take a sign, '_' or spaces
        try:
            if fields["m"].isdigit() and fields["k"].isdigit():
                return int(fields["m"]), int(fields["k"])
        except (ValueError, KeyError):  # a missing key, or past int()'s digit limit
            pass
    raise ValueError(f"{path}:1: malformed header {line!a}, expected 'm=<m> k=<k>'")


# Characters of a frozen-set file parsed at a time by load_frozen_set.
_LOAD_CHUNK = 1 << 16


def load_frozen_set(path):
    """Read a frozen-set file written by :func:`save_frozen_set`.

    Every error names the file, and the line when one line is at fault.
    Index lines must be decimal integers (ASCII digits only) in [0, 2**m),
    strictly ascending; blank lines are skipped.  The file is read as
    latin-1, so that a byte above 0x7F (a UTF-8 byte order mark, say) makes
    its line malformed like any other.
    """
    with open(path, "r", encoding="latin-1") as fh:
        head = fh.readline()
        if not head:
            raise ValueError(f"{path}: empty frozen-set file")
        m, k = _header(path, head.rstrip("\n"))
        try:
            check_m(m)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if not 0 <= k <= 1 << m:
            raise ValueError(f"{path}:1: header says k={k}, outside [0, {1 << m}] for m={m}")
        info = np.empty(k, dtype=np.int64)
        count = 0
        number = 2  # of the block's first line
        previous = -1
        for block in _line_blocks(fh):
            values = _decimal_lines(block, len(str((1 << m) - 1)))
            # fall back to line by line, which names the faulty line
            if values is None or not _ascending_below(values, previous, 1 << m):
                values = _index_lines(path, number, block, m, previous)
            if len(values):
                previous = int(values[-1])
                info[count : count + len(values)] = values[: max(k - count, 0)]
                count += len(values)
            number += block.count("\n")
    if count != k:
        raise ValueError(f"{path}:1: header says k={k} but {count} index lines follow")
    info.setflags(write=False)  # ascending and unshared: CodeSpec keeps it
    return CodeSpec(m=m, info_indices=info)


def _line_blocks(fh):
    """The rest of text file `fh` in blocks of whole newline-terminated lines."""
    tail = ""
    while text := fh.read(_LOAD_CHUNK):
        block = tail + text
        cut = block.rfind("\n") + 1
        if cut:
            yield block[:cut]
        tail = block[cut:]
    if tail:
        yield tail + "\n"


def _decimal_lines(block, most_digits):
    """The int64 values of a block of newline-terminated lines, skipping
    blank ones, or None unless every other line is 1 to `most_digits`
    decimal digits."""
    if re.fullmatch(rf"(?:[0-9]{{0,{most_digits}}}\n)*", block) is None:
        return None
    # fromstring reads a block of blank lines alone as [0]
    return np.empty(0, np.int64) if block.isspace() else np.fromstring(block, dtype=np.int64, sep="\n")


def _ascending_below(values, previous, n):
    """Whether `values` ascend strictly from above `previous` to below n."""
    return not len(values) or bool(values[0] > previous and values[-1] < n and (values[1:] > values[:-1]).all())


def _index_lines(path, number, block, m, previous):
    """The indices of a block of lines from line `number`, checked line by
    line: the first faulty line raises ValueError naming it."""
    indices = []
    for number, line in enumerate(block.split("\n"), start=number):
        if not line:
            continue
        if not (line.isascii() and line.isdigit()):
            raise ValueError(f"{path}:{number}: index line {line!a} is not a decimal integer")
        index = int(line)
        if index >= 1 << m:
            raise ValueError(f"{path}:{number}: index {index} out of range for m={m}")
        if index <= previous:
            raise ValueError(f"{path}:{number}: index {index} follows {previous}, indices must strictly ascend")
        indices.append(index)
        previous = index
    return np.array(indices, dtype=np.int64)
