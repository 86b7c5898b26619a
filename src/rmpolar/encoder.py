"""Recursive encoder for bit-frozen subcodes.

A coefficient vector a (indexed by path index) maps to the codeword by m
butterfly stages of (c0, c0 + c1) combinations, one stage per variable, for
n/2 XORs per stage.

The stages run on one Python integer holding the whole block, packed
little-endian (element i of the flattened array is bit i), where the stage of
half-width h is one masked shift and XOR: the bit-sliced binary Moebius
transform (Joux, *Algorithmic Cryptanalysis*, 2009).  A block whose packed
size is above _MASK_BYTES (128 KiB) is transformed in row chunks of at most
that size, so the masks kept between calls, at most m of them, one per h,
are each at most _MASK_BYTES long: 1.25 MB in all at m=10, whatever the
block.  Only a single word above that size (m > 20) needs longer masks,
which are built for the call and not kept.
"""

from __future__ import annotations

import numpy as np

__all__ = ["encode", "random_info_bits", "info_bits_to_int"]


def _as_bit_matrix(bits, width, what):
    arr = np.asarray(bits, dtype=np.uint8)
    squeeze = arr.ndim == 1
    if squeeze:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != width:
        raise ValueError(f"{what} must have {width} entries per word, got shape {arr.shape}")
    if arr.size and arr.max() > 1:
        raise ValueError(f"{what} must be 0/1 valued")
    return arr, squeeze


def encode(spec, info_bits, counter=None):
    """Encode information bits under `spec`.

    Parameters
    ----------
    spec : CodeSpec
    info_bits : array_like
        Bits for the information paths in processing order, shape (N,) or
        (batch, N).  Paths outside the information set implicitly carry 0.
    counter : OpCounter, optional
        When given, its `kernel` field grows by n/2 per stage, once per call
        whatever the batch: the per-frame unit that OpCounter documents.

    Returns
    -------
    uint8 codeword array, shape (n,) or (batch, n) matching the input.
    """
    n = spec.n
    words, squeeze = _as_bit_matrix(info_bits, spec.dimension, "info_bits")
    coeff = np.zeros((words.shape[0], n), dtype=np.uint8)
    coeff[:, spec.info_indices[::-1]] = words
    code = _plotkin_transform(coeff, counter)
    return code[0] if squeeze else code


def info_bits_of(spec, codewords):
    """Information bits of codewords of `spec`: the inverse of :func:`encode`.

    The butterfly is its own inverse over GF(2), so it maps a codeword back
    to its coefficients; shape (n,) gives (N,), (batch, n) gives (batch, N).
    """
    coeff = _plotkin_transform(np.asarray(codewords, dtype=np.uint8))
    return coeff[..., spec.info_indices[::-1]]


# h -> (bytes, mask): bit i of mask is set where i & h == 0, for i < 8 * bytes
_MASKS = {}

# The most bytes that one kept mask, and so one packed row chunk, may take.
_MASK_BYTES = 1 << 17


def _low_mask(h, nbytes):
    """A mask of period 2h, bit i set where i & h == 0, at least `nbytes` long.

    The one kept for h grows only when a larger block arrives, up to
    _MASK_BYTES; a longer mask serves a shorter block, since `x & mask`
    costs only the shorter operand.  A longer one is built but not kept.
    """
    entry = _MASKS.get(h)
    if entry is None or entry[0] < nbytes:
        if h < 8:
            unit = bytes(((0x55, 0x33, 0x0F)[h.bit_length() - 1],))
        else:
            unit = b"\xff" * (h >> 3) + b"\x00" * (h >> 3)
        entry = (nbytes, int.from_bytes((unit * -(-nbytes // len(unit)))[:nbytes], "little"))
        if nbytes <= _MASK_BYTES:
            _MASKS[h] = entry
    return entry[1]


def _plotkin_transform(coeff, counter=None):
    """Apply the m-stage (c0, c0 + c1) butterfly along the last axis.

    `coeff` is a 0/1 array of any shape (..., n); the result is a new uint8
    array of that shape.  Words are transformed in chunks of rows whose
    packed size is at most _MASK_BYTES, by :func:`_butterfly`; below 8
    positions a chunk is 8 * _MASK_BYTES positions, a whole number of bytes.
    """
    n = coeff.shape[-1]
    if counter is not None:
        counter.kernel += (n >> 1) * (n.bit_length() - 1)
    rows = max(1, (_MASK_BYTES << 3) // n)
    if coeff.size <= rows * n:
        return _butterfly(coeff, n)
    flat = coeff.reshape(-1, n)
    out = np.empty(flat.shape, dtype=np.uint8)
    for start in range(0, len(flat), rows):
        out[start : start + rows] = _butterfly(flat[start : start + rows], n)
    return out.reshape(coeff.shape)


def _butterfly(coeff, n):
    """The butterfly of a block of n-bit words, as one integer.  The block
    is packed little-endian into one integer x, and the stage of half-width
    h = 1, 2, ..., n/2 is ``x ^= (x & low_h) << h`` with low_h from
    :func:`_low_mask`: the shift moves each c0 bit onto its c1 partner h
    places up, inside the same block of 2h bits, so no bit crosses into the
    next word of the block."""
    packed = np.packbits(coeff, axis=None, bitorder="little")
    nbytes = packed.size
    x = int.from_bytes(packed.tobytes(), "little")
    h = 1
    while h < n:
        x ^= (x & _low_mask(h, nbytes)) << h
        h <<= 1
    packed = np.frombuffer(x.to_bytes(nbytes, "little"), np.uint8)
    return np.unpackbits(packed, count=coeff.size, bitorder="little").reshape(coeff.shape)


def random_info_bits(spec, rng, size=None):
    """Draw uniform information words; shape (N,) or (size, N)."""
    if size is None:
        return rng.integers(0, 2, size=spec.dimension, dtype=np.uint8)
    return rng.integers(0, 2, size=(size, spec.dimension), dtype=np.uint8)


def info_bits_to_int(bits):
    """Read an information word as an integer, first processed bit first."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.size % 8)
