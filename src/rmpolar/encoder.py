"""Recursive encoder for bit-frozen subcodes.

A coefficient vector a (indexed by path index) maps to the codeword by m
butterfly stages of (c0, c0 + c1) combinations, one stage per variable, for
n/2 XORs per stage.

The stages run on one Python integer holding the whole block, packed
little-endian (element i of the flattened array is bit i), where the stage of
half-width h is one masked shift and XOR: the bit-sliced binary Moebius
transform (Joux, *Algorithmic Cryptanalysis*, 2009).  The masks are kept
between calls: at most m of them, one per h, each the packed size of the
largest block seen so far (n * batch / 8 bytes each: about 10 KB in all for
eight m=10 frames, 1.3 MB for a 1024-frame m=10 block, 5.2 MB for the
4096-word m=10 batches of the Monte-Carlo construction).
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


def _low_mask(h, nbytes):
    """A mask of period 2h, bit i set where i & h == 0, at least `nbytes` long.

    The one kept for h grows only when a larger block arrives; a longer mask
    serves a shorter block, since `x & mask` costs only the shorter operand.
    """
    entry = _MASKS.get(h)
    if entry is None or entry[0] < nbytes:
        if h < 8:
            unit = bytes(((0x55, 0x33, 0x0F)[h.bit_length() - 1],))
        else:
            unit = b"\xff" * (h >> 3) + b"\x00" * (h >> 3)
        entry = (nbytes, int.from_bytes((unit * -(-nbytes // len(unit)))[:nbytes], "little"))
        _MASKS[h] = entry
    return entry[1]


def _plotkin_transform(coeff, counter=None):
    """Apply the m-stage (c0, c0 + c1) butterfly along the last axis.

    `coeff` is a 0/1 array of any shape (..., n); the result is a new uint8
    array of that shape.  The array is packed little-endian into one integer
    x, and the stage of half-width h = 1, 2, ..., n/2 is
    ``x ^= (x & low_h) << h`` with low_h from :func:`_low_mask`: the shift
    moves each c0 bit onto its c1 partner h places up, inside the same block
    of 2h bits, so no bit crosses into the next word of the batch.
    """
    n = coeff.shape[-1]
    packed = np.packbits(coeff, axis=None, bitorder="little")
    nbytes = packed.size
    x = int.from_bytes(packed.tobytes(), "little")
    h = 1
    while h < n:
        x ^= (x & _low_mask(h, nbytes)) << h
        h <<= 1
    if counter is not None:
        counter.kernel += (n >> 1) * (n.bit_length() - 1)
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
