"""Recursive encoder for bit-frozen subcodes.

A coefficient vector a (indexed by path index) maps to the codeword by m
butterfly stages of (c0, c0 + c1) combinations, one stage per variable, for
n/2 XORs per stage.
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


def _plotkin_transform(coeff, counter=None):
    """Apply the m-stage (c0, c0 + c1) butterfly along the last axis."""
    n = coeff.shape[-1]
    m = n.bit_length() - 1
    out = coeff.copy()
    lead = out.shape[:-1]
    for level in range(1, m + 1):
        step = 1 << (m - level + 1)
        half = step >> 1
        view = out.reshape(lead + (n // step, step))
        view[..., half:] ^= view[..., :half]
        if counter is not None:
            counter.kernel += n >> 1
    return out


def random_info_bits(spec, rng, size=None):
    """Draw uniform information words; shape (N,) or (size, N)."""
    if size is None:
        return rng.integers(0, 2, size=spec.dimension, dtype=np.uint8)
    return rng.integers(0, 2, size=(size, spec.dimension), dtype=np.uint8)


def info_bits_to_int(bits):
    """Read an information word as an integer, first processed bit first."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.size % 8)
