"""Recursive encoder for bit-frozen subcodes.

A coefficient vector a (indexed by path index) maps to the codeword by m
butterfly stages of (c0, c0 + c1) combinations, one stage per variable, for
n/2 XORs per stage.  encode_reference computes the same map by summing
monomial evaluations and is kept as a slow cross-check.
"""

from __future__ import annotations

import numpy as np

from .code_model import monomial_codeword

__all__ = ["encode", "encode_reference", "random_info_bits", "info_bits_to_int"]


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
        When given, its `kernel` field is advanced by n/2 per stage per word.

    Returns
    -------
    uint8 codeword array, shape (n,) or (batch, n) matching the input.
    """
    n = spec.n
    words, squeeze = _as_bit_matrix(info_bits, spec.dimension, "info_bits")
    coeff = np.zeros((words.shape[0], n), dtype=np.uint8)
    if spec.dimension:
        cols = [p.index for p in spec.info_set]
        coeff[:, cols] = words
    code = _plotkin_transform(coeff, counter)
    return code[0] if squeeze else code


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


def encode_reference(spec, info_bits):
    """Reference encoder: XOR of monomial evaluations, O(n * 2**m) per word.

    Slow on purpose; use :func:`encode` for real work.
    """
    words, squeeze = _as_bit_matrix(info_bits, spec.dimension, "info_bits")
    out = np.zeros((words.shape[0], spec.n), dtype=np.uint8)
    for col, path in enumerate(spec.info_set):
        rows = words[:, col] == 1
        if rows.any():
            out[rows] ^= monomial_codeword(path)
    return out[0] if squeeze else out


def random_info_bits(spec, rng, size=None):
    """Draw uniform information words; shape (N,) or (size, N)."""
    if size is None:
        return rng.integers(0, 2, size=spec.dimension, dtype=np.uint8)
    return rng.integers(0, 2, size=(size, spec.dimension), dtype=np.uint8)


def info_bits_to_int(bits):
    """Read an information word as an integer, first processed bit first."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    return int.from_bytes(np.packbits(bits).tobytes(), "big") >> (-bits.size % 8)
