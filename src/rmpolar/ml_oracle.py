"""Brute-force maximum-likelihood decoding for small codes.

Enumerates all 2**N codewords and scores each against the received beliefs.
Intended as a test oracle that keeps nothing between calls: each call
enumerates once, and a code is refused above N = 20 or where list_decode
refuses the full list L = 2**N, before anything is built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import encode
from .list_decoder import METRIC_TIE_EPS, _one_frame, check_list_size, log_expit

__all__ = ["MAX_ENUM_BITS", "MLResult", "ml_decode"]

MAX_ENUM_BITS = 20


@dataclass
class MLResult:
    """Maximum-likelihood decision with its log-likelihood."""

    info_bits: np.ndarray
    codeword: np.ndarray
    loglik: float


def _codebook(spec):
    """(2**N, N) information words and their (2**N, n) codewords, refused
    before either is built above N = MAX_ENUM_BITS or where list_decode
    refuses the list L = 2**N."""
    nbits = spec.dimension
    if nbits > MAX_ENUM_BITS:
        raise ValueError(f"refusing to enumerate 2**{nbits} codewords (limit 2**{MAX_ENUM_BITS})")
    try:
        check_list_size(spec.m, nbits, 1 << nbits)
    except ValueError:
        raise ValueError(f"refusing to enumerate 2**{nbits} codewords of length {spec.n} (too many to hold)") from None
    shifts = np.arange(nbits - 1, -1, -1)  # empty at N = 0: one empty word
    words = ((np.arange(1 << nbits)[:, None] >> shifts) & 1).astype(np.uint8)
    return words, encode(spec, words)


def _scored_codebook(spec, beliefs):
    """The words and codewords of _codebook, and the log-likelihood of each
    codeword for one frame of beliefs, which are checked first."""
    llr = _one_frame(spec, beliefs)[0]
    words, codewords = _codebook(spec)
    logq = log_expit(llr)
    log1mq = log_expit(-llr)
    return words, codewords, logq.sum() + codewords.astype(np.float64) @ (log1mq - logq)


def likelihood_table(spec, beliefs):
    """Log-likelihood of every codeword, indexed by information-word integer:
    the sum over positions of ln q where the codeword bit is 0, else
    ln(1 - q), for one frame of beliefs."""
    return _scored_codebook(spec, beliefs)[2]


def ml_decode(spec, beliefs):
    """Exhaustive maximum-likelihood decision.

    Likelihood ties within METRIC_TIE_EPS go to the smaller information-word
    integer.
    """
    words, codewords, table = _scored_codebook(spec, beliefs)
    top = float(table.max())
    winner = int(np.nonzero(table >= top - METRIC_TIE_EPS)[0][0])
    # copies, so that the result does not keep the whole codebook alive
    return MLResult(
        info_bits=words[winner].copy(),
        codeword=codewords[winner].copy(),
        loglik=float(table[winner]),
    )
