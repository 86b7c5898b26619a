"""Brute-force maximum-likelihood decoding for small codes.

Enumerates all 2**N codewords and scores each against the received beliefs.
Intended as a test oracle; the enumeration is refused above N = 20.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .encoder import encode
from .list_decoder import METRIC_TIE_EPS, _one_frame, log_expit

__all__ = ["MAX_ENUM_BITS", "MLResult", "ml_decode"]

MAX_ENUM_BITS = 20

# Codebooks are kept for reuse up to this many bytes in total, the least
# recently used dropped first; one codebook at MAX_ENUM_BITS can take
# hundreds of megabytes, so a bound by count would not bound memory.  A
# codebook larger than the bound is returned but not kept.
CODEBOOK_CACHE_BYTES = 1 << 28

_codebooks = OrderedDict()  # spec -> (words, codewords), oldest use first


@dataclass
class MLResult:
    """Maximum-likelihood decision with its log-likelihood."""

    info_bits: np.ndarray
    codeword: np.ndarray
    loglik: float


def _codebook(spec):
    """(2**N, N) information words and their (2**N, n) codewords, read-only."""
    book = _codebooks.get(spec)
    if book is not None:
        _codebooks.move_to_end(spec)
        return book
    nbits = spec.dimension
    if nbits > MAX_ENUM_BITS:
        raise ValueError(
            f"refusing to enumerate 2**{nbits} codewords (limit 2**{MAX_ENUM_BITS})"
        )
    count = 1 << nbits
    if nbits:
        shifts = np.arange(nbits - 1, -1, -1)
        words = ((np.arange(count)[:, None] >> shifts) & 1).astype(np.uint8)
    else:
        words = np.zeros((1, 0), dtype=np.uint8)
    book = (words, encode(spec, words))
    for array in book:
        array.setflags(write=False)
    _codebooks[spec] = book
    while sum(w.nbytes + c.nbytes for w, c in _codebooks.values()) > CODEBOOK_CACHE_BYTES:
        _codebooks.popitem(last=False)
    return book


def likelihood_table(spec, beliefs):
    """Log-likelihood of every codeword, indexed by information-word integer:
    the sum over positions of ln q where the codeword bit is 0, else
    ln(1 - q), for one frame of beliefs."""
    llr = _one_frame(spec, beliefs)[0]
    _, codewords = _codebook(spec)
    logq = log_expit(llr)
    log1mq = log_expit(-llr)
    return logq.sum() + codewords.astype(np.float64) @ (log1mq - logq)


def ml_decode(spec, beliefs):
    """Exhaustive maximum-likelihood decision.

    Likelihood ties within METRIC_TIE_EPS go to the smaller information-word
    integer.
    """
    table = likelihood_table(spec, beliefs)
    words, codewords = _codebook(spec)
    top = float(table.max())
    winner = int(np.nonzero(table >= top - METRIC_TIE_EPS)[0][0])
    return MLResult(
        info_bits=words[winner].copy(),
        codeword=codewords[winner].copy(),
        loglik=float(table[winner]),
    )
