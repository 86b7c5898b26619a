"""Channel models, modulation, and soft-belief containers.

Belief convention: q is the posterior probability that a position carries the
+1 symbol, i.e. bit 0.  Derived views are the offset g = 2q - 1 (the expected
symbol), the likelihood ratio h = q / (1 - q), and the log ratio
llr = ln(h), clamped to +-LLR_CLAMP.  LLR is the canonical stored domain; the
other views are computed on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LLR_CLAMP",
    "Channel",
    "SoftVector",
    "modulate",
    "transmit",
    "posteriors",
    "parse_channel",
]

LLR_CLAMP = 40.0

_KINDS = ("bsc", "bec", "awgn")


@dataclass(frozen=True)
class Channel:
    """A memoryless binary-input channel.

    kind is one of 'bsc' (param = crossover probability), 'bec' (param =
    erasure probability), 'awgn' (param = noise standard deviation for
    unit-energy +-1 symbols).
    """

    kind: str
    param: float

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}, expected one of {_KINDS}")
        if not math.isfinite(self.param):
            raise ValueError(f"{self.kind} parameter must be finite, got {self.param}")
        if self.kind in ("bsc", "bec"):
            if not 0.0 <= self.param <= 1.0:
                raise ValueError(f"{self.kind} parameter must lie in [0, 1], got {self.param}")
            if self.kind == "bsc" and self.param >= 0.5:
                raise ValueError(f"bsc crossover must be < 0.5, got {self.param}")
        else:
            if self.param <= 0.0:
                raise ValueError(f"awgn sigma must be positive, got {self.param}")

    @classmethod
    def bsc(cls, p):
        return cls("bsc", float(p))

    @classmethod
    def bec(cls, eps):
        return cls("bec", float(eps))

    @classmethod
    def awgn(cls, sigma):
        return cls("awgn", float(sigma))


def modulate(codeword):
    """Map bits to antipodal symbols, bit b -> (-1)**b, as float64."""
    return np.subtract(1.0, np.multiply(2.0, codeword, dtype=np.float64))


def transmit(channel, symbols, rng):
    """Pass +-1 symbols through `channel` using the generator `rng`.

    BSC flips the sign of each symbol with probability p.  BEC replaces a
    symbol by 0.0 (the erasure mark) with probability eps.  AWGN adds
    N(0, sigma**2) noise.  Shapes are preserved.
    """
    symbols = np.asarray(symbols, dtype=np.float64)
    if channel.kind == "bsc":
        flips = rng.random(symbols.shape) < channel.param
        return np.where(flips, -symbols, symbols)
    if channel.kind == "bec":
        erased = rng.random(symbols.shape) < channel.param
        return np.where(erased, 0.0, symbols)
    return symbols + rng.normal(0.0, channel.param, size=symbols.shape)


def posteriors(channel, observed):
    """Per-position posterior beliefs for channel outputs `observed`.

    Returns a SoftVector for 1-d input; for a batch (trials, n) returns the
    raw clamped LLR matrix (positive favors bit 0).
    """
    y = np.asarray(observed, dtype=np.float64)
    if channel.kind == "bsc":
        p = channel.param
        if p == 0.0:
            mag = LLR_CLAMP
        else:
            mag = min(np.log((1.0 - p) / p), LLR_CLAMP)
        llr = np.sign(y) * mag
    elif channel.kind == "bec":
        llr = np.sign(y) * LLR_CLAMP
    else:
        llr = 2.0 * y / (channel.param ** 2)
    llr = _clamped(llr)
    if llr.ndim == 1:
        # fresh and clamped already: adopted, not copied and clamped again
        return SoftVector._adopt(llr)
    return llr


def _clamped(llr):
    """`llr` clamped to +-LLR_CLAMP as np.clip clamps it (NaN stays NaN, -0.0
    stays -0.0), without np.clip's Python-level wrapper.  An array `llr` is
    clamped in place, so callers pass one they own; a numpy scalar (from 0-d
    input) gives a new scalar."""
    out = llr if isinstance(llr, np.ndarray) else None
    return np.minimum(np.maximum(llr, -LLR_CLAMP, out=out), LLR_CLAMP, out=out)


def _check_frame(llr):
    """Raise ValueError unless `llr` is a non-empty 1-d array of finite values."""
    if llr.ndim != 1 or llr.size == 0:
        raise ValueError(f"beliefs must be a non-empty 1-d array, got shape {llr.shape}")
    if not np.isfinite(llr).all():
        raise ValueError("beliefs must be finite (no NaN or infinity)")


class SoftVector:
    """One frame of per-position beliefs, stored as read-only LLRs clipped
    to +-LLR_CLAMP; the q, g and h views are computed on demand."""

    __slots__ = ("llr",)

    def __init__(self, llr):
        arr = np.array(llr, dtype=np.float64)
        _check_frame(arr)
        _clamped(arr)
        arr.setflags(write=False)
        self.llr = arr

    @classmethod
    def _adopt(cls, llr):
        """A SoftVector holding `llr` itself: a float64 array that the caller
        made, clamped to +-LLR_CLAMP, and hands over.  It is checked as the
        constructor checks it and made read-only, but neither copied nor
        clamped again."""
        _check_frame(llr)
        llr.setflags(write=False)
        vec = object.__new__(cls)
        vec.llr = llr
        return vec

    @classmethod
    def from_q(cls, q):
        """Build from posterior probabilities of bit 0; q in [0, 1]."""
        q = np.asarray(q, dtype=np.float64)
        if np.any((q < 0.0) | (q > 1.0)):
            raise ValueError("q values must lie in [0, 1]")
        with np.errstate(divide="ignore"):
            llr = np.log(q) - np.log1p(-q)
        return cls._adopt(_clamped(llr))

    @classmethod
    def from_llr(cls, llr):
        return cls(llr)

    @property
    def q(self):
        """Posterior probability of the +1 symbol (bit 0)."""
        from scipy.special import expit

        return expit(self.llr)

    @property
    def g(self):
        """Offset view 2q - 1, the conditional expectation of the symbol."""
        return np.tanh(self.llr / 2.0)

    @property
    def h(self):
        """Likelihood-ratio view q / (1 - q)."""
        return np.exp(self.llr)

    def __len__(self):
        return self.llr.size

    def __repr__(self):
        return f"SoftVector(len={self.llr.size})"


def parse_channel(text, rate=None):
    """Parse a CLI channel token: 'bsc:0.1', 'bec:0.3', or 'awgn:2.0dB'.

    The awgn form gives Eb/N0 in dB and needs the code rate to fix sigma
    through sigma = (2 * rate * 10**(EbN0/10))**-0.5.

    Returns (Channel, display_param) where display_param is the number as
    written (the dB value for awgn).
    """
    text = text.strip()
    if ":" not in text:
        raise ValueError(f"channel token {text!r} must look like kind:param")
    kind, _, value = text.partition(":")
    kind = kind.lower()
    if kind == "bsc":
        p = float(value)
        return Channel.bsc(p), p
    if kind == "bec":
        eps = float(value)
        return Channel.bec(eps), eps
    if kind == "awgn":
        if not value.lower().endswith("db"):
            raise ValueError(f"awgn parameter must end in 'dB', got {value!r}")
        ebn0_db = float(value[:-2])
        if rate is None:
            raise ValueError("awgn channels need the code rate to fix sigma")
        if rate <= 0.0:
            raise ValueError(f"code rate must be positive, got {rate}")
        try:
            sigma = (2.0 * rate * 10.0 ** (ebn0_db / 10.0)) ** -0.5
        except (OverflowError, ZeroDivisionError):
            sigma = math.nan
        # a non-finite Eb/N0 gives sigma nan or 0; the beliefs divide by
        # sigma**2, which must be positive and finite
        if not 0.0 < sigma * sigma < math.inf:
            raise ValueError(f"awgn Eb/N0 in {text!r} must be finite and keep sigma**2 in floating-point range")
        return Channel.awgn(sigma), ebn0_db
    raise ValueError(f"unknown channel kind {kind!r}")
