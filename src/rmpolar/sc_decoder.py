"""Successive-cancellation decoding.

The decoder walks the recursion tree depth first.  At a node of block length
2h it first forms the beliefs of the i=1 child from the product rule
(combine_v), recurses, then forms the beliefs of the i=0 child from the
likelihood update (combine_u) given the decided child symbols, recurses again,
and returns the symbol block (u, u*v).  Frozen leaves emit bit 0; information
leaves take the sign of the leaf belief, with the tie going to bit 0.

Decisions enter the recursion as data, never as control flow, so any number
of independent trials can ride through the same pass as rows of a matrix.
The public single-frame functions are the batch-of-1 case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .channel import LLR_CLAMP, SoftVector

__all__ = [
    "OpCounter",
    "combine_v",
    "combine_u",
    "combine_v_llr",
    "combine_u_llr",
    "DecodeResult",
    "GenieResult",
    "sc_decode",
    "sc_decode_batch",
    "sc_decode_genie",
    "genie_error_counts",
]


@dataclass
class OpCounter:
    """Running totals of decoder work, in per-frame units.

    kernel counts one combine_v or combine_u evaluation per vector element;
    select counts candidate-pool entries examined during leaf extension and
    survivor selection (zero for plain successive cancellation).
    """

    kernel: int = 0
    select: int = 0


def combine_v(g0, g1):
    """Offset-domain belief of the i=1 child: the product g0 * g1.

    Degrading: |result| <= min(|g0|, |g1|).
    """
    return np.multiply(g0, g1)


def combine_u(h0, h1, v):
    """Likelihood-ratio belief of the i=0 child: h0 * h1**v.

    `v` holds the decided +-1 symbols of the i=1 child.  A zero ratio on the
    inverted side saturates at the clamp scale instead of dividing by zero.
    """
    h0 = np.asarray(h0, dtype=np.float64)
    h1 = np.asarray(h1, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    floor = np.exp(-LLR_CLAMP)
    h1 = np.maximum(h1, floor)
    return np.where(v > 0, h0 * h1, h0 / h1)


# Signs of l1 in the two correction terms of combine_v_llr: l0 + l1, l0 - l1.
_CORRECTION_SIGNS = np.array([1.0, -1.0])


def combine_v_llr(l0, l1):
    """LLR form of combine_v: 2*atanh(tanh(l0/2) * tanh(l1/2)).

    Evaluated in the exact min-sum-with-correction form, which is stable for
    any finite inputs and keeps zeros exact:
    sign(l0*l1) * min(|l0|, |l1|) + log1p(exp(-|l0 + l1|)) - log1p(exp(-|l0 - l1|)).
    `l0` must broadcast to the shape of `l1`.
    """
    out = np.copysign(np.minimum(np.abs(l0), np.abs(l1)), l0 * l1)
    # both correction terms as the rows of one block, computed in place
    corr = np.multiply.outer(_CORRECTION_SIGNS, l1)
    corr += l0
    np.abs(corr, out=corr)
    np.negative(corr, out=corr)
    np.exp(corr, out=corr)
    np.log1p(corr, out=corr)
    out += corr[0]
    out -= corr[1]
    return out


def combine_u_llr(l0, l1, v):
    """LLR form of combine_u: l0 + v * l1 for decided symbols v."""
    return l0 + v * l1


@dataclass
class DecodeResult:
    """Outcome of one successive-cancellation pass.

    info_bits : decided information bits in processing order, shape (N,).
    codeword  : the re-encoded decision, shape (n,).
    leaf_posteriors : posterior of bit 0 at each information leaf, shape (N,).
    op_count  : kernel evaluations spent.
    """

    info_bits: np.ndarray
    codeword: np.ndarray
    leaf_posteriors: np.ndarray
    op_count: int


@dataclass
class GenieResult:
    """Outcome of one genie-aided pass (decisions corrected to the truth).

    indicators : per-leaf first-error flags in processing order, shape (n,);
                 True where the raw decision disagreed with the truth.
    posteriors : posterior of bit 0 at every leaf, shape (n,).
    """

    indicators: np.ndarray
    posteriors: np.ndarray


def _check_llr_block(spec, llr):
    llr = np.asarray(llr, dtype=np.float64)
    if llr.ndim == 1:
        llr = llr[None, :]
    if llr.ndim != 2 or llr.shape[1] != spec.n:
        raise ValueError(f"beliefs must have {spec.n} positions, got shape {llr.shape}")
    if not np.isfinite(llr).all():
        raise ValueError("beliefs must be finite (no NaN or infinity)")
    return llr


def _engine(spec, llr, truth_syms=None, counter=None):
    """Shared depth-first pass over a (trials, n) belief matrix.

    Returns (bits, posteriors, codeword_symbols), each (trials, n), where
    bits are the raw per-leaf decisions in processing order.  When
    truth_syms is given the recursion propagates those symbols instead of
    the decisions (the genie mode).
    """
    info_by_leaf = spec.info_mask_by_leaf
    trials, n = llr.shape
    bits = np.zeros((trials, n), dtype=np.uint8)
    post = np.empty((trials, n), dtype=np.float64)
    cursor = [0]

    def walk(lam):
        width = lam.shape[1]
        if width == 1:
            s = cursor[0]
            cursor[0] += 1
            flat = lam[:, 0]
            post[:, s] = expit(flat)
            if info_by_leaf[s]:
                bits[:, s] = flat < 0.0
            if truth_syms is not None:
                return truth_syms[:, s : s + 1]
            return 1.0 - 2.0 * bits[:, s : s + 1].astype(np.float64)
        h = width // 2
        l0 = lam[:, :h]
        l1 = lam[:, h:]
        if counter is not None:
            counter.kernel += h
        v = walk(combine_v_llr(l0, l1))
        if counter is not None:
            counter.kernel += h
        u = walk(combine_u_llr(l0, l1, v))
        return np.concatenate([u, u * v], axis=1)

    code_syms = walk(llr)
    return bits, post, code_syms


def sc_decode(spec, beliefs):
    """Decode one frame of channel beliefs under `spec`.

    Parameters
    ----------
    spec : CodeSpec
    beliefs : SoftVector of length spec.n.

    Returns
    -------
    DecodeResult; the codeword field always equals the re-encoding of the
    decided information bits.
    """
    if isinstance(beliefs, SoftVector):
        llr = beliefs.llr
    else:
        llr = np.asarray(beliefs, dtype=np.float64)
    llr = _check_llr_block(spec, llr)
    counter = OpCounter()
    bits, post, code_syms = _engine(spec, llr, counter=counter)
    info = spec.info_mask_by_leaf
    codeword = (code_syms[0] < 0.0).astype(np.uint8)
    return DecodeResult(
        info_bits=bits[0, info].copy(),
        codeword=codeword,
        leaf_posteriors=post[0, info].copy(),
        op_count=counter.kernel,
    )


def sc_decode_batch(spec, llr_matrix, counter=None):
    """Decode many independent frames in one pass.

    llr_matrix has shape (trials, n).  Returns (info_bits, codewords) with
    shapes (trials, N) and (trials, n).  Bit-identical to per-frame
    :func:`sc_decode`.
    """
    llr = _check_llr_block(spec, llr_matrix)
    bits, _, code_syms = _engine(spec, llr, counter=counter)
    info = spec.info_mask_by_leaf
    return bits[:, info].copy(), (code_syms < 0.0).astype(np.uint8)


def _truth_symbols_by_leaf(spec, info_bits):
    """Map information words to per-leaf truth symbols, (trials, n)."""
    words = np.asarray(info_bits, dtype=np.uint8)
    if words.ndim == 1:
        words = words[None, :]
    if words.shape[1] != spec.dimension:
        raise ValueError(
            f"truth needs {spec.dimension} information bits per word, got shape {words.shape}"
        )
    coeff = np.zeros((words.shape[0], spec.n), dtype=np.uint8)
    if spec.dimension:
        coeff[:, [p.index for p in spec.info_set]] = words
    # leaf step s handles path index n-1-s
    return 1.0 - 2.0 * coeff[:, ::-1].astype(np.float64)


def sc_decode_genie(spec, beliefs, truth_bits):
    """Genie-aided pass: every decision is corrected to the truth.

    `truth_bits` holds the transmitted information word in processing order.
    The raw decision at each leaf is recorded before the correction, so each
    indicator flags a first error at that leaf.  Frozen leaves are forced and
    never flagged.
    """
    if isinstance(beliefs, SoftVector):
        llr = beliefs.llr
    else:
        llr = np.asarray(beliefs, dtype=np.float64)
    llr = _check_llr_block(spec, llr)
    truth_syms = _truth_symbols_by_leaf(spec, truth_bits)
    bits, post, _ = _engine(spec, llr, truth_syms=truth_syms)
    truth_leaf_bits = (truth_syms < 0.0).astype(np.uint8)
    indicators = (bits != truth_leaf_bits)[0] & spec.info_mask_by_leaf
    return GenieResult(indicators=indicators, posteriors=post[0].copy())


def genie_error_counts(spec, llr_matrix, info_bits):
    """Per-leaf raw-decision error totals over a batch of genie passes.

    llr_matrix is (trials, n), info_bits is (trials, N).  Returns an int64
    array of length n in processing order.  Used by the Monte-Carlo
    construction.
    """
    llr = _check_llr_block(spec, llr_matrix)
    truth_syms = _truth_symbols_by_leaf(spec, info_bits)
    bits, _, _ = _engine(spec, llr, truth_syms=truth_syms)
    truth_leaf_bits = (truth_syms < 0.0).astype(np.uint8)
    wrong = (bits != truth_leaf_bits) & spec.info_mask_by_leaf[None, :]
    return wrong.sum(axis=0, dtype=np.int64)
