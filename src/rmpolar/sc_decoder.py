"""Successive-cancellation decoding, and the kernels every decoder shares.

Successive cancellation (SC) is the list decoder at list size 1, so the
decoders here are thin wrappers over its core, rmpolar.list_decoder._decode:
an information leaf takes the sign of its belief, the tie going to bit 0,
and the wrappers read each decision as the sign bit of the recorded leaf
belief (belief + 0.0, so -0.0 reads as bit 0) and each posterior as
1 / (1 + exp(-belief)).  sc_decode decodes one frame, list_decode(spec,
llr, 1) a block; genie_error_counts runs a block of trials as the rows of
one pass, propagating the true symbols in place of the decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _expit

__all__ = [
    "OpCounter",
    "combine_v_llr",
    "combine_u_llr",
    "DecodeResult",
    "sc_decode",
    "genie_error_counts",
]


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


def sc_decode(spec, beliefs):
    """Decode one frame of channel beliefs under `spec`.

    Parameters
    ----------
    spec : CodeSpec
    beliefs : SoftVector of length spec.n, or an array of spec.n finite LLRs.

    Returns
    -------
    DecodeResult; the codeword field always equals the re-encoding of the
    decided information bits; leaf_posteriors are computed as SoftVector.q.
    """
    from .list_decoder import _decode, _one_frame

    code_syms, _, _, counter, leaf_llr = _decode(spec, _one_frame(spec, beliefs), 1, "ignore")
    lam = leaf_llr[spec.info_mask_by_leaf, 0]
    return DecodeResult(
        info_bits=np.signbit(lam).view(np.uint8),
        codeword=(code_syms[:, 0] < 0.0).view(np.uint8),
        leaf_posteriors=_expit(lam),
        op_count=counter.kernel,
    )


def genie_error_counts(spec, llr_matrix, info_bits):
    """Per-leaf raw-decision error totals over a batch of genie passes.

    llr_matrix is (trials, n), info_bits is (trials, N), one word per row.
    Every decision is corrected to the truth, and the raw decision at each
    information leaf is recorded before the correction, so each error is a
    first error at that leaf; frozen leaves are forced and never counted.
    Returns an int64 array of length n in processing order.  Used by the
    Monte-Carlo construction.
    """
    from .list_decoder import _check_beliefs, _decode

    llr, _ = _check_beliefs(spec, llr_matrix)
    words = np.asarray(info_bits, dtype=np.uint8)
    if words.ndim != 2 or words.shape[1] != spec.dimension:
        raise ValueError(
            f"truth needs {spec.dimension} information bits per word, got shape {words.shape}"
        )
    if len(words) != len(llr):
        raise ValueError(f"truth needs one information word per frame: {len(llr)} frames, {len(words)} words")
    # the true +-1 symbol of every leaf, position-major like the leaf beliefs
    truth = np.ones((spec.n, len(words)), dtype=np.int8)
    truth[spec.info_mask_by_leaf] = np.where(words.T == 1, -1, 1)
    leaf_llr = _decode(spec, llr, 1, "ignore", truth=truth)[-1]
    wrong = (np.signbit(leaf_llr) != (truth < 0)) & spec.info_mask_by_leaf[:, None]
    return wrong.sum(axis=1, dtype=np.int64)
