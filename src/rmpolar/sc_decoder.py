"""Successive-cancellation decoding.

Successive cancellation (SC) is the list decoder at list size 1, so the
decoders here are thin wrappers over its core, rmpolar.list_decoder._decode:
an information leaf takes the sign of its belief, the tie going to bit 0,
and the wrappers read each decision as the sign bit of the recorded leaf
belief (belief + 0.0, so -0.0 reads as bit 0) and each posterior as
1 / (1 + exp(-belief)).  sc_decode decodes one frame, list_decode(spec,
llr, 1) a block; genie_error_counts runs a block of trials as the rows of
one pass, propagating the true symbols in place of the decisions.

The kernels every decoder shares, combine_v_llr and combine_u_llr, and the
work tally OpCounter are defined beside that core in rmpolar.list_decoder;
this module imports them and exports them as its own names too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import _expit
from .list_decoder import OpCounter, _check_beliefs, _decode, _one_frame, combine_u_llr, combine_v_llr

__all__ = [
    "OpCounter",
    "combine_v_llr",
    "combine_u_llr",
    "DecodeResult",
    "sc_decode",
    "genie_error_counts",
]


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
