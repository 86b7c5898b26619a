"""Successive-cancellation decoding: the list decoder at list size 1.

sc_decode, genie_error_counts, DecodeResult, the kernels combine_v_llr and
combine_u_llr and the work tally OpCounter are defined beside the decoder
core in rmpolar.list_decoder (see its "At L = 1" paragraph); this module
exports them as its own names, the same objects.
"""

from .list_decoder import DecodeResult, OpCounter, combine_u_llr, combine_v_llr, genie_error_counts, sc_decode

__all__ = ["OpCounter", "combine_v_llr", "combine_u_llr", "DecodeResult", "sc_decode", "genie_error_counts"]
