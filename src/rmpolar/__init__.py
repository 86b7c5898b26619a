"""Recursive binary codes: construction, encoding, SC/list decoding, simulation.

The code family lives on a depth-m binary recursion tree; a code is a frozen
set over the 2**m leaf paths.  See the README for conventions (processing
order, belief domains) and the demos directory for worked tours.
"""

from .channel import (
    LLR_CLAMP,
    Channel,
    SoftVector,
    modulate,
    parse_channel,
    posteriors,
    transmit,
)
from .code_model import (
    CodeSpec,
    Path,
    bec_erasure_parameters,
    freeze_bec,
    freeze_montecarlo,
    freeze_rm,
    load_frozen_set,
    monomial_codeword,
    rm_dimension,
    save_frozen_set,
)
from .encoder import encode, encode_reference, info_bits_to_int, random_info_bits
from .list_decoder import (
    METRIC_TIE_EPS,
    Candidate,
    ListResult,
    extend_leaf,
    list_decode,
    select_top,
)
from .ml_oracle import MAX_ENUM_BITS, MLResult, codeword_loglik, likelihood_table, ml_decode
from .sc_decoder import (
    DecodeResult,
    GenieResult,
    OpCounter,
    combine_u,
    combine_u_llr,
    combine_v,
    combine_v_llr,
    genie_error_counts,
    sc_decode,
    sc_decode_batch,
    sc_decode_genie,
)
from .sim import (
    CSV_HEADER,
    ComplexityReport,
    TrialResult,
    complexity_probe,
    run_simulation,
    write_csv,
)

__version__ = "0.1.0"

__all__ = [
    "LLR_CLAMP",
    "METRIC_TIE_EPS",
    "CSV_HEADER",
    "Channel",
    "SoftVector",
    "Path",
    "CodeSpec",
    "Candidate",
    "ListResult",
    "DecodeResult",
    "GenieResult",
    "MAX_ENUM_BITS",
    "MLResult",
    "OpCounter",
    "TrialResult",
    "ComplexityReport",
    "rm_dimension",
    "monomial_codeword",
    "bec_erasure_parameters",
    "freeze_rm",
    "freeze_bec",
    "freeze_montecarlo",
    "save_frozen_set",
    "load_frozen_set",
    "encode",
    "encode_reference",
    "random_info_bits",
    "info_bits_to_int",
    "modulate",
    "transmit",
    "posteriors",
    "parse_channel",
    "combine_v",
    "combine_u",
    "combine_v_llr",
    "combine_u_llr",
    "sc_decode",
    "sc_decode_batch",
    "sc_decode_genie",
    "genie_error_counts",
    "extend_leaf",
    "select_top",
    "list_decode",
    "codeword_loglik",
    "likelihood_table",
    "ml_decode",
    "run_simulation",
    "write_csv",
    "complexity_probe",
]
