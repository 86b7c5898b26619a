"""The public API: rmpolar exports what the CLI, the demos and users call."""

import importlib

import pytest

import rmpolar

PUBLIC = [
    "CSV_HEADER",
    "Candidate",
    "Channel",
    "CodeSpec",
    "ComplexityReport",
    "DecodeResult",
    "LLR_CLAMP",
    "ListResult",
    "MAX_ENUM_BITS",
    "METRIC_TIE_EPS",
    "MLResult",
    "OpCounter",
    "Path",
    "SoftVector",
    "TrialResult",
    "bec_erasure_parameters",
    "combine_u_llr",
    "combine_v_llr",
    "complexity_probe",
    "encode",
    "freeze_bec",
    "freeze_montecarlo",
    "freeze_rm",
    "genie_error_counts",
    "info_bits_to_int",
    "list_decode",
    "load_frozen_set",
    "ml_decode",
    "modulate",
    "monomial_codeword",
    "parse_channel",
    "posteriors",
    "random_info_bits",
    "rm_dimension",
    "run_simulation",
    "save_frozen_set",
    "sc_decode",
    "transmit",
    "write_csv",
]

# Test oracles (now in tests/helpers.py), a second single-frame genie entry
# point, the decoder core's step helpers, and the SC block entry point that
# list_decode(spec, llr, 1) replaces.
REMOVED = [
    "combine_v",
    "combine_u",
    "encode_reference",
    "codeword_loglik",
    "likelihood_table",
    "extend_leaf",
    "select_top",
    "sc_decode_genie",
    "GenieResult",
    "sc_decode_batch",
]

MODULES = ["channel", "code_model", "encoder", "list_decoder", "ml_oracle", "sc_decoder", "sim"]

# Functions perfbench wraps by module attribute, outside __all__.
TRACED_HELPERS = {
    "list_decoder": ("extend_leaf", "select_top"),
    "sc_decoder": ("genie_error_counts", "combine_v_llr", "combine_u_llr"),
}


def test_package_exports_the_public_names():
    assert sorted(rmpolar.__all__) == sorted(PUBLIC)
    assert len(rmpolar.__all__) == len(set(rmpolar.__all__)) == 39
    for name in PUBLIC:
        assert getattr(rmpolar, name) is not None


@pytest.mark.parametrize("module", MODULES)
def test_every_name_a_module_exports_exists(module):
    mod = importlib.import_module(f"rmpolar.{module}")
    for name in mod.__all__:
        assert hasattr(mod, name), f"rmpolar.{module}.{name}"
        assert name in rmpolar.__all__, f"rmpolar.{module}.{name} is not re-exported"


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_not_exported(name):
    assert not hasattr(rmpolar, name)
    assert name not in rmpolar.__all__
    for module in MODULES:
        assert name not in importlib.import_module(f"rmpolar.{module}").__all__


def test_traced_helpers_stay_module_attributes():
    for module, names in TRACED_HELPERS.items():
        mod = importlib.import_module(f"rmpolar.{module}")
        for name in names:
            assert callable(getattr(mod, name)), f"rmpolar.{module}.{name}"
