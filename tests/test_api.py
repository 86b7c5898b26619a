"""The public API: rmpolar exports what the CLI, the demos and users call."""

import __future__
import ast
import functools
import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10, where pytest itself needs tomli
    import tomli as tomllib

import numpy as np
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


def _immutable(value):
    if isinstance(value, np.ndarray):
        return not value.flags.writeable
    if isinstance(value, (tuple, frozenset)):
        return all(_immutable(item) for item in value)
    # a functools.cache or lru_cache function holds its results for the
    # life of the process, shared by every later caller
    if isinstance(value, functools._lru_cache_wrapper):
        return False
    return callable(value) or isinstance(
        value,
        (int, float, complex, str, bytes, type(None), np.generic, types.ModuleType, type(__future__.annotations)),
    )


# The module state kept, besides each module's __all__, and why.
MODULE_STATE = {
    "rmpolar.cli._parser": "the argument parser, built once per process and never changed after",
    "rmpolar.code_model._level_ranges": "one read-only array of range objects per m, read by every decode_plan",
    "rmpolar.encoder._MASKS": "the butterfly masks; building them per call was 1.7-2.9x slower (ROADMAP)",
}


def test_module_state_census():
    # module state is shared by every caller in the process, so only the
    # entries of MODULE_STATE may hold any
    found = []
    for info in [None, *pkgutil.iter_modules(rmpolar.__path__)]:
        name = "rmpolar" if info is None else f"rmpolar.{info.name}"
        for key, value in vars(importlib.import_module(name)).items():
            dunder = key.startswith("__") and key.endswith("__")
            if not dunder and not _immutable(value):
                found.append(f"{name}.{key}")
    assert sorted(found) == sorted(MODULE_STATE)


def test_cached_level_ranges_are_read_only():
    # every later plan of the same m reads the one cached array
    from rmpolar.code_model import _level_ranges

    ranges = _level_ranges(3)
    assert not ranges.flags.writeable
    with pytest.raises(ValueError):
        ranges[0, 0] = range(0)
    assert _level_ranges(3) is ranges


# Runs in a fresh interpreter: prints, after each stage, whether
# scipy.special has been imported.
_SCIPY_SPECIAL_PROBE = """
import json, sys
import numpy as np
import rmpolar
from rmpolar.cli import main

stages = [("import rmpolar", "scipy.special" in sys.modules)]
def stage(name, argv):
    main(argv)
    stages.append((name, "scipy.special" in sys.modules))

stage("construct rm", ["construct", "--m", "5", "--construction", "rm", "--design-param", "2", "--out", "rm.txt"])
stage("construct bec", ["construct", "--m", "5", "--k", "12", "--construction", "bec", "--design-param", "0.5",
                        "--out", "bec.txt"])
stage("construct mc", ["construct", "--m", "5", "--k", "12", "--construction", "mc", "--channel", "bsc:0.1",
                       "--trials", "200", "--out", "mc.txt"])
with open("words.txt", "w") as fh:
    fh.write("010101010101\\n111111111111\\n")
stage("encode", ["encode", "--frozen-set", "bec.txt", "--in", "words.txt", "--out", "code.txt"])
stage("simulate", ["simulate", "--frozen-set", "bec.txt", "--channel", "bsc:0.05,awgn:2.0dB", "--list-size", "1",
                   "--trials", "30", "--csv", "sim.csv"])
with open("llr.txt", "w") as fh:
    for row in np.random.default_rng(3).normal(1.0, 1.0, size=(3, 32)):
        fh.write(" ".join(map(repr, row.tolist())) + "\\n")
stage("decode", ["decode", "--frozen-set", "bec.txt", "--in", "llr.txt", "--out", "dec.txt", "--list-size", "1"])
spec = rmpolar.load_frozen_set("bec.txt")
beliefs = np.random.default_rng(4).normal(1.0, 1.0, size=(2, 32))
rmpolar.list_decode(spec, beliefs, 2).candidates
stages.append(("list_decode L=2", "scipy.special" in sys.modules))
rmpolar.list_decode(spec, beliefs, 1).metrics
stages.append(("list_decode L=1 metrics", "scipy.special" in sys.modules))
rmpolar.ml_decode(spec, beliefs[0])
stages.append(("ml_decode", "scipy.special" in sys.modules))
rmpolar.sc_decode(spec, beliefs[0])
stages.append(("sc_decode", "scipy.special" in sys.modules))
rmpolar.SoftVector.from_llr(beliefs[0]).q
stages.append(("SoftVector.q", "scipy.special" in sys.modules))
import scipy.special
stages.append(("import scipy.special", "scipy.special" in sys.modules))
print(json.dumps(stages))
"""


def test_import_construct_and_list_size_one_never_load_scipy_special(tmp_path):
    # importing scipy.special costs more than numpy itself, and no rmpolar
    # call needs it: not the constructions, encoding, simulation, list
    # decoding at every list size with its metrics, the ML oracle, nor the
    # posteriors of sc_decode and SoftVector.q; the last stage imports it
    # directly, so the probe shows that it can see a load
    path = [str(Path(rmpolar.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_SPECIAL_PROBE], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    stages = json.loads(proc.stdout.splitlines()[-1])
    assert [name for name, _ in stages] == [
        "import rmpolar", "construct rm", "construct bec", "construct mc", "encode", "simulate", "decode",
        "list_decode L=2", "list_decode L=1 metrics", "ml_decode", "sc_decode", "SoftVector.q",
        "import scipy.special",
    ]
    assert [name for name, loaded in stages if loaded] == ["import scipy.special"]


def test_runtime_needs_numpy_only():
    # scipy is a test-only oracle: no module of the package imports it, and
    # numpy is the one declared runtime dependency
    root = Path(__file__).resolve().parents[1]
    for source in sorted((root / "src" / "rmpolar").glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text(), filename=str(source))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [name for name in names if name.split(".")[0] == "scipy"], f"{source.name}:{node.lineno}"
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == ["numpy>=1.24"]
    assert any(req.startswith("scipy") for req in project["optional-dependencies"]["test"])
