"""A differential corpus of decodes, pinned in one SHA-256.

A seeded generator draws random codes (m 1-7, k 0-n) and, for each, list
sizes 1, 2, 4 and 8 under both frozen-metric modes, each on a block of 1-5
frames (a lone frame is sometimes passed as a 1-d row) whose beliefs mix
+-0.0, +-800, +-1e-300, rounded and gaussian values.  The digest covers the
integer outputs of list_decode, sc_decode, genie_error_counts and the
decoder core _decode: decided bits, codewords, shapes, and the kernel,
select and moved counts, with each spec's decode_plan tuples.

The pin detects change; it decides nothing.  Exhaustive ML, the reference
decoders and metric replay stay the arbiters, and metric bytes are checked
against the reference decoder in test_list_decoder.py, not here: numpy's
SIMD exp and log1p round differently between CPUs, so a digest of float
bytes would pin the host.  Decisions depend on the host only at near-ties,
and those follow numpy's SIMD rounding: so the digest is pinned once per
SIMD class, numpy's baseline and the dispatch targets it uses, and every
class this CPU can reach is also checked in a child process that turns the
others off with numpy's NPY_DISABLE_CPU_FEATURES.

    PYTHONPATH=src python tests/test_corpus.py

prints the digest of the tree on the path and the host's SIMD class, to
compare two trees or to record a class.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rmpolar import CodeSpec, genie_error_counts, list_decode, sc_decode
from rmpolar import list_decoder

# the corpus: its seed, specs, list sizes and modes, and the largest block
SEED = 2203
SPECS = 120
LIST_SIZES = (1, 2, 4, 8)
MODES = ("include", "ignore")
MAX_FRAMES = 5
_SPECIAL = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300])

# the digest per SIMD class, as simd_features names it, recorded with numpy
# 2.4.6: AVX-512's exp and log1p round some near-ties the other way, while
# X86_V3 (AVX2) and the X86_V2 baseline alone agree
PINNED = {
    "X86_V2 + X86_V3 X86_V4 AVX512_ICL AVX512_SPR": "e03aeeaa1b4a110dd3eaa78555196c0661dd6fdc258048399a30632269a3e478",
    "X86_V2 + X86_V3": "c5297fb8d5cb94d1e21fcefd981c4b87a8e81de51085ab63488f6360e765eaff",
    "X86_V2 + none": "c5297fb8d5cb94d1e21fcefd981c4b87a8e81de51085ab63488f6360e765eaff",
}
PINNED_NUMPY = "2.4.6"


def _cpu_tables():
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath
    return _multiarray_umath.__cpu_baseline__, _multiarray_umath.__cpu_dispatch__, _multiarray_umath.__cpu_features__


def dispatch_targets():
    """The dispatch targets numpy uses in this process: those this CPU has,
    less any NPY_DISABLE_CPU_FEATURES turned off at import."""
    _, dispatch, features = _cpu_tables()
    return [target for target in dispatch if features.get(target)]


def simd_features():
    """This process's SIMD class: numpy's baseline, then its dispatch targets."""
    baseline = _cpu_tables()[0]
    return f"{' '.join(baseline)} + {' '.join(dispatch_targets()) or 'none'}"


def _feed(digest, *items):
    """Hash arrays by dtype, shape and bytes, anything else by repr."""
    for item in items:
        if isinstance(item, np.ndarray):
            digest.update(f"{item.dtype.str}{item.shape}".encode())
            digest.update(np.ascontiguousarray(item).tobytes())
        else:
            digest.update(repr(item).encode())


def _beliefs(rng, frames, n):
    """A (frames, n) block mixing special, rounded and gaussian values in
    proportions drawn per block."""
    gauss = rng.normal(1.0, 2.0, (frames, n))
    kind = rng.choice(3, (frames, n), p=rng.dirichlet((1.0, 1.0, 1.0)))
    return np.choose(kind, (gauss, np.round(gauss), rng.choice(_SPECIAL, (frames, n))))


def corpus_digest():
    rng = np.random.default_rng(SEED)
    digest = hashlib.sha256()
    for _ in range(SPECS):
        m = int(rng.integers(1, 8))
        n = 1 << m
        spec = CodeSpec(m=m, info_indices=rng.choice(n, int(rng.integers(0, n + 1)), replace=False))
        _feed(digest, spec.m, spec.info_indices, spec.decode_plan)
        for list_size in LIST_SIZES:
            for mode in MODES:
                frames = int(rng.integers(1, MAX_FRAMES + 1))
                block = _beliefs(rng, frames, n)
                beliefs = block[0] if frames == 1 and rng.random() < 0.5 else block
                result = list_decode(spec, beliefs, list_size, mode)
                _feed(digest, result.info_bits, result.codewords, result.kernel_ops, result.select_ops)
                live = list_decoder.check_list_size(m, spec.dimension, list_size)
                syms, _, live, counter, _ = list_decoder._decode(spec, block, live, mode)
                _feed(digest, np.signbit(syms), live, counter.kernel, counter.select, counter.moved)
        frame = _beliefs(rng, 1, n)[0]
        sc = sc_decode(spec, frame)
        _feed(digest, sc.info_bits, sc.codeword, sc.op_count)
        frames = int(rng.integers(1, MAX_FRAMES + 1))
        words = rng.integers(0, 2, (frames, spec.dimension), dtype=np.uint8)
        _feed(digest, genie_error_counts(spec, _beliefs(rng, frames, n), words))
    return digest.hexdigest()


def _check(digest, features):
    """Fail unless `digest` is the one pinned for SIMD class `features`."""
    if features not in PINNED:
        pytest.fail(
            f"no corpus digest is recorded for SIMD class {features!r} (numpy {np.__version__}); "
            f"recorded with numpy {PINNED_NUMPY}: {PINNED}.  This host's digest is {digest}; record it "
            "only from a tree whose decisions the oracles have checked."
        )
    assert digest == PINNED[features], (
        f"corpus digest {digest} under SIMD class {features!r}, pinned {PINNED[features]} with numpy "
        f"{PINNED_NUMPY}; this host has numpy {np.__version__}.  On the pinned numpy a decoder's "
        "decisions or counts changed; on another numpy a near-tie may also round the other way."
    )


def test_corpus_digest_is_pinned():
    _check(corpus_digest(), simd_features())


@pytest.mark.parametrize("features", list(PINNED))
def test_corpus_digest_under_each_simd_class(features):
    # the corpus in a child process whose numpy uses exactly the dispatch
    # targets of `features`, the others turned off in its environment only
    wanted = [target for target in features.split(" + ")[1].split() if target != "none"]
    found = dispatch_targets()
    missing = [target for target in wanted if target not in found]
    if missing:
        pytest.skip(f"this CPU cannot reach SIMD class {features!r}: it lacks {missing}")
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
        "NPY_DISABLE_CPU_FEATURES": " ".join(target for target in _cpu_tables()[1] if target not in wanted),
    }
    proc = subprocess.run([sys.executable, __file__], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    # "<digest> numpy <version>, SIMD <class>"
    head, _, child = proc.stdout.rstrip("\n").partition(", SIMD ")
    assert child == features
    digest = head.split()[0]
    _check(digest, features)


if __name__ == "__main__":
    print(corpus_digest(), f"numpy {np.__version__}, SIMD {simd_features()}")
