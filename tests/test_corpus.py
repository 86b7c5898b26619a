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
bytes would pin the host.  Decisions depend on the host only at near-ties.

    PYTHONPATH=src python tests/test_corpus.py

prints the digest of the tree on the path, to compare two trees.
"""

import hashlib

import numpy as np

from rmpolar import CodeSpec, genie_error_counts, list_decode, sc_decode
from rmpolar import list_decoder

# the corpus: its seed, specs, list sizes and modes, and the largest block
SEED = 2203
SPECS = 120
LIST_SIZES = (1, 2, 4, 8)
MODES = ("include", "ignore")
MAX_FRAMES = 5
_SPECIAL = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300])

# the digest, with the numpy version and the SIMD features (baseline, then
# the dispatch targets found) of the host it was recorded on
PINNED = "e03aeeaa1b4a110dd3eaa78555196c0661dd6fdc258048399a30632269a3e478"
PINNED_ON = "numpy 2.4.6, SIMD X86_V2 + X86_V3 X86_V4 AVX512_ICL AVX512_SPR"


def simd_features():
    """numpy's SIMD baseline and the dispatch targets this CPU has."""
    try:
        from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__

    found = [feature for feature in __cpu_dispatch__ if __cpu_features__.get(feature)]
    return f"{' '.join(__cpu_baseline__)} + {' '.join(found)}"


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


def test_corpus_digest_is_pinned():
    digest = corpus_digest()
    assert digest == PINNED, (
        f"corpus digest {digest}, pinned {PINNED} on {PINNED_ON}; this host has numpy "
        f"{np.__version__}, SIMD {simd_features()}.  On the pinned numpy and SIMD features a "
        "decoder's decisions or counts changed; elsewhere a near-tie may also round the other way."
    )


if __name__ == "__main__":
    print(corpus_digest(), f"numpy {np.__version__}, SIMD {simd_features()}")
