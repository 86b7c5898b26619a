import numpy as np
import pytest

from rmpolar import encoder
from rmpolar import (
    CodeSpec,
    OpCounter,
    encode,
    freeze_bec,
    freeze_rm,
    info_bits_to_int,
    monomial_codeword,
    random_info_bits,
)
from rmpolar.encoder import info_bits_of
from helpers import (
    encode_reference,
    eval_polynomial_oracle,
    full_spec,
    info_bits_to_int_loop,
    info_paths,
    random_spec,
    reference_plotkin_transform,
)


@pytest.fixture(autouse=True)
def _fresh_masks(monkeypatch):
    """Each test starts from an empty cache of butterfly masks, so that its
    own blocks grow them."""
    monkeypatch.setattr(encoder, "_MASKS", {})


def test_encode_m1_example():
    spec = CodeSpec(m=1, info_indices=(1,))
    np.testing.assert_array_equal(encode(spec, [1]), [0, 1])


def test_encode_m2_examples():
    single = CodeSpec(m=2, info_indices=(3,))
    np.testing.assert_array_equal(encode(single, [1]), [0, 0, 0, 1])
    both = CodeSpec(m=2, info_indices=(3, 0))
    np.testing.assert_array_equal(encode(both, [1, 1]), [1, 1, 1, 0])


def test_encode_zero_word_is_zero():
    for spec in (freeze_rm(1, 4), freeze_bec(5, 12, 0.5), full_spec(3)):
        np.testing.assert_array_equal(
            encode(spec, np.zeros(spec.dimension, dtype=np.uint8)),
            np.zeros(spec.n, dtype=np.uint8),
        )


def test_single_path_words_reproduce_monomials():
    for m in range(1, 6):
        for idx in range(1 << m):
            spec = CodeSpec(m=m, info_indices=(idx,))
            np.testing.assert_array_equal(
                encode(spec, [1]), monomial_codeword(info_paths(spec)[0])
            )


def test_encode_matches_reference_and_oracle_exhaustive():
    rng = np.random.default_rng(11)
    for m in (2, 3):
        for k in (1, (1 << m) // 2, 1 << m):
            spec = random_spec(m, k, rng)
            for word in range(1 << k):
                bits = np.array(
                    [(word >> (k - 1 - j)) & 1 for j in range(k)], dtype=np.uint8
                )
                fast = encode(spec, bits)
                np.testing.assert_array_equal(fast, encode_reference(spec, bits))
                np.testing.assert_array_equal(fast, eval_polynomial_oracle(spec, bits))


def test_encode_matches_reference_random():
    rng = np.random.default_rng(12)
    for m in (4, 5, 6):
        for _ in range(5):
            k = int(rng.integers(1, (1 << m) + 1))
            spec = random_spec(m, k, rng)
            bits = random_info_bits(spec, rng)
            np.testing.assert_array_equal(
                encode(spec, bits), encode_reference(spec, bits)
            )


def test_encode_is_linear():
    rng = np.random.default_rng(13)
    for m in (3, 5, 8):
        spec = freeze_bec(m, (1 << m) // 2, 0.5)
        for _ in range(20):
            a = random_info_bits(spec, rng)
            b = random_info_bits(spec, rng)
            np.testing.assert_array_equal(
                encode(spec, a ^ b), encode(spec, a) ^ encode(spec, b)
            )


def test_encode_batch_matches_loop():
    rng = np.random.default_rng(14)
    spec = freeze_rm(2, 5)
    words = random_info_bits(spec, rng, size=32)
    batch = encode(spec, words)
    assert batch.shape == (32, spec.n)
    for row, word in zip(batch, words):
        np.testing.assert_array_equal(row, encode(spec, word))


def test_minimum_weight_matches_two_power():
    # Exhaustive in the small range where enumeration is cheap.
    for m in (2, 3, 4):
        for r in range(m + 1):
            spec = freeze_rm(r, m)
            k = spec.dimension
            words = (
                (np.arange(1, 1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
            ).astype(np.uint8)
            weights = encode(spec, words).sum(axis=1)
            assert weights.min() == 1 << (m - r)


def _coefficients(spec, words):
    """The coefficient vectors of `words`: bit j on path info_indices[-1 - j]."""
    words = np.asarray(words, dtype=np.uint8)
    coeff = np.zeros(words.shape[:-1] + (spec.n,), dtype=np.uint8)
    coeff[..., spec.info_indices[::-1]] = words
    return coeff


def _check_against_reference(spec, words, codewords):
    """encode(words) and info_bits_of(codewords) against the byte-wide butterfly."""
    np.testing.assert_array_equal(
        encode(spec, words), reference_plotkin_transform(_coefficients(spec, words))
    )
    np.testing.assert_array_equal(
        info_bits_of(spec, codewords),
        reference_plotkin_transform(codewords)[..., spec.info_indices[::-1]],
    )


@pytest.mark.parametrize("m", range(1, 13))
def test_encode_and_info_bits_of_match_the_byte_wide_butterfly(m):
    rng = np.random.default_rng(200 + m)
    spec = random_spec(m, int(rng.integers(1, (1 << m) + 1)), rng)
    for batch in (0, 1, 3, 7):
        words = random_info_bits(spec, rng, size=batch)
        codewords = rng.integers(0, 2, size=(batch, spec.n), dtype=np.uint8)
        _check_against_reference(spec, words, codewords)
    _check_against_reference(spec, words[0], codewords[0])
    # leading axes beyond one batch axis, which info_bits_of takes
    codewords = rng.integers(0, 2, size=(3, 2, spec.n), dtype=np.uint8)
    np.testing.assert_array_equal(
        info_bits_of(spec, codewords),
        reference_plotkin_transform(codewords)[..., spec.info_indices[::-1]],
    )


def test_encode_and_info_bits_of_take_bool_and_strided_input():
    rng = np.random.default_rng(213)
    spec = random_spec(6, 40, rng)
    words = random_info_bits(spec, rng, size=10)
    codewords = rng.integers(0, 2, size=(10, spec.n), dtype=np.uint8)
    _check_against_reference(spec, words.astype(bool), codewords.astype(bool))
    _check_against_reference(spec, words[::2], codewords[::2])
    transposed = np.ascontiguousarray(codewords.T).T
    assert not transposed.flags.c_contiguous
    _check_against_reference(spec, np.ascontiguousarray(words.T).T, transposed)
    # every other position of a 128-wide block: a 64-wide view with stride 2
    wide = rng.integers(0, 2, size=(5, 2 * spec.n), dtype=np.uint8)
    _check_against_reference(spec, words[:5], wide[:, ::2])


def test_small_blocks_after_the_cached_masks_have_grown():
    # every block up to (4096, 1024) is the largest seen so far when it
    # comes, and every one after it reuses longer masks
    rng = np.random.default_rng(214)
    shapes = [(1, 2), (3, 4), (2, 16), (1, 256), (7, 64), (4096, 1024), (1, 2), (3, 8), (2, 3, 64), (1, 4096)]
    for shape in shapes:
        coeff = rng.integers(0, 2, size=shape, dtype=np.uint8)
        np.testing.assert_array_equal(
            encoder._plotkin_transform(coeff), reference_plotkin_transform(coeff), err_msg=str(shape)
        )
    assert set(encoder._MASKS) == {1 << j for j in range(12)}


def test_large_blocks_keep_masks_within_the_cap():
    # a (4096, 8192) block packs to 4 MiB: it is transformed in row chunks,
    # and no kept mask grows past the cap; words below 8 bits chunk too
    rng = np.random.default_rng(216)
    for shape in ((4096, 8192), (3, 70001, 4), (1 << 19, 2)):
        coeff = rng.integers(0, 2, size=shape, dtype=np.uint8)
        np.testing.assert_array_equal(
            encoder._plotkin_transform(coeff), reference_plotkin_transform(coeff), err_msg=str(shape)
        )
    assert encoder._MASKS
    assert all(nbytes <= encoder._MASK_BYTES for nbytes, _ in encoder._MASKS.values())
    assert all(mask.bit_length() <= 8 * encoder._MASK_BYTES for _, mask in encoder._MASKS.values())


def test_info_bits_of_inverts_encode():
    rng = np.random.default_rng(215)
    for _ in range(30):
        m = int(rng.integers(1, 11))
        spec = random_spec(m, int(rng.integers(0, (1 << m) + 1)), rng)
        words = random_info_bits(spec, rng, size=int(rng.integers(0, 6)))
        np.testing.assert_array_equal(info_bits_of(spec, encode(spec, words)), words)


def test_encode_op_count():
    for m in (3, 6, 9):
        spec = full_spec(m)
        counter = OpCounter()
        encode(spec, np.zeros(spec.dimension, dtype=np.uint8), counter=counter)
        assert counter.kernel == (1 << m) * m // 2


def test_encode_op_count_is_per_frame_for_a_batch():
    # the count is OpCounter's per-frame unit: a batch of 5 words adds what
    # one word adds, (n/2) * m
    spec = freeze_rm(2, 6)
    rng = np.random.default_rng(14)
    one, batch = OpCounter(), OpCounter()
    encode(spec, random_info_bits(spec, rng), counter=one)
    encode(spec, random_info_bits(spec, rng, size=5), counter=batch)
    assert one.kernel == batch.kernel == (64 // 2) * 6


def test_encode_op_count_growth_ratio():
    counts = {}
    for m in (6, 7, 8, 9, 10):
        spec = full_spec(m)
        counter = OpCounter()
        encode(spec, np.zeros(spec.dimension, dtype=np.uint8), counter=counter)
        counts[m] = counter.kernel
    for m in (6, 7, 8, 9):
        ratio = counts[m + 1] / counts[m]
        ideal = 2.0 * (m + 1) / m
        assert 0.8 * ideal <= ratio <= 1.2 * ideal


def test_encode_validates_input():
    spec = freeze_rm(1, 3)
    with pytest.raises(ValueError):
        encode(spec, [1, 0])
    with pytest.raises(ValueError):
        encode(spec, [0, 1, 2, 0])


def test_random_info_bits_shapes():
    rng = np.random.default_rng(15)
    spec = freeze_rm(1, 4)
    assert random_info_bits(spec, rng).shape == (5,)
    assert random_info_bits(spec, rng, size=7).shape == (7, 5)


def test_info_bits_to_int_is_msb_first():
    assert info_bits_to_int(np.array([1, 0, 1])) == 5
    assert info_bits_to_int(np.array([0, 0, 0, 1])) == 1
    assert info_bits_to_int(np.array([], dtype=np.uint8)) == 0


@pytest.mark.parametrize("width", [0, 1, 7, 8, 9, 64, 65, 128])
def test_info_bits_to_int_matches_bit_loop(width):
    rng = np.random.default_rng(100 + width)
    words = [np.zeros(width, np.uint8), np.ones(width, np.uint8)]
    words += [rng.integers(0, 2, size=width, dtype=np.uint8) for _ in range(20)]
    for bits in words:
        value = info_bits_to_int(bits)
        assert type(value) is int
        assert value == info_bits_to_int_loop(bits)
