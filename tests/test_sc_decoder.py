import math

import numpy as np
import pytest

from rmpolar import (
    Channel,
    CodeSpec,
    Path,
    SoftVector,
    bec_erasure_parameters,
    combine_u,
    combine_u_llr,
    combine_v,
    combine_v_llr,
    encode,
    freeze_bec,
    freeze_rm,
    genie_error_counts,
    modulate,
    posteriors,
    random_info_bits,
    sc_decode,
    sc_decode_batch,
    sc_decode_genie,
    transmit,
)
from helpers import full_spec, q_domain_reference_decode, random_spec


def _noiseless(codeword):
    return SoftVector.from_q(1.0 - np.asarray(codeword, dtype=np.float64))


def test_combine_v_examples():
    assert combine_v(1.0, 1.0) == pytest.approx(1.0)
    assert combine_v(0.0, 0.5) == pytest.approx(0.0)
    assert combine_v(0.8, 0.5) == pytest.approx(0.4)


def test_combine_v_is_degrading():
    rng = np.random.default_rng(31)
    g0 = rng.uniform(-1, 1, size=1000)
    g1 = rng.uniform(-1, 1, size=1000)
    out = combine_v(g0, g1)
    assert np.all(np.abs(out) <= np.minimum(np.abs(g0), np.abs(g1)) + 1e-15)


def test_combine_u_examples():
    assert combine_u(9.0, 9.0, 1.0) == pytest.approx(81.0)
    assert combine_u(9.0, 9.0, -1.0) == pytest.approx(1.0)


def test_combine_u_zero_ratio_saturates():
    out = combine_u(1.0, 0.0, -1.0)
    assert np.isfinite(out)
    assert out == pytest.approx(math.exp(40.0), rel=1e-6)


def test_combine_u_is_upgrading_when_aligned():
    rng = np.random.default_rng(32)
    l0 = rng.uniform(-10, 10, size=2000)
    l1 = rng.uniform(-10, 10, size=2000)
    v = rng.choice([-1.0, 1.0], size=2000)
    out = combine_u_llr(l0, l1, v)
    aligned = np.sign(l0) == np.sign(v * l1)
    assert np.all(np.abs(out[aligned]) >= np.abs(l0[aligned]) - 1e-12)


def test_llr_kernels_agree_with_ratio_forms():
    rng = np.random.default_rng(33)
    l0 = rng.uniform(-20, 20, size=5000)
    l1 = rng.uniform(-20, 20, size=5000)
    v = rng.choice([-1.0, 1.0], size=5000)
    g_llr = np.tanh(combine_v_llr(l0, l1) / 2.0)
    g_ref = combine_v(np.tanh(l0 / 2.0), np.tanh(l1 / 2.0))
    np.testing.assert_allclose(g_llr, g_ref, atol=1e-9)
    h_llr = np.exp(combine_u_llr(l0, l1, v))
    h_ref = combine_u(np.exp(l0), np.exp(l1), v)
    np.testing.assert_allclose(h_llr, h_ref, rtol=1e-9)


def test_combine_v_llr_keeps_exact_zeros():
    out = combine_v_llr(np.array([0.0, 3.0, 0.0]), np.array([2.0, 0.0, 0.0]))
    np.testing.assert_array_equal(out, [0.0, 0.0, 0.0])


def test_sc_m1_worked_example():
    spec = CodeSpec(m=1, info_set=(Path(bits=(1,)),))
    result = sc_decode(spec, SoftVector.from_q(np.array([0.9, 0.1])))
    np.testing.assert_array_equal(result.info_bits, [1])
    np.testing.assert_array_equal(result.codeword, [0, 1])
    # Offset product 0.8 * -0.8 = -0.64, posterior (1 - 0.64) / 2 = 0.18.
    assert result.leaf_posteriors[0] == pytest.approx(0.18, abs=1e-12)


def test_sc_m2_hand_computed():
    # Two information paths, 11 processed first, then 10 given its symbol.
    spec = CodeSpec(m=2, info_set=(Path(bits=(1, 1)), Path(bits=(1, 0))))
    rng = np.random.default_rng(34)
    for _ in range(50):
        q = rng.uniform(1e-6, 1 - 1e-6, size=4)
        g = 2.0 * q - 1.0
        g_pair = g[:2] * g[2:]
        g11 = g_pair[0] * g_pair[1]
        b11 = 1 if g11 < 0 else 0
        v = 1.0 - 2.0 * b11
        h_pair = (1.0 + g_pair) / (1.0 - g_pair)
        h10 = h_pair[0] * h_pair[1] ** v
        b10 = 1 if h10 < 1.0 else 0
        result = sc_decode(spec, SoftVector.from_q(q))
        np.testing.assert_array_equal(result.info_bits, [b11, b10])
        assert result.leaf_posteriors[0] == pytest.approx((1 + g11) / 2, rel=1e-9)
        assert result.leaf_posteriors[1] == pytest.approx(h10 / (1 + h10), rel=1e-9)


def test_sc_matches_probability_domain_reference():
    # Uses reliability-ordered information sets: the first-processed paths
    # are so degraded that their beliefs fall below the float64 cancellation
    # floor, where a decision is pure noise and the two arithmetics may part
    # ways.  Real constructions freeze those paths.  Any trial that still
    # meets a sub-noise belief at an information leaf is compared only up to
    # that point, since decisions diverge there by construction.
    rng = np.random.default_rng(35)
    compared = 0
    total = 0
    for m in (4, 6, 8):
        spec = freeze_bec(m, (1 << m) // 2, 0.5)
        ch = Channel.awgn(1.0)
        for _ in range(10):
            sent = random_info_bits(spec, rng)
            y = transmit(ch, modulate(encode(spec, sent)), rng)
            sv = posteriors(ch, y)
            ref_bits, ref_posts = q_domain_reference_decode(spec, sv.q)
            result = sc_decode(spec, sv)
            near_tie = (
                ~np.isfinite(ref_posts)
                | (np.abs(ref_posts - 0.5) < 2.5e-13)
                | (np.abs(result.leaf_posteriors - 0.5) < 2.5e-13)
            )
            limit = int(np.argmax(near_tie)) if near_tie.any() else ref_bits.size
            np.testing.assert_array_equal(result.info_bits[:limit], ref_bits[:limit])
            np.testing.assert_allclose(
                result.leaf_posteriors[:limit], ref_posts[:limit], atol=1e-9
            )
            compared += limit
            total += ref_bits.size
    assert compared >= 0.9 * total  # sub-noise beliefs must stay the exception


def test_sc_matches_reference_on_raw_beliefs_small():
    # Offsets bounded away from zero: even a full product of 16 keeps every
    # belief far above the noise floor, so agreement must be total.
    rng = np.random.default_rng(45)
    for _ in range(30):
        spec = random_spec(4, 8, rng)
        offsets = rng.uniform(0.3, 0.95, size=16) * rng.choice([-1.0, 1.0], size=16)
        q = (1.0 + offsets) / 2.0
        ref_bits, ref_posts = q_domain_reference_decode(spec, q)
        result = sc_decode(spec, SoftVector.from_q(q))
        np.testing.assert_array_equal(result.info_bits, ref_bits)
        np.testing.assert_allclose(result.leaf_posteriors, ref_posts, atol=1e-9)


def test_sc_noiseless_round_trip():
    rng = np.random.default_rng(36)
    for m in (2, 4, 6, 8):
        spec = freeze_bec(m, max(1, (1 << m) * 3 // 4), 0.5)
        for _ in range(10):
            sent = random_info_bits(spec, rng)
            result = sc_decode(spec, _noiseless(encode(spec, sent)))
            np.testing.assert_array_equal(result.info_bits, sent)
            np.testing.assert_array_equal(result.codeword, encode(spec, sent))


def test_sc_codeword_is_reencoded_info_word():
    rng = np.random.default_rng(37)
    spec = freeze_rm(2, 6)
    ch = Channel.awgn(1.2)
    for _ in range(25):
        sent = random_info_bits(spec, rng)
        y = transmit(ch, modulate(encode(spec, sent)), rng)
        result = sc_decode(spec, posteriors(ch, y))
        np.testing.assert_array_equal(result.codeword, encode(spec, result.info_bits))


def test_sc_frozen_tie_defaults_to_zero():
    # All-erased input leaves every decision at the tie point.
    spec = freeze_bec(3, 4, 0.5)
    result = sc_decode(spec, SoftVector.from_llr(np.zeros(8)))
    np.testing.assert_array_equal(result.info_bits, np.zeros(4, dtype=np.uint8))
    np.testing.assert_array_equal(result.codeword, np.zeros(8, dtype=np.uint8))
    np.testing.assert_allclose(result.leaf_posteriors, 0.5, atol=0)


def test_sc_op_count_is_n_log_n():
    for m in (4, 6, 8, 10):
        spec = full_spec(m)
        result = sc_decode(spec, SoftVector.from_llr(np.zeros(1 << m)))
        assert result.op_count == (1 << m) * m


def test_sc_op_count_fits_scaling_law():
    counts = {}
    for m in (6, 7, 8, 9, 10):
        spec = full_spec(m)
        result = sc_decode(spec, SoftVector.from_llr(np.zeros(1 << m)))
        counts[m] = result.op_count
    slopes = [counts[m] / ((1 << m) * m) for m in counts]
    a = float(np.mean(slopes))
    for m, c in counts.items():
        assert abs(c / (a * (1 << m) * m) - 1.0) < 0.2


def test_sc_batch_matches_single():
    rng = np.random.default_rng(38)
    spec = freeze_bec(5, 16, 0.5)
    ch = Channel.bsc(0.08)
    words = random_info_bits(spec, rng, size=64)
    y = transmit(ch, modulate(encode(spec, words)), rng)
    llr = posteriors(ch, y)
    batch_bits, batch_codewords = sc_decode_batch(spec, llr)
    assert batch_bits.shape == (64, 16)
    for i in range(64):
        single = sc_decode(spec, SoftVector.from_llr(llr[i]))
        np.testing.assert_array_equal(batch_bits[i], single.info_bits)
        np.testing.assert_array_equal(batch_codewords[i], single.codeword)


def test_genie_noiseless_has_no_errors():
    rng = np.random.default_rng(39)
    spec = freeze_rm(1, 4)
    sent = random_info_bits(spec, rng)
    out = sc_decode_genie(spec, _noiseless(encode(spec, sent)), sent)
    assert out.indicators.shape == (spec.n,)
    assert out.posteriors.shape == (spec.n,)
    assert not out.indicators.any()
    assert not out.indicators[~spec.info_mask_by_leaf].any()


def test_genie_errors_are_first_divergence_only():
    # With the genie feeding true symbols back, each indicator reflects a
    # fresh single-bit test, so a noiseless channel with one certain flip
    # can disturb only paths whose codewords cover that position.
    spec = freeze_rm(2, 4)
    rng = np.random.default_rng(40)
    sent = random_info_bits(spec, rng)
    cw = encode(spec, sent)
    llr = np.where(cw == 0, 40.0, -40.0).astype(np.float64)
    llr[3] = -llr[3]
    out = sc_decode_genie(spec, SoftVector.from_llr(llr), sent)
    # A single flipped position cannot overturn any length-16 decision.
    assert not out.indicators.any()


def test_genie_bec_matches_exact_erasure_recursion():
    # Raw-decision error rate of path i under half erasures is z_i / 2:
    # the leaf belief is fully erased with probability z_i and the tie then
    # misses the true bit half the time.
    m, trials, seed = 3, 30_000, 41
    spec = full_spec(m)
    rng = np.random.default_rng(seed)
    ch = Channel.bec(0.5)
    words = random_info_bits(spec, rng, size=trials)
    y = transmit(ch, modulate(encode(spec, words)), rng)
    counts = genie_error_counts(spec, posteriors(ch, y), words)
    rate_by_index = counts[::-1] / trials  # leaf step s handles index n-1-s
    params = bec_erasure_parameters(m, 0.5)
    for idx in range(1 << m):
        target = params[idx] / 2.0
        sigma = math.sqrt(max(target * (1 - target) / trials, 1e-12))
        assert abs(rate_by_index[idx] - target) <= 4 * sigma + 1e-4


def test_genie_counts_match_singleton_runs():
    spec = freeze_bec(3, 8, 0.5)
    trials, seed = 200, 42
    ch = Channel.bsc(0.2)
    rng = np.random.default_rng(seed)
    words = random_info_bits(spec, rng, size=trials)
    y = transmit(ch, modulate(encode(spec, words)), rng)
    llr = posteriors(ch, y)
    counts = genie_error_counts(spec, llr, words)
    manual = np.zeros(spec.n, dtype=np.int64)
    for t in range(trials):
        out = sc_decode_genie(spec, SoftVector.from_llr(llr[t]), words[t])
        manual += out.indicators
    np.testing.assert_array_equal(counts, manual)


def test_sc_validates_input_length():
    spec = freeze_rm(1, 3)
    with pytest.raises(ValueError):
        sc_decode(spec, SoftVector.from_llr(np.zeros(4)))


def test_sc_rejects_non_finite_beliefs():
    spec = freeze_rm(1, 3)
    for bad in (np.nan, np.inf, -np.inf):
        llr = np.ones(8)
        llr[3] = bad
        with pytest.raises(ValueError, match="finite"):
            sc_decode(spec, llr)
        with pytest.raises(ValueError, match="finite"):
            sc_decode_batch(spec, np.vstack([np.ones(8), llr]))
        with pytest.raises(ValueError, match="finite"):
            genie_error_counts(spec, llr[None, :], np.zeros((1, spec.dimension), np.uint8))
