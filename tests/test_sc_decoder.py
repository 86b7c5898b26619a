import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmpolar import (
    Channel,
    CodeSpec,
    OpCounter,
    SoftVector,
    bec_erasure_parameters,
    combine_u_llr,
    combine_v_llr,
    encode,
    freeze_bec,
    freeze_rm,
    genie_error_counts,
    list_decode,
    ml_decode,
    modulate,
    posteriors,
    random_info_bits,
    sc_decode,
    transmit,
)
from helpers import (
    combine_u,
    combine_v,
    full_spec,
    leaf_bits_for,
    q_domain_reference_decode,
    random_spec,
    reference_combine_v_llr,
    reference_sc_decode,
)


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


# Signed zeros, subnormals, tiny and large magnitudes, the largest past
# the point where exp(-|x|) underflows to zero.
_EDGE_LLRS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 40.0, -40.0, -750.0, 800.0])


def _llr_block(rng, shape):
    """Random LLRs of `shape`, a third of them edge values."""
    values = rng.normal(0.0, 8.0, shape)
    edge = rng.random(shape) < 1 / 3
    values[edge] = rng.choice(_EDGE_LLRS, size=int(edge.sum()))
    return values


def _same_bytes(a, b):
    return a.shape == b.shape and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def test_combine_v_llr_bytes_match_the_reference_on_every_edge_pair():
    l0, l1 = np.meshgrid(_EDGE_LLRS, _EDGE_LLRS)
    assert _same_bytes(combine_v_llr(l0, l1), reference_combine_v_llr(l0, l1))


@pytest.mark.parametrize("seed", range(6))
def test_combine_v_llr_bytes_match_the_reference_in_every_layout(seed):
    # the decoder calls the kernel on C blocks, on transposed halves of
    # position-major arrays, on 3-d (nodes, rows, h) views and with a
    # broadcast first operand; each must give the reference's bytes
    rng = np.random.default_rng(seed)
    rows, h, nodes = 1 + seed, 1 << seed, 3
    lam = _llr_block(rng, (rows, 2 * h))
    cases = [(lam[:, :h], lam[:, h:])]
    pos = _llr_block(rng, (2 * h, rows))
    cases.append((pos[:h].T, pos[h:].T))
    blocks = _llr_block(rng, (nodes, 2 * h, rows))
    cases.append((blocks[:, :h].swapaxes(1, 2), blocks[:, h:].swapaxes(1, 2)))
    shared = _llr_block(rng, (2 * h, rows))
    live = _llr_block(rng, (h, 4, rows))
    cases.append((shared[:h, None].T, live.T))
    cases.append((shared[:h].T[:1], lam[:, h:]))
    for l0, l1 in cases:
        assert _same_bytes(combine_v_llr(l0, l1), reference_combine_v_llr(l0, l1))


def test_sc_m1_worked_example():
    spec = CodeSpec(m=1, info_indices=(1,))
    result = sc_decode(spec, SoftVector.from_q(np.array([0.9, 0.1])))
    np.testing.assert_array_equal(result.info_bits, [1])
    np.testing.assert_array_equal(result.codeword, [0, 1])
    # Offset product 0.8 * -0.8 = -0.64, posterior (1 - 0.64) / 2 = 0.18.
    assert result.leaf_posteriors[0] == pytest.approx(0.18, abs=1e-12)


def test_sc_m2_hand_computed():
    # Two information paths, 11 processed first, then 10 given its symbol.
    spec = CodeSpec(m=2, info_indices=(3, 2))
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
    batch = list_decode(spec, llr, 1).best
    assert batch.info_bits.shape == (64, 16)
    for i in range(64):
        single = sc_decode(spec, SoftVector.from_llr(llr[i]))
        np.testing.assert_array_equal(batch.info_bits[i], single.info_bits)
        np.testing.assert_array_equal(batch.codeword[i], single.codeword)


def test_genie_noiseless_has_no_errors():
    rng = np.random.default_rng(39)
    spec = freeze_rm(1, 4)
    sent = random_info_bits(spec, rng, size=1)
    counts = genie_error_counts(spec, _noiseless(encode(spec, sent[0])).llr[None], sent)
    assert counts.shape == (spec.n,) and counts.dtype == np.int64
    assert not counts.any()


def test_genie_errors_are_first_divergence_only():
    # With the genie feeding true symbols back, each indicator reflects a
    # fresh single-bit test, so a noiseless channel with one certain flip
    # can disturb only paths whose codewords cover that position.
    spec = freeze_rm(2, 4)
    rng = np.random.default_rng(40)
    sent = random_info_bits(spec, rng, size=1)
    cw = encode(spec, sent)
    llr = np.where(cw == 0, 40.0, -40.0).astype(np.float64)
    llr[0, 3] = -llr[0, 3]
    # A single flipped position cannot overturn any length-16 decision.
    assert not genie_error_counts(spec, llr, sent).any()


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
        manual += genie_error_counts(spec, llr[t : t + 1], words[t : t + 1])
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
            list_decode(spec, np.vstack([np.ones(8), llr]), 1)
        with pytest.raises(ValueError, match="finite"):
            genie_error_counts(spec, llr[None, :], np.zeros((1, spec.dimension), np.uint8))
        with pytest.raises(ValueError, match="finite"):
            ml_decode(spec, llr)


def test_beliefs_whose_sums_could_overflow_are_rejected():
    # up to max / (2n) in magnitude, every belief the decoder forms stays
    # finite; above it a sum inside the tree could reach infinity and a leaf
    # belief NaN, whose decision would follow the NaN's sign bit
    spec = freeze_rm(1, 3)
    limit = np.finfo(np.float64).max / 16
    at = np.full(8, limit)
    # combine_v_llr's product l0 * l1 may overflow there; only its sign is used
    with np.errstate(over="ignore"):
        assert np.isfinite(sc_decode(spec, at).leaf_posteriors).all()
        assert not list_decode(spec, at, 1).info_bits.any()
    for bad in (np.nextafter(limit, np.inf), -4 * limit):
        llr = np.ones(8)
        llr[3] = bad
        with pytest.raises(ValueError, match="magnitude"):
            sc_decode(spec, llr)
        with pytest.raises(ValueError, match="magnitude"):
            list_decode(spec, np.vstack([np.ones(8), llr]), 2)
        with pytest.raises(ValueError, match="magnitude"):
            genie_error_counts(spec, llr[None, :], np.zeros((1, spec.dimension), np.uint8))


_PROPERTY_CHANNELS = {"bsc": Channel.bsc(0.1), "bec": Channel.bec(0.5), "awgn": Channel.awgn(0.9)}


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 7),
    full=st.booleans(),
    channel=st.sampled_from(sorted(_PROPERTY_CHANNELS)),
    frames=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_sc_wrappers_match_recursive_reference(m, full, channel, frames, seed):
    # every wrapper over the decoder core against the independent recursive
    # pass: decisions, codewords, posterior bytes, kernel counts and the
    # genie's raw-decision errors, per frame and summed
    rng = np.random.default_rng(seed)
    spec = full_spec(m) if full else freeze_bec(m, max(1, (1 << m) // 2), 0.5)
    ch = _PROPERTY_CHANNELS[channel]
    words = random_info_bits(spec, rng, size=frames)
    llr = posteriors(ch, transmit(ch, modulate(encode(spec, words)), rng))
    info = spec.info_mask_by_leaf
    counter = OpCounter()
    bits, post, code_syms = reference_sc_decode(spec, llr, counter=counter)
    codewords = (code_syms < 0.0).astype(np.uint8)
    batch = list_decode(spec, llr, 1).best
    np.testing.assert_array_equal(batch.info_bits, bits[:, info])
    np.testing.assert_array_equal(batch.codeword, codewords)
    for f in range(frames):
        single = sc_decode(spec, llr[f])
        np.testing.assert_array_equal(single.info_bits, bits[f, info])
        np.testing.assert_array_equal(single.codeword, codewords[f])
        assert single.leaf_posteriors.tobytes() == post[f, info].tobytes()
        assert single.op_count == counter.kernel
    truth = 1.0 - 2.0 * np.stack([leaf_bits_for(spec, w) for w in words])
    raw, _, _ = reference_sc_decode(spec, llr, truth_syms=truth)
    wrong = (raw != (truth < 0.0)) & info
    np.testing.assert_array_equal(genie_error_counts(spec, llr, words), wrong.sum(axis=0))
    for f in range(frames):
        np.testing.assert_array_equal(genie_error_counts(spec, llr[f : f + 1], words[f : f + 1]), wrong[f])


def test_genie_rejects_a_word_count_that_differs_from_the_frames():
    spec = freeze_bec(3, 4, 0.5)
    llr = np.ones((5, 8))
    words = np.zeros((5, spec.dimension), dtype=np.uint8)
    for frames, count in ((5, 1), (5, 3), (1, 5), (0, 1)):
        with pytest.raises(ValueError, match="one information word per frame"):
            genie_error_counts(spec, llr[:frames], words[:count])
    with pytest.raises(ValueError, match="one information word per frame"):
        genie_error_counts(spec, llr[0], words[:2])
    assert genie_error_counts(spec, llr, words).sum() == 0
    # no frames, no errors: a frozen subtree of an empty block is empty
    assert genie_error_counts(spec, llr[:0], words[:0]).tolist() == [0] * spec.n


def test_genie_rejects_words_of_the_wrong_width():
    spec = freeze_bec(3, 4, 0.5)
    llr = np.ones((2, 8))
    for words in (np.zeros((2, 5), dtype=np.uint8), np.zeros((2, 3), dtype=np.uint8), np.zeros(4, dtype=np.uint8)):
        with pytest.raises(ValueError) as exc:
            genie_error_counts(spec, llr, words)
        assert str(exc.value) == f"truth needs 4 information bits per word, got shape {words.shape}"


def test_genie_rejects_words_that_are_not_0_1_as_encode_does():
    # a 2 was once read as bit 0, counting errors against another word
    spec = freeze_bec(4, 8, 0.5)
    words = random_info_bits(spec, np.random.default_rng(5), size=6)
    llr = np.where(encode(spec, words) == 1, -20.0, 20.0)
    assert genie_error_counts(spec, llr, words).sum() == 0
    for bad in (words * 2, words + 1, np.where(words == 1, 255, 0)):
        with pytest.raises(ValueError) as refused:
            genie_error_counts(spec, llr, bad)
        with pytest.raises(ValueError) as encoded:
            encode(spec, bad)
        assert str(refused.value) == str(encoded.value) == "info_bits must be 0/1 valued"


def test_single_frame_decoders_reject_a_block():
    spec = freeze_bec(3, 4, 0.5)
    block = np.ones((2, 8))
    with pytest.raises(ValueError, match="one frame"):
        sc_decode(spec, block)
    with pytest.raises(ValueError, match="one frame"):
        ml_decode(spec, block)
    assert sc_decode(spec, block[:1]).info_bits.shape == (spec.dimension,)
    assert ml_decode(spec, block[:1]).info_bits.shape == (spec.dimension,)
