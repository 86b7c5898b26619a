import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_expit

from rmpolar import (
    Channel,
    OpCounter,
    SoftVector,
    encode,
    extend_leaf,
    freeze_bec,
    freeze_rm,
    info_bits_to_int,
    list_decode,
    ml_decode,
    modulate,
    posteriors,
    random_info_bits,
    sc_decode,
    select_top,
    transmit,
)
from helpers import full_spec, metric_replay, random_spec, reference_list_decode, same_list_result


def _received_llr(spec, ch, rng, sent=None):
    if sent is None:
        sent = random_info_bits(spec, rng)
    y = transmit(ch, modulate(encode(spec, sent)), rng)
    return sent, posteriors(ch, y)


def test_extend_leaf_info_example():
    pool = extend_leaf([0.0], [math.log(9.0)], frozen=False)
    # entry i extends parent i // 2 with bit i % 2
    assert pool.shape == (2,)
    assert pool[0] == pytest.approx(math.log(0.9), abs=1e-12)
    assert pool[1] == pytest.approx(math.log(0.1), abs=1e-12)


def test_extend_leaf_frozen_modes():
    certain = extend_leaf([-1.5], [40.0], frozen=True, frozen_metric="include")
    assert certain.shape == (1,)
    assert certain[0] == pytest.approx(-1.5, abs=1e-12)
    doubtful = extend_leaf([-1.5], [-2.0], frozen=True, frozen_metric="include")
    assert doubtful[0] == pytest.approx(-1.5 + log_expit(-2.0), abs=1e-12)
    ignored = extend_leaf([-1.5], [-2.0], frozen=True, frozen_metric="ignore")
    assert ignored[0] == -1.5


def test_extend_leaf_orders_pool_by_parent():
    pool = extend_leaf([-0.1, -0.7], [2.0, -2.0], frozen=False)
    # (parent, bit) = (0, 0), (0, 1), (1, 0), (1, 1)
    expected = [
        -0.1 + log_expit(2.0),
        -0.1 + log_expit(-2.0),
        -0.7 + log_expit(-2.0),
        -0.7 + log_expit(2.0),
    ]
    np.testing.assert_array_equal(pool, expected)


def test_extend_leaf_validation():
    with pytest.raises(ValueError):
        extend_leaf([0.0], [1.0, 2.0], frozen=False)
    with pytest.raises(ValueError):
        extend_leaf([0.0], [1.0], frozen=True, frozen_metric="drop")


def test_select_top_keeps_best_and_breaks_ties():
    # (parent, bit) = (0, 0), (0, 1), (1, 0), (1, 1)
    pool = np.array([-1.0, -0.5, -0.5, -2.0])
    kept = select_top(pool, 2)
    # Equal metrics resolve toward the earlier parent, then bit 0.
    assert list(kept) == [1, 2]
    assert list(select_top(pool, 1)) == [1]


def test_select_top_passes_small_pools_through():
    pool = np.array([-3.0, -1.0])
    assert list(select_top(pool, 8)) == [1, 0]
    assert list(select_top(pool[:1], 8)) == [0]


def test_select_top_two_entries_keep_one():
    # the direct comparison used for L=1 follows the same tie rule
    assert list(select_top(np.array([-0.5, -0.5]), 1)) == [0]
    assert list(select_top(np.array([-0.6, -0.5]), 1)) == [1]
    assert list(select_top(np.array([-0.5, -0.6]), 1)) == [0]


def test_select_top_counts_pool_entries():
    counter = OpCounter()
    pool = np.array([0.0, -1.0])
    select_top(pool, 1, counter=counter)
    select_top(np.tile(pool, 3), 2, counter=counter)
    assert counter.select == 2 + 6


def test_select_top_validates_limit():
    with pytest.raises(ValueError):
        select_top(np.array([]), 0)


def test_list_size_one_matches_sc():
    rng = np.random.default_rng(51)
    spec = freeze_bec(5, 16, 0.5)
    ch = Channel.awgn(1.0)
    for _ in range(200):
        _, sv = _received_llr(spec, ch, rng)
        sc = sc_decode(spec, sv)
        lst = list_decode(spec, sv, list_size=1)
        assert len(lst.candidates) == 1
        np.testing.assert_array_equal(lst.best.info_bits, sc.info_bits)
        np.testing.assert_array_equal(lst.best.codeword, sc.codeword)


def test_list_decode_matches_reference_decoder():
    rng = np.random.default_rng(52)
    spec = freeze_bec(4, 8, 0.5)
    ch = Channel.awgn(1.1)
    for _ in range(100):
        _, sv = _received_llr(spec, ch, rng)
        result = list_decode(spec, sv, list_size=4)
        assert same_list_result(result, reference_list_decode(spec, sv.llr, 4))


@pytest.mark.parametrize(
    "spec, L, kernel_ops, select_ops",
    [
        (freeze_bec(8, 128, 0.5), 16, 24152, 5147),
        (freeze_bec(10, 512, 0.5), 1, 10240, 1536),
        (freeze_rm(3, 8), 4, 6816, 1263),
    ],
    ids=["bec-8-128-L16", "bec-10-512-L1", "rm-3-8-L4"],
)
def test_work_counts_are_pinned(spec, L, kernel_ops, select_ops):
    # The counts depend only on the frozen set and L, never on the beliefs.
    rng = np.random.default_rng(60)
    for llr in (np.zeros(spec.n), rng.normal(1.0, 1.0, spec.n)):
        result = list_decode(spec, llr, list_size=L)
        assert (result.kernel_ops, result.select_ops) == (kernel_ops, select_ops)


def test_list_decode_rejects_non_finite_beliefs():
    spec = freeze_rm(1, 3)
    for bad in (np.nan, np.inf, -np.inf):
        llr = np.ones(8)
        llr[0] = bad
        with pytest.raises(ValueError, match="finite"):
            list_decode(spec, llr, list_size=2)


def test_metrics_replay_along_decision_path():
    rng = np.random.default_rng(53)
    for m, L in ((3, 4), (4, 4), (6, 8)):
        spec = random_spec(m, (1 << m) // 2, rng)
        ch = Channel.awgn(0.9)
        for mode in ("include", "ignore"):
            _, sv = _received_llr(spec, ch, rng)
            result = list_decode(spec, sv, list_size=L, frozen_metric=mode)
            for cand in result.candidates:
                expected = metric_replay(spec, sv.llr, cand.info_bits, frozen_metric=mode)
                assert cand.metric == pytest.approx(expected, abs=1e-9)


def test_metrics_are_log_probabilities():
    rng = np.random.default_rng(54)
    spec = freeze_bec(4, 8, 0.5)
    ch = Channel.bsc(0.1)
    for _ in range(20):
        _, sv = _received_llr(spec, ch, rng)
        result = list_decode(spec, sv, list_size=8)
        metrics = [c.metric for c in result.candidates]
        assert all(v <= 1e-12 for v in metrics)
        # Ranked descending beyond the tie-adjusted head.
        assert all(metrics[i] >= metrics[i + 1] - 1e-9 for i in range(1, len(metrics) - 1))
        assert result.best is result.candidates[0]


def test_candidates_are_distinct_and_bounded():
    rng = np.random.default_rng(55)
    spec = freeze_bec(4, 5, 0.5)
    ch = Channel.awgn(1.0)
    _, sv = _received_llr(spec, ch, rng)
    for L in (1, 3, 16, 64):
        result = list_decode(spec, sv, list_size=L)
        assert len(result.candidates) == min(L, 1 << spec.dimension)
        words = [info_bits_to_int(c.info_bits) for c in result.candidates]
        assert len(set(words)) == len(words)


def test_candidate_codewords_reencode():
    rng = np.random.default_rng(56)
    spec = freeze_bec(5, 12, 0.5)
    ch = Channel.awgn(1.3)
    for _ in range(30):
        _, sv = _received_llr(spec, ch, rng)
        for cand in list_decode(spec, sv, list_size=4).candidates:
            np.testing.assert_array_equal(cand.codeword, encode(spec, cand.info_bits))


def test_full_list_recovers_noiseless_word():
    rng = np.random.default_rng(57)
    spec = freeze_bec(4, 6, 0.5)
    sent = random_info_bits(spec, rng)
    q = 1.0 - encode(spec, sent).astype(np.float64)
    result = list_decode(spec, SoftVector.from_q(q), list_size=64)
    np.testing.assert_array_equal(result.best.info_bits, sent)
    assert result.best.metric == pytest.approx(0.0, abs=1e-9)


def test_kernel_ops_scale_linearly_in_list_size():
    spec = full_spec(6)
    sv = SoftVector.from_llr(np.zeros(64))
    ops = {L: list_decode(spec, sv, list_size=L).kernel_ops for L in (1, 8)}
    ratio = ops[8] / ops[1]
    assert 6.4 <= ratio <= 9.6


def test_list_size_one_op_counts():
    spec = full_spec(5)
    sv = SoftVector.from_llr(np.zeros(32))
    result = list_decode(spec, sv, list_size=1)
    # One refresh per leaf touches each level once: n log2 n kernel elements.
    assert result.kernel_ops == 32 * 5
    # Every leaf is informational, so each pool holds two extensions.
    assert result.select_ops == 2 * 32


def test_select_ops_bounded_by_pool_cap():
    rng = np.random.default_rng(58)
    spec = freeze_bec(5, 20, 0.5)
    ch = Channel.awgn(1.0)
    for L in (2, 4, 8):
        _, sv = _received_llr(spec, ch, rng)
        result = list_decode(spec, sv, list_size=L)
        assert result.select_ops <= 2 * L * spec.n


def test_list_decode_validation():
    spec = freeze_bec(3, 4, 0.5)
    sv = SoftVector.from_llr(np.zeros(8))
    with pytest.raises(ValueError):
        list_decode(spec, sv, list_size=0)
    with pytest.raises(ValueError):
        list_decode(spec, sv, list_size=2, frozen_metric="skip")
    with pytest.raises(ValueError):
        list_decode(spec, SoftVector.from_llr(np.zeros(4)), list_size=2)


def test_larger_lists_do_not_hurt_frame_error_rate():
    rng = np.random.default_rng(59)
    spec = freeze_bec(4, 8, 0.5)
    ch = Channel.bsc(0.08)
    trials = 10_000
    words = random_info_bits(spec, rng, size=trials)
    y = transmit(ch, modulate(encode(spec, words)), rng)
    llr = posteriors(ch, y)
    errors = {1: 0, 4: 0}
    for t in range(trials):
        sv = SoftVector.from_llr(llr[t])
        for L in (1, 4):
            best = list_decode(spec, sv, list_size=L).best
            errors[L] += int(not np.array_equal(best.info_bits, words[t]))
    assert errors[4] <= errors[1]
    assert errors[1] > 0  # the comparison is not vacuous at this noise level


_PROPERTY_CHANNELS = {"bsc": Channel.bsc(0.1), "awgn": Channel.awgn(0.9)}


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 6),
    L=st.sampled_from([1, 2, 4, 8]),
    mode=st.sampled_from(["include", "ignore"]),
    channel=st.sampled_from(sorted(_PROPERTY_CHANNELS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_matches_reference_and_metric_replay(data, m, L, mode, channel, seed):
    # bsc beliefs take two values, so exact metric ties are common
    k = data.draw(st.integers(1, 1 << m), label="k")
    rng = np.random.default_rng(seed)
    spec = random_spec(m, k, rng)
    _, sv = _received_llr(spec, _PROPERTY_CHANNELS[channel], rng)
    result = list_decode(spec, sv, list_size=L, frozen_metric=mode)
    assert same_list_result(result, reference_list_decode(spec, sv.llr, L, frozen_metric=mode))
    for cand in result.candidates:
        expected = metric_replay(spec, sv.llr, cand.info_bits, frozen_metric=mode)
        assert cand.metric == pytest.approx(expected, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 6),
    channel=st.sampled_from(sorted(_PROPERTY_CHANNELS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_full_list_is_maximum_likelihood(data, m, channel, seed):
    k = data.draw(st.integers(1, min(3, 1 << m)), label="k")
    L = data.draw(st.sampled_from([size for size in (1, 2, 4, 8) if size >= 1 << k]), label="L")
    rng = np.random.default_rng(seed)
    spec = random_spec(m, k, rng)
    _, sv = _received_llr(spec, _PROPERTY_CHANNELS[channel], rng)
    best = list_decode(spec, sv, list_size=L, frozen_metric="include").best
    ml = ml_decode(spec, sv)
    np.testing.assert_array_equal(best.codeword, ml.codeword)
    np.testing.assert_array_equal(best.info_bits, ml.info_bits)
