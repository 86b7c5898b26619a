import math

import numpy as np
import pytest
from scipy.special import expit

from rmpolar import (
    LLR_CLAMP,
    Channel,
    SoftVector,
    modulate,
    parse_channel,
    posteriors,
    transmit,
)


def test_modulate_maps_bits_to_symbols():
    np.testing.assert_array_equal(modulate(np.array([0, 1, 0, 1])), [1.0, -1.0, 1.0, -1.0])
    assert modulate(np.array([0, 1])).dtype == np.float64


# edge values of the clamp and of modulate, then ordinary draws
_EDGES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, LLR_CLAMP, -LLR_CLAMP, 1e308, -1e308])
_VALUES = np.concatenate([_EDGES, np.random.default_rng(31).normal(0.0, 30.0, size=55)])


def _same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


# +-1e308 overflows to +-inf on the way, in both forms
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_modulate_matches_the_astype_expression_byte_for_byte():
    bits = np.random.default_rng(32).integers(0, 2, size=64, dtype=np.uint8)
    for value in (bits, bits.astype(bool), bits.astype(np.int64), _VALUES, _VALUES.astype(np.float32)):
        _same_bytes(modulate(value), 1.0 - 2.0 * np.asarray(value).astype(np.float64))
    _same_bytes(modulate([0, 1, 1]), [1.0, -1.0, -1.0])


# +-1e308 overflows to +-inf on the way, in both forms
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_the_clamp_matches_np_clip_byte_for_byte():
    y = _VALUES.reshape(4, 16)
    raws = {
        Channel.bsc(0.1): np.sign(y) * np.log(0.9 / 0.1),
        Channel.bsc(0.0): np.sign(y) * LLR_CLAMP,
        Channel.bec(0.3): np.sign(y) * LLR_CLAMP,
        Channel.awgn(0.7): 2.0 * y / 0.7**2,
    }
    for channel, raw in raws.items():
        _same_bytes(posteriors(channel, y), np.clip(raw, -LLR_CLAMP, LLR_CLAMP))
        # 0-d input (-inf) gives a numpy scalar, as np.clip gave it
        assert type(posteriors(channel, y[0, 3])) is np.float64
        _same_bytes(posteriors(channel, y[0, 3]), np.clip(raw[0, 3], -LLR_CLAMP, LLR_CLAMP))
        # a 1-d frame without NaN: a SoftVector, whose own clamp is a no-op
        finite = y[0][~np.isnan(y[0])]
        _same_bytes(posteriors(channel, finite).llr, posteriors(channel, finite[None])[0])
    finite = _VALUES[np.isfinite(_VALUES)]
    _same_bytes(SoftVector(finite).llr, np.clip(finite, -LLR_CLAMP, LLR_CLAMP))
    assert np.signbit(SoftVector([-0.0]).llr[0]) and np.isnan(posteriors(Channel.awgn(1.0), [[np.nan]])[0, 0])
    q = np.concatenate([[0.0, -0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16], np.random.default_rng(33).random(20)])
    with np.errstate(divide="ignore"):
        _same_bytes(SoftVector.from_q(q).llr, np.clip(np.log(q) - np.log1p(-q), -LLR_CLAMP, LLR_CLAMP))


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel.bsc(0.5)
    with pytest.raises(ValueError):
        Channel.bsc(-0.1)
    with pytest.raises(ValueError):
        Channel.bec(1.2)
    with pytest.raises(ValueError):
        Channel.awgn(0.0)
    with pytest.raises(ValueError):
        Channel(kind="laplace", param=1.0)
    for kind in ("bsc", "bec", "awgn"):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                Channel(kind=kind, param=bad)


def test_bsc_transmit_flip_rate():
    rng = np.random.default_rng(21)
    ch = Channel.bsc(0.2)
    x = modulate(np.zeros(100_000, dtype=np.uint8))
    y = transmit(ch, x, rng)
    flips = np.count_nonzero(y < 0)
    sigma = math.sqrt(100_000 * 0.2 * 0.8)
    assert abs(flips - 20_000) <= 3 * sigma


def test_bsc_p0_is_transparent():
    rng = np.random.default_rng(22)
    x = modulate(np.array([0, 1, 1, 0]))
    np.testing.assert_array_equal(transmit(Channel.bsc(0.0), x, rng), x)


def test_bec_transmit_marks_erasures_with_zero():
    rng = np.random.default_rng(23)
    x = modulate(np.ones(50_000, dtype=np.uint8))
    y = transmit(Channel.bec(0.3), x, rng)
    erased = np.count_nonzero(y == 0.0)
    survived = y[y != 0.0]
    np.testing.assert_array_equal(survived, -np.ones(survived.size))
    sigma = math.sqrt(50_000 * 0.3 * 0.7)
    assert abs(erased - 15_000) <= 3 * sigma
    np.testing.assert_array_equal(
        transmit(Channel.bec(1.0), x, np.random.default_rng(0)), np.zeros(50_000)
    )


def test_awgn_sign_flip_rate_matches_q_function():
    # Fraction of +1 symbols received negative is Q(1/sigma).
    rng = np.random.default_rng(24)
    sigma = 1.0
    x = np.ones(1_000_000)
    y = transmit(Channel.awgn(sigma), x, rng)
    flips = np.count_nonzero(y < 0)
    q = 0.5 * math.erfc(1.0 / (sigma * math.sqrt(2.0)))
    spread = math.sqrt(1_000_000 * q * (1 - q))
    assert abs(flips - 1_000_000 * q) <= 3 * spread


def test_transmit_is_deterministic_given_rng_seed():
    x = modulate(np.random.default_rng(1).integers(0, 2, size=256))
    for ch in (Channel.bsc(0.1), Channel.bec(0.4), Channel.awgn(0.8)):
        a = transmit(ch, x, np.random.default_rng(99))
        b = transmit(ch, x, np.random.default_rng(99))
        np.testing.assert_array_equal(a, b)


def test_bsc_posteriors_example():
    ch = Channel.bsc(0.1)
    sv = posteriors(ch, np.array([1.0, -1.0]))
    np.testing.assert_allclose(sv.q, [0.9, 0.1], atol=1e-12)
    np.testing.assert_allclose(sv.g, [0.8, -0.8], atol=1e-12)
    np.testing.assert_allclose(sv.h, [9.0, 1.0 / 9.0], atol=1e-12)
    np.testing.assert_allclose(sv.llr, [math.log(9.0), -math.log(9.0)], atol=1e-12)


def test_bsc_p0_posteriors_are_clamped():
    sv = posteriors(Channel.bsc(0.0), np.array([1.0, -1.0]))
    np.testing.assert_array_equal(sv.llr, [LLR_CLAMP, -LLR_CLAMP])


def test_bec_posteriors():
    sv = posteriors(Channel.bec(0.5), np.array([1.0, 0.0, -1.0]))
    np.testing.assert_array_equal(sv.llr, [LLR_CLAMP, 0.0, -LLR_CLAMP])
    np.testing.assert_allclose(sv.q[1], 0.5, atol=0)


def test_awgn_posterior_formula():
    sigma = 0.7
    y = np.array([0.3, -1.1, 2.0])
    sv = posteriors(Channel.awgn(sigma), y)
    np.testing.assert_allclose(sv.llr, 2.0 * y / sigma**2, atol=1e-12)
    # Far outliers saturate instead of overflowing.
    far = posteriors(Channel.awgn(0.1), np.array([5.0, -5.0]))
    np.testing.assert_array_equal(far.llr, [LLR_CLAMP, -LLR_CLAMP])


def test_posteriors_batch_returns_llr_matrix():
    y = np.array([[1.0, -1.0], [-1.0, 1.0]])
    out = posteriors(Channel.bsc(0.1), y)
    assert isinstance(out, np.ndarray) and out.shape == (2, 2)
    np.testing.assert_allclose(out[0], [math.log(9.0), -math.log(9.0)], atol=1e-12)


def test_softvector_views_are_consistent():
    rng = np.random.default_rng(25)
    q = rng.uniform(1e-9, 1 - 1e-9, size=500)
    sv = SoftVector.from_q(q)
    np.testing.assert_allclose(sv.g, 2.0 * sv.q - 1.0, atol=1e-12)
    np.testing.assert_allclose(sv.h, sv.q / (1.0 - sv.q), rtol=1e-12)
    np.testing.assert_allclose(sv.g, np.tanh(sv.llr / 2.0), atol=1e-12)
    assert np.all(np.isfinite(sv.llr))


def test_softvector_round_trips():
    rng = np.random.default_rng(26)
    q = rng.uniform(1e-9, 1 - 1e-9, size=200)
    sv = SoftVector.from_q(q)
    assert len(sv) == 200
    np.testing.assert_allclose((sv.g + 1.0) / 2.0, q, atol=1e-12)
    np.testing.assert_allclose(sv.h / (1.0 + sv.h), q, atol=1e-12)
    np.testing.assert_allclose(expit(sv.llr), q, atol=1e-12)


def test_softvector_extremes_clamp():
    sv = SoftVector.from_q(np.array([0.0, 1.0]))
    np.testing.assert_array_equal(sv.llr, [-LLR_CLAMP, LLR_CLAMP])
    sv2 = SoftVector.from_llr(np.array([-500.0, 500.0]))
    np.testing.assert_array_equal(sv2.llr, [-LLR_CLAMP, LLR_CLAMP])


def test_softvector_validation():
    with pytest.raises(ValueError):
        SoftVector.from_q(np.array([1.2]))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            SoftVector([bad, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="finite"):
            SoftVector.from_llr(np.array([1.0, bad]))
    with pytest.raises(ValueError):
        SoftVector.from_q(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        SoftVector.from_q(np.array([]))


# awgn's 2 y / sigma**2 overflows to +-inf at +-1e308, and is clamped
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_one_frame_posteriors_adopt_the_batch_row():
    # a 1-d frame's beliefs are the row its batch would give, read-only
    rng = np.random.default_rng(34)
    y = rng.normal(0.0, 3.0, size=40)
    y[:4] = (0.0, -0.0, 1e308, -1e308)
    for channel in (Channel.bsc(0.1), Channel.bsc(0.0), Channel.bec(0.3), Channel.awgn(0.7)):
        llr = posteriors(channel, y).llr
        _same_bytes(llr, posteriors(channel, y[None])[0])
        assert not llr.flags.writeable
        with pytest.raises(ValueError):
            llr[0] = 1.0
    with pytest.raises(ValueError, match="finite"):
        posteriors(Channel.awgn(0.7), np.array([1.0, np.nan, -1.0]))
    q = SoftVector.from_q(np.array([0.0, 0.3, 1.0])).llr
    assert not q.flags.writeable
    with pytest.raises(ValueError, match="finite"):
        SoftVector.from_q(np.array([0.5, np.nan]))


def test_posterior_calibration_bsc():
    # Among symbols with q = 0.9 the source bit should be 0 about 90% of
    # the time.  Bits uniform, 100k symbols, three-sigma band.
    rng = np.random.default_rng(27)
    bits = rng.integers(0, 2, size=100_000)
    y = transmit(Channel.bsc(0.1), modulate(bits), rng)
    sv = posteriors(Channel.bsc(0.1), y)
    confident = sv.q > 0.5
    hit = np.count_nonzero(bits[confident] == 0)
    total = int(confident.sum())
    sigma = math.sqrt(total * 0.9 * 0.1)
    assert abs(hit - 0.9 * total) <= 3 * sigma


def test_posterior_calibration_awgn_binned():
    rng = np.random.default_rng(28)
    bits = rng.integers(0, 2, size=200_000)
    ch = Channel.awgn(1.0)
    y = transmit(ch, modulate(bits), rng)
    q = posteriors(ch, y).q
    for lo, hi in ((0.6, 0.7), (0.7, 0.8), (0.8, 0.9)):
        mask = (q >= lo) & (q < hi)
        total = int(mask.sum())
        assert total > 1000
        rate = np.count_nonzero(bits[mask] == 0) / total
        mid = q[mask].mean()
        sigma = math.sqrt(mid * (1 - mid) / total)
        assert abs(rate - mid) <= 3 * sigma + 0.01


def test_parse_channel_tokens():
    assert parse_channel("bsc:0.1") == (Channel.bsc(0.1), 0.1)
    assert parse_channel("bec:0.3") == (Channel.bec(0.3), 0.3)
    ch, display = parse_channel("awgn:2.0dB", rate=0.5)
    expected_sigma = 1.0 / math.sqrt(2.0 * 0.5 * 10.0 ** (2.0 / 10.0))
    assert ch.kind == "awgn"
    assert ch.param == pytest.approx(expected_sigma, rel=1e-12)
    assert display == 2.0


def test_parse_channel_rejects_bad_tokens():
    with pytest.raises(ValueError):
        parse_channel("bsc0.1")
    with pytest.raises(ValueError):
        parse_channel("gauss:1.0")
    with pytest.raises(ValueError):
        parse_channel("awgn:2.0", rate=0.5)  # missing dB suffix
    with pytest.raises(ValueError):
        parse_channel("awgn:2.0dB")  # rate required
    # non-finite Eb/N0, and Eb/N0 whose sigma overflows or underflows
    for token in ("awgn:nandB", "awgn:infdB", "awgn:-infdB", "awgn:-4000dB", "awgn:4000dB", "awgn:-3100dB"):
        with pytest.raises(ValueError, match=token):
            parse_channel(token, rate=0.5)
