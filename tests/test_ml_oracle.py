import math

import numpy as np
import pytest
from scipy.special import log_expit

from rmpolar import (
    MAX_ENUM_BITS,
    Channel,
    CodeSpec,
    SoftVector,
    encode,
    freeze_bec,
    freeze_rm,
    list_decode,
    ml_decode,
    modulate,
    posteriors,
    random_info_bits,
    transmit,
)
from rmpolar.ml_oracle import likelihood_table
from helpers import codeword_loglik, random_spec


def test_loglik_of_certain_codeword_is_zero():
    rng = np.random.default_rng(61)
    spec = freeze_rm(1, 4)
    sent = random_info_bits(spec, rng)
    cw = encode(spec, sent)
    sv = SoftVector.from_q(1.0 - cw.astype(np.float64))
    assert codeword_loglik(cw, sv) == pytest.approx(0.0, abs=1e-12)
    # Any single certain disagreement costs about one clamp unit.
    other = cw.copy()
    other[0] ^= 1
    assert codeword_loglik(other, sv) < -35.0


def test_loglik_under_total_erasure():
    sv = SoftVector.from_llr(np.zeros(8))
    cw = np.array([0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8)
    assert codeword_loglik(cw, sv) == pytest.approx(8 * math.log(0.5), abs=1e-12)


def test_loglik_matches_bsc_distance_rule():
    # On a hard-decision channel the log-likelihood is an affine function of
    # the Hamming distance to the received word.
    rng = np.random.default_rng(62)
    p = 0.11
    spec = freeze_bec(4, 7, 0.5)
    y_bits = rng.integers(0, 2, size=spec.n)
    sv = posteriors(Channel.bsc(p), modulate(y_bits))
    base = spec.n * math.log(1.0 - p)
    slope = math.log(p / (1.0 - p))
    words = random_info_bits(spec, rng, size=40)
    for word in words:
        cw = encode(spec, word)
        d = int(np.count_nonzero(cw != y_bits))
        assert codeword_loglik(cw, sv) == pytest.approx(base + d * slope, rel=1e-9)


def test_loglik_agrees_with_direct_probability_sum():
    rng = np.random.default_rng(63)
    spec = random_spec(4, 9, rng)
    q = rng.uniform(1e-6, 1 - 1e-6, size=spec.n)
    sv = SoftVector.from_q(q)
    for word in random_info_bits(spec, rng, size=25):
        cw = encode(spec, word)
        direct = float(np.sum(np.where(cw == 0, np.log(q), np.log1p(-q))))
        assert codeword_loglik(cw, sv) == pytest.approx(direct, rel=1e-9)


def test_likelihood_table_layout():
    rng = np.random.default_rng(64)
    spec = freeze_bec(3, 5, 0.5)
    sv = SoftVector.from_q(rng.uniform(0.1, 0.9, size=8))
    table = likelihood_table(spec, sv)
    assert table.shape == (32,)
    for word_int in (0, 7, 31):
        bits = np.array([(word_int >> (4 - j)) & 1 for j in range(5)], dtype=np.uint8)
        assert table[word_int] == pytest.approx(
            codeword_loglik(encode(spec, bits), sv), rel=1e-12, abs=1e-12
        )


def test_likelihood_table_bytes_match_a_sum_of_scipy_log_posteriors():
    # scipy.special.log_expit is the independent oracle for the numpy log
    # posteriors; the sum is built here in the table's own order
    rng = np.random.default_rng(66)
    for spec in (freeze_rm(1, 4), freeze_bec(5, 10, 0.5), CodeSpec(m=3, info_indices=np.arange(8))):
        shifts = np.arange(spec.dimension - 1, -1, -1)
        words = ((np.arange(1 << spec.dimension)[:, None] >> shifts) & 1).astype(np.uint8)
        codewords = encode(spec, words).astype(np.float64)
        edges = [0.0, -0.0, 5e-324, 1.5, -1.5, 40.0, -40.0, 709.78, -745.2, 800.0, -800.0]
        for llr in (rng.normal(0.5, 2.0, spec.n), rng.normal(0.0, 60.0, spec.n), rng.choice(edges, spec.n)):
            logq, log1mq = log_expit(llr), log_expit(-llr)
            expected = logq.sum() + codewords @ (log1mq - logq)
            assert likelihood_table(spec, llr).tobytes() == expected.tobytes()


def test_ml_decode_noiseless_returns_sent():
    rng = np.random.default_rng(65)
    spec = freeze_rm(2, 4)
    for _ in range(10):
        sent = random_info_bits(spec, rng)
        sv = SoftVector.from_q(1.0 - encode(spec, sent).astype(np.float64))
        result = ml_decode(spec, sv)
        np.testing.assert_array_equal(result.info_bits, sent)
        np.testing.assert_array_equal(result.codeword, encode(spec, sent))
        assert result.loglik == pytest.approx(0.0, abs=1e-12)


def test_ml_decode_matches_slow_argmax():
    rng = np.random.default_rng(66)
    spec = random_spec(3, 6, rng)
    ch = Channel.awgn(1.0)
    for _ in range(50):
        sent = random_info_bits(spec, rng)
        y = transmit(ch, modulate(encode(spec, sent)), rng)
        sv = posteriors(ch, y)
        # Independent slow pass in the probability domain.
        best_ll, best_word = -np.inf, None
        q = sv.q
        for word_int in range(1 << spec.dimension):
            bits = np.array(
                [(word_int >> (spec.dimension - 1 - j)) & 1 for j in range(spec.dimension)],
                dtype=np.uint8,
            )
            cw = encode(spec, bits)
            ll = float(np.sum(np.where(cw == 0, np.log(q), np.log1p(-q))))
            if ll > best_ll + 1e-12:
                best_ll, best_word = ll, bits
        result = ml_decode(spec, sv)
        np.testing.assert_array_equal(result.info_bits, best_word)
        assert result.loglik == pytest.approx(best_ll, abs=1e-9)


def test_ml_tie_resolves_to_smaller_word():
    # Codewords 0000 and 1111; the received word is equidistant from both.
    spec = CodeSpec(m=2, info_indices=(0,))
    sv = posteriors(Channel.bsc(0.2), np.array([1.0, 1.0, -1.0, -1.0]))
    result = ml_decode(spec, sv)
    np.testing.assert_array_equal(result.info_bits, [0])
    np.testing.assert_array_equal(result.codeword, [0, 0, 0, 0])


def test_ml_agrees_with_full_list_decoder():
    rng = np.random.default_rng(67)
    spec = freeze_bec(3, 4, 0.5)
    for ch in (Channel.bsc(0.1), Channel.awgn(1.2)):
        for _ in range(50):
            sent = random_info_bits(spec, rng)
            y = transmit(ch, modulate(encode(spec, sent)), rng)
            sv = posteriors(ch, y)
            ml = ml_decode(spec, sv)
            full = list_decode(spec, sv, list_size=16, frozen_metric="include")
            np.testing.assert_array_equal(full.best.codeword, ml.codeword)


def test_ml_decode_of_a_code_without_information_bits():
    # k = 0: the one codeword is all-zero, with the empty word
    spec = CodeSpec(m=3, info_indices=())
    llr = np.array([1.5, -2.0, 0.0, 4.0, -0.5, 3.0, -1.0, 2.5])
    result = ml_decode(spec, llr)
    assert result.info_bits.shape == (0,) and result.info_bits.dtype == np.uint8
    np.testing.assert_array_equal(result.codeword, np.zeros(8, dtype=np.uint8))
    assert result.loglik == likelihood_table(spec, llr)[0]
    assert result.loglik == pytest.approx(codeword_loglik(np.zeros(8), llr), rel=1e-12)


def test_enumeration_guard():
    spec = freeze_bec(5, MAX_ENUM_BITS + 1, 0.5)
    with pytest.raises(ValueError):
        ml_decode(spec, SoftVector.from_llr(np.zeros(32)))


def test_beliefs_length_checked():
    spec = freeze_rm(1, 3)
    with pytest.raises(ValueError):
        ml_decode(spec, SoftVector.from_llr(np.zeros(4)))


def test_ml_decode_enumerates_once_per_call(monkeypatch):
    from rmpolar import ml_oracle

    shapes = []

    def counted(spec, words):
        shapes.append(words.shape)
        return encode(spec, words)

    monkeypatch.setattr(ml_oracle, "encode", counted)
    spec = freeze_bec(4, 7, 0.5)
    llr = np.linspace(-2.0, 3.0, spec.n)
    first = ml_decode(spec, llr)
    again = ml_decode(spec, llr)
    assert shapes == [(1 << 7, 7)] * 2
    np.testing.assert_array_equal(first.codeword, again.codeword)
    assert first.codeword.base is None and first.info_bits.base is None


def test_oracle_refuses_where_the_full_width_list_is_refused(monkeypatch):
    from rmpolar import list_decoder, ml_oracle

    shapes = []

    def counted(spec, words):
        shapes.append(words.shape)
        return encode(spec, words)

    monkeypatch.setattr(ml_oracle, "encode", counted)
    # the full list of 2**6 words at n = 16 stores about 2**6 * 2 * 16 entries
    spec = freeze_bec(4, 6, 0.5)
    llr = np.linspace(-2.0, 3.0, spec.n)
    monkeypatch.setattr(list_decoder, "MAX_LIST_ENTRIES", 1 << 11)
    list_decode(spec, llr, 1 << 6)
    ml_decode(spec, llr)
    assert shapes == [(1 << 6, 6)]
    monkeypatch.setattr(list_decoder, "MAX_LIST_ENTRIES", (1 << 11) - 1)
    with pytest.raises(ValueError, match="MAX_LIST_ENTRIES"):
        list_decode(spec, llr, 1 << 6)
    for oracle in (ml_decode, likelihood_table):
        with pytest.raises(ValueError) as exc:
            oracle(spec, llr)
        assert str(exc.value) == "refusing to enumerate 2**6 codewords of length 16 (too many to hold)"
    assert shapes == [(1 << 6, 6)]
