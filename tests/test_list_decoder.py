import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import log_expit

from rmpolar import list_decoder
from rmpolar import (
    LLR_CLAMP,
    Channel,
    CodeSpec,
    ListResult,
    SoftVector,
    combine_u_llr,
    encode,
    freeze_bec,
    freeze_rm,
    genie_error_counts,
    info_bits_to_int,
    list_decode,
    ml_decode,
    modulate,
    posteriors,
    random_info_bits,
    sc_decode,
    transmit,
)
from rmpolar.list_decoder import extend_leaf, select_top
from helpers import (
    broadcast_extend_leaf,
    broadcast_flat_offsets,
    decode_steps,
    frame_of,
    full_spec,
    metric_replay,
    q_domain_reference_decode,
    random_spec,
    reference_list_decode,
    reference_sc_decode,
    same_list_result,
)


def _received_llr(spec, ch, rng, sent=None):
    if sent is None:
        sent = random_info_bits(spec, rng)
    y = transmit(ch, modulate(encode(spec, sent)), rng)
    return sent, posteriors(ch, y)


def _signs(live, frames):
    """extend_leaf's (2 * live, frames) sign table."""
    return list_decoder._pool_tables(live, frames)[0]


def test_extend_leaf_info_example():
    pool = extend_leaf(np.array([[0.0]]), np.array([[math.log(9.0)]]), _signs(1, 1))
    # entry i extends parent i // 2 with bit i % 2; a cost is a negated metric
    assert pool.shape == (2, 1)
    assert pool[0, 0] == pytest.approx(-math.log(0.9), abs=1e-12)
    assert pool[1, 0] == pytest.approx(-math.log(0.1), abs=1e-12)


def test_extend_leaf_orders_pool_by_parent():
    pool = extend_leaf(np.array([[0.1], [0.7]]), np.array([[2.0], [-2.0]]), _signs(2, 1))
    # (parent, bit) = (0, 0), (0, 1), (1, 0), (1, 1)
    expected = [
        0.1 - log_expit(2.0),
        0.1 - log_expit(-2.0),
        0.7 - log_expit(-2.0),
        0.7 - log_expit(2.0),
    ]
    np.testing.assert_array_equal(pool[:, 0], expected)


def test_select_top_keeps_best_and_breaks_ties():
    # (parent, bit) = (0, 0), (0, 1), (1, 0), (1, 1)
    pool = np.array([1.0, 0.5, 0.5, 2.0])
    kept = select_top(pool, 2)
    # Equal costs resolve toward the earlier parent, then bit 0.
    assert list(kept) == [1, 2]
    assert list(select_top(pool, 1)) == [1]


def test_select_top_passes_small_pools_through():
    pool = np.array([3.0, 1.0])
    assert list(select_top(pool, 8)) == [1, 0]
    assert list(select_top(pool[:1], 8)) == [0]


def test_select_top_two_entries_keep_one():
    # a cut to one survivor follows the same tie rule
    assert list(select_top(np.array([0.5, 0.5]), 1)) == [0]
    assert list(select_top(np.array([0.6, 0.5]), 1)) == [1]
    assert list(select_top(np.array([0.5, 0.6]), 1)) == [0]


def test_select_top_treats_signed_zeros_as_equal():
    # a cost is its metric negated up to the sign of an exact zero
    assert list(select_top(np.array([0.0, -0.0, 0.0]), 3)) == [0, 1, 2]
    assert list(select_top(np.array([-0.0, 0.0]), 1)) == [0]


def test_two_dimensional_extend_and_select_match_each_column():
    rng = np.random.default_rng(61)
    live, frames = 3, 4
    # values on a coarse grid, so that pool entries tie within a column
    cost = -rng.integers(-3, 1, size=(live, frames)) / 2.0
    lam = rng.choice([-2.0, 0.0, 2.0], size=(live, frames))
    pool = extend_leaf(cost, lam, _signs(live, frames))
    assert pool.shape == (2 * live, frames)
    for f in range(frames):
        column = extend_leaf(cost[:, f : f + 1], lam[:, f : f + 1], _signs(live, 1))
        np.testing.assert_array_equal(pool[:, f : f + 1], column)
    for limit in (1, 2, 4, 8):
        kept = select_top(pool, limit)
        assert kept.shape == (min(limit, len(pool)), frames)
        for f in range(frames):
            np.testing.assert_array_equal(kept[:, f], select_top(pool[:, f], limit))


# beliefs and costs at the edges of the pool's arithmetic: both zeros, the
# smallest subnormal, tiny, LLR_CLAMP and where exp(-x) underflows
_POOL_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 40.0, -40.0, 800.0, -800.0])


def test_same_shape_pool_and_offsets_match_the_broadcast_forms():
    # the core's (2 L, F) sign table and (L, F) frame table, sliced to the
    # live and kept rows, give the bytes of the broadcast forms at every
    # list size the loop passes through
    rng = np.random.default_rng(2611)
    limit = 16

    def draw(shape):
        # half edge values, half gaussian
        return np.where(rng.random(shape) < 0.5, rng.choice(_POOL_EDGES, shape), rng.normal(0.0, 10.0, shape))

    for frames in range(1, 6):
        signs, cols, _ = list_decoder._pool_tables(limit, frames)
        for live in range(1, limit + 1):
            cost, lam = np.abs(draw((live, frames))), draw((live, frames))
            pool = extend_leaf(cost, lam, signs[: 2 * live])
            assert pool.tobytes() == broadcast_extend_leaf(cost, lam).tobytes(), (live, frames)
            # the survivors' flat entries, as the core forms them
            flat = select_top(pool, limit)
            expected = broadcast_flat_offsets(flat)
            flat *= frames
            flat += cols[: len(flat)]
            assert flat.tobytes() == expected.tobytes()
            # a frozen re-rank's parent rows
            parent = cost.argsort(axis=0, kind="stable")
            expected = broadcast_flat_offsets(parent)
            parent *= frames
            parent += cols[:live]
            assert parent.tobytes() == expected.tobytes()


def test_one_selection_per_information_leaf(monkeypatch):
    # the core ranks each information leaf's pool through select_top, once
    calls = []

    def counting_select_top(pool, limit):
        calls.append((pool.shape, limit))
        return select_top(pool, limit)

    spec = freeze_bec(5, 12, 0.5)
    llr = np.random.default_rng(63).normal(1.0, 1.5, size=(3, spec.n))
    expected = list_decode(spec, llr, list_size=4)
    monkeypatch.setattr(list_decoder, "select_top", counting_select_top)
    result = list_decode(spec, llr, list_size=4)
    assert len(calls) == spec.dimension
    assert all(limit == 4 and shape[1] == 3 for shape, limit in calls)
    assert same_list_result(result, expected)


def test_block_decode_returns_one_result_per_row():
    # one ListResult for the block, its arrays with a leading frames axis:
    # row f of every array is the result of decoding frame f alone
    rng = np.random.default_rng(62)
    spec = freeze_bec(4, 8, 0.5)
    llr = rng.normal(1.0, 1.5, size=(3, spec.n))
    block = list_decode(spec, llr, list_size=4)
    assert isinstance(block, ListResult)
    assert (block.info_bits.shape, block.codewords.shape, block.metrics.shape) == ((3, 4, 8), (3, 4, 16), (3, 4))
    for f, row in enumerate(llr):
        assert same_list_result(frame_of(block, f), list_decode(spec, row, list_size=4))
    np.testing.assert_array_equal(block.best.info_bits, block.info_bits[:, 0])
    np.testing.assert_array_equal(block.candidates[2].metric, block.metrics[:, 2])
    lone = list_decode(spec, llr[:1], list_size=4)
    assert lone.metrics.shape == (1, 4)
    assert same_list_result(frame_of(lone, 0), frame_of(block, 0))
    # an empty block decodes to empty arrays of min(L, 2**N) candidates
    empty = list_decode(spec, llr[:0], list_size=4)
    assert (empty.info_bits.shape, empty.codewords.shape, empty.metrics.shape) == ((0, 4, 8), (0, 4, 16), (0, 4))
    assert list_decode(freeze_rm(1, 3), np.ones((0, 8)), list_size=10**7).info_bits.shape == (0, 16, 4)
    with pytest.raises(ValueError, match="positions"):
        list_decode(spec, llr[:, :8], list_size=4)
    with pytest.raises(ValueError, match="positions"):
        list_decode(spec, llr[None], list_size=4)


def test_list_size_one_matches_sc():
    rng = np.random.default_rng(51)
    spec = freeze_bec(5, 16, 0.5)
    ch = Channel.awgn(1.0)
    for _ in range(200):
        _, sv = _received_llr(spec, ch, rng)
        bits, _, code_syms = reference_sc_decode(spec, sv.llr[None, :])
        lst = list_decode(spec, sv, list_size=1)
        assert len(lst.candidates) == 1
        np.testing.assert_array_equal(lst.best.info_bits, bits[0, spec.info_mask_by_leaf])
        np.testing.assert_array_equal(lst.best.codeword, code_syms[0] < 0.0)


def test_list_size_one_matches_sc_on_bsc():
    # bsc beliefs leave rounding residues near 0 at some leaves, where only
    # the sign test, not a comparison of two metrics, gives SC's decision
    rng = np.random.default_rng(123)
    spec = freeze_bec(5, 16, 0.5)
    ch = Channel.bsc(0.1)
    words = random_info_bits(spec, rng, size=400)
    llr = posteriors(ch, transmit(ch, modulate(encode(spec, words)), rng))
    bits, _, code_syms = reference_sc_decode(spec, llr)
    sc_bits = bits[:, spec.info_mask_by_leaf]
    best = list_decode(spec, llr, list_size=1).best
    np.testing.assert_array_equal(best.info_bits, sc_bits)
    np.testing.assert_array_equal(best.codeword, code_syms < 0.0)


@pytest.mark.parametrize(
    "llr, lam",
    [([0.0, 0.0], 0.0), ([-0.0, -0.0], -0.0), ([-5e-324, 0.0], -5e-324)],
    ids=["+0", "-0", "-5e-324"],
)
def test_list_size_one_and_sc_break_a_tie_toward_bit_zero(llr, lam):
    # one information leaf, the i=0 child of the root: its belief is
    # l0 + l1, and only a belief below zero decides bit 1
    spec = CodeSpec(m=1, info_indices=(0,))
    llr = np.array(llr)
    leaf = combine_u_llr(llr[:1], llr[1:], 1.0)
    assert leaf.tobytes() == np.array([lam]).tobytes()
    bit = int(lam < 0.0)
    best = list_decode(spec, llr, list_size=1).best
    assert list(best.info_bits) == [bit]
    result = sc_decode(spec, llr)
    assert list(result.info_bits) == [bit]
    block = np.stack([llr, llr])
    assert list_decode(spec, block, list_size=1).best.info_bits.tolist() == [[bit], [bit]]
    # a -0.0 belief reaches only the last leaf, whose symbol goes only into
    # the codeword: both of its positions carry the decided bit
    assert list(best.codeword) == list(result.codeword) == [bit, bit]
    # the genie pass counts the raw decision against either true bit, and
    # never at the frozen leaf 0
    truth = np.array([[0], [1]], dtype=np.uint8)
    assert genie_error_counts(spec, block, truth).tolist() == [0, 1]
    assert genie_error_counts(spec, block[:1], truth[:1]).tolist() == [0, bit]


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


def test_list_memory_bound():
    # about 2 * min(L, 2**N) * n stored entries per frame; the check runs on
    # the sizes alone, never building 2**N, so no failing size is decoded
    assert list_decoder.MAX_LIST_ENTRIES == 1 << 27
    for m, dimension, list_size in ((24, 1 << 23, 4), (24, 2, 1 << 100), (20, 1 << 19, 64)):
        list_decoder.check_list_size(m, dimension, list_size)
    for m, dimension, list_size in ((24, 1 << 23, 8), (24, 3, 1 << 100), (20, 1 << 19, 65), (10, 1024, 1 << 17)):
        with pytest.raises(ValueError, match="MAX_LIST_ENTRIES"):
            list_decoder.check_list_size(m, dimension, list_size)
    # list_decode refuses before it reads or allocates anything
    spec = CodeSpec(m=10, info_indices=np.arange(1024))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MAX_LIST_ENTRIES"):
            list_decode(spec, np.ones((4, 1024)), list_size=1 << 17)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_list_size_beyond_every_word_allocates_as_the_full_list():
    # at most 2**N hypotheses can live, so a larger list size must size
    # nothing by itself: L = 10**7 once built arrays of 10**7 entries
    spec = freeze_rm(1, 3)  # N = 4
    full = list_decode(spec, np.ones(8), list_size=16)
    assert len(full.candidates) == 16
    tracemalloc.start()
    try:
        huge = list_decode(spec, np.ones(8), list_size=10**7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert same_list_result(huge, full)
    assert same_list_result(list_decode(spec, np.ones(8), list_size=np.int64(1 << 40)), full)
    assert same_list_result(list_decode(spec, np.ones(8), list_size=1 << 100), full)
    empty = CodeSpec(m=3, info_indices=())
    assert same_list_result(
        list_decode(empty, np.ones(8), list_size=10**7), list_decode(empty, np.ones(8), list_size=1)
    )


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


def _record_kernel_calls(monkeypatch):
    """Wrap the list decoder's kernels; each call appends (name, h, out)."""
    calls = []
    for name in ("combine_v_llr", "combine_u_llr"):
        kernel = getattr(list_decoder, name)

        def wrapped(*args, kernel=kernel, name=name):
            out = kernel(*args)
            calls.append((name, args[0].shape[-1], out))
            return out

        monkeypatch.setattr(list_decoder, name, wrapped)
    return calls


@pytest.mark.parametrize("L", [1, 2, 4])
@pytest.mark.parametrize("frames", [1, 3])
def test_kernel_calls_keep_the_half_width_last(monkeypatch, L, frames):
    # perfbench's tracer files every kernel call under args[0].shape[-1] and
    # sizes its work by out.size: the half width must be the last axis
    calls = _record_kernel_calls(monkeypatch)
    rng = np.random.default_rng(80 + L + frames)
    for m in (1, 3, 5, 7):
        for k in (1, (1 << m) // 3 + 1, 1 << m):
            spec = random_spec(m, k, rng)
            calls.clear()
            result = list_decode(spec, rng.normal(1.0, 2.0, (frames, spec.n)), list_size=L)
            for _, h, out in calls:
                assert h >= 1 and h & (h - 1) == 0
                assert out.shape[-1] == h
            assert sum(out.size for _, _, out in calls) == result.kernel_ops * frames


def test_kernel_calls_per_half_width_are_pinned(monkeypatch):
    calls = _record_kernel_calls(monkeypatch)
    list_decode(freeze_bec(10, 512, 0.5), np.zeros(1024), list_size=1)
    per_h = dict(zip([1 << i for i in range(10)], [331, 181, 99, 54, 29, 15, 8, 4, 2, 1]))
    for name in ("combine_v_llr", "combine_u_llr"):
        counted = {}
        for called, h, _ in calls:
            if called == name:
                counted[h] = counted.get(h, 0) + 1
        assert counted == per_h


@pytest.mark.parametrize(
    "spec, L, frames, digest",
    [
        (freeze_rm(3, 8), 4, 1, "0214f1edfd8f2313f0291f62d1a4a9afa488df60e26b4ae380701aaa19e4b764"),
        (freeze_bec(8, 128, 0.5), 16, 2, "e2ab49a435fbc6fde76ed01b968a95ba9f48a2b0bb512313382c3f07a5d82bb8"),
    ],
    ids=["rm-3-8-L4", "bec-8-128-L16"],
)
@pytest.mark.parametrize("mode", ["include", "ignore"])
def test_kernel_call_sequence_is_pinned(monkeypatch, spec, L, frames, digest, mode):
    # every kernel call in order, as (kernel, half width, rows): the decoder's
    # step loop may change, the work it hands to the kernels may not
    calls = _record_kernel_calls(monkeypatch)
    list_decode(spec, np.random.default_rng(82).normal(1.0, 2.0, (frames, spec.n)), L, mode)
    sequence = "".join(f"{name} {h} {out.size // h}\n" for name, h, out in calls)
    assert hashlib.sha256(sequence.encode()).hexdigest() == digest


# the entries moved by the forks of a list decode, with frozen_metric
# 'include' and 'ignore', by (m, k, L, frames)
_MOVED = {
    (8, 128, 16, 2): (29290, 27098),
    (8, 256, 16, 2): (37352, 37352),
    (10, 512, 16, 4): (144034, 136154),
    (10, 512, 4, 4): (31878, 32050),
    (10, 1024, 32, 2): (376536, 376536),
    (6, 64, 64, 3): (28760, 28760),
    (8, 93, 4, 1): (5322, 5098),
}


@pytest.mark.parametrize("m, k, L, frames", list(_MOVED))
def test_forks_move_at_most_twice_the_kernel_work(m, k, L, frames):
    # a fork composes row maps; a stored array is gathered only where it is
    # read, so the entries moved stay within the kernel work (Tal & Vardy's
    # lazy copy), and nothing moves without forks.  The exact counts pin
    # which entries are gathered
    spec = freeze_bec(m, k, 0.5)
    llr = np.random.default_rng(81).normal(1.0, 1.5, (frames, spec.n))
    for mode, moved in zip(("include", "ignore"), _MOVED[m, k, L, frames]):
        counter = list_decoder._decode(spec, llr, L, mode)[3]
        assert 0 < counter.moved <= 2 * counter.kernel
        assert counter.moved == moved
        assert list_decoder._decode(spec, llr, 1, mode)[3].moved == 0


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
    # clipped as SoftVector.from_llr clips each frame; a block decodes each
    # row as that frame alone
    llr = np.clip(posteriors(ch, y), -LLR_CLAMP, LLR_CLAMP)
    errors = {}
    for L in (1, 4):
        decided = list_decode(spec, llr, list_size=L).best.info_bits
        errors[L] = int(np.any(decided != words, axis=1).sum())
    assert errors[4] <= errors[1]
    assert errors[1] > 0  # the comparison is not vacuous at this noise level


def test_frozen_subtree_of_width_128_matches_reference_decoder():
    spec = freeze_bec(10, 512, 0.5)
    # leaves 0..127 form one frozen step, decoded breadth first
    assert decode_steps(spec)[0] == (0, 3)
    rng = np.random.default_rng(63)
    frames = [_received_llr(spec, Channel.awgn(sigma), rng)[1].llr for sigma in (0.8, 1.1)]
    frames.append(np.round(frames[1]))  # rounded beliefs: exact metric ties
    for llr in frames:
        for L in (1, 4):
            expected = reference_list_decode(spec, llr, L)
            assert same_list_result(list_decode(spec, llr, list_size=L), expected)


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


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 6),
    L=st.sampled_from([1, 2, 4, 8]),
    frames=st.integers(1, 5),
    mode=st.sampled_from(["include", "ignore"]),
    channel=st.sampled_from(sorted(_PROPERTY_CHANNELS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_block_decode_matches_per_frame(data, m, L, frames, mode, channel, seed):
    # a block is decoded as its frames would be one by one: every candidate's
    # bits, codeword and exact metric, and both work counts
    k = data.draw(st.integers(1, 1 << m), label="k")
    rng = np.random.default_rng(seed)
    spec = random_spec(m, k, rng)
    ch = _PROPERTY_CHANNELS[channel]
    words = random_info_bits(spec, rng, size=frames)
    llr = posteriors(ch, transmit(ch, modulate(encode(spec, words)), rng))
    block = list_decode(spec, llr, list_size=L, frozen_metric=mode)
    assert block.metrics.shape == (frames, min(L, 1 << k))
    for f, row in enumerate(llr):
        alone = list_decode(spec, SoftVector(row), list_size=L, frozen_metric=mode)
        assert same_list_result(frame_of(block, f), alone)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 6),
    sigma=st.sampled_from([0.6, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_list_size_one_matches_probability_domain_reference(data, m, sigma, seed):
    # An independent probability-domain recursion.  It loses a belief once a
    # posterior rounds to exactly 0 or 1 (1 - q below 1e-16 is not
    # representable), and a posterior within 1e-9 of 1/2 is noise in either
    # arithmetic, so the comparison stops at the first such information leaf.
    k = data.draw(st.integers(1, 1 << m), label="k")
    rng = np.random.default_rng(seed)
    spec = random_spec(m, k, rng)
    _, sv = _received_llr(spec, Channel.awgn(sigma), rng)
    with np.errstate(invalid="ignore"):
        ref_bits, ref_posts = q_domain_reference_decode(spec, sv.q)
    lost = ~np.isfinite(ref_posts) | (ref_posts == 0.0) | (ref_posts == 1.0)
    lost |= np.abs(ref_posts - 0.5) < 1e-9
    limit = int(np.argmax(lost)) if lost.any() else ref_bits.size
    best = list_decode(spec, sv, list_size=1).best
    np.testing.assert_array_equal(best.info_bits[:limit], ref_bits[:limit])


def test_frozen_step_ranks_ties_as_leaf_by_leaf_sorts():
    # leaves 4 and 5 are one frozen step; two hypotheses end it with equal
    # metrics but reach them in a different order, and which of them is
    # ranked first decides a tie at the cut to L=4 two leaves later
    spec = CodeSpec(m=3, info_indices=(1, 4, 5, 6))
    assert (4, 2) in decode_steps(spec)
    llr = np.array([2.0, 0.0, 0.0, -2.0, -2.0, -2.0, -2.0, -2.0])
    result = list_decode(spec, llr, list_size=4)
    assert same_list_result(result, reference_list_decode(spec, llr, 4))
    assert [info_bits_to_int(c.info_bits) for c in result.candidates] == [7, 2, 1, 0]


@settings(max_examples=80, deadline=None)
@given(
    data=st.data(),
    m=st.integers(1, 7),
    L=st.sampled_from([1, 2, 4, 8]),
    mode=st.sampled_from(["include", "ignore"]),
    construction=st.sampled_from(["bec", "frozen-prefix"]),
    beliefs=st.sampled_from(["bsc", "bec", "rounded"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_frozen_subtrees_match_reference_and_metric_replay(
    data, m, L, mode, construction, beliefs, seed
):
    # at most half the leaves informational, so frozen steps are often wide
    n = 1 << m
    k = data.draw(st.integers(1, max(1, n // 2)), label="k")
    rng = np.random.default_rng(seed)
    if construction == "bec":
        spec = freeze_bec(m, k, data.draw(st.floats(0.01, 0.99), label="z"))
    else:
        # the first `prefix` leaves (the highest indices) frozen, the rest random
        prefix = data.draw(st.integers(1, n - k), label="prefix")
        chosen = rng.choice(n - prefix, size=k, replace=False)
        spec = CodeSpec(m=m, info_indices=chosen)
    if beliefs != "rounded":
        # few distinct beliefs (bec: +-40 and 0), so exact metric ties are common
        ch = Channel.bsc(0.1) if beliefs == "bsc" else Channel.bec(0.4)
        llr = _received_llr(spec, ch, rng)[1].llr
    else:
        llr = np.round(_received_llr(spec, Channel.awgn(0.9), rng)[1].llr)
    result = list_decode(spec, llr, list_size=L, frozen_metric=mode)
    assert same_list_result(result, reference_list_decode(spec, llr, L, frozen_metric=mode))
    for cand in result.candidates:
        expected = metric_replay(spec, llr, cand.info_bits, frozen_metric=mode)
        assert cand.metric == pytest.approx(expected, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    m=st.integers(2, 5),
    L=st.sampled_from([2, 3, 4]),
    level=st.sampled_from([1.0, 2.0, 40.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_property_frozen_step_ties_rank_as_leaf_by_leaf_sorts(data, m, L, level, seed):
    # beliefs from {0, +-level} make exact metric ties at the cut to L after
    # a frozen step common, so the order of the re-rank's keys shows; each
    # example decodes a block of frames of one spec, every row against the
    # reference
    n = 1 << m
    k = data.draw(st.integers(1, n // 2), label="k")
    rng = np.random.default_rng(seed)
    spec = random_spec(m, k, rng)
    llr = level * rng.integers(-1, 2, size=(32, n))
    block = list_decode(spec, llr, list_size=L)
    for f, row in enumerate(llr):
        assert same_list_result(frame_of(block, f), reference_list_decode(spec, row, L))


def test_same_list_result_tells_the_sign_of_zero():
    def result(metric):
        return ListResult(np.zeros((1, 2), dtype=np.uint8), np.zeros((1, 8), dtype=np.uint8), np.array([metric]), 1, 1)

    assert same_list_result(result(0.0), result(0.0))
    assert not same_list_result(result(0.0), result(-0.0))


@pytest.mark.parametrize("mode", ["include", "ignore"])
@pytest.mark.parametrize("beliefs", ["bsc:0.2", "bsc:0.4", "zero"])
def test_rank_rule_matches_reference_on_tie_heavy_blocks(beliefs, mode):
    # hard-decision and all-zero beliefs make exact metric ties, and ties
    # within METRIC_TIE_EPS, common at the end of a decode: the array rank
    # rule must order every frame's candidates as the per-frame Python rule
    # of the reference decoder does, L >= 2**N included
    rng = np.random.default_rng(91)
    cases = [(freeze_bec(5, 12, 0.5), 2), (freeze_bec(5, 12, 0.5), 4), (freeze_bec(5, 12, 0.5), 16),
             (freeze_rm(1, 3), 16), (freeze_bec(4, 3, 0.5), 16)]
    for spec, L in cases:
        words = random_info_bits(spec, rng, size=4)
        if beliefs == "zero":
            llr = np.zeros((4, spec.n))
        else:
            ch = Channel.bsc(float(beliefs.split(":")[1]))
            llr = posteriors(ch, transmit(ch, modulate(encode(spec, words)), rng))
        block = list_decode(spec, llr, list_size=L, frozen_metric=mode)
        assert block.metrics.shape == (4, min(L, 1 << spec.dimension))
        for f, row in enumerate(llr):
            assert same_list_result(frame_of(block, f), reference_list_decode(spec, row, L, frozen_metric=mode))


@pytest.mark.parametrize("N", [1, 7, 8, 9, 64, 65, 130])
def test_rank_orders_words_that_differ_in_their_last_bit(N):
    # one byte-string key per word: the last bit, in the last (padded) byte,
    # must still order the words as info_bits_to_int reads them
    rng = np.random.default_rng(92 + N)
    word = rng.integers(0, 2, N, dtype=np.uint8)
    larger, smaller = word.copy(), word.copy()
    larger[-1], smaller[-1] = 1, 0
    assert info_bits_to_int(smaller) < info_bits_to_int(larger)
    # frames: an exact tie, the larger word better within METRIC_TIE_EPS, and
    # the larger word better beyond it; the larger word comes first
    metrics = np.array([[-1.0, -1.0, -1.0], [-1.0, -1.0 - 0.5e-9, -1.0 - 2e-9]])
    bits = np.stack([np.stack([larger] * 3), np.stack([smaller] * 3)])
    # the same words with the bit axis not contiguous
    strided = np.ascontiguousarray(bits.transpose(2, 0, 1)).transpose(1, 2, 0)
    for words in (bits, strided):
        assert list_decoder._rank(metrics, words).T.tolist() == [[1, 0], [1, 0], [0, 1]]


# raw beliefs whose log posteriors reach both signs of zero: log_expit(800)
# is -0.0, so a metric summed without its +0.0 start would read -0.0
_SC_METRIC_BELIEFS = np.array([0.0, -0.0, 1.5, -1.5, 40.0, -40.0, 800.0, -800.0])


@pytest.mark.parametrize("mode", ["include", "ignore"])
def test_list_size_one_metric_bytes_match_the_per_leaf_reference(mode):
    # at L=1 the core keeps no metric: it is summed from the leaf beliefs on
    # first read, and must keep the bytes of the per-leaf oracle's running sum
    rng = np.random.default_rng(97)
    for spec in (freeze_bec(5, 12, 0.5), freeze_rm(2, 6), CodeSpec(m=3, info_indices=np.arange(8))):
        blocks = (
            rng.choice(_SC_METRIC_BELIEFS, size=(6, spec.n)),
            np.full((2, spec.n), 800.0),
            rng.normal(0.3, 2.0, size=(3, spec.n)),
        )
        for llr in blocks:
            block = list_decode(spec, llr, 1, frozen_metric=mode)
            assert block.metrics.shape == (len(llr), 1)
            for f, row in enumerate(llr):
                expected = reference_list_decode(spec, row, 1, frozen_metric=mode)
                assert same_list_result(frame_of(block, f), expected)
                one = list_decode(spec, row[None, :], 1, frozen_metric=mode)
                assert one.metrics.shape == (1, 1) and same_list_result(frame_of(one, 0), expected)
                alone = list_decode(spec, row, 1, frozen_metric=mode)
                assert same_list_result(alone, expected)
            clipped = np.clip(llr[0], -LLR_CLAMP, LLR_CLAMP)
            soft = list_decode(spec, SoftVector(clipped), 1, frozen_metric=mode)
            assert same_list_result(soft, reference_list_decode(spec, clipped, 1, frozen_metric=mode))
        # every log posterior of an all-800 frame is -0.0; the sum is +0.0
        zero = list_decode(spec, np.full(spec.n, 800.0), 1, frozen_metric=mode).metrics
        assert zero.tobytes() == np.zeros(1).tobytes()
        empty = list_decode(spec, np.zeros((0, spec.n)), 1, frozen_metric=mode)
        assert (empty.info_bits.shape, empty.metrics.shape) == ((0, 1, spec.dimension), (0, 1))


@pytest.mark.parametrize("mode", ["include", "ignore"])
def test_list_metric_bytes_match_the_reference_where_log_posteriors_are_zero(mode):
    # a frozen subtree sums the negated metric; an all-800 run of leaves
    # makes every cost +0.0, and the metric must still read the reference's
    # +0.0, never -0.0
    rng = np.random.default_rng(96)
    for spec in (freeze_bec(5, 12, 0.5), freeze_rm(2, 6), freeze_bec(4, 3, 0.5)):
        for llr in (rng.choice(_SC_METRIC_BELIEFS, size=(4, spec.n)), np.full((2, spec.n), 800.0)):
            for L in (2, 4):
                block = list_decode(spec, llr, L, frozen_metric=mode)
                for f, row in enumerate(llr):
                    assert same_list_result(frame_of(block, f), reference_list_decode(spec, row, L, frozen_metric=mode))
        top = list_decode(spec, np.full(spec.n, 800.0), 2, frozen_metric=mode).metrics[0]
        assert top.tobytes() == np.zeros(1).tobytes()


def test_list_size_one_metric_is_computed_on_first_read(monkeypatch):
    # the decisions need no log posterior; only reading the metric does
    def no_log_expit(x):
        raise AssertionError("log_expit was called")

    spec = freeze_bec(5, 12, 0.5)
    llr = np.random.default_rng(98).normal(0.5, 1.5, size=(3, spec.n))
    expected = list_decode(spec, llr, 1)
    monkeypatch.setattr(list_decoder, "log_expit", no_log_expit)
    result = list_decode(spec, llr, 1)
    assert np.array_equal(result.info_bits, expected.info_bits)
    assert np.array_equal(result.codewords, expected.codewords)
    for read in (lambda: result.metrics, lambda: result.best):
        with pytest.raises(AssertionError, match="log_expit was called"):
            read()
    monkeypatch.undo()
    assert same_list_result(result, expected)


# beliefs at the edges of log1p(exp(.)): both zeros, subnormals, where exp
# overflows (709.78) or underflows (-745.2), and beyond
_LOG_EXPIT_EDGES = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
                             -2.2250738585072014e-308, 709.78, -709.78, 745.2, -745.2, 800.0, -800.0,
                             1e300, -1e300])


def test_log_posteriors_match_scipy_bit_for_bit():
    # scipy.special.log_expit is the independent oracle for the numpy form
    # the decoder computes, alone and with its negation folded into a metric
    # update (extend_leaf, a lone frozen leaf), as a cost: its negation
    rng = np.random.default_rng(99)
    scales = (1e-6, 1e-3, 1.0, 10.0, 40.0, 800.0)
    x = np.concatenate([_LOG_EXPIT_EDGES, _SC_METRIC_BELIEFS] + [rng.normal(0.0, s, 20000) for s in scales])
    expected = log_expit(x)
    assert list_decoder.log_expit(x).tobytes() == expected.tobytes()
    assert (-np.logaddexp(0.0, -x)).tobytes() == expected.tobytes()
    metrics = rng.choice([0.0, -1e-17, -0.7, -300.0], size=x.shape)
    assert (metrics - np.logaddexp(0.0, -x)).tobytes() == (metrics + expected).tobytes()
    # costs from +0.0 are the negated metrics up to the sign of an exact
    # zero, and 0.0 - cost gives back every metric's bytes
    cost = 0.0 - metrics
    assert (0.0 - (cost + np.logaddexp(0.0, -x))).tobytes() == (metrics + expected).tobytes()
    pool = extend_leaf(cost[None, :], x[None, :], _signs(1, len(x)))
    assert (0.0 - pool).tobytes() == np.stack([metrics + expected, metrics + log_expit(-x)]).tobytes()
    assert np.array_equal(pool, -np.stack([metrics + expected, metrics + log_expit(-x)]))
