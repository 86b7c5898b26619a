import csv
import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from rmpolar import list_decoder, sim
from rmpolar import (
    CSV_HEADER,
    Channel,
    CodeSpec,
    ComplexityReport,
    complexity_probe,
    freeze_bec,
    freeze_rm,
    run_simulation,
    write_csv,
)


def test_csv_header_layout():
    assert CSV_HEADER == (
        "channel,param,trials,frame_errors,bit_errors,fer,ber,fer_ci95,"
        "avg_kernel_ops,avg_select_ops,seed"
    )


def _wilson_bounds(errors, trials, z=1.96):
    """The 95% Wilson score interval of errors / trials, in its textbook form."""
    p = errors / trials
    centre = p + z * z / (2 * trials)
    spread = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials))
    return (centre - spread) / (1 + z * z / trials), (centre + spread) / (1 + z * z / trials)


def test_noiseless_point_has_no_errors():
    spec = freeze_rm(1, 3)
    results = run_simulation(spec, [(Channel.bsc(0.0), 0.0)], list_size=1, trials=50, seed=0)
    (res,) = results
    assert res.frame_errors == 0 and res.bit_errors == 0
    assert res.fer == 0.0 and res.ber == 0.0
    # zero errors in 50 trials still leave a Wilson interval [0, z^2 / (50 + z^2)]
    assert res.fer_ci95 == pytest.approx(1.96**2 / (50 + 1.96**2), rel=1e-12)
    assert res.trials == 50 and res.seed == 0
    assert res.avg_kernel_ops > 0
    assert res.avg_select_ops > 0


def test_total_erasure_gives_half_bit_error_rate():
    # Everything erased decodes to the zero word, so the bit error rate is
    # the mean of uniform bits and the frame error rate is 1 - 2**-N.
    spec = freeze_bec(3, 4, 0.5)
    trials = 600
    (res,) = run_simulation(spec, [(Channel.bec(1.0), 1.0)], list_size=1, trials=trials, seed=3)
    ber_sigma = math.sqrt(0.25 / (trials * 4))
    assert abs(res.ber - 0.5) <= 4 * ber_sigma
    fer_target = 1.0 - 2.0**-4
    fer_sigma = math.sqrt(fer_target * (1 - fer_target) / trials)
    assert abs(res.fer - fer_target) <= 4 * fer_sigma


def test_results_sorted_by_kind_then_param():
    spec = freeze_rm(1, 3)
    points = [
        (Channel.bsc(0.2), 0.2),
        (Channel.awgn(1.0), 2.0),
        (Channel.bsc(0.05), 0.05),
        (Channel.bec(0.3), 0.3),
    ]
    results = run_simulation(spec, points, list_size=1, trials=5, seed=1)
    keys = [(r.channel, r.param) for r in results]
    assert keys == sorted(keys)
    assert keys[0][0] == "awgn" and keys[-1] == ("bsc", 0.2)


def test_rates_and_ci_are_consistent():
    spec = freeze_bec(4, 8, 0.5)
    results = run_simulation(
        spec, [(Channel.bsc(0.1), 0.1)], list_size=2, trials=400, seed=11
    )
    (res,) = results
    assert res.fer == res.frame_errors / res.trials
    assert res.ber == res.bit_errors / (res.trials * spec.dimension)
    # fer +- fer_ci95 covers the Wilson interval and touches one of its bounds
    lo, hi = _wilson_bounds(res.frame_errors, res.trials)
    assert 0.0 < lo < res.fer < hi < 1.0
    assert res.fer_ci95 == pytest.approx(max(res.fer - lo, hi - res.fer), rel=1e-12)
    assert res.bit_errors >= res.frame_errors  # an errored frame has >= 1 bit wrong


@pytest.mark.parametrize("errors, trials", [(0, 1), (0, 1000), (1, 1), (3, 7), (500, 1000), (999, 1000), (1000, 1000)])
def test_fer_ci95_is_the_wilson_interval(errors, trials):
    lo, hi = _wilson_bounds(errors, trials)
    half = sim._wilson_halfwidth(errors, trials)
    fer = errors / trials
    assert half > 0.0
    assert half == pytest.approx(max(fer - lo, hi - fer), rel=1e-12)
    assert fer - half <= lo + 1e-15 and fer + half >= hi - 1e-15


# The CSV columns that perfbench gates (GATED_COLUMNS in perfbench/workloads.py)
# of one fixed sweep, recorded before the list decoder returned one array
# ListResult per block: refactors of the decoder must not move them.
GOLDEN_GATED_ROWS = {
    1: [
        ("awgn", "1.0", "64", "15", "86", "160.0", "13"),
        ("bec", "0.4", "64", "19", "105", "160.0", "13"),
        ("bsc", "0.1", "64", "21", "132", "160.0", "13"),
    ],
    4: [
        ("awgn", "1.0", "64", "15", "85", "420.0", "13"),
        ("bec", "0.4", "64", "12", "51", "420.0", "13"),
        ("bsc", "0.1", "64", "20", "121", "420.0", "13"),
    ],
}


@pytest.mark.parametrize("list_size", sorted(GOLDEN_GATED_ROWS))
def test_gated_csv_columns_are_pinned(tmp_path, list_size):
    gated = ("channel", "param", "trials", "frame_errors", "bit_errors", "avg_kernel_ops", "seed")
    spec = freeze_bec(5, 16, 0.5)
    points = [(Channel.bsc(0.1), 0.1), (Channel.bec(0.4), 0.4), (Channel.awgn(0.9), 1.0)]
    target = tmp_path / "sweep.csv"
    write_csv(run_simulation(spec, points, list_size, trials=64, seed=13), target)
    with open(target, newline="", encoding="ascii") as fh:
        rows = [tuple(row[c] for c in gated) for row in csv.DictReader(fh)]
    assert rows == GOLDEN_GATED_ROWS[list_size]


def test_same_seed_reproduces_results():
    spec = freeze_bec(4, 8, 0.5)
    points = [(Channel.bsc(0.08), 0.08), (Channel.awgn(0.9), 1.0)]
    a = run_simulation(spec, points, list_size=2, trials=60, seed=42)
    b = run_simulation(spec, points, list_size=2, trials=60, seed=42)
    assert a == b


def test_written_csv_is_deterministic(tmp_path):
    spec = freeze_bec(3, 4, 0.5)
    points = [(Channel.bsc(0.1), 0.1), (Channel.bec(0.4), 0.4)]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_csv(run_simulation(spec, points, list_size=2, trials=40, seed=7), first)
    write_csv(run_simulation(spec, points, list_size=2, trials=40, seed=7), second)
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("list_size, mode", [(1, "include"), (4, "include"), (2, "ignore")])
def test_csv_bytes_do_not_depend_on_chunk_size(tmp_path, monkeypatch, list_size, mode):
    spec = freeze_bec(4, 8, 0.5)
    points = [(Channel.bsc(0.1), 0.1), (Channel.bec(0.4), 0.4), (Channel.awgn(0.9), 1.0)]
    written = []
    # blocks of 7 and 45 split points (trials=30), 4096 holds the whole sweep
    for chunk in (1, 7, 45, 4096):
        monkeypatch.setattr(list_decoder, "DECODE_BLOCK_ENTRIES", chunk * list_size * spec.n)
        assert list_decoder.block_frames(spec, list_size) == chunk
        target = tmp_path / f"chunk{chunk}.csv"
        write_csv(run_simulation(spec, points, list_size, trials=30, seed=9, frozen_metric=mode), target)
        written.append(target.read_bytes())
    assert all(data == written[0] for data in written)


@pytest.mark.parametrize("trials, chunk", [(1, 1), (1, 2), (5, 3), (4, 8), (7, 4096)])
def test_sweep_decodes_one_stream_of_full_blocks(monkeypatch, trials, chunk):
    # every block but the last is full, even where it holds several points
    spec = freeze_bec(4, 8, 0.5)
    points = [(Channel.bsc(0.1), 0.1), (Channel.awgn(0.9), 1.0), (Channel.bsc(0.1), 0.1)]
    monkeypatch.setattr(list_decoder, "DECODE_BLOCK_ENTRIES", chunk * 2 * spec.n)
    sizes = []
    decode = sim.list_decode

    def counted(spec, beliefs, *args, **kwargs):
        sizes.append(len(beliefs))
        return decode(spec, beliefs, *args, **kwargs)

    monkeypatch.setattr(sim, "list_decode", counted)
    run_simulation(spec, points, list_size=2, trials=trials, seed=4)
    stream = len(points) * trials
    assert len(sizes) == math.ceil(stream / chunk)
    assert sum(sizes) == stream
    assert all(size == chunk for size in sizes[:-1]) and 1 <= sizes[-1] <= chunk


@pytest.mark.parametrize("trials", [1, 5])
def test_each_point_of_a_sweep_is_simulated_as_if_alone(monkeypatch, trials):
    # blocks of 3 frames mix points; a duplicated point repeats its row
    spec = freeze_bec(4, 8, 0.5)
    points = [(Channel.bsc(0.1), 0.1), (Channel.awgn(0.9), 1.0), (Channel.bsc(0.1), 0.1), (Channel.bec(0.4), 0.4)]
    monkeypatch.setattr(list_decoder, "DECODE_BLOCK_ENTRIES", 3 * 2 * spec.n)
    sweep = run_simulation(spec, points, list_size=2, trials=trials, seed=6)
    alone = [run_simulation(spec, [point], list_size=2, trials=trials, seed=6)[0] for point in points]
    assert sweep == sorted(alone, key=lambda r: (r.channel, r.param))
    assert sweep[2] == sweep[3]  # sorted: awgn, bec, bsc, bsc


def test_block_frames_bounds_entries():
    spec = freeze_bec(8, 128, 0.5)
    block_frames, budget = list_decoder.block_frames, list_decoder.DECODE_BLOCK_ENTRIES
    assert block_frames(spec, 1) * spec.n <= budget
    assert block_frames(spec, 16) * 16 * spec.n <= budget
    # one frame of a list this long exceeds the budget alone
    assert 8192 * spec.n > budget and block_frames(spec, 8192) == 1
    with pytest.raises(ValueError):
        block_frames(spec, 0)
    # a list longer than 2**k sizes like 2**k, the most that live
    small = freeze_bec(6, 4, 0.5)
    assert block_frames(small, 10**7) == block_frames(small, 16) == budget // (16 * small.n)


def test_lists_at_and_past_ml_size_decode_in_the_same_blocks(monkeypatch, tmp_path):
    # L >= 2**k keeps min(L, 2**k) = 16 hypotheses: the same calls, the same rows
    spec = freeze_bec(6, 4, 0.5)
    points = [(Channel.bsc(0.05), 0.05), (Channel.awgn(0.9), 1.0)]
    decode = sim.list_decode
    calls, written = [], []

    def counted(*args, **kwargs):
        calls[-1] += 1
        return decode(*args, **kwargs)

    monkeypatch.setattr(sim, "list_decode", counted)
    for list_size in (16, 4096, 10**7):
        calls.append(0)
        target = tmp_path / f"L{list_size}.csv"
        write_csv(run_simulation(spec, points, list_size, trials=2000, seed=11), target)
        written.append(target.read_bytes())
    assert calls == [4, 4, 4]
    assert written[1] == written[0] and written[2] == written[0]


def test_bad_frozen_metric_is_refused_before_drawing(monkeypatch):
    spec = freeze_bec(4, 8, 0.5)
    draws = []
    draw = sim.random_info_bits

    def counted(*args, **kwargs):
        draws.append(1)
        return draw(*args, **kwargs)

    monkeypatch.setattr(sim, "random_info_bits", counted)
    with pytest.raises(ValueError) as refused:
        run_simulation(spec, [(Channel.bsc(0.1), 0.1)], 2, trials=5000, seed=0, frozen_metric="bogus")
    assert draws == []
    # the message of list_decode's own check
    with pytest.raises(ValueError) as decoded:
        list_decoder.list_decode(spec, np.zeros(spec.n), 2, frozen_metric="bogus")
    assert str(refused.value) == str(decoded.value)


def test_negative_seed_is_refused_before_drawing(monkeypatch):
    draws = []
    draw = sim.random_info_bits

    def counted(*args, **kwargs):
        draws.append(1)
        return draw(*args, **kwargs)

    monkeypatch.setattr(sim, "random_info_bits", counted)
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        run_simulation(freeze_bec(4, 8, 0.5), [(Channel.bsc(0.1), 0.1)], 2, trials=5, seed=-1)
    assert draws == []


def test_non_integer_list_sizes_trials_and_seeds_are_refused_by_name():
    # a list size of 2.5 once ran L=2, and fractional trials and seeds ended
    # in numpy TypeErrors that named no argument
    spec, points = freeze_bec(4, 8, 0.5), [(Channel.bsc(0.1), 0.1)]
    for args, message in (
        ((2.5, 3, 0), "list size must be an integer, got 2.5"),
        ((2, 2.5, 0), "trials must be an integer, got 2.5"),
        ((2, 3, 0.5), "seed must be an integer, got 0.5"),
        ((2, 3, "0"), "seed must be an integer, got '0'"),
    ):
        with pytest.raises(ValueError) as exc:
            run_simulation(spec, points, *args)
        assert str(exc.value) == message
    # complexity_probe once fitted L=1's count under L=1.5
    with pytest.raises(ValueError, match=r"^list size must be an integer, got 1\.5$"):
        complexity_probe([4], [1.5])


def test_csv_rows_round_trip(tmp_path):
    spec = freeze_rm(1, 4)
    points = [(Channel.bsc(0.1), 0.1), (Channel.awgn(1.1), 1.5)]
    results = run_simulation(spec, points, list_size=2, trials=30, seed=5)
    target = tmp_path / "sweep.csv"
    write_csv(results, target)
    with open(target, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(results)
    for row, res in zip(rows, results):
        assert row["channel"] == res.channel
        assert float(row["param"]) == res.param
        assert int(row["trials"]) == res.trials
        assert int(row["frame_errors"]) == res.frame_errors
        assert float(row["fer"]) == res.fer
        assert float(row["ber"]) == res.ber
        assert float(row["fer_ci95"]) == res.fer_ci95
        assert float(row["avg_kernel_ops"]) == res.avg_kernel_ops
        assert float(row["avg_select_ops"]) == res.avg_select_ops
        assert int(row["seed"]) == res.seed


def test_run_simulation_validation():
    spec = freeze_rm(1, 3)
    with pytest.raises(ValueError):
        run_simulation(spec, [], list_size=1, trials=10, seed=0)
    with pytest.raises(ValueError):
        run_simulation(spec, [(Channel.bsc(0.1), 0.1)], list_size=1, trials=0, seed=0)
    empty = freeze_bec(3, 0, 0.5)
    with pytest.raises(ValueError):
        run_simulation(empty, [(Channel.bsc(0.1), 0.1)], list_size=1, trials=10, seed=0)


def test_complexity_probe_points_and_fits():
    report = complexity_probe([6, 7, 8], [1, 2, 4, 8])
    assert isinstance(report, ComplexityReport)
    assert len(report.decoder_points) == 3 * 4
    assert len(report.encoder_points) == 3
    for (m, n, L, kernel, select) in report.decoder_points:
        assert n == 1 << m
        assert kernel > 0 and select > 0
    for (m, n, kernel) in report.encoder_points:
        # The butterfly count is exact: n * log2(n) / 2.
        assert kernel == n * m / 2
    assert all(abs(r) < 0.2 for r in report.decoder_residuals)
    assert all(abs(r) < 1e-12 for r in report.encoder_residuals)
    assert 0.5 < report.decoder_fit <= 1.1
    assert report.encoder_fit == pytest.approx(0.5, rel=1e-12)


def test_complexity_report_to_dict():
    report = complexity_probe([5, 6], [1, 2])
    payload = report.to_dict()
    assert set(payload) == {"decoder", "encoder"}
    dec = payload["decoder"]
    assert dec["fit_a"] == report.decoder_fit
    assert len(dec["points"]) == 4
    assert dec["max_abs_residual"] == max(abs(r) for r in report.decoder_residuals)
    assert {"m", "n", "L", "kernel_ops", "select_ops", "residual"} == set(dec["points"][0])
    enc = payload["encoder"]
    assert {"m", "n", "kernel_ops"} == set(enc["points"][0])


def test_complexity_probe_decodes_one_frame_per_point(monkeypatch):
    # the counts depend on the frozen set and L only, so each (m, L) point
    # is one frame, formed and decoded through the sweep's pipeline
    calls = []
    decode = sim.list_decode

    def counted(spec, beliefs, list_size, *args, **kwargs):
        calls.append((spec.m, list_size, len(beliefs)))
        return decode(spec, beliefs, list_size, *args, **kwargs)

    monkeypatch.setattr(sim, "list_decode", counted)
    complexity_probe([4, 5], [1, 4])
    assert calls == [(4, 1, 1), (4, 4, 1), (5, 1, 1), (5, 4, 1)]


def test_complexity_report_bytes_are_pinned():
    # recorded when the probe drew three frames per point from one generator
    # of its own: the counts never depend on the frames, so the bytes must
    # not move
    payload = json.dumps(complexity_probe([4, 5, 6], [1, 2, 4, 8]).to_dict(), sort_keys=True)
    digest = hashlib.sha256(payload.encode()).hexdigest()
    assert digest == "f2a5f6796cfa960e83180de887d5b4cea1dcded814080d6529ff8a2f8ae9b132"


def test_list_memory_bound_refused_before_the_first_draw(monkeypatch):
    # full rate at m=10: L = 2**17 hypotheses would store about 2**28 entries
    spec = CodeSpec(m=10, info_indices=np.arange(1024))
    runs = []
    monkeypatch.setattr(sim, "run_simulation", lambda *args, **kwargs: runs.append(args))
    for call in (
        lambda: run_simulation(spec, [(Channel.bsc(0.1), 0.1)], list_size=1 << 17, trials=10**9, seed=0),
        # every (m, L) is checked before the first point runs
        lambda: complexity_probe([4, 10], [1, 1 << 17]),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="MAX_LIST_ENTRIES"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
    assert runs == []


def test_complexity_probe_validation():
    with pytest.raises(ValueError):
        complexity_probe([], [1])
    with pytest.raises(ValueError):
        complexity_probe([6], [])
    with pytest.raises(ValueError, match="m must lie in"):
        complexity_probe([6, 40], [1])


def test_list_size_one_simulation_frees_each_block_before_the_next(monkeypatch):
    # an L=1 result holds its block's (frames, n) leaf beliefs; freed before
    # the next block is decoded, a sweep of three blocks peaks as one does
    spec = freeze_bec(8, 128, 0.5)
    monkeypatch.setattr(list_decoder, "DECODE_BLOCK_ENTRIES", 64 * spec.n)
    points = [(Channel.bsc(0.05), 0.05)]

    def peak(trials):
        run_simulation(spec, points, 1, trials=trials, seed=3)
        tracemalloc.start()
        try:
            run_simulation(spec, points, 1, trials=trials, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    leaf_beliefs = 64 * spec.n * 8
    assert peak(3 * 64) - peak(64) < leaf_beliefs // 2


def test_list_size_one_simulation_computes_no_metric(monkeypatch):
    # successive cancellation decides by signs; the sweep reads the rank-1
    # words only, so the L=1 metric, summed on first read, is never summed
    def no_log_expit(x):
        raise AssertionError("log_expit was called")

    spec = freeze_bec(6, 30, 0.5)
    points = [(Channel.bsc(0.05), 0.05), (Channel.awgn(0.8), 0.8)]
    expected = run_simulation(spec, points, 1, trials=40, seed=5)
    monkeypatch.setattr(list_decoder, "log_expit", no_log_expit)
    assert run_simulation(spec, points, 1, trials=40, seed=5) == expected
    assert sum(row.frame_errors for row in expected) > 0
