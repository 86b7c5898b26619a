"""Tests of the benchmark itself, on tiny workload sizes.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time

import pytest

import bootstrap
import bench
import tracing
import workloads

import rmpolar

NAMES = sorted(workloads.tiny_size())


def _benchmark_json():
    with open(bootstrap.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def tiny(tmp_path):
    """Tiny workloads with references freshly recorded into tmp_path."""
    recorded = workloads.tiny_size()
    for wl in recorded.values():
        wl.setup(tmp_path)
        wl.save_reference(wl.record(), "test", tmp_path)
    return workloads.tiny_size(), tmp_path


def _measure(tiny, name, trace, seed=0, seconds=0.3):
    sized, ref_dir = tiny
    return bench.measure(sized[name], seed, seconds, trace, time.monotonic(), ref_dir=ref_dir, out_dir=ref_dir)


def _rmpolar_attributes():
    return {
        (modname, attr): value
        for modname, module in sys.modules.items()
        if modname == "rmpolar" or modname.startswith("rmpolar.")
        for attr, value in vars(module).items()
    }


def test_workloads_match_benchmark_json():
    spec = _benchmark_json()
    registered = [w["name"] for w in spec["workloads"]]
    assert registered == [name for name in workloads.full_size() if name in registered]
    assert list(workloads.tiny_size()) == list(workloads.full_size())
    assert spec["paths"] == ["perfbench"]


@pytest.mark.parametrize("name", NAMES)
def test_tiny_run_passes_the_gate_and_reports_every_end_to_end_metric(tiny, name):
    result, detail = _measure(tiny, name, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["failed_fraction"] == 0
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_times_are_scaled_to_the_reference_host_speed(tiny, monkeypatch):
    # a host twice as slow as the reference doubles every probe and every
    # wall time, and leaves the reported figures where they were
    monkeypatch.setattr(bench, "host_probe", lambda: 2 * bench.PROBE_REF_S)
    result, detail = _measure(tiny, "decode-latency", trace=False)
    metrics = result["metrics"]
    assert metrics["frames_per_s"]["value"] == pytest.approx(2 * detail["frames_per_s_wall"])
    assert metrics["setup_s"]["value"] == pytest.approx(detail["setup_wall_s"] / 2)
    assert detail["latency_ms"]["p50"] == pytest.approx(detail["latency_ms_wall"]["p50"] / 2)


def test_host_probe_takes_milliseconds():
    assert 1e-4 < bench.host_probe() < 1.0


@pytest.mark.parametrize("name", NAMES)
def test_tiny_traced_run_reports_every_per_layer_metric_and_restores(tiny, name):
    before = _rmpolar_attributes()
    result, detail = _measure(tiny, name, trace=True)
    assert _rmpolar_attributes() == before
    assert all(before[key] is value for key, value in _rmpolar_attributes().items())
    assert result["correct"] and detail["levels_sum_to_total"]
    expected = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_tracer_patches_every_module_that_imported_a_wrapped_function():
    originals = {
        (mod, attr): getattr(sys.modules[f"rmpolar.{mod}"], attr)
        for mod, attr in [
            ("sc_decoder", "combine_v_llr"), ("sc_decoder", "combine_u_llr"),
            ("list_decoder", "combine_v_llr"), ("list_decoder", "combine_u_llr"),
            ("sim", "list_decode"), ("sim", "encode"), ("sim", "transmit"),
            ("sim", "posteriors"), ("sim", "random_info_bits"),
            ("cli", "list_decode"), ("cli", "run_simulation"),
            ("channel", "transmit"), ("encoder", "encode"), ("sc_decoder", "genie_error_counts"),
        ]
    }
    with tracing.Tracer():
        for (mod, attr), original in originals.items():
            assert getattr(sys.modules[f"rmpolar.{mod}"], attr) is not original, (mod, attr)
    for (mod, attr), original in originals.items():
        assert getattr(sys.modules[f"rmpolar.{mod}"], attr) is original


def test_missing_function_is_absent_not_zero(monkeypatch):
    monkeypatch.delattr(rmpolar.list_decoder, "extend_leaf")
    with tracing.Tracer() as tracer:
        pass
    metrics, _ = tracer.layer_metrics(frames=1)
    assert "list_decoder.extend_leaf.busy_s" not in metrics
    assert "list_decoder.select_top.busy_s" in metrics


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    wrapped_inner = tracer.wrap(1, inner)

    def outer():
        time.sleep(0.01)
        wrapped_inner()

    tracer.names = ["cli.main", "x"]
    tracer.wrap(0, outer)()
    spans = tracer.table()
    assert spans.shape == (2, len(tracing.SPAN_COLUMNS))
    assert spans[1, 4] == spans[0, 0]  # inner's parent is outer
    metrics, _ = tracer.layer_metrics(frames=1)
    busy, own = metrics["cli.main.busy_s"], metrics["cli.self_s"]
    assert 0.01 <= own < busy - 0.015


@pytest.mark.parametrize("name", NAMES)
def test_tampered_reference_counts_failures(tiny, name):
    sized, ref_dir = tiny
    path = sized[name].reference_path(ref_dir)
    data = json.loads(path.read_text())
    if "points" in data:
        for point in data["points"]:
            point["bit_errors"] = [e + 1 for e in point["bit_errors"]]
    elif "sha256" in data:
        data["sha256"] = ["0" * 64 for _ in data["sha256"]]
    else:
        data["info_bits"] = ["ff" * (len(h) // 2) for h in data["info_bits"]]
    path.write_text(json.dumps(data))
    result, detail = _measure(tiny, name, trace=False)
    assert not result["correct"]
    assert detail["failed_fraction"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_counts_that_differ_between_operations_fail_the_run(tiny, monkeypatch, trace):
    sized, _ = tiny
    wl = sized["decode-latency"]
    check = wl.check
    calls = []

    def tampered(key, output):
        failed, (kernel, select) = check(key, output)
        calls.append(key)
        return failed, (kernel + len(calls) % 2, select)

    monkeypatch.setattr(wl, "check", tampered)
    result, detail = _measure(tiny, "decode-latency", trace=trace)
    assert len(calls) >= 2
    assert result["failed"] == 0 and not result["correct"]
    assert not detail["list_counts_per_frame"]["repeat_exactly"]


def test_exact_counts_repeat_across_seeds(tiny):
    exact = ("calls", "elements", "_per_frame")
    for name in NAMES:
        runs = [_measure(tiny, name, trace=True, seed=seed)[0]["metrics"] for seed in (1, 2)]
        keys = [k for k in runs[0] if k.endswith(exact)]
        assert keys
        assert {k: runs[0][k]["value"] for k in keys} == {k: runs[1][k]["value"] for k in keys}


def test_stale_reference_is_refused(tiny):
    sized, ref_dir = tiny
    wl = workloads.tiny_size()["decode-latency"]
    wl.list_size += 1
    with pytest.raises(ValueError, match="re-run record.py"):
        wl.load_reference(ref_dir)


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(bootstrap.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(bootstrap.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode-latency", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
