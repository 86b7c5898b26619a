"""Run one benchmark workload in this process; run.py starts one per workload.

    python3 perfbench/bench.py --workload NAME --seed N --seconds S --trace 0|1 \
        --started T [--setup-only]

`--started` is the time.monotonic() reading of the parent just before it
started this process, so setup_s covers interpreter start-up and imports too.
The last stdout line is one JSON object {"result": ..., "detail": ...}; the
full record, with provenance, also goes to out/result-<name>-seed<N>-trace<t>.json.

The loop is closed: one caller issues the next operation when the previous
one returns.  Outputs are checked against the reference after each operation,
outside its timing.  Between operations a fixed probe measures the host's
current speed, and the end-to-end times are reported at the reference speed
(see host_probe).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import bootstrap
import numpy as np
import scipy

import tracing
import workloads

OUT_DIR = Path(__file__).resolve().parent / "out"

END_TO_END_UNITS = {"frames_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# host_probe() takes about this long on the 2-core reference machine in its
# usual mode; a time t measured next to a probe that took p seconds is
# reported as t * PROBE_REF_S / p.
PROBE_REF_S = 0.005
_PROBE_A = np.random.default_rng(0).standard_normal(64)
_PROBE_B = _PROBE_A[::-1].copy()


def host_probe():
    """Seconds that one fixed piece of work takes on this host right now.

    The reference host shares its CPUs and switches them between a fast mode
    and a mode up to 2x slower, for seconds to minutes at a time, so a wall
    time says as much about the host's mode as about the program.  The probe
    is the same mix the decoders run, small numpy calls in a Python loop, and
    it does not depend on rmpolar, so scaling by it removes the host's mode
    and keeps every change of the program.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(400):
        a = np.minimum(np.abs(_PROBE_A), np.abs(_PROBE_B)) * np.sign(_PROBE_A) * np.sign(_PROBE_B)
        acc += float(a.sum())
        for j in range(20):
            acc += j * 0.5
    return time.perf_counter() - t0


@dataclass
class Phase:
    """What one closed-loop pass over a sequence of operations saw."""

    keys: list = field(default_factory=list)
    op_seconds: list = field(default_factory=list)
    # host_probe() seconds around each operation: the mean of the probe
    # before it and the probe after it (run_phase only)
    probe_seconds: list = field(default_factory=list)
    frames: int = 0
    failed: int = 0
    # distinct per-frame (kernel_ops, select_ops) of the list decoder, per operation
    counts: set = field(default_factory=set)

    @property
    def busy(self):
        return sum(self.op_seconds)


def run_op(wl, key, phase):
    """Run one operation, check its output and add both to `phase`."""
    t0 = time.perf_counter()
    try:
        output = wl.run(key)
    except Exception:
        phase.op_seconds.append(time.perf_counter() - t0)
        traceback.print_exc(file=sys.stderr)
        failed, counts = wl.frames_per_op, None
    else:
        phase.op_seconds.append(time.perf_counter() - t0)
        failed, counts = wl.check(key, output)
    phase.keys.append(key)
    phase.frames += wl.frames_per_op
    phase.failed += failed
    if counts is not None:
        phase.counts.add(counts)


def _out_of_time(begin, seconds, done):
    """Whether the next step, judged by the mean of the `done` so far, would
    end past `seconds`; the first step always runs."""
    elapsed = time.perf_counter() - begin
    return done > 0 and elapsed + elapsed / done > seconds


def run_phase(wl, keys, seconds):
    """Run operations, each followed by a host probe, within `seconds` of
    wall time (at least one operation)."""
    phase = Phase()
    begin = time.perf_counter()
    before = host_probe()
    for key in keys:
        if _out_of_time(begin, seconds, len(phase.keys)):
            break
        run_op(wl, key, phase)
        after = host_probe()
        phase.probe_seconds.append((before + after) / 2)
        before = after
    return phase


def run_traced(wl, keys, seconds, tracer):
    """Run each operation twice, untraced and then traced, within `seconds`.
    Pairing the two puts both under the same host speed, which drifts over
    seconds, so their difference is the tracing overhead."""
    base, traced = Phase(), Phase()
    begin = time.perf_counter()
    for key in keys:
        if _out_of_time(begin, seconds, len(base.keys)):
            break
        run_op(wl, key, base)
        tracer.op = len(traced.keys)
        with tracer:
            run_op(wl, key, traced)
    return base, traced


def list_counts(phases):
    """(kernel_ops, select_ops) per frame and whether every operation agreed.

    The counts depend only on the frozen set and L, so operations that
    disagree mean the decoder is not deterministic, and the run fails.
    """
    counts = set().union(*(p.counts for p in phases))
    if not counts:
        return (0, 0), True
    return min(counts), len(counts) == 1


def provenance(seed):
    """Where a result came from: code, versions, machine, seed and argv."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=bootstrap.ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    digest = hashlib.sha256()
    for path in sorted((bootstrap.SRC / "rmpolar").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in bootstrap.THREAD_VARS},
        "seed": seed,
        "argv": sys.argv,
    }


def measure(wl, seed, seconds, trace, started, ref_dir=workloads.REFERENCE_DIR, out_dir=OUT_DIR,
            setup_only=False):
    """Set up `wl` and measure it; returns (result, detail) as run.py expects."""
    out_dir.mkdir(parents=True, exist_ok=True)
    # the CLI prints a summary per call; keep it out of the result stream
    with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
        wl.setup(out_dir)
        wl.load_reference(ref_dir)
        wl.warm_up()
        setup_wall_s = time.monotonic() - started
        # set-up runs before any probe can bracket it, so it is scaled by the
        # median of the probes right after it
        setup_probe_s = float(np.median([host_probe() for _ in range(5)]))
        setup_s = setup_wall_s * PROBE_REF_S / setup_probe_s
        if setup_only:
            return None, {"setup_s": setup_s, "setup_wall_s": setup_wall_s}
        keys = wl.ops(seed)
        if not trace:
            phase = run_phase(wl, keys, seconds)
            phases = [phase]
        else:
            wrapper_cost_us = tracing.calibrate()
            tracer = tracing.Tracer()
            base, traced = run_traced(wl, keys, seconds, tracer)
            phases = [base, traced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    (kernel, select), repeat = list_counts(phases)
    detail = {"workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "setup_s": setup_s, "setup_wall_s": setup_wall_s, "setup_probe_s": setup_probe_s}
    if not trace:
        wall_s = np.array(phase.op_seconds)
        probe_s = np.array(phase.probe_seconds)
        # each operation's time at the reference speed
        ref_s = wall_s * PROBE_REF_S / probe_s
        metrics = {
            "frames_per_s": wl.frames_per_op / float(np.median(ref_s)),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END_UNITS

        def percentiles(ms):
            p50, p90 = np.percentile(ms, [50, 90])
            return {"min": float(ms.min()), "p50": float(p50), "p90": float(p90), "samples": len(ms)}

        detail.update(
            frames_per_op=wl.frames_per_op,
            frames_per_s_wall=wl.frames_per_op / float(np.median(wall_s)),
            latency_ms=percentiles(ref_s * 1e3),
            latency_ms_wall=percentiles(wall_s * 1e3),
            probe_ms_p50=float(np.median(probe_s)) * 1e3,
            op_seconds=phase.op_seconds,
            probe_seconds=phase.probe_seconds,
        )
    else:
        metrics, levels_ok = tracer.layer_metrics(traced.frames)
        metrics["list_decoder.kernel_ops_per_frame"] = kernel
        metrics["list_decoder.select_ops_per_frame"] = select
        metrics["trace.overhead_frac"] = (traced.busy - base.busy) / base.busy
        metrics["trace.wrapper_cost_us"] = wrapper_cost_us
        units = {name: tracing.unit_of(name) for name in metrics}
        spans_path = out_dir / f"spans-{wl.name}.npy"
        tracer.save(spans_path)
        detail.update(
            levels_sum_to_total=levels_ok,
            traced_ops=len(traced.keys),
            untraced_seconds=base.busy,
            traced_seconds=traced.busy,
            spans_file=str(spans_path),
        )

    attempted = sum(p.frames for p in phases)
    failed = sum(p.failed for p in phases)
    result = {
        "correct": failed == 0 and repeat and (not trace or levels_ok),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    detail.update(
        failed_fraction=failed / attempted,
        list_counts_per_frame={"kernel_ops": kernel, "select_ops": select, "repeat_exactly": repeat},
        ops=sum(len(p.keys) for p in phases),
    )
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one rmpolar benchmark workload in this process.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.full_size()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.full_size()[args.workload]
    result, detail = measure(wl, args.seed, args.seconds, bool(args.trace), args.started,
                             setup_only=args.setup_only)
    if not args.setup_only:
        detail["provenance"] = provenance(args.seed)
        record = OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"
        with open(record, "w", encoding="ascii", newline="\n") as fh:
            json.dump({"result": result, "detail": detail}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({"result": result, "detail": detail}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
