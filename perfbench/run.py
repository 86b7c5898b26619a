"""rmpolar benchmark: one command prints every metric by name, with its unit.

    python3 perfbench/run.py --workload sim-list16 --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 0

Each workload runs in a process of its own (bench.py), so peak_rss_mb is that
workload's alone.  With --trace 0 the end-to-end metrics are printed and
setup_s is the median of SETUP_SAMPLES fresh processes; with --trace 1 a
separate traced run prints the per-layer metrics.  The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics.
Workloads and metrics are explained in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import bootstrap

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
# a workload's run must end within 180 s; leave room for the parent's own start-up
DEADLINE_S = 170.0


def _worker(name, seed, seconds, trace, deadline, setup_only=False):
    argv = [
        sys.executable, str(HERE / "bench.py"),
        "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if setup_only:
        argv.append("--setup-only")
    argv += ["--started", repr(time.monotonic())]
    proc = subprocess.run(
        argv, cwd=bootstrap.ROOT, env=os.environ.copy(), capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{name}: bench.py exited with code {proc.returncode}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(name, seed, seconds, trace, deadline):
    """Result and detail of one workload; setup_s is the median of several fresh processes."""
    def set_up_only():
        return _worker(name, seed, seconds, trace, deadline, setup_only=True)["detail"]["setup_s"]

    # set-up-only processes before and after the measured one, so that they
    # sample the host at several moments of the run
    before = (SETUP_SAMPLES - 1) // 2 if not trace else 0
    setups = [set_up_only() for _ in range(before)]
    out = _worker(name, seed, seconds, trace, deadline)
    result, detail = out["result"], out["detail"]
    if not trace:
        setups.append(detail["setup_s"])
        setups += [set_up_only() for _ in range(SETUP_SAMPLES - 1 - before)]
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
        detail["setup_samples_s"] = setups
    return result, detail


def _summary(name, result, detail):
    metrics = ", ".join(f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items())
    lines = [f"{name} seed={detail['seed']} trace={detail['trace']}: {metrics}"]
    extra = f"  failed_fraction={detail['failed_fraction']:.6g} ({result['failed']}/{result['attempted']} frames)"
    if "latency_ms" in detail:
        lat, wall = detail["latency_ms"], detail["latency_ms_wall"]
        extra += (
            f", ms per operation of {detail['frames_per_op']} frame(s): min={lat['min']:.4g}"
            f" p50={lat['p50']:.4g} p90={lat['p90']:.4g} (n={lat['samples']})"
            f", as wall time: min={wall['min']:.4g} p50={wall['p50']:.4g} p90={wall['p90']:.4g}"
            f", wall frames_per_s={detail['frames_per_s_wall']:.4g} 1/s"
            f", host probe p50={detail['probe_ms_p50']:.4g} ms"
        )
    if "setup_samples_s" in detail:
        extra += ", setup_s of each process: " + " ".join(f"{v:.3f}" for v in detail["setup_samples_s"]) + " s"
    counts = detail["list_counts_per_frame"]
    extra += f", list decoder kernel_ops/frame={counts['kernel_ops']} select_ops/frame={counts['select_ops']}"
    lines.append(extra)
    prov = detail["provenance"]
    lines.append(
        f"  provenance: git={prov['git_sha']} src_sha256={prov['src_sha256'][:12]} python={prov['python']}"
        f" numpy={prov['numpy']} scipy={prov['scipy']} nproc={prov['nproc']}"
    )
    return "\n".join(lines)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' for those registered in BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        with open(bootstrap.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            names = [w["name"] for w in json.load(fh)["workloads"]]
    else:
        names = [args.workload]

    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            result, detail = run_workload(name, args.seed, args.seconds, args.trace, deadline)
            print(_summary(name, result, detail), flush=True)
            results[name] = result
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
