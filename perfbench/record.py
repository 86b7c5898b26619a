"""Record the reference outputs the benchmark gates on, from the current code.

    python3 perfbench/record.py [NAME ...]

Writes perfbench/reference/<name>.json for the named workloads (default: all).
Re-record only when a change is meant to alter outputs, and say so in the
change; the gate exists to catch every other change of output.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
import time

import bootstrap  # noqa: F401  (thread pins and sys.path, before numpy)
import bench
import workloads


def main(argv=None):
    all_workloads = workloads.full_size()
    parser = argparse.ArgumentParser(description="Record benchmark reference outputs.")
    parser.add_argument("names", nargs="*", help=f"workloads to record, of {sorted(all_workloads)}")
    args = parser.parse_args(argv)
    unknown = set(args.names) - set(all_workloads)
    if unknown:
        parser.error(f"unknown workload(s): {sorted(unknown)}")
    source = {k: v for k, v in bench.provenance(None).items() if k in ("git_sha", "src_sha256", "python", "numpy", "scipy")}
    bench.OUT_DIR.mkdir(parents=True, exist_ok=True)
    for name in args.names or sorted(all_workloads):
        wl = all_workloads[name]
        t0 = time.perf_counter()
        with open(os.devnull, "w") as quiet, contextlib.redirect_stdout(quiet):
            wl.setup(bench.OUT_DIR)
            outputs = wl.record()
        wl.save_reference(outputs, source)
        print(f"{name}: wrote {wl.reference_path()} in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
