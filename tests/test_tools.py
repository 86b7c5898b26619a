"""The paired-timing tool runs on two trees and refuses trees that decode differently."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "paired_timing.py"


def _run(base, change):
    return subprocess.run(
        [sys.executable, str(TOOL), str(base), str(change), "--rounds", "2"],
        capture_output=True, text=True, timeout=300,
    )


def test_paired_timing_of_a_tree_against_itself():
    proc = _run(ROOT, ROOT)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines[1:]] == ["decode-latency", "sim-list16", "sim-sc"]
    assert all(line.split()[3] == "2" for line in lines[1:])


def test_paired_timing_refuses_results_that_differ(tmp_path):
    # a tree whose list_decode reports one more kernel op than it did
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "rmpolar" / "list_decoder.py", "a", encoding="utf-8") as fh:
        fh.write(
            "\n\n_list_decode = list_decode\n\n\n"
            "def list_decode(*args, **kwargs):\n"
            "    result = _list_decode(*args, **kwargs)\n"
            "    result.kernel_ops += 1\n"
            "    return result\n"
        )
    proc = _run(ROOT, tmp_path)
    assert proc.returncode != 0
    assert "decode-latency: the two trees decode round 0" in proc.stderr
