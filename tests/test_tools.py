"""The paired-timing tool runs on two trees and refuses trees that decode or count
work differently."""

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
    # each shape, then its row that builds a fresh spec in every timed call,
    # then for a simulation shape its row that runs run_simulation
    assert [line.split()[0] for line in lines[1:]] == [
        "decode-latency", "decode-latency:fresh",
        "sim-list16", "sim-list16:fresh", "sim-list16:simulate",
        "sim-sc", "sim-sc:fresh", "sim-sc:simulate",
    ]
    assert all(line.split()[3] == "2" for line in lines[1:])
    # each row ends with the rounds the change won, here of 2
    for line in lines[1:]:
        label, count = line.split()[-2:]
        won, rounds = count.split("/")
        assert label == "won" and rounds == "2" and 0 <= int(won) <= 2, line


def _tree_with(tmp_path, tail, module="list_decoder"):
    """A copy of this tree whose `module` ends with `tail`."""
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "rmpolar" / f"{module}.py", "a", encoding="utf-8") as fh:
        fh.write(tail)
    return tmp_path


def test_paired_timing_refuses_results_that_differ(tmp_path):
    # a tree whose list_decode reports one more kernel op than it did
    tree = _tree_with(
        tmp_path,
        "\n\n_list_decode = list_decode\n\n\n"
        "def list_decode(*args, **kwargs):\n"
        "    result = _list_decode(*args, **kwargs)\n"
        "    result.kernel_ops += 1\n"
        "    return result\n",
    )
    proc = _run(ROOT, tree)
    assert proc.returncode != 0
    assert "decode-latency: the two trees decode round 0" in proc.stderr


def test_paired_timing_refuses_cores_that_move_differently(tmp_path):
    # a tree whose decoder core reports one more moved entry: its list_decode
    # results, which carry no moved count, stay the same
    tree = _tree_with(
        tmp_path,
        "\n\n_core = _decode\n\n\n"
        "def _decode(*args, **kwargs):\n"
        "    syms, metrics, live, counter, leaf_llr = _core(*args, **kwargs)\n"
        "    counter = OpCounter(counter.kernel, counter.select, counter.moved + 1)\n"
        "    return syms, metrics, live, counter, leaf_llr\n",
    )
    proc = _run(ROOT, tree)
    assert proc.returncode != 0
    assert "decode-latency: the two trees count work differently in round 0" in proc.stderr


def test_paired_timing_refuses_simulations_that_differ(tmp_path):
    # a tree whose run_simulation reports one more frame error at each point:
    # its list_decode results stay the same
    tree = _tree_with(
        tmp_path,
        "\n\n_run_simulation = run_simulation\n\n\n"
        "def run_simulation(*args, **kwargs):\n"
        "    results = _run_simulation(*args, **kwargs)\n"
        "    for result in results:\n"
        "        result.frame_errors += 1\n"
        "    return results\n",
        module="sim",
    )
    proc = _run(ROOT, tree)
    assert proc.returncode != 0
    assert "sim-list16: the two trees simulate round 0" in proc.stderr
