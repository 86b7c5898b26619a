"""Paired in-process timing of `list_decode` on two source trees.

    python tools/paired_timing.py BASE CHANGE [--rounds N] [--seed S]

BASE and CHANGE are checkouts of this repository.  Each tree's `src/rmpolar`
is copied into a temporary directory under its own package name
(rmpolar_base, rmpolar_change), so that both import into one process and
share its numpy, its heap and its CPU state.  For each shape below, every
round draws one fresh block of channel beliefs and times one `list_decode`
call of each side on it with `time.perf_counter`, the side that goes first
alternating from round to round.  The two results must be byte-identical:
information bits, codewords, metric bytes and work counts.  The script prints
the median and the quartiles of the change/base time ratio per shape; below 1
the change is faster.

The shapes are those of the benchmark's list-decoding workloads:
decode-latency (RM(3,8), L=4, one awgn:2.0dB frame), sim-list16
(freeze_bec(8, 128, 0.5), L=16, two awgn:1.5dB frames) and sim-sc
(freeze_bec(10, 512, 0.5), L=1, four bsc:0.05 and four awgn:2.0dB frames).
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# name, (construction, args), list size, channel tokens, frames per token
SHAPES = (
    ("decode-latency", ("freeze_rm", (3, 8)), 4, ("awgn:2.0dB",), 1),
    ("sim-list16", ("freeze_bec", (8, 128, 0.5)), 16, ("awgn:1.5dB",), 2),
    ("sim-sc", ("freeze_bec", (10, 512, 0.5)), 1, ("bsc:0.05", "awgn:2.0dB"), 4),
)


def import_tree(tree, name, tmp):
    """Import `tree`/src/rmpolar as the package `name`, copied under `tmp`."""
    src = Path(tree) / "src" / "rmpolar"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"{tree} has no src/rmpolar package")
    shutil.copytree(src, Path(tmp) / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def draw_block(pkg, spec, tokens, per_token, rng):
    """A (frames, n) belief block: `per_token` frames for each channel token."""
    rows = []
    for token in tokens:
        channel, _ = pkg.parse_channel(token, rate=spec.dimension / spec.n)
        sent = pkg.random_info_bits(spec, rng, size=per_token)
        received = pkg.transmit(channel, pkg.modulate(pkg.encode(spec, sent)), rng)
        rows.append(pkg.posteriors(channel, received).reshape(per_token, spec.n))
    block = np.concatenate(rows)
    return block[0] if len(block) == 1 else block


def result_bytes(result):
    """Everything a ListResult decides, as bytes and ints."""
    arrays = (result.info_bits, result.codewords, result.metrics)
    return tuple(np.ascontiguousarray(a).tobytes() for a in arrays) + (result.kernel_ops, result.select_ops)


def time_shape(base, change, shape, rounds, seed):
    """Per-round change/base time ratios of one shape."""
    name, (construction, args), list_size, tokens, per_token = shape
    specs = [getattr(pkg, construction)(*args) for pkg in (base, change)]
    decoders = [pkg.list_decoder.list_decode for pkg in (base, change)]
    ratios = []
    # round 0 warms both sides up and is not counted
    for r in range(rounds + 1):
        block = draw_block(base, specs[0], tokens, per_token, np.random.default_rng(seed + r))
        times, results = [0.0, 0.0], [None, None]
        for side in ((0, 1) if r % 2 else (1, 0)):
            t0 = time.perf_counter()
            results[side] = decoders[side](specs[side], block, list_size)
            times[side] = time.perf_counter() - t0
        if result_bytes(results[0]) != result_bytes(results[1]):
            raise SystemExit(f"{name}: the two trees decode round {r} (seed {seed + r}) differently")
        if r:
            ratios.append(times[1] / times[0])
    return np.array(ratios)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="checkout of the base tree")
    parser.add_argument("change", help="checkout of the changed tree")
    parser.add_argument("--rounds", type=int, default=301, help="timed rounds per shape (default 301)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the first round's beliefs (default 0)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        try:
            base = import_tree(args.base, "rmpolar_base", tmp)
            change = import_tree(args.change, "rmpolar_change", tmp)
            print(f"{'shape':<16}{'L':>3}{'frames':>8}{'rounds':>8}  change/base median [q1, q3]")
            for shape in SHAPES:
                ratios = time_shape(base, change, shape, args.rounds, args.seed)
                q1, med, q3 = np.percentile(ratios, (25, 50, 75))
                frames = shape[4] * len(shape[3])
                print(f"{shape[0]:<16}{shape[2]:>3}{frames:>8}{len(ratios):>8}  {med:.3f} [{q1:.3f}, {q3:.3f}]")
        finally:
            sys.path.remove(tmp)


if __name__ == "__main__":
    main()
