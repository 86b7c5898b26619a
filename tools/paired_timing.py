"""Paired in-process timing of the decoders and `run_simulation` on two source trees.

    python tools/paired_timing.py BASE CHANGE [--rounds N] [--seed S]

BASE and CHANGE are checkouts of this repository.  Each tree's `src/rmpolar`
is copied into a temporary directory under its own package name
(rmpolar_base, rmpolar_change), so that both import into one process and
share its numpy, its heap and its CPU state.  For each decoding shape below,
every round draws one fresh block of channel beliefs and times one `list_decode`
call of each side on it with `time.perf_counter`, the side that goes first
alternating from round to round.  The two results must be byte-identical:
information bits, codewords, metric bytes and work counts.  After the timed
calls, each side's decoder core (`list_decoder._decode`) runs once more,
untimed, on the same block, and the two must count the same work, the
entries that forks move (`OpCounter.moved`) included.  The script prints
the median and the quartiles of the change/base time ratio per row; below 1
the change is faster.  Its last column, `won k/N`, counts the rounds in
which the change was faster, a tie counting for neither side.

Each decoding shape has a second row, `<shape>:fresh`, whose timed call also builds
a new `CodeSpec` from the shape's indices before decoding, so that it pays
for the spec's cached masks and step plan.  Every `rmpolar simulate` or
`decode` call pays that once, for the spec that `load_frozen_set` returns.
The two fresh specs' step plans (`CodeSpec.decode_plan`) must be equal.
The two simulation shapes have a third row, `<shape>:simulate`, whose timed
call builds a new `CodeSpec` and runs `run_simulation` on the shape's
channel tokens, its frames per token as trials, seeded by the round: the
draws, encoding, channel and decoding of a sweep.  The two trees' lists of
`TrialResult` tuples must be equal.

The shapes are those of the benchmark's list-decoding workloads:
decode-latency (RM(3,8), L=4, one awgn:2.0dB frame), sim-list16
(freeze_bec(8, 128, 0.5), L=16, two awgn:1.5dB frames) and sim-sc
(freeze_bec(10, 512, 0.5), L=1, four bsc:0.05 and four awgn:2.0dB frames).
A last shape, construct-mc (the full-rate m=10 code, 64 bsc:0.05 frames),
has one row, `construct-mc:genie`, that times the genie pass of the
Monte-Carlo construction, `genie_error_counts`, on the block and the words
drawn for it; the two trees' per-leaf error counts must be equal.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

# name, (construction, args), list size, channel tokens, frames per token, rows
SHAPES = (
    ("decode-latency", ("freeze_rm", (3, 8)), 4, ("awgn:2.0dB",), 1, ("", ":fresh")),
    ("sim-list16", ("freeze_bec", (8, 128, 0.5)), 16, ("awgn:1.5dB",), 2, ("", ":fresh", ":simulate")),
    ("sim-sc", ("freeze_bec", (10, 512, 0.5)), 1, ("bsc:0.05", "awgn:2.0dB"), 4, ("", ":fresh", ":simulate")),
    ("construct-mc", ("freeze_bec", (10, 1024, 0.5)), 1, ("bsc:0.05",), 64, (":genie",)),
)


def import_tree(tree, name, tmp):
    """Import `tree`/src/rmpolar as the package `name`, copied under `tmp`."""
    src = Path(tree) / "src" / "rmpolar"
    if not (src / "__init__.py").is_file():
        raise SystemExit(f"{tree} has no src/rmpolar package")
    shutil.copytree(src, Path(tmp) / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def draw_block(pkg, spec, tokens, per_token, rng):
    """A (frames, n) belief block, `per_token` frames for each channel token,
    and the (frames, N) information words sent."""
    rows, words = [], []
    for token in tokens:
        channel, _ = pkg.parse_channel(token, rate=spec.dimension / spec.n)
        words.append(pkg.random_info_bits(spec, rng, size=per_token))
        received = pkg.transmit(channel, pkg.modulate(pkg.encode(spec, words[-1])), rng)
        rows.append(pkg.posteriors(channel, received).reshape(per_token, spec.n))
    block = np.concatenate(rows)
    return (block[0] if len(block) == 1 else block), np.concatenate(words)


def result_bytes(result):
    """Everything a ListResult decides, as bytes and ints."""
    arrays = (result.info_bits, result.codewords, result.metrics)
    return tuple(np.ascontiguousarray(a).tobytes() for a in arrays) + (result.kernel_ops, result.select_ops)


def core_counts(pkg, spec, block, list_size):
    """The work counts of `pkg`'s decoder core on `block`: kernel, select, moved."""
    decoder = pkg.list_decoder
    llr, _ = decoder._check_beliefs(spec, block)
    live = decoder.check_list_size(spec.m, spec.dimension, list_size)
    counter = decoder._decode(spec, llr, live, "include")[3]
    return counter.kernel, counter.select, counter.moved


def time_shape(base, change, shape, rounds, seed, row):
    """Per-round change/base time ratios of one row of a shape: row "" times
    list_decode, ":fresh" builds the spec too, ":simulate" builds the spec
    and runs run_simulation, ":genie" runs genie_error_counts."""
    name, (construction, args), list_size, tokens, per_token, _ = shape
    pkgs = (base, change)
    specs = [getattr(pkg, construction)(*args) for pkg in pkgs]
    decoders = [pkg.list_decoder.list_decode for pkg in pkgs]
    rate = specs[0].dimension / specs[0].n
    points = [[pkg.parse_channel(token, rate=rate) for token in tokens] for pkg in pkgs]
    ratios = []
    # round 0 warms both sides up and is not counted
    for r in range(rounds + 1):
        if row != ":simulate":
            block, words = draw_block(base, specs[0], tokens, per_token, np.random.default_rng(seed + r))
        times, results, fresh = [0.0, 0.0], [None, None], [None, None]
        for side in ((0, 1) if r % 2 else (1, 0)):
            t0 = time.perf_counter()
            spec = specs[side]
            if row in (":fresh", ":simulate"):
                spec = fresh[side] = pkgs[side].CodeSpec(m=spec.m, info_indices=spec.info_indices)
            if row == ":simulate":
                results[side] = pkgs[side].run_simulation(spec, points[side], list_size, per_token, seed + r)
            elif row == ":genie":
                results[side] = pkgs[side].genie_error_counts(spec, block, words)
            else:
                results[side] = decoders[side](spec, block, list_size)
            times[side] = time.perf_counter() - t0
        if row == ":simulate":
            rows = [[dataclasses.astuple(result) for result in results[side]] for side in (0, 1)]
            if rows[0] != rows[1]:
                raise SystemExit(f"{name}: the two trees simulate round {r} (seed {seed + r}) differently")
        elif row == ":genie":
            if results[0].tobytes() != results[1].tobytes():
                raise SystemExit(f"{name}{row}: the two trees count errors differently in round {r} (seed {seed + r})")
        else:
            if result_bytes(results[0]) != result_bytes(results[1]):
                raise SystemExit(f"{name}: the two trees decode round {r} (seed {seed + r}) differently")
            counts = [core_counts(pkg, spec, block, list_size) for pkg, spec in zip(pkgs, specs)]
            if counts[0] != counts[1]:
                raise SystemExit(
                    f"{name}: the two trees count work differently in round {r} (seed {seed + r}): {counts}"
                )
            if row == ":fresh" and fresh[0].decode_plan != fresh[1].decode_plan:
                raise SystemExit(f"{name}{row}: the two trees compile different step plans in round {r}")
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
            print(f"{'shape':<22}{'L':>3}{'frames':>8}{'rounds':>8}  change/base median [q1, q3]  won")
            for shape in SHAPES:
                for row in shape[5]:
                    ratios = time_shape(base, change, shape, args.rounds, args.seed, row)
                    q1, med, q3 = np.percentile(ratios, (25, 50, 75))
                    name = shape[0] + row
                    frames = shape[4] * len(shape[3])
                    won = int(np.count_nonzero(ratios < 1.0))
                    print(
                        f"{name:<22}{shape[2]:>3}{frames:>8}{len(ratios):>8}  {med:.3f} [{q1:.3f}, {q3:.3f}]"
                        f"  won {won}/{len(ratios)}"
                    )
        finally:
            sys.path.remove(tmp)


if __name__ == "__main__":
    main()
