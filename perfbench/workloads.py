"""Benchmark workloads: seeded inputs, the timed operation and the reference gate.

Every workload draws its inputs from a fixed pool whose outputs were recorded
into reference/<name>.json by record.py.  A --seed picks which pool entries a
run uses and in what order, so any seed selects inputs the gate can check
exactly, and two seeds select different inputs.

Timed operations call rmpolar through module attributes (cli.main,
list_decoder.list_decode) so that a traced run goes through the timing
wrappers that tracing.Tracer installs there.
"""

from __future__ import annotations

import csv
import hashlib
import json
import random
from pathlib import Path

import bootstrap
import numpy as np
import rmpolar
from rmpolar import cli, list_decoder
from rmpolar.channel import SoftVector, modulate, parse_channel, posteriors, transmit
from rmpolar.code_model import freeze_bec, freeze_rm, save_frozen_set
from rmpolar.encoder import encode, random_info_bits
from rmpolar.sim import run_simulation

if Path(rmpolar.__file__).resolve().parent != bootstrap.SRC / "rmpolar":
    raise ImportError(f"rmpolar was imported from {rmpolar.__file__}, not from {bootstrap.SRC}")

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# CSV columns the gate compares.  fer_ci95 is left out because its interval
# formula is due to change, and avg_select_ops because a list-decoder rewrite
# may count selection work differently; fer and ber follow from the gated
# counts.
GATED_COLUMNS = ("channel", "param", "trials", "frame_errors", "bit_errors", "avg_kernel_ops", "seed")


def _shuffled_cycle(name, seed, pool):
    """Every pool index once in a seed-dependent order, then again, forever."""
    order = list(range(pool))
    random.Random(f"{name}:{seed}").shuffle(order)
    while True:
        yield from order


def _bits_hex(bits):
    return np.packbits(np.asarray(bits, dtype=np.uint8)).tobytes().hex()


class Workload:
    """One named workload.  Subclasses fill in the sizes and the operation.

    Lifecycle: setup(workdir), load_reference(), warm_up(), then run(key)
    and check(key, output) for each key from ops(seed).  check returns the
    number of frames whose output disagrees with the reference and the
    operation's exact per-frame (kernel_ops, select_ops) counts of the list
    decoder, or None where the operation does no list decoding.
    """

    name: str
    frames_per_op: int

    def config(self):
        raise NotImplementedError

    def reference_path(self, ref_dir=REFERENCE_DIR):
        return Path(ref_dir) / f"{self.name}.json"

    def load_reference(self, ref_dir=REFERENCE_DIR):
        with open(self.reference_path(ref_dir), encoding="ascii") as fh:
            data = json.load(fh)
        if data["config"] != self.config():
            raise ValueError(
                f"{self.reference_path(ref_dir)} was recorded for {data['config']}, "
                f"the workload is {self.config()}; re-run record.py"
            )
        self.ref = data

    def save_reference(self, outputs, source, ref_dir=REFERENCE_DIR):
        payload = {"workload": self.name, "config": self.config(), "recorded_from": source, **outputs}
        with open(self.reference_path(ref_dir), "w", encoding="ascii", newline="\n") as fh:
            json.dump(payload, fh, separators=(",", ":"))
            fh.write("\n")


class Simulate(Workload):
    """In-process `rmpolar simulate` on an erasure-designed code.

    One operation is one CLI call of `trials` frames per channel point,
    starting at a seed-chosen trial seed of the recorded pool.  The reference
    holds each pool trial's bit errors and kernel count, from which the gated
    CSV columns of any window of trials follow.
    """

    def __init__(self, name, m, k, design_z, channels, list_size, trials, pool):
        self.name = name
        self.m, self.k, self.design_z = m, k, design_z
        self.channels = tuple(channels)
        self.list_size = list_size
        self.trials = trials
        self.pool = pool
        self.frames_per_op = trials * len(self.channels)

    def config(self):
        # the reference holds single trials, so it serves any window size
        return {
            "m": self.m,
            "k": self.k,
            "design_z": self.design_z,
            "channels": list(self.channels),
            "list_size": self.list_size,
            "pool": self.pool,
        }

    def setup(self, workdir):
        self.frozen_set = Path(workdir) / f"{self.name}.frozen"
        self.csv_path = Path(workdir) / f"{self.name}.csv"
        save_frozen_set(freeze_bec(self.m, self.k, self.design_z), self.frozen_set)

    def _argv(self, seed, trials):
        return [
            "simulate",
            "--frozen-set", str(self.frozen_set),
            "--channel", ",".join(self.channels),
            "--list-size", str(self.list_size),
            "--trials", str(trials),
            "--seed", str(seed),
            "--csv", str(self.csv_path),
        ]

    def ops(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        while True:
            yield rng.randrange(self.pool - self.trials + 1)

    def warm_up(self):
        cli.main(self._argv(0, 1))

    def run(self, start):
        cli.main(self._argv(start, self.trials))

    def _expected(self, point, start):
        window = slice(start, start + self.trials)
        errors = point["bit_errors"][window]
        return (
            point["channel"],
            point["param"],
            str(self.trials),
            str(sum(e > 0 for e in errors)),
            str(sum(errors)),
            str(sum(point["kernel_ops"][window]) / self.trials),
            str(start),
        )

    def check(self, start, _output):
        with open(self.csv_path, newline="", encoding="ascii") as fh:
            rows = {(r["channel"], r["param"]): r for r in csv.DictReader(fh)}
        failed = 0
        kernel = select = 0.0
        for point in self.ref["points"]:
            row = rows.get((point["channel"], point["param"]))
            if row is None:
                failed += self.trials
                continue
            if tuple(row[c] for c in GATED_COLUMNS) != self._expected(point, start):
                failed += self.trials
            kernel += float(row["avg_kernel_ops"])
            select += float(row["avg_select_ops"])
        points = len(self.ref["points"])
        return failed, (kernel / points, select / points)

    def record(self):
        spec = freeze_bec(self.m, self.k, self.design_z)
        rate = spec.dimension / spec.n
        channel_points = [parse_channel(tok, rate=rate) for tok in self.channels]
        points = {}
        for t in range(self.pool):
            for res in run_simulation(spec, channel_points, self.list_size, trials=1, seed=t):
                entry = points.setdefault(
                    (res.channel, str(res.param)), {"bit_errors": [], "kernel_ops": []}
                )
                entry["bit_errors"].append(res.bit_errors)
                entry["kernel_ops"].append(int(res.avg_kernel_ops))
        return {"points": [{"channel": c, "param": p, **v} for (c, p), v in points.items()]}


class Construct(Workload):
    """In-process `rmpolar construct --construction mc`: batched genie SC.

    One operation builds one code from `trials` genie-decoded frames at a
    seed-chosen construction seed of the pool; the reference holds the
    SHA-256 of each pool seed's frozen-set file.
    """

    def __init__(self, name, m, k, channel, trials, pool, warm_up_trials):
        self.name = name
        self.m, self.k, self.channel = m, k, channel
        self.trials = trials
        self.pool = pool
        self.warm_up_trials = warm_up_trials
        self.frames_per_op = trials

    def config(self):
        return {
            "m": self.m,
            "k": self.k,
            "channel": self.channel,
            "trials": self.trials,
            "pool": self.pool,
            "warm_up_trials": self.warm_up_trials,
        }

    def setup(self, workdir):
        self.out_path = Path(workdir) / f"{self.name}.frozen"

    def _argv(self, seed, trials):
        return [
            "construct",
            "--construction", "mc",
            "--m", str(self.m),
            "--k", str(self.k),
            "--channel", self.channel,
            "--trials", str(trials),
            "--seed", str(seed),
            "--out", str(self.out_path),
        ]

    def ops(self, seed):
        return _shuffled_cycle(self.name, seed, self.pool)

    def warm_up(self):
        cli.main(self._argv(0, self.warm_up_trials))

    def run(self, seed):
        cli.main(self._argv(seed, self.trials))

    def _digest(self):
        return hashlib.sha256(self.out_path.read_bytes()).hexdigest()

    def check(self, seed, _output):
        return (0 if self._digest() == self.ref["sha256"][seed] else self.trials), None

    def record(self):
        digests = []
        for seed in range(self.pool):
            self.run(seed)
            digests.append(self._digest())
        return {"sha256": digests}


class Decode(Workload):
    """One caller decoding single frames with `list_decode`, frame by frame.

    The pool holds pre-generated channel LLRs of a weight-rule code; frame t
    comes from default_rng(t).  The reference holds every frame's decided
    information bits.
    """

    def __init__(self, name, r, m, channel, list_size, pool):
        self.name = name
        self.r, self.m, self.channel = r, m, channel
        self.list_size = list_size
        self.pool = pool
        self.frames_per_op = 1

    def config(self):
        return {"r": self.r, "m": self.m, "channel": self.channel, "list_size": self.list_size, "pool": self.pool}

    def setup(self, workdir):
        self.spec = freeze_rm(self.r, self.m)
        ch, _ = parse_channel(self.channel, rate=self.spec.dimension / self.spec.n)
        self.frames = [self._frame(ch, t) for t in range(self.pool)]

    def _frame(self, ch, t):
        rng = np.random.default_rng(t)
        sent = random_info_bits(self.spec, rng)
        return posteriors(ch, transmit(ch, modulate(encode(self.spec, sent)), rng)).llr

    def ops(self, seed):
        return _shuffled_cycle(self.name, seed, self.pool)

    def warm_up(self):
        self.run(0)

    def run(self, t):
        return list_decoder.list_decode(self.spec, SoftVector(self.frames[t]), self.list_size)

    def check(self, t, result):
        wrong = _bits_hex(result.best.info_bits) != self.ref["info_bits"][t]
        return int(wrong), (result.kernel_ops, result.select_ops)

    def record(self):
        return {"info_bits": [_bits_hex(self.run(t).best.info_bits) for t in range(self.pool)]}


def full_size():
    """The benchmark's workloads, by name."""
    return {
        w.name: w
        for w in (
            Simulate("sim-list16", m=8, k=128, design_z=0.5, channels=("awgn:1.5dB",),
                     list_size=16, trials=2, pool=1024),
            Simulate("sim-sc", m=10, k=512, design_z=0.5, channels=("bsc:0.05", "awgn:2.0dB"),
                     list_size=1, trials=4, pool=1024),
            Construct("construct-mc", m=10, k=512, channel="bsc:0.05", trials=4096, pool=32,
                      warm_up_trials=256),
            Decode("decode-latency", r=3, m=8, channel="awgn:2.0dB", list_size=4, pool=2048),
        )
    }


def tiny_size():
    """The same workloads shrunk to run in well under a second; for the tests."""
    return {
        w.name: w
        for w in (
            Simulate("sim-list16", m=4, k=8, design_z=0.5, channels=("awgn:1.5dB",),
                     list_size=4, trials=2, pool=6),
            Simulate("sim-sc", m=5, k=16, design_z=0.5, channels=("bsc:0.05", "awgn:2.0dB"),
                     list_size=1, trials=2, pool=6),
            Construct("construct-mc", m=5, k=16, channel="bsc:0.05", trials=64, pool=3,
                      warm_up_trials=8),
            Decode("decode-latency", r=1, m=4, channel="awgn:2.0dB", list_size=2, pool=8),
        )
    }
