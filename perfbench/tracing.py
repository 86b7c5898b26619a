"""Timing wrappers around rmpolar's public functions, installed from outside.

A Tracer swaps each function in TRACED, in every rmpolar module that holds a
reference to it, for a wrapper that records one span per call: its id, name,
start, end, parent span and operation id, plus three numbers that depend on
the function (see SPAN_DTYPE).  Spans stay in memory, across any number of
`with` blocks, until save().  Leaving a `with` block puts every original
function back.

A function that no longer exists is skipped, and the metrics built from it
are left out of layer_metrics() rather than reported as 0.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from array import array
from pathlib import Path

import numpy as np

# Home module -> functions wrapped.  Callers import these by name, so each
# wrapper is also written into every other rmpolar module that holds the
# same object (rmpolar.sim's list_decode, rmpolar.list_decoder's kernels...).
# ml_oracle is a test oracle that no workload runs.
TRACED = {
    "cli": ("main",),
    "code_model": ("freeze_montecarlo", "load_frozen_set"),
    "sim": ("run_simulation",),
    "list_decoder": ("list_decode", "extend_leaf", "select_top"),
    "sc_decoder": ("genie_error_counts", "combine_v_llr", "combine_u_llr"),
    "encoder": ("encode", "random_info_bits"),
    "channel": ("modulate", "transmit", "posteriors"),
}
KERNELS = ("combine_v_llr", "combine_u_llr")

# Half-block widths h of the kernel calls, one per tree level (level m - log2 h).
LEVELS = tuple(1 << i for i in range(10))

# Columns of the span table.  a, b, c are: for a kernel, the half width h,
# the elements computed and the bytes of its array arguments and result; for
# select_top, the pool entries and the survivors kept; otherwise 0.  name
# indexes Tracer.names; parent is the id of the enclosing span, or -1.
SPAN_DTYPE = np.dtype([
    ("id", "i4"), ("name", "i2"), ("start", "f8"), ("end", "f8"), ("parent", "i4"),
    ("op", "i4"), ("a", "i4"), ("b", "i8"), ("c", "i8"),
])
SPAN_COLUMNS = SPAN_DTYPE.names


def unit_of(metric):
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(("busy_s", "self_s")):
        return "s/frame"
    if metric.endswith(("calls", "elements", "_per_frame")):
        return "1/frame"
    if metric.endswith("bytes_computed"):
        return "B/frame"
    if metric.endswith("wrapper_cost_us"):
        return "us/call"
    return "ratio"


class Tracer:
    """Collects spans from wrapped rmpolar functions while installed.

    Set `op` before each operation; every span records it.
    """

    def __init__(self):
        self.names = []
        self._sid = {}
        self.op = 0
        self._spans = array("d")
        self._ids = itertools.count()
        self._stack = [-1]
        self._patched = []

    def __enter__(self):
        modules = [m for name, m in list(sys.modules.items()) if name == "rmpolar" or name.startswith("rmpolar.")]
        try:
            for home, funcs in TRACED.items():
                module = sys.modules.get(f"rmpolar.{home}")
                for func in funcs:
                    original = getattr(module, func, None)
                    if original is not None:
                        self._install(f"{home}.{func}", original, modules)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _install(self, name, original, modules):
        if name not in self._sid:
            self._sid[name] = len(self.names)
            self.names.append(name)
        sid = self._sid[name]
        func = name.split(".")[1]
        if func in KERNELS:
            wrapper = self.wrap_kernel(sid, original)
        elif func == "select_top":
            wrapper = self._wrap_select(sid, original)
        else:
            wrapper = self.wrap(sid, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _restore(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def wrap(self, sid, fn):
        spans, ids, stack, clock = self._spans, self._ids, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            me = next(ids)
            parent = stack[-1]
            stack.append(me)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((me, sid, t0, t1, parent, self.op, 0, 0, 0))

        return wrapper

    def wrap_kernel(self, sid, fn):
        spans, ids, stack, clock = self._spans, self._ids, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            me = next(ids)
            parent = stack[-1]
            stack.append(me)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            arrays = args + tuple(kwargs.values())
            nbytes = out.nbytes
            for arr in arrays:
                nbytes += arr.nbytes
            spans.extend((me, sid, t0, t1, parent, self.op, arrays[0].shape[-1], out.size, nbytes))
            return out

        return wrapper

    def _wrap_select(self, sid, fn):
        spans, ids, stack, clock = self._spans, self._ids, self._stack, time.perf_counter

        def wrapper(pool, limit, *args, **kwargs):
            me = next(ids)
            parent = stack[-1]
            stack.append(me)
            t0 = clock()
            try:
                out = fn(pool, limit, *args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
            spans.extend((me, sid, t0, t1, parent, self.op, len(pool), len(out), 0))
            return out

        return wrapper

    def table(self):
        """Spans as a float array with SPAN_COLUMNS, ordered by id."""
        rows = np.frombuffer(self._spans, dtype=np.float64).reshape(-1, len(SPAN_COLUMNS))
        return rows[np.argsort(rows[:, 0], kind="stable")]

    def save(self, path):
        """Write the spans as a structured SPAN_DTYPE array to `path` (.npy)
        and the span names, one per line, to the same path with .names."""
        table = self.table()
        spans = np.empty(len(table), dtype=SPAN_DTYPE)
        for i, column in enumerate(SPAN_COLUMNS):
            spans[column] = table[:, i]
        np.save(path, spans)
        Path(path).with_suffix(".names").write_text("\n".join(self.names) + "\n", encoding="ascii")

    def layer_metrics(self, frames):
        """Per-layer metrics per frame, from the spans recorded so far.

        Returns (metrics, levels_ok).  Self time is a span's duration minus
        the durations of its child spans, which never overlap (one caller,
        one thread).  levels_ok tells whether each kernel's per-level busy
        times sum to its total busy time.
        """
        spans = self.table()
        sid = spans[:, 1].astype(np.int64)
        dur = spans[:, 3] - spans[:, 2]
        ids = spans[:, 0].astype(np.int64)
        parent = spans[:, 4].astype(np.int64)
        has_parent = parent >= 0
        # a kernel or select_top call that raised left no span; its children
        # still subtract from nothing, which is all that is lost
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=int(ids.max(initial=-1)) + 1)
        own = dur - child[ids]
        index = {name: i for i, name in enumerate(self.names)}

        def mask_of(*names):
            present = [index[n] for n in names if n in index]
            return np.isin(sid, present) if present else None

        out = {}
        levels_ok = True
        kernel_bytes = []
        for kernel in KERNELS:
            key = f"sc_decoder.{kernel}"
            mask = mask_of(key)
            if mask is None:
                continue
            width = spans[mask, 6]
            busy = dur[mask]
            out[f"{key}.busy_s"] = float(busy.sum()) / frames
            out[f"{key}.calls"] = int(mask.sum()) / frames
            out[f"{key}.elements"] = int(spans[mask, 7].sum()) / frames
            per_level = []
            for h in LEVELS:
                level = float(busy[width == h].sum())
                per_level.append(level)
                out[f"{key}.h{h}.busy_s"] = level / frames
            levels_ok &= math.isclose(math.fsum(per_level), float(busy.sum()), rel_tol=1e-9, abs_tol=1e-12)
            kernel_bytes.append(int(spans[mask, 8].sum()))
        if kernel_bytes:
            out["sc_decoder.kernel_bytes_computed"] = sum(kernel_bytes) / frames

        singles = {
            "sc_decoder.genie_error_counts.busy_s": (dur, "sc_decoder.genie_error_counts"),
            "sc_decoder.genie_error_counts.self_s": (own, "sc_decoder.genie_error_counts"),
            "list_decoder.list_decode.busy_s": (dur, "list_decoder.list_decode"),
            "list_decoder.self_s": (own, "list_decoder.list_decode"),
            "list_decoder.extend_leaf.busy_s": (dur, "list_decoder.extend_leaf"),
            "list_decoder.select_top.busy_s": (dur, "list_decoder.select_top"),
            "sim.run_simulation.busy_s": (dur, "sim.run_simulation"),
            "sim.self_s": (own, "sim.run_simulation"),
            "code_model.freeze_montecarlo.self_s": (own, "code_model.freeze_montecarlo"),
            "code_model.load_frozen_set.busy_s": (dur, "code_model.load_frozen_set"),
            "cli.main.busy_s": (dur, "cli.main"),
            "cli.self_s": (own, "cli.main"),
        }
        for metric, (values, name) in singles.items():
            mask = mask_of(name)
            if mask is not None:
                out[metric] = float(values[mask].sum()) / frames

        mask = mask_of("list_decoder.select_top")
        if mask is not None:
            entries = spans[mask, 6].sum()
            # 0 where select_top never ran (construct-mc)
            out["list_decoder.select_top.keep_ratio"] = float(spans[mask, 7].sum() / entries) if entries else 0.0

        for layer in ("channel", "encoder"):
            mask = mask_of(*(f"{layer}.{func}" for func in TRACED[layer]))
            if mask is not None:
                out[f"{layer}.busy_s"] = float(dur[mask].sum()) / frames
                out[f"{layer}.calls"] = int(mask.sum()) / frames
        return out, bool(levels_ok)


def calibrate(calls=20000, repeats=5):
    """Cost of the kernel wrapper per call in microseconds, best of `repeats`.

    Times a wrapped and a bare call of a trivial kernel on one-element arrays;
    the difference is what tracing adds to each of the thousands of kernel
    calls a list-decoded frame makes.
    """
    x = np.zeros(1)

    def trivial(a, b):
        return a

    tracer = Tracer()
    wrapped = tracer.wrap_kernel(0, trivial)

    def best(fn):
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(x, x)
            times.append(time.perf_counter() - t0)
        return min(times)

    return max(best(wrapped) - best(trivial), 0.0) / calls * 1e6
