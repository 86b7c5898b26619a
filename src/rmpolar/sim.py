"""Monte-Carlo frame-error simulation and complexity probes.

Trial t of every channel point draws a fresh generator seeded with
base_seed + t, so a run is reproducible bit for bit and trials could be
farmed out independently without changing the aggregate.  The trials of all
points form one point-major stream, cut into blocks of
list_decoder.block_frames(spec, L) frames (the last one may be shorter), one
list_decode call per block; a block may hold frames of several points, each
point's beliefs formed by its own channel, written in place into the block's
one belief array.  Every frame decodes as it would alone, and each point
counts only its own rows of the block's one ListResult, so the block size
bounds memory, never the results.  The work counts are one frame's and the
same for every frame, so a point's averages are those of the last block.
complexity_probe measures its work counts through the same pipeline.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .channel import Channel, modulate, posteriors, transmit
from .code_model import CodeSpec, check_m
from .encoder import encode, random_info_bits
from .list_decoder import OpCounter, block_frames, check_frozen_metric, check_integer, check_list_size, list_decode

__all__ = [
    "CSV_HEADER",
    "TrialResult",
    "run_simulation",
    "write_csv",
    "ComplexityReport",
    "complexity_probe",
]

@dataclass
class TrialResult:
    """Aggregate of one channel point."""

    channel: str
    param: float
    trials: int
    frame_errors: int
    bit_errors: int
    fer: float
    ber: float
    fer_ci95: float
    avg_kernel_ops: float
    avg_select_ops: float
    seed: int

    def row(self):
        """The CSV cells: the fields in declaration order, which CSV_HEADER
        names, as str."""
        return [str(value) for value in astuple(self)]


# The CSV columns: TrialResult's field names, in order.
CSV_HEADER = ",".join(field.name for field in fields(TrialResult))


def run_simulation(spec, channel_points, list_size, trials, seed, frozen_metric="include"):
    """Estimate FER/BER for `spec` at each channel point.

    Parameters
    ----------
    spec : CodeSpec with dimension >= 1.
    channel_points : iterable of (Channel, display_param) pairs, e.g. from
        :func:`rmpolar.channel.parse_channel`.
    list_size : decoder list size L, bounded by check_list_size.
    trials : frames per channel point, an integer >= 1.
    seed : base seed, an integer >= 0; trial t uses default_rng(seed + t).
    frozen_metric : 'include' or 'ignore', forwarded to the list decoder.
    Each argument is checked before the first draw.

    Returns
    -------
    list of TrialResult sorted by (channel kind, parameter).
    """
    points = list(channel_points)
    if not points:
        raise ValueError("need at least one channel point")
    check_integer("trials", trials, 1)
    check_integer("seed", seed, 0)
    if spec.dimension < 1:
        raise ValueError("cannot simulate a spec with no information paths")
    per_block = block_frames(spec, list_size)
    check_frozen_metric(frozen_metric)

    nbits = spec.dimension
    # one point-major stream: frame p*trials + t is trial t of point p
    stream = len(points) * trials
    totals = [[0, 0] for _ in points]  # frame errors, bit errors
    for first in range(0, stream, per_block):
        last = min(first + per_block, stream)
        rngs = [np.random.default_rng(seed + i % trials) for i in range(first, last)]
        sent = np.stack([random_info_bits(spec, rng) for rng in rngs])
        symbols = modulate(encode(spec, sent))
        # each point's rows in this block
        runs = [
            (p, slice(max(first, p * trials) - first, min(last, (p + 1) * trials) - first))
            for p in range(first // trials, (last - 1) // trials + 1)
        ]
        llr = np.empty((last - first, spec.n))
        for p, rows in runs:
            ch = points[p][0]
            observed = np.stack([transmit(ch, row, rng) for row, rng in zip(symbols[rows], rngs[rows])])
            llr[rows] = posteriors(ch, observed)
        del symbols, observed
        result = list_decode(spec, llr, list_size, frozen_metric=frozen_metric)
        # the rank-1 words only: at L = 1 reading metrics would sum them
        wrong = np.count_nonzero(result.info_bits[:, 0] != sent, axis=1)
        for p, rows in runs:
            totals[p][0] += int(np.count_nonzero(wrong[rows]))
            totals[p][1] += int(wrong[rows].sum())
        # one frame's work, the same for every frame
        kernel_ops, select_ops = result.kernel_ops, result.select_ops
        # at L = 1 the result holds the block's leaf beliefs: free them
        # before the next block is decoded
        del result

    results = []
    for (ch, display), (frame_errors, bit_errors) in zip(points, totals):
        results.append(
            TrialResult(
                channel=ch.kind,
                param=display,
                trials=trials,
                frame_errors=frame_errors,
                bit_errors=bit_errors,
                fer=frame_errors / trials,
                ber=bit_errors / (trials * nbits),
                fer_ci95=_wilson_halfwidth(frame_errors, trials),
                avg_kernel_ops=float(kernel_ops),
                avg_select_ops=float(select_ops),
                seed=seed,
            )
        )
    results.sort(key=lambda r: (r.channel, r.param))
    return results


def _wilson_halfwidth(errors, trials, z=1.96):
    """The larger distance from errors / trials to the bounds of its 95% Wilson
    score interval (Brown, Cai and DasGupta, Stat. Sci. 2001), never 0."""
    rate, zz = errors / trials, z * z / trials
    centre = (rate + zz / 2) / (1 + zz)
    half = z / (1 + zz) * math.sqrt(rate * (1 - rate) / trials + zz / (4 * trials))
    return half + abs(centre - rate)


def write_csv(results, path):
    """Write TrialResults to `path` under the fixed schema, rows pre-sorted."""
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for res in results:
            writer.writerow(res.row())


def _fit_through_origin(xs, ys):
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    a = float((xs * ys).sum() / (xs * xs).sum())
    residuals = (ys - a * xs) / (a * xs)
    return a, residuals


@dataclass
class ComplexityReport:
    """Kernel-count scaling measurements and their fits.

    decoder_points : list of (m, n, L, mean_kernel_ops, mean_select_ops).
    decoder_fit / decoder_residuals : least-squares constant a for the model
        a * L * n * log2(n) and the per-point relative residuals.
    encoder_points : list of (m, n, mean_kernel_ops).
    encoder_fit / encoder_residuals : same for the model a * n * log2(n).
    """

    decoder_points: list
    decoder_fit: float
    decoder_residuals: list
    encoder_points: list
    encoder_fit: float
    encoder_residuals: list

    def to_dict(self):
        return {
            "decoder": {
                "model": "a * L * n * log2(n) kernel ops",
                "fit_a": self.decoder_fit,
                "points": [
                    {
                        "m": m,
                        "n": n,
                        "L": L,
                        "kernel_ops": k,
                        "select_ops": s,
                        "residual": r,
                    }
                    for (m, n, L, k, s), r in zip(self.decoder_points, self.decoder_residuals)
                ],
                "max_abs_residual": max(abs(r) for r in self.decoder_residuals),
            },
            "encoder": {
                "model": "a * n * log2(n) kernel ops",
                "fit_a": self.encoder_fit,
                "points": [
                    {"m": m, "n": n, "kernel_ops": k}
                    for (m, n, k) in self.encoder_points
                ],
                "max_abs_residual": max(abs(r) for r in self.encoder_residuals),
            },
        }


def complexity_probe(m_values, list_sizes):
    """Measure encoder/decoder kernel counts over a grid of (m, L).

    Uses full-rate specs (every path informational) so the list reaches its
    full width immediately; kernel counts per hypothesis do not depend on the
    frozen set.  The counts depend on the frozen set and L only, never on the
    frames, so each (m, L) point is one :func:`run_simulation` trial on awgn
    with sigma 1, as in any sweep; the encoder point is the count of one
    :func:`encode` call, the same for every word.
    """
    m_values = list(m_values)
    list_sizes = list(list_sizes)
    if not m_values or not list_sizes:
        raise ValueError("need at least one m and one list size")
    for m in m_values:
        check_m(m)
        for L in list_sizes:
            check_list_size(m, 1 << m, L)

    decoder_points = []
    encoder_points = []
    for m in m_values:
        n = 1 << m
        spec = CodeSpec(m=m, info_indices=np.arange(n))
        for L in list_sizes:
            (row,) = run_simulation(spec, [(Channel.awgn(1.0), 1.0)], L, trials=1, seed=0)
            decoder_points.append((m, n, L, row.avg_kernel_ops, row.avg_select_ops))
        counter = OpCounter()
        encode(spec, np.zeros(n, dtype=np.uint8), counter=counter)
        encoder_points.append((m, n, float(counter.kernel)))

    dec_fit, dec_res = _fit_through_origin(
        [L * n * math.log2(n) for (_, n, L, _, _) in decoder_points],
        [k for (_, _, _, k, _) in decoder_points],
    )
    enc_fit, enc_res = _fit_through_origin(
        [n * math.log2(n) for (_, n, _) in encoder_points],
        [k for (_, _, k) in encoder_points],
    )
    return ComplexityReport(
        decoder_points=decoder_points,
        decoder_fit=dec_fit,
        decoder_residuals=[float(r) for r in dec_res],
        encoder_points=encoder_points,
        encoder_fit=enc_fit,
        encoder_residuals=[float(r) for r in enc_res],
    )
