"""Command-line front end.

Subcommands: construct, encode, decode, simulate, complexity.  Frozen sets
travel as small text files (see code_model.save_frozen_set); frames travel as
one word per line, 0/1 strings for bits and whitespace-separated floats for
received LLRs (positive favors bit 0).  Every failure, the library's or a
check of this module, raises ValueError (or OSError for a file), and main
turns it into exit code 1 with one `error:` line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import cache

import numpy as np

from .channel import _clamped, _number, parse_channel
from .code_model import check_m, freeze_bec, freeze_montecarlo, freeze_rm, load_frozen_set, save_frozen_set
from .encoder import encode
from .list_decoder import check_list_size, list_decode
from .sim import block_frames, complexity_probe, run_simulation, write_csv


def _parse_int_list(text, flag):
    return [_number(int, tok, flag, "comma-separated integers") for tok in text.split(",") if tok]


def _parse_range(text, flag):
    """'6:10' -> [6..10]; '6,8,10' -> [6, 8, 10]; '7' -> [7]."""
    if ":" in text:
        lo, hi = (_number(int, tok, flag, "integers, lo:hi or a,b,c") for tok in text.split(":", 1))
        return list(range(lo, hi + 1))
    return _parse_int_list(text, flag)


def _cmd_construct(args):
    check_m(args.m)
    kind = args.construction
    if kind == "rm":
        if args.design_param is None:
            raise ValueError("construct rm: --design-param gives the order r")
        r = _number(int, args.design_param, "--design-param", "an integer order r for rm")
        spec = freeze_rm(r, args.m)
        if args.k is not None and args.k != spec.dimension:
            raise ValueError(f"construct rm: order {r} gives k={spec.dimension}, not {args.k}")
    elif kind == "bec":
        if args.k is None or args.design_param is None:
            raise ValueError("construct bec: needs --k and --design-param (erasure z)")
        z = _number(float, args.design_param, "--design-param", "a number, the erasure probability z for bec")
        spec = freeze_bec(args.m, args.k, z)
    else:
        if args.k is None or args.channel is None:
            raise ValueError("construct mc: needs --k and --channel")
        rate = args.k / float(1 << args.m)
        ch, _ = parse_channel(args.channel, rate=rate)
        spec = freeze_montecarlo(args.m, args.k, ch, trials=args.trials, seed=args.seed)
    save_frozen_set(spec, args.out)
    print(f"wrote {args.out}: m={spec.m} k={spec.dimension} n={spec.n}")
    return 0


def _text_lines(path, malformed):
    """(number, line) of each non-blank line of `path`, read as latin-1 so
    that a byte above 0x7F (a UTF-8 BOM, say) is refused as `malformed`."""
    with open(path, "r", encoding="latin-1") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.isascii():
                raise ValueError(f"{path}:{number}: {malformed}")
            if line.strip():
                yield number, line


def _read_bit_lines(path, width, what):
    malformed = f"expected {width} bits of 0/1 for {what}"
    words = []
    for ln, line in _text_lines(path, malformed):
        line = line.strip()
        if len(line) != width or set(line) - {"0", "1"}:
            raise ValueError(f"{path}:{ln}: {malformed}")
        words.append(line)
    if not words:
        raise ValueError(f"{path}: no {what} lines found")
    return np.frombuffer("".join(words).encode("ascii"), np.uint8).reshape(len(words), width) - ord("0")


def _bit_lines(bits):
    """The rows of a (rows, width) 0/1 array as ASCII lines of 0 and 1."""
    lines = np.full((len(bits), bits.shape[1] + 1), ord("\n"), dtype=np.uint8)
    lines[:, :-1] = bits + ord("0")
    return lines.tobytes()


def _cmd_encode(args):
    spec = load_frozen_set(args.frozen_set)
    words = _read_bit_lines(args.infile, spec.dimension, "information bits")
    codewords = encode(spec, words)
    with open(args.out, "wb") as fh:
        fh.write(_bit_lines(codewords))
    print(f"encoded {len(words)} frame(s) -> {args.out}")
    return 0


def _cmd_decode(args):
    spec = load_frozen_set(args.frozen_set)
    check_list_size(spec.m, spec.dimension, args.list_size)
    frames = []
    for ln, line in _text_lines(args.infile, "LLR values must be numbers"):
        try:
            values = [float(tok) for tok in line.split()]
        except ValueError:
            raise ValueError(f"{args.infile}:{ln}: LLR values must be numbers") from None
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{args.infile}:{ln}: LLR values must be finite, not nan or inf")
        if len(values) != spec.n:
            raise ValueError(f"{args.infile}:{ln}: expected {spec.n} LLR values")
        frames.append(values)
    if not frames:
        raise ValueError(f"{args.infile}: no LLR lines found")
    # clamped like SoftVector beliefs, which raw blocks are not
    llr = _clamped(np.array(frames, dtype=np.float64))
    step = block_frames(spec, args.list_size)
    with open(args.out, "wb") as fh:
        for first in range(0, len(llr), step):
            # the rank-1 words only, so that the result (at L = 1 with its leaf
            # beliefs) is freed before the next block
            words = list_decode(
                spec, llr[first : first + step], args.list_size, frozen_metric=args.frozen_metric
            ).info_bits[:, 0]
            fh.write(_bit_lines(words))
    print(f"decoded {len(frames)} frame(s) -> {args.out}")
    return 0


def _cmd_simulate(args):
    spec = load_frozen_set(args.frozen_set)
    rate = spec.dimension / spec.n
    points = [parse_channel(tok, rate=rate) for tok in args.channel.split(",") if tok]
    results = run_simulation(
        spec,
        points,
        list_size=args.list_size,
        trials=args.trials,
        seed=args.seed,
        frozen_metric=args.frozen_metric,
    )
    if args.csv:
        write_csv(results, args.csv)
    print(f"spec m={spec.m} k={spec.dimension} L={args.list_size} trials={args.trials}")
    for res in results:
        print(
            f"  {res.channel}:{res.param}  fer={res.fer:.5g} (+-{res.fer_ci95:.2g})"
            f"  ber={res.ber:.5g}  kernel_ops={res.avg_kernel_ops:.1f}"
        )
    if args.csv:
        print(f"wrote {args.csv}")
    return 0


def _cmd_complexity(args):
    report = complexity_probe(_parse_range(args.m_range, "--m-range"), _parse_int_list(args.l_range, "--l-range"))
    payload = report.to_dict()
    if args.report:
        with open(args.report, "w", encoding="ascii", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.report}")
    dec = payload["decoder"]
    enc = payload["encoder"]
    print(f"decoder fit a={dec['fit_a']:.4f}, max |residual|={dec['max_abs_residual']:.3f}")
    print(f"encoder fit a={enc['fit_a']:.4f}, max |residual|={enc['max_abs_residual']:.3f}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rmpolar",
        description="Recursive codes: construction, encoding, decoding, simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a frozen-set file")
    p.add_argument("--m", type=int, required=True, help="recursion depth, n = 2**m")
    p.add_argument("--k", type=int, default=None, help="code dimension")
    p.add_argument("--construction", choices=("rm", "bec", "mc"), required=True)
    p.add_argument(
        "--design-param",
        default=None,
        help="rm: order r; bec: design erasure probability z; mc: unused",
    )
    p.add_argument("--channel", default=None, help="mc only: channel token, e.g. bsc:0.1")
    p.add_argument("--trials", type=int, default=10000, help="mc only: genie trials")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("encode", help="encode 0/1 information words from a file")
    p.add_argument("--frozen-set", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode received LLR frames from a file")
    p.add_argument("--frozen-set", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--list-size", type=int, default=1)
    p.add_argument("--frozen-metric", choices=("include", "ignore"), default="include")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("simulate", help="Monte-Carlo FER/BER sweep")
    p.add_argument("--frozen-set", required=True)
    p.add_argument(
        "--channel",
        required=True,
        help="comma-separated tokens: bsc:0.1, bec:0.3, awgn:2.0dB (Eb/N0)",
    )
    p.add_argument("--list-size", type=int, default=1)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--frozen-metric", choices=("include", "ignore"), default="include")
    p.add_argument("--csv", default=None, help="write per-point rows to this CSV file")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("complexity", help="kernel-count scaling probe")
    p.add_argument("--m-range", default="6:10", help="e.g. 6:10 or 6,8,10")
    p.add_argument("--l-range", default="1,2,4,8,16", help="comma-separated list sizes")
    p.add_argument("--report", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_complexity)

    return parser


@cache
def _parser():
    """The parser of every main call in this process, built once."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        # a file that cannot be opened, read or written
        where = f"{exc.filename}: " if exc.filename else ""
        raise SystemExit(f"error: {where}{exc.strerror or exc}")
    except ValueError as exc:
        raise SystemExit(f"error: {exc}")


if __name__ == "__main__":
    sys.exit(main())
