"""End-to-end acceptance checks.

Each test measures one headline property of the library and emits a single
PASS/FAIL line with the observed numbers; the lines are echoed again in the
terminal summary.  Run order follows the criterion numbers.
"""

import math

import numpy as np

from rmpolar import (
    Channel,
    Path,
    SoftVector,
    bec_erasure_parameters,
    combine_u,
    combine_u_llr,
    combine_v,
    combine_v_llr,
    complexity_probe,
    encode,
    encode_reference,
    freeze_bec,
    freeze_rm,
    genie_error_counts,
    list_decode,
    ml_decode,
    modulate,
    monomial_codeword,
    posteriors,
    random_info_bits,
    run_simulation,
    sc_decode,
    sc_decode_batch,
    transmit,
    write_csv,
)
from conftest import criterion
from helpers import all_hard_patterns, full_spec, reference_list_decode, same_list_result

# ---------------------------------------------------------------------------
# criterion 1: the full-width list decision is maximum likelihood


def _small_spec_family():
    specs = set()
    for m in (1, 2, 3):
        n = 1 << m
        for r in range(m + 1):
            specs.add(freeze_rm(r, m))
        for k in (1, n // 2, n - 1):
            if k >= 1:
                specs.add(freeze_bec(m, k, 0.5))
    return sorted(specs, key=lambda s: (s.m, s.dimension, tuple(s.info_indices)))


def test_criterion_1_full_list_is_maximum_likelihood():
    with criterion(1, "full-width list equals exhaustive maximum likelihood") as out:
        matches = 0
        total = 0
        # Exhaustive: every hard-decision pattern of every small code.
        ch = Channel.bsc(0.1)
        for spec in _small_spec_family():
            L = 1 << spec.dimension
            for y in all_hard_patterns(spec.n):
                sv = posteriors(ch, y)
                ml = ml_decode(spec, sv)
                best = list_decode(spec, sv, list_size=L, frozen_metric="include").best
                matches += int(np.array_equal(best.codeword, ml.codeword))
                total += 1
        exhaustive = (matches, total)
        # Sampled: noisy soft beliefs at blocklength 16.
        rng = np.random.default_rng(101)
        for spec in (freeze_rm(1, 4), freeze_bec(4, 6, 0.5)):
            rate = spec.dimension / spec.n
            sigma = (2.0 * rate * 10.0 ** (2.0 / 10.0)) ** -0.5
            ch = Channel.awgn(sigma)
            L = 1 << spec.dimension
            for _ in range(500):
                sent = random_info_bits(spec, rng)
                y = transmit(ch, modulate(encode(spec, sent)), rng)
                sv = posteriors(ch, y)
                ml = ml_decode(spec, sv)
                best = list_decode(spec, sv, list_size=L, frozen_metric="include").best
                matches += int(np.array_equal(best.codeword, ml.codeword))
                total += 1
        out["ok"] = matches == total
        out["detail"] = (
            f"{matches}/{total} codeword agreements "
            f"({exhaustive[1]} exhaustive hard patterns + 1000 noisy frames)"
        )


# ---------------------------------------------------------------------------
# criterion 2: list size 1 reproduces plain successive cancellation


def test_criterion_2_list_of_one_matches_sc():
    with criterion(2, "list size 1 is bit-identical to successive cancellation") as out:
        mismatches = 0
        total = 0
        for m in (4, 6, 8):
            spec = freeze_bec(m, (1 << m) // 2, 0.5)
            ch = Channel.awgn(0.9)
            rng = np.random.default_rng(200 + m)
            for _ in range(1000):
                sent = random_info_bits(spec, rng)
                y = transmit(ch, modulate(encode(spec, sent)), rng)
                sv = posteriors(ch, y)
                sc = sc_decode(spec, sv)
                best = list_decode(spec, sv, list_size=1).best
                same = np.array_equal(best.info_bits, sc.info_bits) and np.array_equal(
                    best.codeword, sc.codeword
                )
                mismatches += int(not same)
                total += 1
        out["ok"] = mismatches == 0
        out["detail"] = f"{mismatches} mismatches in {total} frames (m in {{4, 6, 8}})"


# ---------------------------------------------------------------------------
# criterion 3: measured work follows the scaling models


def test_criterion_3_complexity_scaling():
    with criterion(3, "kernel counts fit the scaling models within 20%") as out:
        report = complexity_probe(range(6, 11), [1, 2, 4, 8, 16], trials=2, seed=7)
        dec_worst = max(abs(r) for r in report.decoder_residuals)
        enc_worst = max(abs(r) for r in report.encoder_residuals)
        out["ok"] = dec_worst < 0.2 and enc_worst < 0.2
        out["detail"] = (
            f"decoder a*L*n*log2(n) fit a={report.decoder_fit:.3f}, "
            f"max |residual|={dec_worst:.3f}; "
            f"encoder a*n*log2(n) fit a={report.encoder_fit:.3f}, "
            f"max |residual|={enc_worst:.2g} (25 + 5 grid points)"
        )


# ---------------------------------------------------------------------------
# criterion 4: the erasure-designed frozen set beats the weight rule


def _sc_frame_error_rate(spec, p, trials, seed):
    ch = Channel.bsc(p)
    rng = np.random.default_rng(seed)
    words = random_info_bits(spec, rng, size=trials)
    y = transmit(ch, modulate(encode(spec, words)), rng)
    decided, _ = sc_decode_batch(spec, posteriors(ch, y))
    fer = float(np.mean(np.any(decided != words, axis=1)))
    return fer, 1.96 * math.sqrt(fer * (1.0 - fer) / trials)


def test_criterion_4_construction_quality():
    with criterion(4, "erasure-designed frozen set beats the weight rule") as out:
        p = 0.05
        z = 2.0 * math.sqrt(p * (1.0 - p))
        weight_rule = freeze_rm(3, 8)
        designed = freeze_bec(8, 93, z)
        assert designed.dimension == weight_rule.dimension == 93
        fer_w, ci_w = _sc_frame_error_rate(weight_rule, p, 10_000, seed=1000)
        fer_d, ci_d = _sc_frame_error_rate(designed, p, 10_000, seed=2000)
        separated = fer_d < fer_w and (fer_d + ci_d) < (fer_w - ci_w)
        if separated:
            out["ok"] = True
            out["detail"] = (
                f"(256, 93) at crossover {p}: designed FER {fer_d:.4f} (+-{ci_d:.4f}) "
                f"vs weight-rule FER {fer_w:.4f} (+-{ci_w:.4f}), intervals disjoint"
            )
        else:
            # Fallback sweep: the designed set must win at most points.
            wins = 0
            points = (0.03, 0.04, 0.05, 0.06, 0.07, 0.08)
            for i, pp in enumerate(points):
                fw, _ = _sc_frame_error_rate(weight_rule, pp, 4000, seed=3000 + i)
                fd, _ = _sc_frame_error_rate(designed, pp, 4000, seed=4000 + i)
                wins += int(fd <= fw)
            out["ok"] = wins >= 4
            out["detail"] = (
                f"(256, 93): intervals overlapped at {p}; designed set won "
                f"{wins}/{len(points)} sweep points"
            )


# ---------------------------------------------------------------------------
# criterion 5: genie error rates match the exact erasure recursion


def test_criterion_5_genie_calibration():
    with criterion(5, "genie error rates match the exact erasure recursion") as out:
        worst = 0.0
        channels = 0
        trials = 100_000
        for m in (2, 3, 4):
            spec = full_spec(m)
            rng = np.random.default_rng(5 + m)
            ch = Channel.bec(0.5)
            words = random_info_bits(spec, rng, size=trials)
            y = transmit(ch, modulate(encode(spec, words)), rng)
            counts = genie_error_counts(spec, posteriors(ch, y), words)
            rate = counts[::-1] / trials  # leaf step s handles path index n-1-s
            target = bec_erasure_parameters(m, 0.5) / 2.0
            sigma = np.sqrt(target * (1.0 - target) / trials)
            worst = max(worst, float(np.max(np.abs(rate - target) / sigma)))
            channels += spec.n
        out["ok"] = worst <= 3.0
        out["detail"] = (
            f"max deviation {worst:.2f} sigma over {channels} synthetic channels, "
            f"{trials} trials each"
        )


# ---------------------------------------------------------------------------
# criterion 6: structural invariants hold in one sweep


def test_criterion_6_invariant_bundle(tmp_path):
    with criterion(6, "structural invariant bundle") as out:
        checks = {}

        # Monomial weight rule, exhaustive through m = 6.
        ok = True
        for m in range(1, 7):
            for idx in range(1 << m):
                path = Path.from_index(idx, m)
                ok &= int(monomial_codeword(path).sum()) == 1 << (m - path.weight)
        checks["weight rule"] = ok

        # Encoder linearity and agreement with the monomial-sum reference.
        rng = np.random.default_rng(600)
        ok = True
        for m in (4, 6):
            spec = freeze_bec(m, (1 << m) // 2, 0.5)
            for _ in range(50):
                a = random_info_bits(spec, rng)
                b = random_info_bits(spec, rng)
                ok &= bool(
                    np.array_equal(encode(spec, a ^ b), encode(spec, a) ^ encode(spec, b))
                )
                ok &= bool(np.array_equal(encode(spec, a), encode_reference(spec, a)))
        checks["encoder linearity + reference"] = ok

        # Kernels agree across belief domains.
        l0 = rng.uniform(-30.0, 30.0, size=10_000)
        l1 = rng.uniform(-30.0, 30.0, size=10_000)
        v = rng.choice([-1.0, 1.0], size=10_000)
        g_gap = np.abs(
            np.tanh(combine_v_llr(l0, l1) / 2.0)
            - combine_v(np.tanh(l0 / 2.0), np.tanh(l1 / 2.0))
        )
        h_rel = np.abs(
            np.exp(combine_u_llr(l0, l1, v)) / combine_u(np.exp(l0), np.exp(l1), v) - 1.0
        )
        degrading = np.all(
            np.abs(combine_v(np.tanh(l0 / 2.0), np.tanh(l1 / 2.0)))
            <= np.minimum(np.abs(np.tanh(l0 / 2.0)), np.abs(np.tanh(l1 / 2.0))) + 1e-15
        )
        checks["kernel domain agreement"] = bool(
            np.max(g_gap) < 1e-9 and np.max(h_rel) < 1e-9 and degrading
        )

        # The array decoder agrees with the independent per-hypothesis
        # reference decoder on 1000 frames: bits, codewords, exact metrics and
        # work counts.
        ok = True
        plan = ((3, 8, 300), (4, 4, 300), (5, 8, 200), (6, 2, 100), (8, 8, 100))
        for m, L, frames in plan:
            spec = freeze_bec(m, (1 << m) // 2, 0.5)
            ch = Channel.awgn(1.0)
            rng_m = np.random.default_rng(700 + m)
            for _ in range(frames):
                sent = random_info_bits(spec, rng_m)
                y = transmit(ch, modulate(encode(spec, sent)), rng_m)
                sv = posteriors(ch, y)
                result = list_decode(spec, sv, list_size=L)
                ok &= same_list_result(result, reference_list_decode(spec, sv.llr, L))
        checks["reference-decoder identity (1000 frames)"] = ok

        # Same seed, same CSV bytes.
        spec = freeze_bec(4, 8, 0.5)
        points = [(Channel.bsc(0.08), 0.08), (Channel.awgn(1.0), 2.0)]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        write_csv(run_simulation(spec, points, list_size=2, trials=50, seed=9), first)
        write_csv(run_simulation(spec, points, list_size=2, trials=50, seed=9), second)
        checks["deterministic CSV"] = first.read_bytes() == second.read_bytes()

        out["ok"] = all(checks.values())
        passed = sum(checks.values())
        failed = [name for name, good in checks.items() if not good]
        out["detail"] = (
            f"{passed}/{len(checks)} checks hold"
            + (f"; failing: {', '.join(failed)}" if failed else
               " (weight rule, linearity, domain agreement, reference decoder, CSV)")
        )
