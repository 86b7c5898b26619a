import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rmpolar import (
    Channel,
    CodeSpec,
    Path,
    bec_erasure_parameters,
    freeze_bec,
    freeze_montecarlo,
    freeze_rm,
    genie_error_counts,
    list_decode,
    load_frozen_set,
    monomial_codeword,
    rm_dimension,
    save_frozen_set,
    sc_decode,
)
from rmpolar import code_model, list_decoder
from rmpolar.code_model import MAX_M
from helpers import (
    decode_steps,
    full_spec,
    gf2_rank,
    info_paths,
    random_spec,
    reference_freeze_montecarlo,
    reference_montecarlo_errors,
)


def test_rm_dimension_examples():
    assert rm_dimension(4, 4) == 16
    assert rm_dimension(0, 5) == 1
    assert rm_dimension(2, 5) == 16
    assert rm_dimension(3, 8) == 93


def test_rm_dimension_matches_pascal_recursion():
    # Independent oracle: k(r, m) = k(r, m-1) + k(r-1, m-1).
    table = {(0, 0): 1}
    for m in range(1, 11):
        table[(0, m)] = 1
        table[(m, m)] = 1 << m
        for r in range(1, m):
            table[(r, m)] = table[(r, m - 1)] + table[(r - 1, m - 1)]
    for (r, m), expected in table.items():
        assert rm_dimension(r, m) == expected


def test_rm_dimension_rejects_bad_orders():
    with pytest.raises(ValueError):
        rm_dimension(3, 2)
    with pytest.raises(ValueError):
        rm_dimension(-1, 4)
    with pytest.raises(ValueError):
        rm_dimension(0, -1)


def test_path_bits_validated():
    with pytest.raises(ValueError):
        Path(bits=(0, 2, 1))
    with pytest.raises(ValueError):
        Path(bits=())


def test_path_weight_and_index():
    p = Path(bits=(0, 1, 1, 0))
    assert p.m == 4
    assert p.weight == 2
    assert p.index == 6
    assert str(p) == "0110"
    assert Path(bits=(0, 0, 0, 0)).index == 0
    assert Path.from_index(15, 4).bits == (1, 1, 1, 1)
    assert Path.from_index(6, 4) == p


def test_path_index_round_trip_up_to_m12():
    for m in (1, 2, 5, 12):
        for i in range(1 << m):
            assert Path.from_index(i, m).index == i


def test_path_from_index_range_checked():
    with pytest.raises(ValueError):
        Path.from_index(4, 2)
    with pytest.raises(ValueError):
        Path.from_index(-1, 2)
    for m in (0, -1):
        with pytest.raises(ValueError, match=rf"^m must be >= 1, got {m}$"):
            Path.from_index(0, m)


def test_monomial_codeword_examples():
    np.testing.assert_array_equal(
        monomial_codeword(Path(bits=(0, 0))), [1, 1, 1, 1]
    )
    np.testing.assert_array_equal(
        monomial_codeword(Path(bits=(1, 1))), [0, 0, 0, 1]
    )
    # x2*x3 over 16 points: positions with both middle coordinates set.
    cw = monomial_codeword(Path(bits=(0, 1, 1, 0)))
    expected = [1 if (p >> 2) & 1 and (p >> 1) & 1 else 0 for p in range(16)]
    np.testing.assert_array_equal(cw, expected)


def test_monomial_weight_formula_exhaustive():
    # Oracle: evaluate the monomial at every point in pure python.
    for m in range(1, 7):
        for idx in range(1 << m):
            path = Path.from_index(idx, m)
            cw = monomial_codeword(path)
            ones = 0
            for p in range(1 << m):
                term = 1
                for level, il in enumerate(path.bits):
                    if il and not (p >> (m - 1 - level)) & 1:
                        term = 0
                        break
                ones += term
            assert cw.sum() == ones == 1 << (m - path.weight)


def test_monomial_basis_has_full_rank():
    for m in range(1, 7):
        n = 1 << m
        basis = np.stack([monomial_codeword(Path.from_index(i, m)) for i in range(n)])
        assert gf2_rank(basis) == n


def test_codespec_properties_and_ordering():
    spec = CodeSpec(m=3, info_indices=(1, 6, 3))
    assert spec.n == 8
    assert spec.dimension == 3
    # Stored ascending; the paths in processing order have decreasing index.
    assert [p.index for p in info_paths(spec)] == [6, 3, 1]
    assert list(spec.info_indices) == [1, 3, 6]
    mask = np.zeros(8, dtype=bool)
    mask[[1, 3, 6]] = True
    np.testing.assert_array_equal(spec.info_mask, mask)
    np.testing.assert_array_equal(spec.info_mask_by_leaf, mask[::-1])


def _steps_by_recursion(frozen, start, level, m):
    """Decode steps of the level-`level` subtree whose first leaf is `start`."""
    width = 1 << (m - level)
    if frozen[start : start + width].all():
        return [(start, level)]
    if width == 1:
        return [(start, m)]
    half = width // 2
    return _steps_by_recursion(frozen, start, level + 1, m) + _steps_by_recursion(frozen, start + half, level + 1, m)


def _check_decode_steps(spec):
    m, n = spec.m, spec.n
    frozen = ~spec.info_mask_by_leaf
    steps = decode_steps(spec)
    leaf = 0
    for j, node in steps:
        # the steps tile the leaves in processing order
        assert j == leaf
        width = 1 << (m - node)
        leaf += width
        if frozen[j]:
            # an aligned all-frozen subtree whose parent subtree is not
            assert j % width == 0 and frozen[j : j + width].all()
            if node > 0:
                first = j - j % (2 * width)
                assert not frozen[first : first + 2 * width].all()
        else:
            assert node == m
    assert leaf == n
    assert list(steps) == _steps_by_recursion(frozen, 0, 0, m)


def test_decode_steps_tile_leaves_with_maximal_frozen_subtrees():
    rng = np.random.default_rng(71)
    for m in range(1, 9):
        n = 1 << m
        for k in sorted({0, 1, 2, n // 4, n // 2, n - 1, n}):
            _check_decode_steps(random_spec(m, k, rng))
            _check_decode_steps(freeze_bec(m, k, 0.5))
    for r, m in ((1, 4), (3, 8), (2, 10)):
        _check_decode_steps(freeze_rm(r, m))


def test_decode_steps_edge_cases():
    # full rate: one step per leaf, no frozen block
    assert decode_steps(full_spec(4)) == tuple((j, 4) for j in range(16))
    # nothing informational: the whole tree is one frozen step
    assert decode_steps(CodeSpec(m=3, info_indices=())) == ((0, 0),)
    # one information leaf: frozen subtrees of halving width around it
    lone = CodeSpec(m=4, info_indices=(9,))  # leaf 15 - 9 = 6
    assert decode_steps(lone) == ((0, 2), (4, 3), (6, 4), (7, 4), (8, 1))
    for index in range(16):
        _check_decode_steps(CodeSpec(m=4, info_indices=(index,)))
    # the three benchmark codes: 256 -> 160, 1024 -> 608 and 256 -> 163 steps
    assert len(decode_steps(freeze_bec(8, 128, 0.5))) == 160
    assert len(decode_steps(freeze_bec(10, 512, 0.5))) == 608
    assert len(decode_steps(freeze_rm(3, 8))) == 163


def _plan_by_steps(spec):
    """decode_plan recomputed one step at a time from decode_steps."""
    m = spec.m
    plan = []
    for j, node in decode_steps(spec):
        half = j & -j
        start = m - (half.bit_length() - 1) if j else 0
        width = 1 << (m - node)
        stop = node
        while stop >= 1 and (j >> (m - stop)) & 1:
            stop -= 1
        levels = range(start + 1, node + 1)
        work = half + sum(1 << (m - lvl) for lvl in levels) + width * (m - node)
        plan.append((j, node, start, half, levels, bool(spec.info_mask_by_leaf[j]), width, stop, work))
    return tuple(plan)


def test_decode_plan_matches_a_step_by_step_recomputation():
    rng = np.random.default_rng(72)
    for m in range(1, 11):
        n = 1 << m
        specs = []
        for k in sorted({0, 1, n // 3, n}):
            specs += [random_spec(m, k, rng), freeze_bec(m, k, 0.5)]
        specs += [freeze_rm(r, m) for r in range(m + 1)]
        for spec in specs:
            plan = spec.decode_plan
            assert plan == _plan_by_steps(spec)
            for step in plan:
                assert [type(field) for field in step] == [int] * 4 + [range, bool] + [int] * 3
            # the work of the steps is the kernel count of a pass at L = 1
            assert sum(step[-1] for step in plan) == list_decode(spec, np.ones(n), 1).kernel_ops


def test_each_fold_stops_where_the_next_refresh_starts():
    # the list decoder reads the pending symbols of a refresh without
    # gathering them: the previous step's fold leaves exactly them current
    rng = np.random.default_rng(75)
    specs = [freeze_rm(3, 8), freeze_bec(8, 128, 0.5), freeze_bec(10, 512, 0.5)]
    for m in range(1, 11):
        n = 1 << m
        specs += [random_spec(m, int(k), rng) for k in rng.integers(0, n + 1, 4)]
    for spec in specs:
        plan = spec.decode_plan
        starts = [step[2] for step in plan]
        stops = [step[7] for step in plan]
        assert stops == starts[1:] + [0]
        # every refresh after the first starts below the root
        assert all(start >= 1 for start in starts[1:])


def test_decode_plan_is_built_once_per_spec(monkeypatch):
    builds = []
    build = CodeSpec.decode_plan.func

    def counted(spec):
        builds.append(spec)
        return build(spec)

    plan = functools.cached_property(counted)
    plan.__set_name__(CodeSpec, "decode_plan")
    monkeypatch.setattr(CodeSpec, "decode_plan", plan)
    rng = np.random.default_rng(73)
    spec = freeze_bec(6, 20, 0.5)
    for L, frames in ((1, 1), (4, 1), (4, 3), (1, 5)):
        list_decode(spec, rng.normal(1.0, 1.0, (frames, spec.n)), L)
    sc_decode(spec, rng.normal(1.0, 1.0, spec.n))
    genie_error_counts(spec, rng.normal(1.0, 1.0, (2, spec.n)), np.zeros((2, spec.dimension), dtype=np.uint8))
    assert builds == [spec] and spec.decode_plan is spec.decode_plan
    # an equal spec is another object, with a plan of its own
    twin = CodeSpec(m=6, info_indices=spec.info_indices)
    list_decode(twin, np.ones(spec.n), 2)
    assert len(builds) == 2 and builds[1] is twin


def test_a_decoded_spec_caches_one_mask_and_one_plan():
    rng = np.random.default_rng(76)
    spec = freeze_bec(6, 20, 0.5)
    llr = rng.normal(1.0, 1.0, (2, spec.n))
    list_decode(spec, llr, 4)
    sc_decode(spec, llr[0])
    genie_error_counts(spec, llr, np.zeros((2, spec.dimension), dtype=np.uint8))
    mask = spec.info_mask
    assert set(vars(spec)) == {"m", "info_indices", "info_mask_by_leaf", "decode_plan"}
    # info_mask is the leaf mask read backwards, a view nobody can write to
    assert mask.base is spec.info_mask_by_leaf and not mask.flags.writeable
    np.testing.assert_array_equal(mask, np.isin(np.arange(spec.n), spec.info_indices))


def test_codespec_validation():
    with pytest.raises(ValueError):
        CodeSpec(m=2, info_indices=(6,))
    with pytest.raises(ValueError):
        CodeSpec(m=2, info_indices=(3, 3))
    with pytest.raises(ValueError):
        CodeSpec(m=0, info_indices=())


def test_freeze_rm_matches_weight_rule():
    for m in range(1, 9):
        for r in range(m + 1):
            spec = freeze_rm(r, m)
            assert spec.dimension == rm_dimension(r, m)
            included = {p.index for p in info_paths(spec)}
            for idx in range(1 << m):
                path = Path.from_index(idx, m)
                assert (path.weight <= r) == (idx in included)


def test_freeze_rm_edge_orders():
    assert {p.index for p in info_paths(freeze_rm(0, 3))} == {0}
    assert freeze_rm(3, 3).dimension == 8


def test_bec_erasure_parameters_m1():
    params = bec_erasure_parameters(1, 0.5)
    np.testing.assert_allclose(params, [0.25, 0.75], rtol=0, atol=1e-15)


def test_bec_erasure_parameters_m2_example():
    params = bec_erasure_parameters(2, 0.5)
    np.testing.assert_allclose(
        params, [0.0625, 0.4375, 0.5625, 0.9375], rtol=0, atol=1e-15
    )


def test_bec_erasure_parameters_sum_check():
    # Children of one parent must sum to twice the parent, every level.
    for m in range(2, 7):
        for z in (0.15, 0.5, 0.83):
            parent = bec_erasure_parameters(m - 1, z)
            child = bec_erasure_parameters(m, z)
            np.testing.assert_allclose(
                child[0::2] + child[1::2], 2.0 * parent, rtol=1e-12
            )


def test_bec_erasure_parameters_bounds():
    for m in (1, 4, 6):
        params = bec_erasure_parameters(m, 0.37)
        assert np.all(params >= 0.0) and np.all(params <= 1.0)
    with pytest.raises(ValueError):
        bec_erasure_parameters(2, 1.5)
    with pytest.raises(ValueError, match=rf"^m must lie in \[1, {MAX_M}\] .*got m=0$"):
        bec_erasure_parameters(0, 0.5)


def test_freeze_bec_m2_selections():
    assert [p.index for p in info_paths(freeze_bec(2, 1, 0.5))] == [0]
    assert sorted(p.index for p in info_paths(freeze_bec(2, 2, 0.5))) == [0, 1]
    assert sorted(p.index for p in info_paths(freeze_bec(2, 3, 0.5))) == [0, 1, 2]


def test_freeze_bec_ties_prefer_smaller_index():
    # Degenerate designs make every parameter equal; the tie rule decides.
    for z in (0.0, 1.0):
        spec = freeze_bec(3, 4, z)
        assert sorted(p.index for p in info_paths(spec)) == [0, 1, 2, 3]


def test_freeze_bec_selects_k_smallest():
    m, z = 4, 0.42
    params = bec_erasure_parameters(m, z)
    for k in (1, 5, 12, 16):
        spec = freeze_bec(m, k, z)
        chosen = sorted(p.index for p in info_paths(spec))
        threshold = np.sort(params)[k - 1]
        assert len(chosen) == k
        assert all(params[i] <= threshold for i in chosen)


def test_freeze_bec_validates_k():
    with pytest.raises(ValueError):
        freeze_bec(3, -1, 0.5)
    with pytest.raises(ValueError):
        freeze_bec(3, 9, 0.5)
    assert freeze_bec(3, 0, 0.5).dimension == 0


def test_freeze_montecarlo_bec_example():
    from rmpolar import Channel

    spec = freeze_montecarlo(2, 2, Channel.bec(0.5), trials=100_000, seed=1)
    assert sorted(p.index for p in info_paths(spec)) == [0, 1]


def test_freeze_montecarlo_noiseless_ties():
    from rmpolar import Channel

    spec = freeze_montecarlo(3, 3, Channel.bsc(0.0), trials=64, seed=0)
    assert sorted(p.index for p in info_paths(spec)) == [0, 1, 2]


def test_freeze_montecarlo_matches_exact_bec_ranking():
    from rmpolar import Channel

    # z = 0.4, m = 3: exact parameters leave a wide gap around rank 4.
    spec = freeze_montecarlo(3, 4, Channel.bec(0.4), trials=20_000, seed=9)
    assert sorted(p.index for p in info_paths(spec)) == [0, 1, 2, 4]


def test_freeze_montecarlo_is_deterministic():
    from rmpolar import Channel

    a = freeze_montecarlo(3, 4, Channel.bsc(0.2), trials=3000, seed=5)
    b = freeze_montecarlo(3, 4, Channel.bsc(0.2), trials=3000, seed=5)
    assert a == b


@pytest.mark.parametrize(
    "m, per_call, channel, trials",
    [
        (5, 1, Channel.bsc(0.1), 1),
        (5, 2, Channel.bec(0.4), 4095),
        (6, 3, Channel.awgn(0.8), 4097),
        (5, 3, Channel.bsc(0.1), 9000),
    ],
    ids=["bsc-1", "bec-4095", "awgn-4097", "bsc-9000"],
)
def test_freeze_montecarlo_does_not_depend_on_the_decode_block(monkeypatch, m, per_call, channel, trials):
    # slices of 1-3 rows, which divide neither the trials nor the 4096-word
    # draw batch, give the counts and frozen sets of one genie call per batch
    n = 1 << m
    calls = []
    genie = code_model.genie_error_counts

    def counted(spec, llr, words):
        errors = genie(spec, llr, words)
        calls.append((len(llr), errors))
        return errors

    monkeypatch.setattr(code_model, "genie_error_counts", counted)
    monkeypatch.setattr(list_decoder, "DECODE_BLOCK_ENTRIES", per_call * n)
    spec = freeze_montecarlo(m, n // 2, channel, trials, seed=4)
    rows = [count for count, _ in calls]
    batches = [min(4096, trials - done) for done in range(0, trials, 4096)]
    assert rows == [min(per_call, b - first) for b in batches for first in range(0, b, per_call)]
    counts = sum(errors for _, errors in calls)
    np.testing.assert_array_equal(counts, reference_montecarlo_errors(m, channel, trials, seed=4))
    assert spec == reference_freeze_montecarlo(m, n // 2, channel, trials, seed=4)
    monkeypatch.undo()
    for k in (1, n // 4, 3 * n // 4):
        expected = reference_freeze_montecarlo(m, k, channel, trials, seed=4)
        assert freeze_montecarlo(m, k, channel, trials, seed=4) == expected


def test_freeze_montecarlo_memory_is_bounded_by_the_decode_block():
    # at m=10 each 4096-word batch is decoded in slices of 1024 rows; decoded
    # in one call, the batch peaked at 186 MiB
    tracemalloc.start()
    try:
        freeze_montecarlo(10, 512, Channel.bsc(0.05), 4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 80 << 20


def test_freeze_montecarlo_rejects_bad_k_and_trials():
    channel = Channel.bsc(0.1)
    for k in (-1, 9):
        with pytest.raises(ValueError, match=rf"^k must lie in \[0, 8\], got {k}$"):
            freeze_montecarlo(3, k, channel, trials=10)
    for trials in (0, -5):
        with pytest.raises(ValueError, match=rf"^trials must be >= 1, got {trials}$"):
            freeze_montecarlo(3, 4, channel, trials=trials)
    with pytest.raises(ValueError, match=r"^trials must be an integer, got 2\.5$"):
        freeze_montecarlo(3, 4, channel, trials=2.5)


def test_freeze_montecarlo_names_a_negative_seed():
    with pytest.raises(ValueError, match=r"^seed must be >= 0, got -1$"):
        freeze_montecarlo(3, 4, Channel.bsc(0.1), trials=10, seed=-1)
    with pytest.raises(ValueError, match=r"^seed must be an integer, got 0\.5$"):
        freeze_montecarlo(3, 4, Channel.bsc(0.1), trials=10, seed=0.5)


def test_frozen_set_load_rejects_an_empty_file(tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ValueError, match=r"empty\.txt: empty frozen-set file$"):
        load_frozen_set(empty)


def test_frozen_set_file_exact_bytes(tmp_path):
    target = tmp_path / "rm12.txt"
    save_frozen_set(freeze_rm(1, 2), target)
    assert target.read_bytes() == b"m=2 k=3\n0\n1\n2\n"


def test_frozen_set_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    cases = [freeze_rm(2, 5), freeze_bec(6, 30, 0.5)]
    for m, k in ((12, 1), (12, 700), (12, 4096)):
        chosen = rng.choice(1 << m, size=k, replace=False)
        cases.append(
            CodeSpec(m=m, info_indices=chosen)
        )
    for i, spec in enumerate(cases):
        target = tmp_path / f"case{i}.txt"
        save_frozen_set(spec, target)
        loaded = load_frozen_set(target)
        assert loaded == spec
        # Saving what was loaded reproduces the file byte for byte.
        second = tmp_path / f"case{i}b.txt"
        save_frozen_set(loaded, second)
        assert second.read_bytes() == target.read_bytes()


def test_frozen_set_load_rejects_malformed(tmp_path):
    bad = [
        ("m=2\n0\n", 1),  # header missing k
        ("m=2 k=2\n0\n", 1),  # fewer indices than promised
        ("m=2 k=1\n0\n1\n", 1),  # more indices than promised
        ("m=2 k=5\n0\n1\n2\n3\n", 1),  # more indices than m allows
        ("m=2 k=2\n1\n0\n", 3),  # not ascending
        ("m=2 k=2\n0\n4\n", 3),  # index out of range
        ("m=2 k=2\n0\n0\n", 3),  # duplicate
        ("m=2 k=2\n0\nabc\n", 3),  # not a number
        ("m=2 k=2\n0\n1.0\n", 3),  # not an integer
        ("m=2 k=1\n\n-1\n", 3),  # negative, after a skipped blank line
        ("m=2 m=3 k=1\n0\n", 1),  # repeated header key
        ("m=2 k=1 k=1\n0\n", 1),  # repeated header key
        ("m=2 k=1 z=5\n0\n", 1),  # unknown header key
        ("m=2 k=1 x\n0\n", 1),  # header field without '='
        ("m=4 k=3\n1_0\n11\n12\n", 2),  # int() would read 10
        ("m=4 k=3\n10\n +11\n12\n", 3),  # int() would read 11
        ("m=4 k=2\n3\n4 \n", 3),  # trailing whitespace
        # bytes above 0x7F: each character here is written as one latin-1 byte
        ("\xef\xbb\xbfm=2 k=1\n0\n", 1),  # UTF-8 byte order mark
        ("m=2\xa0k=1\n0\n", 1),  # str.split would cut at a no-break space
        ("m=2 k=2\n0\n\xc3\xa9\n", 3),  # UTF-8 e-acute
        ("m=2 k=2\n0\n\xb2\n", 3),  # str.isdigit takes superscript two for a digit
        ("m=2 k=2\n0\n1\xa0\n", 3),
        ("m=2 k=2\n0\n\xa0\n1\n", 3),  # not a blank line
        # int() would take each of these header fields
        ("m=+2 k=0_1\n0\n", 1),  # m=2, k=1
        ("m=0_2 k=1\n0\n", 1),  # m=2
        ("m=2 k=1_0\n0\n", 1),  # k=10
        ("m=-2 k=1\n0\n", 1),  # a header fault, not check_m's
    ]
    for i, (text, line) in enumerate(bad):
        target = tmp_path / f"bad{i}.txt"
        target.write_bytes(text.encode("latin-1"))
        with pytest.raises(ValueError, match=rf"bad{i}\.txt:{line}: "):
            load_frozen_set(target)


def test_frozen_set_load_parses_blocks_of_lines(tmp_path, monkeypatch):
    # tiny blocks put block boundaries inside and between lines: the values,
    # the skipped blank lines and the line an error names do not change
    rng = np.random.default_rng(74)
    spec = random_spec(9, 200, rng)
    lines = [str(i) for i in spec.info_indices]
    good = tmp_path / "good.txt"
    bad = tmp_path / "bad.txt"
    for chunk in (1, 2, 3, 7, 64, 1 << 16):
        monkeypatch.setattr(code_model, "_LOAD_CHUNK", chunk)
        # blank lines, a leading-zero line longer than any index, no final newline
        body = lines[:50] + ["", ""] + lines[50:120] + ["0000000000" + lines[120]] + lines[121:]
        good.write_text("m=9 k=200\n" + "\n".join(body))
        assert load_frozen_set(good) == spec
        for at, text, message in (
            (150, "x", "is not a decimal integer"),
            (151, "512", "out of range"),
            (199, lines[3], "indices must strictly ascend"),
        ):
            broken = lines[:at] + [text] + lines[at + 1 :]
            bad.write_text("m=9 k=200\n" + "\n".join(broken) + "\n")
            with pytest.raises(ValueError, match=rf"bad\.txt:{at + 2}: .*{message}"):
                load_frozen_set(bad)
        # more lines than the header promises, over several blocks
        bad.write_text("m=9 k=150\n" + "\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=r"bad\.txt:1: header says k=150 but 200 index lines follow"):
            load_frozen_set(bad)


def test_index_lines_past_the_int_digit_limit(tmp_path):
    # int() refuses more than 4300 digits; the loader counts them instead,
    # after the leading zeros, which any index line may carry
    target = tmp_path / "long.txt"
    target.write_text("m=3 k=1\n1" + "0" * 4300 + "\n")
    with pytest.raises(ValueError, match=r"^.*long\.txt:2: index of 4301 digits out of range for m=3$"):
        load_frozen_set(target)
    target.write_text("m=3 k=2\n" + "0" * 4301 + "\n" + "0" * 5000 + "7\n")
    assert load_frozen_set(target) == CodeSpec(m=3, info_indices=[0, 7])


def test_frozen_set_header_takes_leading_zeros_in_any_order(tmp_path):
    target = tmp_path / "zeros.txt"
    target.write_text("k=02  m=003\n1\n05\n")
    assert load_frozen_set(target) == CodeSpec(m=3, info_indices=[1, 5])


# Malformed index lines: a sign, '_', a space, a point, a letter, and bytes
# above 0x7F (a no-break space, e-acute, superscript two).
_ODD_LINES = ["+1", "-1", "1_0", " 1", "1.0", "x", "\xa0", "1\xa0", "\xe9", "\xb2"]


@st.composite
def _frozen_set_texts(draw):
    m = draw(st.integers(1, 8))
    n = 1 << m
    indices = sorted(draw(st.sets(st.integers(0, n - 1), max_size=40)))
    # leading zeros a line may take: past the widest index, only the line by
    # line parse reads it
    zeros = draw(st.sampled_from([[0], [0, 1], [0, 2, 9]]))
    lines = ["0" * draw(st.sampled_from(zeros)) + str(i) for i in indices]
    for _ in range(draw(st.integers(0, 4))):
        line = draw(
            st.one_of(
                st.just(""),  # blank: skipped
                st.sampled_from(_ODD_LINES),
                st.integers(0, n - 1).map(str),  # out of order, or a duplicate
                st.integers(n, 10**25).map(str),  # out of range, past int64 too
            )
        )
        lines.insert(draw(st.integers(0, len(lines))), line)
    k = len(indices) if draw(st.booleans()) else draw(st.integers(0, n))
    end = draw(st.sampled_from(["\n", ""]))
    return f"m={m} k={k}\n" + "\n".join(lines) + end


def _load_outcome(path):
    try:
        spec = load_frozen_set(path)
    except ValueError as exc:
        return str(exc)
    return spec.m, spec.info_indices.tolist()


@settings(max_examples=150, deadline=None)
@given(text=_frozen_set_texts())
@example(text="m=2 k=1\n\n1\n")  # one blank line alone in a block
def test_property_block_parse_and_line_parse_accept_the_same_files(tmp_path_factory, text):
    # the block parse is only a fast path: with or without it, every file
    # gives the same values or the same error, wherever the blocks are cut
    target = tmp_path_factory.mktemp("load") / "code.txt"
    target.write_bytes(text.encode("latin-1"))
    with pytest.MonkeyPatch.context() as patch:
        for chunk in (1, 2, 7, 1 << 16):
            patch.setattr(code_model, "_LOAD_CHUNK", chunk)
            fast = _load_outcome(target)
            with pytest.MonkeyPatch.context() as line_by_line:
                line_by_line.setattr(code_model, "_decimal_lines", lambda block, most_digits: None)
                assert fast == _load_outcome(target), (chunk, text)


def test_dimension_consistency_against_comb():
    for m in range(1, 9):
        for r in range(m + 1):
            assert rm_dimension(r, m) == sum(math.comb(m, i) for i in range(r + 1))


def test_m_is_bounded_before_anything_is_allocated(tmp_path):
    assert 2**MAX_M * 8 == 128 * 2**20  # one float64 belief block at the limit
    too_deep = MAX_M + 1
    with pytest.raises(ValueError, match="m must lie in"):
        CodeSpec(m=too_deep, info_indices=())
    with pytest.raises(ValueError, match="m must lie in"):
        freeze_rm(0, 40)
    with pytest.raises(ValueError, match="m must lie in"):
        freeze_bec(40, 1, 0.5)
    with pytest.raises(ValueError, match="m must lie in"):
        freeze_montecarlo(40, 1, Channel.bsc(0.1), trials=1)
    path = tmp_path / "deep.txt"
    path.write_text("m=40 k=1\n0\n")
    with pytest.raises(ValueError, match=rf"deep\.txt: m must lie in \[1, {MAX_M}\]"):
        load_frozen_set(path)
    # either would build arrays of 2**(MAX_M + 1) entries, at m=30 of 8 GB
    for call in (
        lambda: bec_erasure_parameters(too_deep, 0.5),
        lambda: monomial_codeword(Path((0,) * too_deep)),
        lambda: monomial_codeword(Path((1,) * too_deep)),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=rf"^m must lie in \[1, {MAX_M}\] .*got m={too_deep}$"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
