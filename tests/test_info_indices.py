"""The information set is stored and consumed as one ascending index array.

Constructions, loads and decodes read the array and build no Path objects.
"""

import hashlib

import numpy as np
import pytest

from rmpolar import (
    Channel,
    CodeSpec,
    Path,
    encode,
    freeze_bec,
    freeze_montecarlo,
    freeze_rm,
    load_frozen_set,
    run_simulation,
    save_frozen_set,
    sc_decode,
)
from rmpolar.cli import main
from helpers import info_paths

# SHA-256 of the frozen-set files of _golden_specs, saved and concatenated in
# order; recorded before CodeSpec held indices, when it held Path tuples.
GOLDEN_FROZEN_SETS = "950c8657f86e2603d5cdfc878524f04805b7d333aa6aba7bb7e7c793faaca52d"


def _golden_specs():
    for m in range(1, 11):
        n = 1 << m
        for r in range(m + 1):
            yield freeze_rm(r, m)
        for k in (0, 1, n // 3, n // 2, n):
            for z in (0.1, 0.5, 0.9):
                yield freeze_bec(m, k, z)
    for m, k, ch in ((4, 7, Channel.bsc(0.1)), (6, 20, Channel.awgn(0.9)), (8, 128, Channel.bec(0.4))):
        yield freeze_montecarlo(m, k, ch, trials=5000, seed=3)


def test_frozen_set_files_keep_their_golden_bytes(tmp_path):
    digest = hashlib.sha256()
    files = 0
    for spec in _golden_specs():
        target = tmp_path / f"spec{files}.txt"
        save_frozen_set(spec, target)
        digest.update(target.read_bytes())
        assert load_frozen_set(target) == spec
        files += 1
    assert files == 218
    assert digest.hexdigest() == GOLDEN_FROZEN_SETS


@pytest.fixture
def no_paths(monkeypatch):
    """Make building any Path fail for the duration of a test."""

    def refuse(*args, **kwargs):
        raise AssertionError("a Path was built")

    monkeypatch.setattr(Path, "from_index", refuse)
    monkeypatch.setattr(Path, "__init__", refuse)


def test_constructions_loads_and_runs_build_no_paths(no_paths, tmp_path, capsys):
    with pytest.raises(AssertionError, match="a Path was built"):
        info_paths(freeze_rm(1, 3))
    specs = [
        freeze_rm(2, 6),
        freeze_bec(6, 20, 0.5),
        freeze_montecarlo(5, 12, Channel.bsc(0.1), trials=300, seed=2),
    ]
    for i, spec in enumerate(specs):
        target = tmp_path / f"code{i}.txt"
        save_frozen_set(spec, target)
        assert load_frozen_set(target) == spec
    (result,) = run_simulation(specs[1], [(Channel.awgn(0.8), 1.0)], list_size=2, trials=20, seed=1)
    assert result.trials == 20

    code = tmp_path / "code1.txt"
    csv_path = tmp_path / "sweep.csv"
    assert main(["simulate", "--frozen-set", str(code), "--channel", "bsc:0.05,awgn:2.0dB",
                 "--list-size", "4", "--trials", "10", "--csv", str(csv_path)]) == 0
    assert len(csv_path.read_text().splitlines()) == 3
    frames = tmp_path / "llr.txt"
    rng = np.random.default_rng(5)
    frames.write_text("".join(" ".join(map(str, row)) + "\n" for row in rng.normal(1.0, 1.0, (3, 64))))
    decoded = tmp_path / "decoded.txt"
    assert main(["decode", "--frozen-set", str(code), "--in", str(frames),
                 "--out", str(decoded), "--list-size", "2"]) == 0
    assert [len(line) for line in decoded.read_text().splitlines()] == [20, 20, 20]
    assert main(["complexity", "--m-range", "4,5", "--l-range", "1,2"]) == 0
    assert "decoder fit" in capsys.readouterr().out


def test_freeze_rm_keeps_indices_of_popcount_at_most_r():
    for m in range(1, 13):
        for r in range(m + 1):
            expected = [i for i in range(2**m) if bin(i).count("1") <= r]
            assert freeze_rm(r, m).info_indices.tolist() == expected


@pytest.mark.parametrize(
    "indices",
    [
        [0.0, 1.0],  # float
        np.array([1.5]),
        [True, False],  # bool
        np.array([True]),
        [[0, 1]],  # 2-d
        np.zeros((2, 2), dtype=int),
        [-1, 2],  # negative
        [0, 8],  # out of range for m=3
        np.array([9], dtype=np.uint64),
        [3, 1, 3],  # duplicate
        [Path.from_index(1, 3)],  # the old Path-tuple form
        np.array([2, 2, 5]),  # ascending, but not strictly
    ],
)
def test_codespec_rejects_bad_indices(indices):
    with pytest.raises(ValueError):
        CodeSpec(m=3, info_indices=indices)


def test_codespec_equality_and_hash_follow_the_index_set():
    forms = [
        [1, 4, 6],
        (6, 4, 1),
        np.array([6, 1, 4]),
        np.array([1, 4, 6], dtype=np.uint8),
    ]
    specs = [CodeSpec(m=3, info_indices=form) for form in forms]
    for spec in specs:
        assert spec == specs[0] and hash(spec) == hash(specs[0])
        assert spec.info_indices.dtype == np.int64
        assert spec.info_indices.tolist() == [1, 4, 6]
    assert CodeSpec(m=4, info_indices=range(4)) == CodeSpec(m=4, info_indices=[3, 2, 1, 0])
    assert hash(CodeSpec(m=4, info_indices=range(4))) == hash(CodeSpec(m=4, info_indices=[3, 2, 1, 0]))
    assert freeze_rm(1, 3) == CodeSpec(m=3, info_indices=[0, 1, 2, 4])
    assert len({freeze_rm(1, 3), CodeSpec(m=3, info_indices=[4, 2, 1, 0])}) == 1
    # m and the index set both count
    assert CodeSpec(m=3, info_indices=[0]) != CodeSpec(m=4, info_indices=[0])
    assert CodeSpec(m=3, info_indices=[0]) != CodeSpec(m=3, info_indices=[1])
    assert CodeSpec(m=3, info_indices=[0]) != (3, [0])
    assert CodeSpec(m=3, info_indices=[]) == CodeSpec(m=3, info_indices=())


def test_codespec_indices_are_read_only_and_not_shared():
    # input that already ascends skips the sort, but a writable array, or
    # one of another dtype, is still copied
    for source in (np.array([5, 2, 7]), np.array([2, 5, 7]), np.array([2, 5, 7], dtype=np.int32)):
        spec = CodeSpec(m=3, info_indices=source)
        with pytest.raises(ValueError):
            spec.info_indices[0] = 1
        source[0] = 0
        assert source.flags.writeable
        assert spec.info_indices.tolist() == [2, 5, 7]
    # a read-only ascending int64 array is copied too: it may be a view of
    # an array that its caller can still write
    frozen = np.array([2, 5, 7])
    frozen.setflags(write=False)
    assert CodeSpec(m=3, info_indices=frozen).info_indices is not frozen


def test_a_read_only_view_of_a_writable_array_cannot_change_a_spec():
    source = np.array([3, 5, 6, 7])
    view = source.view()
    view.setflags(write=False)
    spec = CodeSpec(m=3, info_indices=view)
    before = hash(spec)
    bits = np.array([1, 0, 1, 1], dtype=np.uint8)

    def round_trip():
        llr = 4.0 * (1.0 - 2.0 * encode(spec, bits))
        return sc_decode(spec, llr).info_bits.tolist()

    assert round_trip() == [1, 0, 1, 1]
    source[0] = 0
    assert round_trip() == [1, 0, 1, 1]
    assert spec.info_indices.tolist() == [3, 5, 6, 7] and hash(spec) == before


def test_constructions_hand_their_fresh_indices_over_uncopied(tmp_path, monkeypatch):
    # freeze_rm and load_frozen_set build an ascending array of their own,
    # which the spec keeps rather than copies (at m=24 a copy is 78 MB)
    handed = []
    adopt = CodeSpec._adopt.__func__

    def spy(cls, m, indices):
        handed.append(indices)
        return adopt(cls, m, indices)

    monkeypatch.setattr(CodeSpec, "_adopt", classmethod(spy))
    path = tmp_path / "rm.txt"
    save_frozen_set(freeze_rm(2, 5), path)
    for build in (lambda: freeze_rm(2, 5), lambda: load_frozen_set(path)):
        spec = build()
        assert spec.info_indices is handed[-1] and not spec.info_indices.flags.writeable
        assert spec == CodeSpec(m=5, info_indices=handed[-1].copy())
    assert len(handed) == 3


def test_info_set_builds_paths_in_decreasing_index_order():
    # the tests' Path view of a spec, which the polynomial and monomial-sum
    # oracles read in processing order
    spec = CodeSpec(m=3, info_indices=[1, 6, 3])
    assert info_paths(spec) == (Path((1, 1, 0)), Path((0, 1, 1)), Path((0, 0, 1)))
    assert info_paths(CodeSpec(m=2, info_indices=())) == ()
