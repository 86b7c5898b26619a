import json

import numpy as np
import pytest

from rmpolar import (
    encode,
    freeze_bec,
    freeze_rm,
    load_frozen_set,
    modulate,
    save_frozen_set,
)
from rmpolar.cli import main


def _frozen_set_file(tmp_path, spec, name="code.txt"):
    path = tmp_path / name
    save_frozen_set(spec, path)
    return path


def test_construct_rm_writes_expected_file(tmp_path):
    out = tmp_path / "rm.txt"
    assert main(["construct", "--m", "4", "--construction", "rm",
                 "--design-param", "1", "--out", str(out)]) == 0
    assert load_frozen_set(out) == freeze_rm(1, 4)


def test_construct_rm_rejects_inconsistent_k(tmp_path):
    out = tmp_path / "rm.txt"
    with pytest.raises(SystemExit):
        main(["construct", "--m", "4", "--k", "7", "--construction", "rm",
              "--design-param", "1", "--out", str(out)])


def test_construct_bec_matches_library(tmp_path):
    out = tmp_path / "bec.txt"
    assert main(["construct", "--m", "5", "--k", "12", "--construction", "bec",
                 "--design-param", "0.5", "--out", str(out)]) == 0
    assert load_frozen_set(out) == freeze_bec(5, 12, 0.5)


def test_construct_mc_smoke(tmp_path):
    out = tmp_path / "mc.txt"
    assert main(["construct", "--m", "3", "--k", "4", "--construction", "mc",
                 "--channel", "bsc:0.1", "--trials", "500", "--seed", "2",
                 "--out", str(out)]) == 0
    spec = load_frozen_set(out)
    assert spec.m == 3 and spec.dimension == 4


def test_construct_missing_pieces_exit(tmp_path):
    out = tmp_path / "x.txt"
    with pytest.raises(SystemExit):
        main(["construct", "--m", "3", "--construction", "bec", "--out", str(out)])
    with pytest.raises(SystemExit):
        main(["construct", "--m", "3", "--k", "4", "--construction", "mc", "--out", str(out)])


def test_encode_decode_round_trip(tmp_path):
    spec = freeze_bec(4, 6, 0.5)
    fs = _frozen_set_file(tmp_path, spec)
    rng = np.random.default_rng(71)
    words = rng.integers(0, 2, size=(5, 6), dtype=np.uint8)
    infile = tmp_path / "words.txt"
    infile.write_text("".join("".join(map(str, w)) + "\n" for w in words))

    encoded = tmp_path / "codewords.txt"
    assert main(["encode", "--frozen-set", str(fs), "--in", str(infile),
                 "--out", str(encoded)]) == 0
    lines = encoded.read_text().splitlines()
    expected = encode(spec, words)
    assert lines == ["".join(map(str, row)) for row in expected]

    # Noiseless LLR frames: +-4.0 per position.
    llr_file = tmp_path / "received.txt"
    llr_file.write_text(
        "\n".join(" ".join(str(4.0 * s) for s in modulate(row)) for row in expected) + "\n"
    )
    decoded = tmp_path / "decoded.txt"
    assert main(["decode", "--frozen-set", str(fs), "--in", str(llr_file),
                 "--out", str(decoded), "--list-size", "2"]) == 0
    assert decoded.read_text().splitlines() == ["".join(map(str, w)) for w in words]


def test_encode_rejects_bad_width(tmp_path):
    spec = freeze_rm(1, 3)
    fs = _frozen_set_file(tmp_path, spec)
    infile = tmp_path / "words.txt"
    infile.write_text("01\n")
    with pytest.raises(SystemExit):
        main(["encode", "--frozen-set", str(fs), "--in", str(infile),
              "--out", str(tmp_path / "o.txt")])


def test_decode_rejects_bad_frame_length(tmp_path):
    spec = freeze_rm(1, 3)
    fs = _frozen_set_file(tmp_path, spec)
    infile = tmp_path / "llr.txt"
    infile.write_text("1.0 -1.0 2.0\n")
    with pytest.raises(SystemExit):
        main(["decode", "--frozen-set", str(fs), "--in", str(infile),
              "--out", str(tmp_path / "o.txt")])


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "Infinity"])
def test_decode_rejects_non_finite_llr_tokens(tmp_path, token):
    spec = freeze_rm(1, 3)
    fs = _frozen_set_file(tmp_path, spec)
    infile = tmp_path / "llr.txt"
    infile.write_text("1 1 1 1 1 1 1 1\n\n1 1 " + token + " 1 1 1 1 1\n")
    with pytest.raises(SystemExit, match=rf"llr\.txt:3: .*finite"):
        main(["decode", "--frozen-set", str(fs), "--in", str(infile),
              "--out", str(tmp_path / "o.txt")])


def test_decode_rejects_non_numeric_llr_tokens(tmp_path):
    spec = freeze_rm(1, 3)
    fs = _frozen_set_file(tmp_path, spec)
    infile = tmp_path / "llr.txt"
    infile.write_text("1 1 1 1 1 1 1 one\n")
    with pytest.raises(SystemExit, match=r"llr\.txt:1: "):
        main(["decode", "--frozen-set", str(fs), "--in", str(infile),
              "--out", str(tmp_path / "o.txt")])


def test_simulate_writes_csv(tmp_path, capsys):
    spec = freeze_bec(3, 4, 0.5)
    fs = _frozen_set_file(tmp_path, spec)
    out_csv = tmp_path / "sweep.csv"
    args = ["simulate", "--frozen-set", str(fs), "--channel", "bsc:0.1,bec:0.3",
            "--list-size", "2", "--trials", "40", "--seed", "9",
            "--csv", str(out_csv)]
    assert main(args) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == (
        "channel,param,trials,frame_errors,bit_errors,fer,ber,fer_ci95,"
        "avg_kernel_ops,avg_select_ops,seed"
    )
    assert len(lines) == 3
    assert lines[1].startswith("bec,0.3,40,")
    assert lines[2].startswith("bsc,0.1,40,")
    first = out_csv.read_bytes()
    assert main(args) == 0
    assert out_csv.read_bytes() == first
    assert "fer=" in capsys.readouterr().out


def test_simulate_awgn_token_uses_code_rate(tmp_path):
    spec = freeze_rm(1, 3)  # rate 1/2
    fs = _frozen_set_file(tmp_path, spec)
    out_csv = tmp_path / "awgn.csv"
    assert main(["simulate", "--frozen-set", str(fs), "--channel", "awgn:2.0dB",
                 "--trials", "20", "--seed", "3", "--csv", str(out_csv)]) == 0
    lines = out_csv.read_text().splitlines()
    assert lines[1].startswith("awgn,2.0,20,")


def test_simulate_rejects_bad_channel_token(tmp_path):
    spec = freeze_rm(1, 3)
    fs = _frozen_set_file(tmp_path, spec)
    with pytest.raises(SystemExit):
        main(["simulate", "--frozen-set", str(fs), "--channel", "gauss:1.0",
              "--trials", "5"])


def test_complexity_report_file(tmp_path):
    report = tmp_path / "scaling.json"
    assert main(["complexity", "--m-range", "6:8", "--l-range", "1,2,4",
                 "--trials", "1", "--seed", "7", "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert set(payload) == {"decoder", "encoder"}
    assert payload["decoder"]["max_abs_residual"] < 0.2
    assert len(payload["decoder"]["points"]) == 9
    assert payload["encoder"]["max_abs_residual"] < 1e-9


def test_complexity_range_forms(tmp_path):
    report = tmp_path / "r.json"
    assert main(["complexity", "--m-range", "5,7", "--l-range", "2",
                 "--report", str(report)]) == 0
    payload = json.loads(report.read_text())
    assert [pt["m"] for pt in payload["decoder"]["points"]] == [5, 7]


def test_unknown_subcommand_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
