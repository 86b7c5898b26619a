import hashlib
import json
import time
import tracemalloc

import numpy as np
import pytest

from rmpolar import list_decoder
from rmpolar import (
    CodeSpec,
    SoftVector,
    encode,
    freeze_bec,
    freeze_rm,
    list_decode,
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


@pytest.mark.parametrize("command", ["simulate", "construct"])
def test_negative_seed_is_one_error_line_that_names_it(tmp_path, command):
    if command == "simulate":
        argv = ["simulate", "--frozen-set", str(_frozen_set_file(tmp_path, freeze_bec(3, 4, 0.5))),
                "--channel", "bsc:0.1", "--trials", "5"]
    else:
        argv = ["construct", "--m", "3", "--k", "4", "--construction", "mc", "--channel", "bsc:0.1",
                "--trials", "5", "--out", str(tmp_path / "mc.txt")]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", "-1"])
    assert exc.value.code == "error: seed must be >= 0, got -1"


def test_construct_missing_pieces_exit(tmp_path):
    out = tmp_path / "x.txt"
    with pytest.raises(SystemExit):
        main(["construct", "--m", "3", "--construction", "bec", "--out", str(out)])
    with pytest.raises(SystemExit):
        main(["construct", "--m", "3", "--k", "4", "--construction", "mc", "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        main(["construct", "--m", "3", "--construction", "rm", "--out", str(out)])
    assert exc.value.code == "error: construct rm: --design-param gives the order r"
    assert not out.exists()


def test_blank_lines_in_encode_input_change_nothing(tmp_path):
    fs = _frozen_set_file(tmp_path, freeze_bec(4, 6, 0.5))
    outputs = []
    for name, text in (("plain", "011010\n101100\n"), ("blank", "\n011010\n  \n101100\n\n")):
        infile, out = tmp_path / f"{name}.txt", tmp_path / f"{name}.out"
        infile.write_text(text)
        assert main(["encode", "--frozen-set", str(fs), "--in", str(infile), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] and len(outputs[0].splitlines()) == 2


@pytest.mark.parametrize("command, what", [("encode", "information bits"), ("decode", "LLR")])
@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_inputs_without_lines_are_refused(tmp_path, command, what, text):
    fs = _frozen_set_file(tmp_path, freeze_bec(4, 6, 0.5))
    infile, out = tmp_path / "in.txt", tmp_path / "out.txt"
    infile.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main([command, "--frozen-set", str(fs), "--in", str(infile), "--out", str(out)])
    assert exc.value.code == f"error: {infile}: no {what} lines found"
    assert not out.exists()


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


def test_thousand_line_round_trip_files_are_pinned(tmp_path):
    # 1000 words of freeze_bec(6, 32, 0.5) through encode, then their AWGN
    # LLRs through decode at L = 1 and 4: the output files, byte for byte
    spec = freeze_bec(6, 32, 0.5)
    fs = _frozen_set_file(tmp_path, spec)
    rng = np.random.default_rng(72)
    words = rng.integers(0, 2, size=(1000, spec.dimension), dtype=np.uint8)
    infile = tmp_path / "words.txt"
    infile.write_text("".join("".join(map(str, w)) + "\n" for w in words))
    encoded = tmp_path / "codewords.txt"
    assert main(["encode", "--frozen-set", str(fs), "--in", str(infile), "--out", str(encoded)]) == 0
    assert encoded.read_bytes() == "".join("".join(map(str, c)) + "\n" for c in encode(spec, words)).encode()
    assert hashlib.sha256(encoded.read_bytes()).hexdigest() == (
        "05fa28200581e255370c236fa618943ff181dea93a8067c6f5999e96be83b397"
    )
    received = modulate(encode(spec, words)) + rng.normal(0.0, 0.8, size=(1000, spec.n))
    llr_file = tmp_path / "received.txt"
    llr_file.write_text("".join(" ".join(repr(float(2.0 * y / 0.64)) for y in row) + "\n" for row in received))
    digests = {
        1: "d911b137e160fe5939084afe730e1509adce72b62323c64872fdcf6e95494629",
        4: "0a1b3da233d42885c0e14f11446d68bfe9dd3ac7cda375568361a93e5d9da6c8",
    }
    for list_size, digest in digests.items():
        decoded = tmp_path / f"decoded{list_size}.txt"
        assert main(["decode", "--frozen-set", str(fs), "--in", str(llr_file), "--out", str(decoded),
                     "--list-size", str(list_size)]) == 0
        assert hashlib.sha256(decoded.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("block", [None, 2])
@pytest.mark.parametrize("list_size", [1, 4])
def test_decode_blocks_match_per_frame_decoding(tmp_path, monkeypatch, list_size, block):
    # Values beyond +-LLR_CLAMP are clipped as SoftVector clips them.  On the
    # length-8 repetition code the first frame sums to -955 unclipped, bit 1,
    # but to a tie, bit 0, once -1e3 is clipped to -40.
    spec = freeze_rm(0, 3)
    rng = np.random.default_rng(72)
    frames = [[-1e3, 45.0] + [0.0] * 6] + [list(rng.normal(0.5, 2.0, 8)) for _ in range(4)]
    frames[3][5] = 1e3
    fs = _frozen_set_file(tmp_path, spec)
    infile = tmp_path / "llr.txt"
    infile.write_text("".join(" ".join(str(float(v)) for v in row) + "\n" for row in frames))
    if block is not None:
        monkeypatch.setattr(list_decoder, "DECODE_BLOCK_ENTRIES", block * list_size * spec.n)
    out = tmp_path / "decoded.txt"
    assert main(["decode", "--frozen-set", str(fs), "--in", str(infile),
                 "--out", str(out), "--list-size", str(list_size)]) == 0
    expected = "".join(
        "".join(str(int(b)) for b in list_decode(spec, SoftVector(row), list_size).best.info_bits) + "\n"
        for row in frames
    )
    assert out.read_bytes() == expected.encode("ascii")
    assert expected.startswith("0\n")
    assert list_decode(spec, np.array(frames[0]), list_size).best.info_bits[0] == 1


def test_every_subcommand_refuses_m_beyond_limit(tmp_path):
    deep = tmp_path / "deep.txt"
    deep.write_text("m=40 k=1\n0\n")
    frames = tmp_path / "frames.txt"
    frames.write_text("0\n")
    out = str(tmp_path / "out.txt")
    construct = ["construct", "--m", "40", "--out", out]
    for argv in (
        construct + ["--construction", "rm", "--design-param", "0"],
        construct + ["--construction", "bec", "--k", "1", "--design-param", "0.5"],
        construct + ["--construction", "mc", "--k", "1", "--channel", "bsc:0.1"],
        ["encode", "--frozen-set", str(deep), "--in", str(frames), "--out", out],
        ["decode", "--frozen-set", str(deep), "--in", str(frames), "--out", out],
        ["simulate", "--frozen-set", str(deep), "--channel", "bsc:0.1"],
        ["complexity", "--m-range", "6,40"],
    ):
        start = time.perf_counter()
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert time.perf_counter() - start < 1.0, argv
        assert str(exc.value.code).startswith("error:"), argv
        assert "m must lie in" in str(exc.value.code), argv


# a code with n = 16 and k = 6, and one good input line for each command
_CODE = b"m=4 k=6\n0\n1\n2\n4\n8\n15\n"
_GOOD_INPUT = {"encode": b"010101\n", "decode": b"1 " * 15 + b"1\n"}


@pytest.mark.parametrize(
    "command, fault, data, line, message",
    [
        ("encode", "frozen-set", b"\xef\xbb\xbf" + _CODE, 1,
         "malformed header '\\xef\\xbb\\xbfm=4 k=6', expected 'm=<m> k=<k>'"),
        ("decode", "frozen-set", b"m=4 k=6\n\xb9\n", 2, "index line '\\xb9' is not a decimal integer"),
        ("encode", "in", b"\xef\xbb\xbf010101\n", 1, "expected 6 bits of 0/1 for information bits"),
        ("encode", "in", b"010101\n0101\xc3\xa9\n", 2, "expected 6 bits of 0/1 for information bits"),
        # str.strip takes 0xA0 for a space, yet the line is not blank
        ("encode", "in", b"010101\n\xa0\n", 2, "expected 6 bits of 0/1 for information bits"),
        ("decode", "in", b"\xef\xbb\xbf" + _GOOD_INPUT["decode"], 1, "LLR values must be numbers"),
        # str.split and float take 0xA0 for a space
        ("decode", "in", _GOOD_INPUT["decode"] + b"1\xa0" * 15 + b"1\n", 2, "LLR values must be numbers"),
    ],
    ids=["frozen-set-bom", "frozen-set-index", "bits-bom", "bits-utf8", "bits-nbsp-line", "llr-bom", "llr-nbsp"],
)
def test_non_ascii_bytes_are_malformed_lines_that_name_file_and_line(tmp_path, command, fault, data, line, message):
    # a UTF-8 byte order mark or any byte above 0x7F makes its line malformed
    fs, infile = tmp_path / "code.txt", tmp_path / "in.txt"
    fs.write_bytes(data if fault == "frozen-set" else _CODE)
    infile.write_bytes(data if fault == "in" else _GOOD_INPUT[command])
    with pytest.raises(SystemExit) as exc:
        main([command, "--frozen-set", str(fs), "--in", str(infile), "--out", str(tmp_path / "o.txt")])
    # every failure, the library's or the CLI's own, is one error: line
    target = fs if fault == "frozen-set" else infile
    assert exc.value.code == f"error: {target}:{line}: {message}"


def test_simulate_refuses_an_index_line_past_the_int_digit_limit(tmp_path):
    # 4301 digits: int() would refuse them with a message naming no file
    fs = tmp_path / "code.txt"
    fs.write_text("m=3 k=1\n1" + "0" * 4300 + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--frozen-set", str(fs), "--channel", "bsc:0.1", "--trials", "5"])
    assert exc.value.code == f"error: {fs}:2: index of 4301 digits out of range for m=3"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["construct", "--m", "4", "--construction", "rm", "--design-param", "1.5"],
         "--design-param expects an integer order r for rm, got '1.5'"),
        (["construct", "--m", "4", "--k", "6", "--construction", "bec", "--design-param", "abc"],
         "--design-param expects a number, the erasure probability z for bec, got 'abc'"),
        (["simulate", "--channel", "bsc:"], "channel token 'bsc:' expects a number after 'bsc:', got ''"),
        (["simulate", "--channel", "awgn:twodB"], "channel token 'awgn:twodB' expects a number after 'awgn:', got 'two'"),
        (["complexity", "--m-range", "6:x"], "--m-range expects integers, lo:hi or a,b,c, got 'x'"),
        (["complexity", "--l-range", "1,2.5"], "--l-range expects comma-separated integers, got '2.5'"),
    ],
    ids=["rm-order", "bec-z", "bsc-empty", "awgn-word", "m-range", "l-range"],
)
def test_number_errors_name_the_flag_or_token(tmp_path, argv, message):
    if argv[0] == "construct":
        argv = argv + ["--out", str(tmp_path / "x.txt")]
    if argv[0] == "simulate":
        argv = argv + ["--frozen-set", str(_frozen_set_file(tmp_path, freeze_bec(4, 6, 0.5)))]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == f"error: {message}"
    assert not (tmp_path / "x.txt").exists()


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


@pytest.mark.parametrize("token", ["awgn:-4000dB", "awgn:-infdB", "awgn:nandB", "awgn:4000dB"])
def test_simulate_rejects_out_of_range_awgn_token(tmp_path, token):
    spec = freeze_rm(1, 3)
    fs = _frozen_set_file(tmp_path, spec)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--frozen-set", str(fs), "--channel", token, "--trials", "5"])
    message = str(exc.value.code)
    assert message.startswith("error:") and token in message and "\n" not in message


def test_list_memory_bound_refused_before_allocating(tmp_path):
    # full rate at m=10: L = 2**17 hypotheses would store about 2**28 entries
    fs = _frozen_set_file(tmp_path, CodeSpec(m=10, info_indices=np.arange(1024)))
    frames = tmp_path / "llr.txt"
    frames.write_text(" ".join(["1.0"] * 1024) + "\n")
    out = str(tmp_path / "out.txt")
    big = str(1 << 17)
    for argv in (
        ["decode", "--frozen-set", str(fs), "--in", str(frames), "--out", out, "--list-size", big],
        ["simulate", "--frozen-set", str(fs), "--channel", "bsc:0.1", "--list-size", big],
        ["complexity", "--m-range", "4,10", "--l-range", "1," + big],
    ):
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        message = str(exc.value.code)
        assert message.startswith("error:") and "MAX_LIST_ENTRIES" in message, argv
        assert "\n" not in message, argv
        assert peak < 1 << 20, argv


def test_complexity_report_file(tmp_path):
    report = tmp_path / "scaling.json"
    assert main(["complexity", "--m-range", "6:8", "--l-range", "1,2,4", "--report", str(report)]) == 0
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


def test_decode_at_list_size_one_computes_no_metric(tmp_path, monkeypatch):
    # the decoded words are the rank-1 decisions; the L=1 metric, summed on
    # first read, is never read
    def no_log_expit(x):
        raise AssertionError("log_expit was called")

    spec = freeze_bec(4, 6, 0.5)
    fs = _frozen_set_file(tmp_path, spec)
    llr = np.random.default_rng(72).normal(1.0, 1.5, size=(5, spec.n))
    infile = tmp_path / "llr.txt"
    infile.write_text("".join(" ".join(repr(float(v)) for v in row) + "\n" for row in llr))
    outs = []
    for patched in (False, True):
        if patched:
            monkeypatch.setattr(list_decoder, "log_expit", no_log_expit)
        out = tmp_path / f"decoded-{patched}.txt"
        assert main(["decode", "--frozen-set", str(fs), "--in", str(infile), "--out", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]
    assert outs[0].splitlines() == ["".join(map(str, bits)) for bits in list_decode(spec, llr, 1).info_bits[:, 0]]


@pytest.mark.parametrize("fault", ["frozen-set", "in", "out"])
def test_unreadable_or_unwritable_files_end_in_one_error_line(tmp_path, fault):
    # a missing file, a directory in a file's place or a missing directory
    # is one `error:` line naming the path, not a traceback
    fs = _frozen_set_file(tmp_path, freeze_bec(4, 6, 0.5))
    words = tmp_path / "words.txt"
    words.write_text("010101\n")
    missing = str(tmp_path / "missing.txt")
    unwritable = str(tmp_path / "no-such-dir" / "out.txt")
    out = str(tmp_path / "out.txt")
    cases = {
        "frozen-set": [
            ["simulate", "--frozen-set", missing, "--channel", "bsc:0.1"],
            ["decode", "--frozen-set", str(tmp_path), "--in", str(words), "--out", out],
        ],
        "in": [
            ["encode", "--frozen-set", str(fs), "--in", missing, "--out", out],
            ["decode", "--frozen-set", str(fs), "--in", str(tmp_path), "--out", out],
        ],
        "out": [
            ["encode", "--frozen-set", str(fs), "--in", str(words), "--out", unwritable],
            ["construct", "--m", "3", "--construction", "rm", "--design-param", "1", "--out", str(tmp_path)],
            ["simulate", "--frozen-set", str(fs), "--channel", "bsc:0.1", "--trials", "2", "--csv", unwritable],
        ],
    }
    for argv in cases[fault]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        bad = next(arg for arg in argv if arg in (missing, unwritable, str(tmp_path)))
        assert message.startswith("error:") and bad in message and "\n" not in message, argv
