import hashlib
import io
import os
import resource
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from otplab import _kernels, cli, facts, private_object
from otplab.analysis import MAX_TRIALS, TrialConfig, distinguisher_test
from otplab.bitstring import BitString, bits_from_text
from otplab.cli import main
from otplab.facts import MAX_SIZE_BOUND, decode_string
from otplab.padfile import read_pad, write_pad
from otplab.reduction import ReductionParams, generate_reduced_pad
from otplab.rng import RandomSource

from conftest import MALFORMED_STATEMENT_LINES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def pad_file(tmp_path):
    path = tmp_path / "pad.otpd"
    write_pad(path, BitString("1011001001"))
    return str(path)


def test_encrypt_worked_example(capsys, pad_file):
    code, out, _ = run(capsys, "encrypt", "--pad", pad_file,
                       "--in", "0010110101")
    assert code == 0
    assert out.strip() == "1001111100"


def test_decrypt_worked_example(capsys, pad_file):
    code, out, _ = run(capsys, "decrypt", "--pad", pad_file,
                       "--in", "1001111100")
    assert code == 0
    assert out.strip() == "0010110101"


def test_keygen_golden_file(capsys, tmp_path):
    # Frozen output for the pinned generator: seed 42, 16 bits.
    out = tmp_path / "g.otpd"
    assert run(capsys, "keygen", "--bits", "16", "--seed", "42",
               "--out", str(out))[0] == 0
    assert read_pad(out) == BitString("1011110111010111")
    assert out.read_bytes() == b"OTPD" + (16).to_bytes(8, "big") + bytes(
        [0b10111101, 0b11010111])


def test_keygen_writes_deterministic_pad(capsys, tmp_path):
    out1 = tmp_path / "a.otpd"
    out2 = tmp_path / "b.otpd"
    assert run(capsys, "keygen", "--bits", "32", "--seed", "42",
               "--out", str(out1))[0] == 0
    assert run(capsys, "keygen", "--bits", "32", "--seed", "42",
               "--out", str(out2))[0] == 0
    assert read_pad(out1) == read_pad(out2)
    assert len(read_pad(out1)) == 32


def test_text_and_bits_inputs_agree(capsys, tmp_path):
    text = "hi"
    bits = bits_from_text(text).to01()
    pad_path = tmp_path / "pad.otpd"
    run(capsys, "keygen", "--bits", str(len(bits)), "--seed", "7",
        "--out", str(pad_path))
    _, out_text, _ = run(capsys, "encrypt", "--pad", str(pad_path),
                         "--text", text)
    _, out_bits, _ = run(capsys, "encrypt", "--pad", str(pad_path),
                         "--in", bits)
    assert out_text == out_bits


def test_reduced_round_trip(capsys, tmp_path):
    pad_path = tmp_path / "short.otpd"
    code, out, _ = run(capsys, "reduce-keygen", "--message-bits", "10",
                       "--k", "2", "--seed", "11", "--out", str(pad_path))
    assert code == 0
    assert out.startswith("sampled length ")
    length = int(out.splitlines()[0].rsplit(" ", 1)[1])
    assert 8 <= length <= 10
    assert len(read_pad(pad_path)) == length

    message = "0110100101"
    _, cipher, _ = run(capsys, "encrypt", "--pad", str(pad_path),
                       "--in", message, "--reduced",
                       "--message-bits", "10", "--k", "2")
    _, plain, _ = run(capsys, "decrypt", "--pad", str(pad_path),
                      "--in", cipher.strip(), "--reduced",
                      "--message-bits", "10", "--k", "2")
    assert plain.strip() == message


def test_reduced_requires_params(capsys, pad_file):
    code, _, err = run(capsys, "encrypt", "--pad", pad_file,
                       "--in", "0010110101", "--reduced")
    assert code == 2
    assert "message-bits" in err


def test_pad_compress_and_decompress(capsys, tmp_path):
    full = tmp_path / "full.otpd"
    small = tmp_path / "small.otpd"
    back = tmp_path / "back.otpd"
    write_pad(full, BitString("1011001000"))
    assert run(capsys, "pad-compress", "--in", str(full),
               "--out", str(small))[0] == 0
    assert read_pad(small) == BitString("101100")
    assert run(capsys, "pad-decompress", "--in", str(small),
               "--out", str(back), "--message-length", "10")[0] == 0
    assert read_pad(back) == BitString("1011001000")


@pytest.mark.parametrize("length", ["0", "-1"])
def test_pad_decompress_non_positive_length_is_exit_2(capsys, tmp_path, length):
    small = tmp_path / "small.otpd"
    back = tmp_path / "back.otpd"
    write_pad(small, BitString("10110100"))
    code, out, err = run(capsys, "pad-decompress", "--in", str(small),
                         "--out", str(back), "--message-length", length)
    assert code == 2
    assert out == ""
    assert f"message length must be >= 1, got {length}" in err
    assert not back.exists()


def test_pad_compress_all_zeros_is_identity(capsys, tmp_path):
    full = tmp_path / "zeros.otpd"
    out = tmp_path / "zeros2.otpd"
    write_pad(full, BitString.zeros(10))
    run(capsys, "pad-compress", "--in", str(full), "--out", str(out))
    assert out.read_bytes() == full.read_bytes()


def test_po_encode_decode(capsys, pad_file, tmp_path):
    code, out, _ = run(capsys, "po-encode", "--pad", pad_file,
                       "--in", "0010110101")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10
    assert lines[0] == "1 1 bit 1 of the OTP is 1"
    stmt_file = tmp_path / "stmts.txt"
    stmt_file.write_text(out)
    code, decoded, _ = run(capsys, "po-decode", "--pad", pad_file,
                           "--in", str(stmt_file))
    assert code == 0
    assert decoded.strip() == "0010110101"


def test_facts_encode_decode(capsys, tmp_path):
    code, out, _ = run(capsys, "facts-encode", "--in", "0110", "--seed", "3",
                       "--size-bound", "16")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    strings_file = tmp_path / "strings.txt"
    strings_file.write_text(out)
    code, decoded, _ = run(capsys, "facts-decode", "--in", str(strings_file))
    assert code == 0
    assert decoded.strip() == "0110"


@pytest.mark.parametrize("by_file", [True, False], ids=["file", "stdin"])
@pytest.mark.parametrize("command", ["po-decode", "facts-decode"])
def test_decode_skips_blank_lines_and_reads_any_line_ending(
        capsys, monkeypatch, pad_file, tmp_path, command, by_file):
    # Blank and whitespace-only lines between the encoder's lines, CRLF
    # endings and no final newline decode to the same bits as its output.
    message = "0010110101"
    if command == "po-decode":
        encode, decode = ["po-encode", "--pad", pad_file], [command, "--pad", pad_file]
    else:
        encode, decode = ["facts-encode", "--seed", "5"], [command]
    code, clean, _ = run(capsys, *encode, "--in", message)
    assert code == 0
    noise = ["", "   ", "\t", "\u3000 "]
    messy = "\r\n".join(
        part for i, line in enumerate(clean.splitlines()) for part in (noise[i % 4], line))
    for text in (clean, messy):
        data = text.encode("utf-8")
        if by_file:
            path = tmp_path / "lines.txt"
            path.write_bytes(data)
            argv = [*decode, "--in", str(path)]
        else:
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
            argv = decode
        assert run(capsys, *argv) == (0, message + "\n", "")


def test_po_encode_output_is_the_xor_ciphertext_lines(capsys, tmp_path):
    n = 10_000
    pad, message = RandomSource(31).bits(n), RandomSource(32).bits(n)
    pad_path = tmp_path / "pad.otpd"
    write_pad(pad_path, pad)
    claims = format(int(message.to01(), 2) ^ int(pad.to01(), 2), f"0{n}b")
    expected = "".join(f"{j} {c} bit {j} of the OTP is {c}\n"
                       for j, c in enumerate(claims, start=1))
    code, out, _ = run(capsys, "po-encode", "--pad", str(pad_path),
                       "--in", message.to01())
    assert code == 0
    assert out == expected


def test_po_encode_output_is_pinned(capsys, tmp_path):
    # Digest of the output when every line called describe; the pad is
    # longer than the message.
    n = 40_000
    pad_path = tmp_path / "pad.otpd"
    write_pad(pad_path, RandomSource(42).bits(n + 7))
    code, out, _ = run(capsys, "po-encode", "--pad", str(pad_path),
                       "--in", RandomSource(41).bits(n).to01())
    assert code == 0
    assert out.count("\n") == n
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "855cfe390d8cb87fc1ab82eff0193949d98276c1621e37590c1e714bab0dbfe6")


def test_po_encode_empty_message_writes_nothing(capsys, pad_file):
    assert run(capsys, "po-encode", "--pad", pad_file, "--in", "") == (0, "", "")


def test_facts_encode_output_is_pinned(capsys):
    # Digest of the output before facts-encode wrote its lines in one call.
    message = RandomSource(5).bits(2048).to01()
    code, out, _ = run(capsys, "facts-encode", "--in", message, "--seed", "99",
                       "--size-bound", "20")
    assert code == 0
    assert out.count("\n") == 2048
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "d0f6003c4b660e734bd99de8b6d578db962b3d9ae8cc6f32a20a32515b077ee4")


@pytest.mark.parametrize("seed, bound, digest", [
    (7, 6, "608799f226d84ed1c39749ec8abaf0fdbe875e97983c7abe60e841a5e81316e3"),
    (11, MAX_SIZE_BOUND,
     "636e5973380acf6976a418b869389bb5d72142978aa3bfa8c1eee5515cd104e6"),
])
def test_facts_encode_output_is_pinned_at_the_extreme_bounds(capsys, seed, bound, digest):
    # Digests of the output when each bit drew its rank on its own.  The
    # message is longer than two rounds of bulk words; at bound 6 a 0 bit
    # draws no word at all.
    message = RandomSource(8).bits(4200).to01()
    code, out, _ = run(capsys, "facts-encode", "--in", message, "--seed", str(seed),
                       "--size-bound", str(bound))
    assert code == 0
    assert out.count("\n") == 4200
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reduced_pad_outputs_are_pinned(capsys, tmp_path, monkeypatch):
    # Digest taken before the transmitted pad became a plain BitString: the
    # reduce-keygen pad bytes and stdout and the encrypt --reduced stdout over
    # a seed x (n, k) grid, then the library-path distinguisher histograms.
    # Relative pad paths keep the stdout lines free of the temporary directory.
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    lengths = set()
    for n, k in [(10, 1), (10, 2), (12, 3), (12, 4)]:
        message = RandomSource(n * 100 + k).bits(n).to01()
        for seed in range(40):
            pad = Path(f"p{n}_{k}_{seed}.otpd")
            code, out, _ = run(capsys, "reduce-keygen", "--message-bits",
                               str(n), "--k", str(k), "--seed", str(seed),
                               "--out", str(pad))
            assert code == 0
            lengths.add(n - read_pad(pad).length)
            digest.update(pad.read_bytes() + out.encode())
            code, out, _ = run(capsys, "encrypt", "--pad", str(pad), "--in",
                               message, "--reduced", "--message-bits", str(n),
                               "--k", str(k))
            assert code == 0
            digest.update(out.encode())
    assert lengths == {0, 1, 2, 3, 4}  # full-length and every short length
    for n, k in [(8, 1), (12, 3)]:
        cfg = TrialConfig(params=ReductionParams(n, k), trials=2000, seed=n + k,
                          m0=BitString.zeros(n), m1=BitString.ones(n))
        report = distinguisher_test(cfg, generator=generate_reduced_pad)
        digest.update(repr(report.counts).encode())
    assert digest.hexdigest() == (
        "2bdf8f802bd97d1e30c387b62bd88901ebd32208f3554d656c0e3a8a170ba89b")


PINNED_DISTINGUISH = [
    (8, 1, 1_000_000,
     "18a90b284f3c5afee94768861e51eda0a7173ad8ea6a4049f44b4107d05c8e7f"),
    (12, 3, 200_000,
     "1c36ea33d6255f23032cd93a0532eaee399b7ed4f665d14f210ae4f881343bc0"),
    (12, 4, 50_001,
     "22097afba38d92b2d09e94f9dfcae4a92a03f99ee02576b6891306551d8b0dc5"),
    (10, 2, 50_000,
     "6b5f0265dd71331451af321d24d22d56046dbd77220d7da4e5106e6d9972cd97"),
]


@pytest.mark.parametrize("n, k, trials, digest", PINNED_DISTINGUISH,
                         ids=[f"n{c[0]}k{c[1]}t{c[2]}" for c in PINNED_DISTINGUISH])
def test_distinguish_stdout_is_pinned(capsys, n, k, trials, digest):
    # Digests of the stdout printed by the scalar per-trial kernel.
    code, out, _ = run(capsys, "analyze", "distinguish", "--n", str(n),
                       "--k", str(k), "--trials", str(trials),
                       "--seed", "20261018")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


PINNED_REDUCTION = [
    (12, 4, 500_000, 0,
     "e7627d85665ad803840d94db3d15ca18f09ad72847d600987a699cb55b76726c"),
    (12, 4, 500_000, (1 << 64) - 1,
     "a62293ae3f5d08b859a3169f64d4ee5107a532b1c6bcb50de4608f15f23eb940"),
    (10, 3, 4_097, 0,
     "32399a4272ef033478d80b61cce54e1424a632dca29a64467e94d54a6cd3ca74"),
    (10, 3, 4_097, (1 << 64) - 1,
     "711991a54ef99c5bcc21895cfc3237dc0d8cc2a8481ba58a0fc502e241a0206e"),
    (1 << 40, 40, 2_049, 0,
     "184638f48c9634c68d2c254e178150d44e94e1b0a6b5f1192185469e525673bd"),
    (1 << 40, 40, 2_049, (1 << 64) - 1,
     "184638f48c9634c68d2c254e178150d44e94e1b0a6b5f1192185469e525673bd"),
]


@pytest.mark.parametrize(
    "n, k, trials, seed, digest", PINNED_REDUCTION,
    ids=[f"n{c[0]}k{c[1]}t{c[2]}s{c[3]}" for c in PINNED_REDUCTION])
def test_reduction_stdout_is_pinned(capsys, n, k, trials, seed, digest):
    # Digests of the stdout printed by the scalar per-trial kernel.  At k = 40
    # a short pad has odds 40 / 2**40, so both seeds print all-full-length.
    code, out, _ = run(capsys, "analyze", "reduction", "--n", str(n),
                       "--k", str(k), "--trials", str(trials),
                       "--seed", str(seed))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_reduction_coin_past_one_word_is_exit_2(capsys):
    # n = k + 2**(k-1) makes (n, 65) a valid pair, but the kernel's coin is
    # one 64-bit word.
    code, out, err = run(capsys, "analyze", "reduction",
                         "--n", str((1 << 64) + 65), "--k", "65",
                         "--trials", "5")
    assert code == 2
    assert out == ""
    assert "k <= 64" in err and "k=65" in err


def test_facts_decode_rejects_garbage(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("-p-q--\nnot a string\n")
    code, _, err = run(capsys, "facts-decode", "--in", str(bad))
    assert code == 3
    assert "error" in err


def test_seed_determines_output(capsys, tmp_path):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "facts-encode", "--in", "10101010",
                           "--seed", "99", "--size-bound", "20")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_analyze_exact(capsys):
    code, out, _ = run(capsys, "analyze", "exact", "--n", "3", "--k", "1")
    assert code == 0
    assert "result=PASS" in out
    assert "p[000]=1/8" in out


def test_analyze_reduction(capsys):
    code, out, _ = run(capsys, "analyze", "reduction", "--n", "10", "--k", "2",
                       "--trials", "100000", "--seed", "2024")
    assert code == 0
    mean = float(next(line for line in out.splitlines()
                      if line.startswith("mean_saving=")).split("=")[1])
    assert abs(mean - 0.75) < 0.01


def test_analyze_reduction_past_one_word(capsys):
    # Only the k-bit length coin is drawn, so n may exceed a 64-bit word.
    code, out, _ = run(capsys, "analyze", "reduction", "--n", "64", "--k", "2",
                       "--trials", "1000")
    assert code == 0
    assert "expected_saving=3/4" in out


def test_analyze_eve(capsys):
    code, out, _ = run(capsys, "analyze", "eve", "--n", "10", "--k", "1",
                       "--trials", "20000", "--seed", "1")
    assert code == 0
    rate = float(next(line for line in out.splitlines()
                      if line.startswith("guess_rate=")).split("=")[1])
    assert abs(rate - 0.5) < 0.02


def test_analyze_distinguish(capsys):
    code, out, _ = run(capsys, "analyze", "distinguish", "--n", "8",
                       "--k", "1", "--trials", "50000", "--seed", "8")
    assert code == 0
    assert "result=PASS" in out


def test_analyze_census(capsys):
    code, out, _ = run(capsys, "analyze", "census", "--n", "10")
    assert code == 0
    assert "pads_saving[1]=512" in out
    assert "pads_saving[0]=1" in out
    assert "pads_saving[10]=1" in out


def test_corrupt_pad_file_is_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.otpd"
    bad.write_bytes(b"JUNKJUNKJUNK")
    code, _, err = run(capsys, "encrypt", "--pad", str(bad), "--in", "1")
    assert code == 3
    assert "magic" in err


def test_precondition_violation_is_exit_2(capsys, pad_file):
    code, _, err = run(capsys, "encrypt", "--pad", pad_file, "--in", "10")
    assert code == 2
    assert "bits" in err


def test_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["encrypt"])  # missing required flags
    assert exc.value.code == 2


SEED_COMMANDS = {
    "keygen": ["keygen", "--bits", "64", "--out", "{tmp}/pad.otpd"],
    "reduce-keygen": ["reduce-keygen", "--message-bits", "10", "--k", "2",
                      "--out", "{tmp}/pad.otpd"],
    "facts-encode": ["facts-encode", "--in", "01"],
    "analyze eve": ["analyze", "eve", "--n", "4", "--trials", "10"],
}


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("command", sorted(SEED_COMMANDS))
def test_seed_outside_64_bits_is_exit_2(capsys, tmp_path, command, seed):
    argv = [a.format(tmp=tmp_path) for a in SEED_COMMANDS[command]]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--seed", str(seed)])
    assert exc.value.code == 2
    assert "0..2**64-1" in capsys.readouterr().err
    assert not (tmp_path / "pad.otpd").exists()


@pytest.mark.parametrize("seed", [0, 2**64 - 1])
@pytest.mark.parametrize("command", ["keygen", "analyze eve"])
def test_seed_at_64_bit_ends_is_accepted(capsys, tmp_path, command, seed):
    argv = [a.format(tmp=tmp_path) for a in SEED_COMMANDS[command]]
    code, out, _ = run(capsys, *argv, "--seed", str(seed))
    assert code == 0
    assert out


SIZE_COMMANDS = {
    "keygen --bits": ["keygen", "--seed", "1", "--bits"],
    "reduce-keygen --message-bits": ["reduce-keygen", "--k", "1", "--seed",
                                     "1", "--message-bits"],
    "pad-decompress --message-length": ["pad-decompress", "--in",
                                        "{tmp}/small.otpd", "--message-length"],
}


@pytest.mark.parametrize("size", [2**64, 10**30])
@pytest.mark.parametrize("command", sorted(SIZE_COMMANDS))
def test_size_past_the_otpd_header_is_exit_2(capsys, tmp_path, command, size):
    # The OTPD header stores the bit count in 8 bytes.
    write_pad(tmp_path / "small.otpd", BitString("101"))
    argv = [a.format(tmp=tmp_path) for a in SIZE_COMMANDS[command]]
    with pytest.raises(SystemExit) as exc:
        main(argv + [str(size), "--out", str(tmp_path / "pad.otpd")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{size} bits exceeds the OTPD limit of 2**64-1" in captured.err
    assert not (tmp_path / "pad.otpd").exists()


def test_bad_k_is_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "reduction", "--n", "10", "--k", "4",
                       "--trials", "10")
    assert code == 2
    assert "k=4" in err or "too short" in err


HUGE = str(2**70)
OVERSIZED = {
    "reduce-keygen --k 2**70": ["reduce-keygen", "--message-bits", "10", "--k",
                                HUGE, "--seed", "1", "--out", "{tmp}/r.otpd"],
    "reduce-keygen --k 100000": ["reduce-keygen", "--message-bits", "10", "--k",
                                 "100000", "--seed", "1", "--out", "{tmp}/r.otpd"],
    "analyze reduction --k 2**70": ["analyze", "reduction", "--n", "10", "--k", HUGE],
    "encrypt --reduced --k 2**70": ["encrypt", "--pad", "{pad}", "--in", "1010101010",
                                    "--reduced", "--message-bits", "10", "--k", HUGE],
    "analyze distinguish --n 2**70": ["analyze", "distinguish", "--n", HUGE],
    "analyze distinguish --m0 '' --m1 ''": ["analyze", "distinguish", "--n", "4",
                                            "--trials", "1000", "--m0", "", "--m1", ""],
}


@pytest.mark.parametrize("command", sorted(OVERSIZED))
def test_oversized_argument_is_exit_2(capsys, tmp_path, pad_file, command):
    # One error line, not a traceback or the int-to-text digit limit, and
    # k's message never writes out 2**(k-1).
    argv = [a.format(tmp=tmp_path, pad=pad_file) for a in OVERSIZED[command]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "limit" not in err and len(err) < 200, err
    assert not (tmp_path / "r.otpd").exists()


BIT_TEXT_COMMANDS = {
    "encrypt": ["encrypt", "--pad", "{pad}", "--in={bits}"],
    "decrypt": ["decrypt", "--pad", "{pad}", "--in={bits}"],
    "encrypt --reduced": ["encrypt", "--pad", "{pad}", "--in={bits}", "--reduced",
                          "--message-bits", "10", "--k", "2"],
    "po-encode": ["po-encode", "--pad", "{pad}", "--in={bits}"],
    "facts-encode": ["facts-encode", "--in={bits}", "--seed", "1"],
    "analyze distinguish --m0": ["analyze", "distinguish", "--n", "2",
                                 "--trials", "10", "--m0={bits}", "--m1=01"],
    "analyze distinguish --m1": ["analyze", "distinguish", "--n", "2",
                                 "--trials", "10", "--m0=01", "--m1={bits}"],
}
# All but "1x" and "1 0" are bits to int(text, 2).
BAD_BIT_TEXTS = ("1x", "1 0", "1_0", "0b1", "0B1", "+1", "-0", " 1", "1\n",
                 "\x1c1", "1\u3000", "\u0661", "1\u06610")


@pytest.mark.parametrize("bits", BAD_BIT_TEXTS)
@pytest.mark.parametrize("command", sorted(BIT_TEXT_COMMANDS))
def test_bad_bit_text_is_exit_2(capsys, pad_file, command, bits):
    argv = [a.format(pad=pad_file, bits=bits) for a in BIT_TEXT_COMMANDS[command]]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "only '0' and '1'" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["encrypt", "decrypt"])
def test_reduced_pad_of_impossible_length_is_exit_3(capsys, tmp_path, command):
    short = tmp_path / "short.otpd"
    write_pad(short, BitString("10110"))  # reduced pads for n=10, k=2 are 8..10
    code, out, err = run(capsys, command, "--pad", str(short),
                         "--in", "0010110101", "--reduced",
                         "--message-bits", "10", "--k", "2")
    assert code == 3
    assert out == ""
    assert "pad length 5" in err


def test_statement_past_pad_end_is_exit_3(capsys, tmp_path):
    pad = tmp_path / "pad4.otpd"
    write_pad(pad, BitString("1011"))
    stmts = tmp_path / "stmts.txt"
    stmts.write_text("".join(f"{i} 0\n" for i in range(1, 9)))
    code, out, err = run(capsys, "po-decode", "--pad", str(pad),
                         "--in", str(stmts))
    assert code == 3
    assert out == ""
    assert "feature index 5 outside 1..4" in err


def test_non_canonical_statement_is_exit_3(capsys, pad_file, tmp_path):
    stmts = tmp_path / "stmts.txt"
    stmts.write_text("1_0 1\n")
    code, out, err = run(capsys, "po-decode", "--pad", pad_file,
                         "--in", str(stmts))
    assert code == 3
    assert out == ""
    assert "1_0 1" in err


@pytest.mark.parametrize(
    "bad", [line for line in MALFORMED_STATEMENT_LINES if line.strip()])
def test_malformed_statement_line_is_exit_3(capsys, pad_file, tmp_path, bad):
    stmts = tmp_path / "stmts.txt"
    stmts.write_text(f"1 1\n{bad}\n", encoding="utf-8")
    code, out, err = run(capsys, "po-decode", "--pad", pad_file,
                         "--in", str(stmts))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_po_decode_reports_the_first_faulty_line(capsys, tmp_path):
    # Line 2 names a feature past the pad's end, line 3 is malformed: the
    # error is line 2's.
    pad = tmp_path / "pad4.otpd"
    write_pad(pad, BitString("1011"))
    stmts = tmp_path / "stmts.txt"
    stmts.write_text("1 1\n5 0\n1_0 1\n")
    code, out, err = run(capsys, "po-decode", "--pad", str(pad),
                         "--in", str(stmts))
    assert (code, out) == (3, "")
    assert "feature index 5 outside 1..4" in err


SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.mark.parametrize("by_file", [True, False], ids=["file", "stdin"])
@pytest.mark.parametrize("command", ["po-decode", "facts-decode"])
@pytest.mark.parametrize("locale", ["C", "C.UTF-8"])
def test_non_utf8_input_is_exit_3(pad_file, tmp_path, locale, command, by_file):
    # Wire input is decoded strictly as UTF-8 whatever the locale, so the
    # same undecodable bytes are a data error from a file and from stdin.
    data = tmp_path / "bad.txt"
    data.write_bytes(b"\xff 1\n")
    argv = [sys.executable, "-m", "otplab.cli", command]
    if command == "po-decode":
        argv += ["--pad", pad_file]
    if by_file:
        argv += ["--in", str(data)]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, LC_ALL=locale, PYTHONPATH=path)
    with open(data, "rb") as stdin:
        proc = subprocess.run(argv, stdin=stdin, capture_output=True, env=env,
                              timeout=60)
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (3, b"")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    ["keygen", "--bits", "100000000000000", "--seed", "1"],
    ["reduce-keygen", "--message-bits", "18446744073709551615", "--k", "1",
     "--seed", "1"],
], ids=["keygen", "reduce-keygen"])
def test_draw_past_memory_is_exit_2(tmp_path, argv):
    # Under a 1 GB address-space limit the draw's output buffer cannot be
    # allocated up front, so the command stops at once with one error line
    # instead of drawing words until memory runs out.
    argv = [sys.executable, "-m", "otplab.cli", *argv,
            "--out", str(tmp_path / "pad.otpd")]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(argv, capture_output=True, timeout=5,
                          env=dict(os.environ, PYTHONPATH=path),
                          preexec_fn=_limit_address_space)
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (2, b""), err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "random bits do not fit in memory" in err
    assert not (tmp_path / "pad.otpd").exists()


def _no_trials(*args):
    raise AssertionError("a trial ran")


@pytest.mark.parametrize("check, n", [("eve", 10), ("reduction", 10),
                                      ("distinguish", 8)])
def test_trials_past_the_cap_are_exit_2(capsys, monkeypatch, check, n):
    # Refused before any trial: a kernel call fails the test instead of
    # running 2**70 trials.
    for name in ("eve_guess_correct", "reduction_length_counts",
                 "distinguisher_counts"):
        monkeypatch.setattr(_kernels, name, _no_trials)
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", check, "--n", str(n),
                         "--trials", str(2**70))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == f"error: trials must be <= {MAX_TRIALS}\n"


def test_decompress_past_memory_is_exit_2(tmp_path):
    # Restoring a 16-bit pad to 10**14 bits cannot allocate the result
    # under a 1 GB address-space limit: one error line, no traceback.
    pad, out = tmp_path / "pad.otpd", tmp_path / "out.otpd"
    write_pad(pad, BitString("1011001110001111"))
    argv = [sys.executable, "-m", "otplab.cli", "pad-decompress", "--in", str(pad),
            "--out", str(out), "--message-length", "100000000000000"]
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(argv, capture_output=True, timeout=5,
                          env=dict(os.environ, PYTHONPATH=path),
                          preexec_fn=_limit_address_space)
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (2, b""), err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_multi_chunk_pad_files_are_pinned(capsys, tmp_path):
    # Digests taken from the one-call-per-word draw; both pads span many
    # packed chunks of 2048 words.
    pad = tmp_path / "pad.otpd"
    code, _, _ = run(capsys, "keygen", "--bits", "4000000", "--seed", "1",
                     "--out", str(pad))
    assert code == 0 and pad.stat().st_size == 500_012
    assert hashlib.sha256(pad.read_bytes()).hexdigest() == (
        "2ef6879f47e461cd0f6e45aea0b7d4c797cd39a0a7ce47b66eb0f24cc24b681a")
    code, out, _ = run(capsys, "reduce-keygen", "--message-bits", "1000003",
                       "--k", "3", "--seed", "1", "--out", str(pad))
    assert code == 0 and out.splitlines()[0] == "sampled length 1000003"
    assert hashlib.sha256(pad.read_bytes()).hexdigest() == (
        "98bdcd772ecbd94bf5ac4dccff5f7a6b1cd1ee896ff02c31f22f61a8712cd409")


def test_unreadable_input_and_unwritable_out_are_exit_3(capsys, pad_file, tmp_path):
    missing = str(tmp_path / "missing.txt")
    code, out, err = run(capsys, "po-decode", "--pad", pad_file, "--in", missing)
    assert (code, out) == (3, "")
    assert err.startswith("error: ")
    code, out, err = run(capsys, "keygen", "--bits", "8", "--seed", "1",
                         "--out", str(tmp_path / "no-such-dir" / "pad.otpd"))
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


@pytest.mark.parametrize("bound", [MAX_SIZE_BOUND + 1, 10**121])
def test_facts_size_bound_above_the_cap_is_exit_2(capsys, bound):
    code, out, err = run(capsys, "facts-encode", "--in", "1", "--seed", "1",
                         "--size-bound", str(bound))
    assert (code, out) == (2, "")
    assert f"size bound must be <= {MAX_SIZE_BOUND}" in err


@pytest.mark.parametrize("bound, error", [
    (3, "size bound must be >= 6"),
    (99999, f"size bound must be <= {MAX_SIZE_BOUND}"),
])
def test_facts_size_bound_is_checked_on_an_empty_message(capsys, bound, error):
    code, out, err = run(capsys, "facts-encode", "--seed", "1", "--in", "",
                         "--size-bound", str(bound))
    assert (code, out) == (2, "")
    assert error in err


def test_facts_size_bound_at_the_cap_runs(capsys):
    code, out, _ = run(capsys, "facts-encode", "--in", "10", "--seed", "1",
                       "--size-bound", str(MAX_SIZE_BOUND))
    assert code == 0
    strings = out.splitlines()
    assert [decode_string(s) for s in strings] == [1, 0]
    assert all(len(s) <= MAX_SIZE_BOUND for s in strings)


def test_po_encode_message_longer_than_pad_is_exit_2(capsys, pad_file):
    code, out, err = run(capsys, "po-encode", "--pad", pad_file,
                         "--in", "00101101011")
    assert code == 2
    assert out == ""
    assert "features" in err


# -- streamed statement commands -------------------------------------------

def _child_env():
    # A child interpreter's environment, importing this checkout's source.
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


@pytest.mark.parametrize("command, fd", [
    ("po-encode", 1), ("po-decode", 0), ("po-decode", 1), ("facts-encode", 1),
    ("facts-decode", 0), ("facts-decode", 1), ("encrypt", 1),
])
def test_closed_stdin_or_stdout_is_exit_3(pad_file, command, fd):
    # A process started with fd 0 or 1 closed has sys.stdin or sys.stdout
    # None: one error line, not a traceback, and not a silently dropped
    # result.
    argv = {"po-encode": ["--pad", pad_file, "--in", "0101"],
            "po-decode": ["--pad", pad_file],
            "facts-encode": ["--seed", "1", "--in", "01"],
            "facts-decode": [],
            "encrypt": ["--pad", pad_file, "--in", "0101"]}[command]
    proc = subprocess.run([sys.executable, "-m", "otplab.cli", command, *argv],
                          capture_output=True, env=_child_env(), timeout=60,
                          preexec_fn=partial(os.close, fd))
    stream = ("standard input", "standard output")[fd]
    assert proc.returncode == 3
    assert proc.stderr.decode() == f"error: {stream} is closed\n"


def _lines_or_error(read):
    # The lines read() returns, or the fields and text of its decode error.
    try:
        return read()
    except UnicodeDecodeError as exc:
        return (exc.encoding, exc.start, exc.end, exc.reason, str(exc))


_PIECES = [b"\r", b"\n", b"\r\n", b" ", b"\t", b"1 0", b"-p-q--", b"a",
           "\x85".encode(), "\u2028".encode(), "\u3000".encode(),
           "\U0001F600".encode(), b"\xff", b"\xe2\x82", b"\xc2", b"\x80"]


@settings(max_examples=300)
@given(st.one_of(st.binary(max_size=40),
                 st.lists(st.sampled_from(_PIECES), max_size=16).map(b"".join)),
       st.integers(1, 7))
@example(b"a\r\nb\r\n", 2)  # CRLF split across an edge
@example(b"a\r\x85b\n", 2)  # CR, then NEL after the edge
@example(b"a\r\xc2\x85b\n", 3)  # CR, then NEL cut in two
@example("a\u2028b".encode(), 2)  # LINE SEPARATOR cut across two edges
@example("x\U0001F600y\n".encode(), 3)  # a 4-byte character cut in two
@example(b"1 0\n2 1", 3)  # no final newline
@example(b" \n\t\r\n\n  ", 2)  # only blank lines
@example(b"1 0\n2 1\nabc\xff\n", 4)  # undecodable byte past the first block
@example(b"1 0\n\xe2\x82", 5)  # truncated character at the end
def test_reader_matches_decoding_the_whole_input(data, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_READ_BLOCK", block)
        mp.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
        streamed = _lines_or_error(lambda: list(cli._read_lines(None)))
    assert streamed == _lines_or_error(
        lambda: list(filter(str.strip, data.decode("utf-8").splitlines())))


def test_a_malformed_line_before_an_undecodable_byte_is_reported_first(
        capsys, monkeypatch, pad_file):
    # The reader decodes block by block, so a faulty line in an earlier
    # block fails before the bad byte is read; both are exit 3.
    monkeypatch.setattr(cli, "_READ_BLOCK", 8)
    data = b"1 1\n0 1\n" + b"\xff 1\n"
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run(capsys, "po-decode", "--pad", pad_file)
    assert (code, out) == (3, "")
    assert "feature index must be a decimal number >= 1: '0 1'" in err
    monkeypatch.setattr(cli, "_READ_BLOCK", 1 << 16)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, out, err = run(capsys, "po-decode", "--pad", pad_file)
    assert (code, out) == (3, "")
    assert "can't decode byte 0xff in position 8" in err


def test_statement_commands_round_trip_through_pipes(tmp_path):
    # 200 kbit through real pipes: each encoder writes block by block while
    # its decoder reads block by block.
    raw = RandomSource(81).bits(8 * 25_000).value.to_bytes(25_000, "big")
    text = "".join(chr(32 + b % 95) for b in raw)  # printable ASCII
    message = bits_from_text(text).to01()
    pad = tmp_path / "pad.otpd"
    write_pad(pad, RandomSource(82).bits(len(message)))
    env = _child_env()
    for encode, decode in (
            (["po-encode", "--pad", str(pad), "--text", text],
             ["po-decode", "--pad", str(pad)]),
            (["facts-encode", "--seed", "83", "--text", text], ["facts-decode"])):
        cmd = [sys.executable, "-m", "otplab.cli"]
        with subprocess.Popen(cmd + encode, stdout=subprocess.PIPE, env=env) as enc:
            dec = subprocess.run(cmd + decode, stdin=enc.stdout, capture_output=True,
                                 env=env, timeout=120)
            enc.stdout.close()
            assert enc.wait(timeout=120) == 0
        assert (dec.returncode, dec.stderr) == (0, b"")
        assert dec.stdout.decode() == message + "\n"


# Digests of the four commands' stdout before they streamed, at message
# sizes 0, 1, B - 1, B, B + 1 and 3B + 5 for B = 1024 lines per block: over
# po-encode, po-decode of its lines, then facts-encode and facts-decode at
# bound 24 and at bound 2047, each output followed by a NUL byte.
STREAMED_PINS = {
    0: "0856266f220f443e87bf42c1601a52648197b1c3b166f528b54656745954e8f4",
    1: "9c591fbdaf5c8a492034666b1a807debb153317f5754e72808a17db81c27110a",
    1023: "0a2ecbe3e468d40ad1375eb204da1d3203fcf9344891556fe9740ea8ef6dff6a",
    1024: "ee346a2fe728bd92b67915993d47db7b4a50d206edfa68823205ee9b51db035e",
    1025: "aeeeb9186430be9c9134e483aacc43a20738fb07fc908699af46cdb82c3a6169",
    3077: "1b35f1fc3561d2f2c43e29e2f5a110612ae55482dcb6ee6702c3149343fa1cac",
}


@pytest.mark.parametrize("n", sorted(STREAMED_PINS))
def test_statement_commands_are_pinned_across_blocks(capsys, tmp_path, n):
    assert private_object._BLOCK_LINES == 1024
    pad, lines = str(tmp_path / "pad.otpd"), tmp_path / "lines.txt"
    write_pad(pad, RandomSource(61).bits(3077))
    message = RandomSource(62).bits(n).to01()
    outputs = []

    def step(*argv):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        outputs.append(out)
        lines.write_text(out)

    step("po-encode", "--pad", pad, "--in", message)
    step("po-decode", "--pad", pad, "--in", str(lines))
    for bound in ("24", "2047"):
        step("facts-encode", "--seed", "63", "--size-bound", bound, "--in", message)
        step("facts-decode", "--in", str(lines))
    assert outputs[1::2] == [message + "\n"] * 3
    digest = hashlib.sha256(b"".join(out.encode() + b"\0" for out in outputs))
    assert digest.hexdigest() == STREAMED_PINS[n]


# Runs cli.main on argv whose "@path" items are read from that file (one
# argv string is capped at 128 KiB), then reports the peak RSS in KiB.
_RSS_PROBE = """
import resource, sys
from otplab.cli import main
argv = [open(a[1:]).read() if a.startswith("@") else a for a in sys.argv[1:]]
code = main(argv)
sys.stdout.flush()
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
raise SystemExit(code)
"""


def test_statement_commands_run_in_constant_memory(tmp_path):
    # Each command's peak RSS at 2,000,000 bits stays within 24 MiB of its
    # peak at 1,000 bits; before they streamed, the four peaked at about
    # 289, 356, 94 and 253 MiB.
    n = 2_000_000
    pad, msg = tmp_path / "pad.otpd", tmp_path / "msg.txt"
    write_pad(pad, RandomSource(71).bits(n))
    message = RandomSource(72).bits(n).to01()
    po, facts_lines = tmp_path / "po.txt", tmp_path / "facts.txt"
    decoded = tmp_path / "decoded.txt"
    env = _child_env()

    def peak_mib(argv, out):
        with open(out, "wb") as fh:
            proc = subprocess.run([sys.executable, "-c", _RSS_PROBE, *argv],
                                  stdout=fh, stderr=subprocess.PIPE, env=env,
                                  timeout=120)
        assert proc.returncode == 0, proc.stderr.decode()
        return int(proc.stderr.split()[-1]) / 1024

    peaks = {}
    for bits in (1_000, n):
        msg.write_text(message[:bits])
        peaks[bits] = [
            peak_mib(["po-encode", "--pad", str(pad), "--in", f"@{msg}"], po),
            peak_mib(["po-decode", "--pad", str(pad), "--in", str(po)], decoded),
        ]
        assert decoded.read_text() == message[:bits] + "\n"
        peaks[bits] += [
            peak_mib(["facts-encode", "--seed", "1", "--in", f"@{msg}"], facts_lines),
            peak_mib(["facts-decode", "--in", str(facts_lines)], decoded),
        ]
        assert decoded.read_text() == message[:bits] + "\n"
        po.unlink()
        facts_lines.unlink()
    growth = [big - small for small, big in zip(peaks[1_000], peaks[n])]
    assert max(growth) < 24, f"peak RSS grew by {growth} MiB"
