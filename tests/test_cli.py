import hashlib
from pathlib import Path

import pytest

from otplab.analysis import TrialConfig, distinguisher_test
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


def test_bad_k_is_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "reduction", "--n", "10", "--k", "4",
                       "--trials", "10")
    assert code == 2
    assert "k=4" in err or "too short" in err


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


@pytest.mark.parametrize("bound", [MAX_SIZE_BOUND + 1, 10**121])
def test_facts_size_bound_above_the_cap_is_exit_2(capsys, bound):
    code, out, err = run(capsys, "facts-encode", "--in", "1", "--seed", "1",
                         "--size-bound", str(bound))
    assert (code, out) == (2, "")
    assert f"size bound must be <= {MAX_SIZE_BOUND}" in err


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
