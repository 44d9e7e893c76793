"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, not configurable.
"""

import random
import time
from fractions import Fraction

from otplab.analysis import (
    TrialConfig,
    distinguisher_test,
    eve_guess_rate,
    exhaustive_secrecy_check,
    reduction_stats,
)
from otplab.bitstring import BitString, xor
from otplab.codec import codec_census, compress_pad, decompress_pad
from otplab.facts import (
    ParseError,
    decode_string,
    derive_oracle,
    encode_bit,
    enumerate_wellformed,
    is_theorem,
    parse_pq,
)
from otplab.otp import decrypt, encrypt
from otplab.private_object import (
    PadObject,
    encode_statements,
    statement_from_line,
    verify_statements,
)
from otplab.reduction import (
    ReductionParams,
    allowed_tails,
    generate_reduced_pad,
    max_k,
    reserved_pattern,
)
from otplab.rng import RandomSource

from conftest import reserved_tail_mutant

SEED = 2024


def _report(num, label, ok, elapsed):
    print(f"\ncriterion {num} [{label}]: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.3f}s)")


def test_criterion_1_worked_example_fidelity():
    m = BitString("0010110101")
    k = BitString("1011001001")
    encrypt(m, k)  # warm-up
    start = time.perf_counter()
    c = encrypt(m, k)
    back = decrypt(c, k)
    elapsed = time.perf_counter() - start
    ok = c == BitString("1001111100") and back == m and elapsed < 0.001
    _report(1, "worked-example fidelity", ok, elapsed)
    assert ok


def test_criterion_2_codec_golden_roundtrip_census():
    start = time.perf_counter()
    ok = compress_pad(BitString("1011001001")) == BitString("101100100")
    ok &= compress_pad(BitString("1011001000")) == BitString("101100")
    zeros = BitString("0000000000")
    ok &= compress_pad(zeros) == zeros
    for n in range(1, 17):
        seen = set()
        for v in range(1 << n):
            p = BitString.from_int(v, n)
            c = compress_pad(p)
            ok &= decompress_pad(c, n) == p
            ok &= c not in seen
            seen.add(c)
        census = codec_census(n)
        ok &= census.get(0) == 1
        ok &= all(census.get(m + 1) == 1 << (n - m - 1) for m in range(n))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(2, "codec golden + exhaustive round-trip + census", ok, elapsed)
    assert ok


def test_criterion_3_exact_perfect_secrecy():
    start = time.perf_counter()
    ok = True
    checked = 0
    for n in range(1, 5):
        for k in range(1, max_k(n) + 1):
            report = exhaustive_secrecy_check(ReductionParams(n, k))
            ok &= report.passed and report.deviation == 0
            checked += 1
    ok &= checked == 4  # (2,1) (3,1) (4,1) (4,2)
    ok &= not exhaustive_secrecy_check(ReductionParams(3, 1),
                                       generator=reserved_tail_mutant).passed
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _report(3, "exact perfect secrecy + mutation sanity", ok, elapsed)
    assert ok


def test_criterion_4_theorem_statistics():
    ok = True
    worst = 0.0
    # Eavesdropper guessing rate.
    for n, k in [(10, 1), (10, 3)]:
        start = time.perf_counter()
        cfg = TrialConfig(params=ReductionParams(n, k), trials=100_000,
                          seed=SEED)
        ok &= abs(eve_guess_rate(cfg) - 0.5) < 0.01
        worst = max(worst, time.perf_counter() - start)
    # Transmitted-length frequencies against the stated weights.
    for n, k in [(10, 1), (10, 2), (10, 3), (12, 4)]:
        start = time.perf_counter()
        cfg = TrialConfig(params=ReductionParams(n, k), trials=100_000,
                          seed=SEED)
        stats = reduction_stats(cfg)
        ok &= abs(stats.frequency(n) - float(1 - k / (1 << k))) < 0.01
        for i in range(1, k + 1):
            ok &= abs(stats.frequency(n - i) - 1 / (1 << k)) < 0.01
        expected = {1: 0.5, 2: 0.75, 3: 0.75, 4: 0.625}[k]
        ok &= abs(float(stats.mean_saving) - expected) < 0.01
        ok &= stats.expected_saving == Fraction(k * (k + 1), 1 << (k + 1))
        worst = max(worst, time.perf_counter() - start)
    ok &= worst < 30.0
    _report(4, "guess rate, length frequencies, mean savings", ok, worst)
    assert ok


def test_criterion_5_structural_invariants():
    start = time.perf_counter()
    ok = True
    # Reserved patterns pairwise distinct across the whole range.
    for n in range(2, 1025):
        for k in range(1, max_k(n) + 1):
            params = ReductionParams(n, k)
            values = {reserved_pattern(params, i).value
                      for i in range(1, k + 1)}
            ok &= len(values) == k
    # k = 1 reproduces the parity rules bit for bit.
    for n in range(2, 257):
        params = ReductionParams(n, 1)
        parity = (n - 1) & 1
        ok &= reserved_pattern(params, 1).value == parity
        ok &= allowed_tails(params) == (1 - parity,)
    # Generated pads never exceed the message length.
    for seed in range(100):
        src = RandomSource(seed)
        for n, k in [(10, 1), (10, 3), (12, 4), (38, 6)]:
            pad = generate_reduced_pad(ReductionParams(n, k), src)
            ok &= n - k <= len(pad) <= n
    elapsed = time.perf_counter() - start
    _report(5, "pattern distinctness, parity equivalence, no expansion",
            ok, elapsed)
    assert ok


def test_criterion_6_private_object_equivalence():
    start = time.perf_counter()
    src = RandomSource(SEED)
    ok = True
    for _ in range(10_000):
        n = 1 + src.randbelow(32)
        m = src.bits(n)
        pad = src.bits(n)
        lines = "".join(encode_statements(m, PadObject(pad))).splitlines()
        claimed = BitString(statement_from_line(s).claimed_value for s in lines)
        ok &= claimed == xor(m, pad)
        ok &= verify_statements(lines, PadObject(pad)) == m
    # Worked statements: bits 1, 2 and 10 of the classical ciphertext.
    lines = "".join(encode_statements(BitString("0010110101"),
                                      PadObject(BitString("1011001001"))))
    stmts = [statement_from_line(line) for line in lines.splitlines()]
    cipher = BitString("1001111100")
    ok &= stmts[0].claimed_value == cipher[0] == 1
    ok &= stmts[1].claimed_value == cipher[1] == 0
    ok &= stmts[9].claimed_value == cipher[9] == 0
    ok &= stmts[0].rendering == "bit 1 of the OTP is 1"
    elapsed = time.perf_counter() - start
    _report(6, "statement encoding equals XOR ciphertext", ok, elapsed)
    assert ok


def test_criterion_7_formal_system_soundness():
    start = time.perf_counter()
    ok = True
    count = 0
    for ps in enumerate_wellformed(20):
        ok &= is_theorem(ps) == derive_oracle(ps, ps.y)
        count += 1
    ok &= count == 816
    src = RandomSource(SEED)
    bits = RandomSource(SEED + 1).bits(10_000)
    for b in bits:
        ok &= decode_string(encode_bit(b, src, 20)) == b
    rng = random.Random(SEED)
    for _ in range(100_000):
        text = bytes(rng.randrange(256)
                     for _ in range(rng.randrange(24))).decode("latin-1")
        try:
            parse_pq(text)
        except ParseError:
            pass
    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    _report(7, "decision procedure vs oracle, codec round-trip, fuzz",
            ok, elapsed)
    assert ok


def test_criterion_8_distinguisher_one_million_trials():
    start = time.perf_counter()
    cfg = TrialConfig(
        params=ReductionParams(8, 1),
        trials=1_000_000,
        seed=SEED,
        m0=BitString.zeros(8),
        m1=BitString.ones(8),
    )
    report = distinguisher_test(cfg)
    elapsed = time.perf_counter() - start
    ok = report.passed and float(report.deviation) < 3.0 * (256 / 1e6) ** 0.5
    _report(8, f"distinguisher tv={float(report.deviation):.4f} "
               f"thr={report.threshold:.4f}", ok, elapsed)
    assert ok
