"""Large inputs run in linear time: the bulk bit paths, the statement
encoder and verifiers and the pq encoder and decoder, timed at n and 8n.

A linear path takes about 8 times as long at 8n, a quadratic one about 64
times.  The bound of 24 leaves room for a host whose speed drifts by tens of
percent between the two timings.
"""

import time

from otplab import facts
from otplab.bitstring import BitString
from otplab.facts import MAX_SIZE_BOUND, encode_lines
from otplab.private_object import (
    PadObject,
    Statement,
    decode_lines,
    encode_lines as statement_encode_lines,
    verify_statements,
)
from otplab.rng import RandomSource

N = 100_000
MAX_RATIO = 24


def _best_of_3(fn, arg):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fn(arg)
        best = min(best, time.perf_counter() - start)
    return best


def test_bulk_bit_paths_scale_linearly():
    small, large = RandomSource(1).bits(N), RandomSource(2).bits(8 * N)
    cases = {
        "RandomSource.bits": (lambda n: RandomSource(3).bits(n), N, 8 * N),
        "BitString(text)": (BitString, small.to01(), large.to01()),
        "list(BitString)": (list, small, large),
    }
    for name, (fn, at_n, at_8n) in cases.items():
        ratio = _best_of_3(fn, at_8n) / _best_of_3(fn, at_n)
        assert ratio < MAX_RATIO, f"{name}: 8x the input took {ratio:.1f}x as long"


def test_statement_verify_scales_linearly():
    # One list of true statements about a 400 kbit pad; its first 50k
    # statements are also true of the pad's first 50 kbit.
    n = N // 2
    pad = RandomSource(4).bits(8 * n)
    stmts = [Statement(j, c) for j, c in enumerate(pad, start=1)]
    small = (stmts[:n], PadObject(pad[:n]))
    large = (stmts, PadObject(pad))
    assert verify_statements(*small) == BitString.zeros(n)

    def verify(case):
        return verify_statements(*case)

    ratio = _best_of_3(verify, large) / _best_of_3(verify, small)
    assert ratio < MAX_RATIO, f"verify_statements: 8x took {ratio:.1f}x as long"


def test_statement_line_decode_scales_linearly():
    # Bare "<index> <claim>" lines for a 400 kbit message; its first 50k
    # lines decode against the pad's first 50 kbit.
    n = N // 2
    pad, message = RandomSource(5).bits(8 * n), RandomSource(6).bits(8 * n)
    lines = [f"{j} {c}" for j, c in enumerate(pad ^ message, start=1)]
    small = (lines[:n], PadObject(pad[:n]))
    large = (lines, PadObject(pad))
    assert decode_lines(*small) == message[:n]

    def decode(case):
        return decode_lines(*case)

    ratio = _best_of_3(decode, large) / _best_of_3(decode, small)
    assert ratio < MAX_RATIO, f"decode_lines: 8x took {ratio:.1f}x as long"


def test_statement_line_encode_scales_linearly():
    # Messages of 25 and 200 kbit against one 200 kbit pad.
    n = N // 4
    obj = PadObject(RandomSource(11).bits(8 * n))
    message = RandomSource(12).bits(8 * n)

    def encode(m):
        return "".join(statement_encode_lines(m, obj))

    ratio = _best_of_3(encode, message) / _best_of_3(encode, message[:n])
    assert ratio < MAX_RATIO, f"encode_lines: 8x took {ratio:.1f}x as long"


def test_facts_encode_scales_linearly():
    # Messages of 10 and 80 kbit at the CLI's default size bound: every rank
    # comes from the bulk draw, in rounds of words topped up as they run out.
    n = N // 10
    message = RandomSource(7).bits(8 * n)

    def encode(m):
        return "".join(encode_lines(m, RandomSource(8), 24))

    ratio = _best_of_3(encode, message) / _best_of_3(encode, message[:n])
    assert ratio < MAX_RATIO, f"encode_lines: 8x took {ratio:.1f}x as long"


def test_facts_decode_scales_linearly():
    # 500 and 4,000 strings at the largest size bound, about 1.5 kB each and
    # all but a few distinct: nearly every line misses the decoder's table.
    n = 500
    message = RandomSource(9).bits(8 * n)
    lines = "".join(encode_lines(message, RandomSource(10), MAX_SIZE_BOUND)).splitlines()
    assert len(set(lines)) > 0.99 * len(lines)
    assert facts.decode_lines(lines[:n]) == message[:n]
    ratio = _best_of_3(facts.decode_lines, lines) / _best_of_3(facts.decode_lines,
                                                                lines[:n])
    assert ratio < MAX_RATIO, f"facts.decode_lines: 8x took {ratio:.1f}x as long"
