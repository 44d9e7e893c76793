import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otplab.bitstring import BitString
from otplab.padfile import PadFormatError
from otplab.reduction import (
    ReductionParams,
    _completed_tail,
    allowed_tails,
    completed_value,
    decrypt_reduced,
    effective_pad,
    encrypt_reduced,
    expected_reduction,
    generate_reduced_pad,
    max_k,
    reserved_pattern,
)
from otplab.rng import RandomSource


def test_max_k_values():
    assert max_k(10) == 3  # 3 + 4 = 7 <= 10, 4 + 8 = 12 > 10
    assert max_k(12) == 4  # 4 + 8 = 12 <= 12
    assert max_k(1) == 0  # even a single-bit reduction needs n >= 2
    assert max_k(2) == 1
    with pytest.raises(ValueError):
        max_k(0)


def test_max_k_is_the_boundary():
    for n in range(2, 300):
        k = max_k(n)
        assert n >= k + (1 << (k - 1))
        assert n < (k + 1) + (1 << k)


def test_expected_reduction_values():
    assert expected_reduction(1) == Fraction(1, 2)
    assert expected_reduction(2) == Fraction(3, 4)
    assert expected_reduction(3) == Fraction(3, 4)
    assert expected_reduction(4) == Fraction(5, 8)


def test_expected_reduction_matches_direct_expectation():
    # Independent oracle: sum_i i * P(length = n - i) with the stated weights.
    for k in range(1, 8):
        direct = sum(Fraction(i, 1 << k) for i in range(1, k + 1))
        assert expected_reduction(k) == direct


def test_params_validation():
    ReductionParams(10, 3)
    with pytest.raises(ValueError):
        ReductionParams(10, 4)  # needs n >= 12
    with pytest.raises(ValueError):
        ReductionParams(10, 0)


def test_reserved_pattern_examples():
    p = ReductionParams(10, 2)
    assert reserved_pattern(p, 1) == BitString("01")  # 9 = ...1001
    assert reserved_pattern(p, 2) == BitString("00")  # 8 = ...1000
    p1 = ReductionParams(10, 1)
    assert reserved_pattern(p1, 1) == BitString("1")  # 9 is odd
    with pytest.raises(ValueError):
        reserved_pattern(p, 3)
    with pytest.raises(ValueError):
        reserved_pattern(p, 0)


def test_reserved_patterns_pairwise_distinct_up_to_1024():
    for n in range(2, 1025):
        for k in range(1, max_k(n) + 1):
            params = ReductionParams(n, k)
            patterns = [reserved_pattern(params, i) for i in range(1, k + 1)]
            assert len(set(patterns)) == k


def test_single_bit_path_is_the_parity_rule():
    # k = 1: appended bit = low bit of n-1; a full-length pad's last bit is
    # forced to the complement.
    for n in range(2, 257):
        params = ReductionParams(n, 1)
        parity = (n - 1) & 1
        assert reserved_pattern(params, 1) == BitString.from_int(parity, 1)
        assert allowed_tails(params) == (1 - parity,)


def test_allowed_tails_complement_reserved():
    # Every valid (n, k) with n <= 256: the closed form lists exactly the
    # tails that are not reserved, ascending.
    for n in range(2, 257):
        for k in range(1, max_k(n) + 1):
            params = ReductionParams(n, k)
            reserved = {reserved_pattern(params, i).value for i in range(1, k + 1)}
            assert allowed_tails(params) == tuple(
                v for v in range(1 << k) if v not in reserved), (n, k)


def test_tail_map_on_every_residue_class():
    # For k <= 10 the map depends on n only through n mod 2**k: in every
    # residue class, at its least valid n and one far above, the coin ->
    # tail map is a bijection on 0 .. 2**k - 1.
    for k in range(1, 11):
        size = 1 << k
        least = k + (1 << (k - 1))
        for residue in range(size):
            n = least + (residue - least) % size
            ReductionParams(n, k)
            tails = [_completed_tail(n, k, t) for t in range(size)]
            assert sorted(tails) == list(range(size)), (n, k)
            far = n + 7919 * size
            assert [_completed_tail(far, k, t) for t in range(size)] == tails, (n, k)


def _complement_at(reserved, j):
    # The j-th (from 0) value not in ``reserved``, by counting: the least v
    # with v - |{r in reserved: r <= v}| == j and v not reserved.
    v = j
    while True:
        nxt = j + sum(1 for r in reserved if r <= v)
        if nxt == v:
            return v
        v = nxt


@pytest.mark.parametrize("n, k", [(1 << 40, 40), ((1 << 63) + 64, 64)])
def test_allowed_tail_closed_form_at_wide_k(n, k):
    # Too many tails to list: check the closed form against counting at the
    # two ends and around each end of the reserved run.
    params = ReductionParams(n, k)
    reserved = {reserved_pattern(params, i).value for i in range(1, k + 1)}
    lo = (n - k) % (1 << k)
    last = (1 << k) - k - 1
    for j in {0, 1, lo - 1, lo, lo + 1, last - 1, last}:
        if not 0 <= j <= last:
            continue
        tail = _completed_tail(n, k, k + j)
        assert tail == _complement_at(reserved, j), (n, k, j)
        assert tail not in reserved


def test_transmitted_length_weights():
    params = ReductionParams(10, 2)
    trials = 100_000
    counts = {10: 0, 9: 0, 8: 0}
    src = RandomSource(2024)
    for _ in range(trials):
        counts[len(generate_reduced_pad(params, src))] += 1
    assert abs(counts[10] / trials - 0.5) < 0.01
    assert abs(counts[9] / trials - 0.25) < 0.01
    assert abs(counts[8] / trials - 0.25) < 0.01


def test_generate_lengths_within_bounds_and_never_expand():
    for seed in range(50):
        src = RandomSource(seed)
        for n, k in [(10, 1), (10, 2), (10, 3), (12, 4)]:
            params = ReductionParams(n, k)
            assert n - k <= len(generate_reduced_pad(params, src)) <= n


def test_full_length_pads_avoid_reserved_tails():
    params = ReductionParams(10, 2)
    src = RandomSource(7)
    mask = (1 << 2) - 1
    seen_full = 0
    for _ in range(10_000):
        pad = generate_reduced_pad(params, src)
        if pad.length == 10:
            seen_full += 1
            tail = pad.value & mask
            assert tail not in (0b01, 0b00)  # the reserved patterns for n=10
    assert seen_full > 4000


def test_full_length_single_bit_pads_end_in_complement():
    # n = 10: n-1 = 9 is odd, so full-length pads must end in 0.
    params = ReductionParams(10, 1)
    src = RandomSource(13)
    for _ in range(2000):
        pad = generate_reduced_pad(params, src)
        if pad.length == 10:
            assert pad[-1] == 0


def test_effective_pad_examples():
    short = BitString("101100100")
    assert effective_pad(short, ReductionParams(10, 1)) == BitString("1011001001")
    assert effective_pad(short, ReductionParams(10, 2)) == BitString("1011001001")
    full = BitString("1011001010")
    assert effective_pad(full, ReductionParams(10, 2)) == BitString("1011001010")


def test_effective_pad_rejects_inconsistent_lengths():
    with pytest.raises(ValueError):  # 5 bits, outside 8..10
        effective_pad(BitString("10110"), ReductionParams(10, 2))


def _completion_outcome(complete, pad, params):
    try:
        return complete(pad, params)
    except PadFormatError as exc:
        return PadFormatError, str(exc)


def _spelled_out_completion(pad, params):
    # The module docstring's rule in bit-string terms: a pad n - i bits long
    # keeps its first n - k bits and gains P_i; a full-length pad passes.
    n, k = params.n, params.k
    if not n - k <= len(pad) <= n:
        raise PadFormatError(f"pad length {len(pad)} incompatible with n={n}, "
                             f"k={k} (expected {n - k}..{n})")
    if len(pad) == n:
        return pad.value
    return int(pad[:n - k].to01() + reserved_pattern(params, n - len(pad)).to01(), 2)


@pytest.mark.parametrize("n", range(2, 13))
def test_completed_value_is_effective_pads_value(n):
    # Every valid k and every pad length 0..n + 1: every pad value up to
    # n = 8, then the extremes and 30 random values per length.
    rnd = random.Random(n)
    for k in range(1, max_k(n) + 1):
        params = ReductionParams(n, k)
        for length in range(n + 2):
            top = (1 << length) - 1
            values = (range(top + 1) if n <= 8 else
                      {0, top} | {rnd.randint(0, top) for _ in range(30)})
            for v in values:
                pad = BitString.from_int(v, length)
                got = _completion_outcome(completed_value, pad, params)
                assert got == _completion_outcome(
                    lambda p, q: effective_pad(p, q).value, pad, params)
                assert got == _completion_outcome(_spelled_out_completion,
                                                  pad, params)


def test_effective_pad_is_deterministic():
    params = ReductionParams(12, 3)
    pad = generate_reduced_pad(params, RandomSource(3))
    assert effective_pad(pad, params) == effective_pad(pad, params)


def test_worked_example_through_the_reduced_path():
    # The 9-bit pad completes to the classical worked example's pad, so the
    # ciphertext matches the classical one bit for bit.
    params = ReductionParams(10, 1)
    pad = BitString("101100100")
    m = BitString("0010110101")
    c = encrypt_reduced(m, pad, params)
    assert c == BitString("1001111100")
    assert decrypt_reduced(c, pad, params) == m


def test_zero_message_exposes_effective_pad():
    params = ReductionParams(10, 2)
    pad = generate_reduced_pad(params, RandomSource(4))
    c = encrypt_reduced(BitString.zeros(10), pad, params)
    assert c == effective_pad(pad, params)


def test_encrypt_reduced_length_check():
    params = ReductionParams(10, 2)
    pad = generate_reduced_pad(params, RandomSource(4))
    with pytest.raises(ValueError):
        encrypt_reduced(BitString.zeros(9), pad, params)
    with pytest.raises(ValueError):
        decrypt_reduced(BitString.zeros(11), pad, params)


@settings(max_examples=200)
@given(
    st.integers(min_value=0, max_value=(1 << 12) - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
    st.sampled_from([(12, 1), (12, 2), (12, 3), (12, 4)]),
)
def test_round_trip_property(mv, seed, nk):
    n, k = nk
    params = ReductionParams(n, k)
    m = BitString.from_int(mv, n)
    pad = generate_reduced_pad(params, RandomSource(seed))
    assert decrypt_reduced(encrypt_reduced(m, pad, params), pad, params) == m


def test_transmitted_pad_survives_the_wire_format():
    from otplab.padfile import deserialize_pad, serialize_pad

    params = ReductionParams(10, 2)
    pad = generate_reduced_pad(params, RandomSource(21))
    revived = deserialize_pad(serialize_pad(pad))
    # The stored bit count carries the secret transmitted length, and
    # BitString equality includes the length.
    assert revived == pad
