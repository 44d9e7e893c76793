import pytest
from hypothesis import given

from otplab.bitstring import BitString, bits_from_text, xor
from otplab.rng import RandomSource

from conftest import bitstrings, equal_length_pairs


def test_construct_from_text():
    s = BitString("1011001001")
    assert len(s) == 10
    assert s.to01() == "1011001001"
    assert s.value == 0b1011001001


def test_construct_from_iterable():
    assert BitString([1, 0, 1]).to01() == "101"
    assert BitString(()).to01() == ""
    assert BitString(b for b in (0, 1, 1)).to01() == "011"
    assert BitString([True, False]).to01() == "10"
    s = RandomSource(5).bits(10_000)
    bits = list(s)
    assert {type(b) for b in bits} == {int}
    assert BitString(bits) == s


def test_construct_rejects_junk():
    # int(text, 2) accepts every one of these but "10x".
    for junk in ("10x", "1_0", " 10", "10\n", "+1", "0b1", "\uff11"):
        with pytest.raises(ValueError, match="only '0' and '1'"):
            BitString(junk)
    for junk in ([0, 2], [0, 1, 2]):
        with pytest.raises(ValueError, match="bit must be 0 or 1, got 2"):
            BitString(junk)


def test_from_int_bounds():
    assert BitString.from_int(5, 3).to01() == "101"
    with pytest.raises(ValueError):
        BitString.from_int(8, 3)
    with pytest.raises(ValueError):
        BitString.from_int(-1, 3)
    with pytest.raises(ValueError):
        BitString.from_int(1, 0)


def test_indexing_is_leftmost_first():
    s = BitString("100")
    assert s[0] == 1
    assert s[1] == 0
    assert s[-1] == 0
    assert list(s) == [1, 0, 0]
    with pytest.raises(IndexError):
        s[3]


def test_slicing_and_concat():
    s = BitString("101100")
    assert s[:4].to01() == "1011"
    assert s[4:].to01() == "00"
    assert BitString(s[:4].to01() + s[4:].to01()) == s
    assert s[2:2].to01() == ""
    with pytest.raises(ValueError):
        s[::2]


def test_zeros_ones():
    assert BitString.zeros(4).to01() == "0000"
    assert BitString.ones(4).to01() == "1111"
    assert BitString.zeros(0) == BitString("")


def test_equality_includes_length():
    assert BitString("001") != BitString("01")
    assert BitString("001") != BitString("0010")
    assert hash(BitString("001")) == hash(BitString("001"))


def test_xor_worked_example():
    m = BitString("0010110101")
    k = BitString("1011001001")
    assert xor(m, k).to01() == "1001111100"


def test_xor_length_mismatch_is_error():
    with pytest.raises(ValueError):
        xor(BitString("10"), BitString("100"))


@given(equal_length_pairs())
def test_xor_self_inverse_and_commutes(pair):
    a, b = pair
    assert xor(xor(a, b), b) == a
    assert xor(a, b) == xor(b, a)
    assert xor(a, a) == BitString.zeros(len(a))
    assert xor(a, BitString.zeros(len(a))) == a


@given(bitstrings(max_len=64), bitstrings(max_len=64), bitstrings(max_len=64))
def test_xor_associative(a, b, c):
    n = min(len(a), len(b), len(c))
    a, b, c = a[:n], b[:n], c[:n]
    assert xor(xor(a, b), c) == xor(a, xor(b, c))


def test_dunder_xor_matches_function():
    a, b = BitString("0101"), BitString("0011")
    assert (a ^ b) == xor(a, b)


def test_text_codec_round_trip():
    bits = bits_from_text("COME AT 8 PM")
    assert len(bits) == 8 * len("COME AT 8 PM")
    assert bits.value.to_bytes(len(bits) // 8, "big") == "COME AT 8 PM".encode("latin-1")


def test_repr_round_trips():
    s = BitString("0110")
    assert eval(repr(s)) == s
