import pytest
from hypothesis import given, settings

from otplab.bitstring import BitString
from otplab.codec import CorruptPadError, codec_census, compress_pad, decompress_pad

from conftest import bitstrings


def test_golden_examples():
    assert compress_pad(BitString("1011001001")) == BitString("101100100")
    assert compress_pad(BitString("1011001000")) == BitString("101100")
    assert compress_pad(BitString("0000000000")) == BitString("0000000000")


def test_decompress_golden_examples():
    assert decompress_pad(BitString("101100100"), 10) == BitString("1011001001")
    assert decompress_pad(BitString("101100"), 10) == BitString("1011001000")
    assert decompress_pad(BitString(""), 3) == BitString("100")


def test_empty_pad_rejected():
    with pytest.raises(ValueError):
        compress_pad(BitString(""))


def test_decompress_corruption_checks():
    with pytest.raises(CorruptPadError):
        decompress_pad(BitString("1011"), 3)  # longer than the message
    with pytest.raises(CorruptPadError):
        decompress_pad(BitString("0100"), 4)  # full length but contains a 1
    assert decompress_pad(BitString("0000"), 4) == BitString("0000")


def test_output_never_longer_than_input():
    for n in range(1, 12):
        for v in range(1 << n):
            p = BitString.from_int(v, n)
            c = compress_pad(p)
            assert len(c) <= len(p)
            if v:
                assert len(c) < len(p)


@pytest.mark.parametrize("n", range(1, 17))
def test_exhaustive_round_trip_and_injectivity(n):
    seen = set()
    for v in range(1 << n):
        p = BitString.from_int(v, n)
        c = compress_pad(p)
        assert decompress_pad(c, n) == p
        assert c not in seen
        seen.add(c)


@settings(max_examples=300)
@given(bitstrings(min_len=1, max_len=200))
def test_round_trip_property(p):
    assert decompress_pad(compress_pad(p), len(p)) == p


def test_census_n10_golden_counts():
    census = codec_census(10)
    assert census[1] == 512  # half the pads end in 1
    assert census[0] == 1  # only the all-zeros pad is uncompressed
    assert census[10] == 1  # 1 followed by nine zeros
    assert sum(census.values()) == 1024


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 16])
def test_census_matches_counting_formula(n):
    census = codec_census(n)
    assert census.get(0) == 1
    for m in range(n):  # m trailing zeros -> m+1 bits saved
        assert census.get(m + 1) == 1 << (n - m - 1)
    assert sum(census.values()) == 1 << n


def test_census_agrees_with_per_pad_compression():
    # The kernel census must match a direct loop over the library codec.
    for n in range(1, 15):
        direct = {}
        for v in range(1 << n):
            p = BitString.from_int(v, n)
            saving = len(p) - len(compress_pad(p))
            direct[saving] = direct.get(saving, 0) + 1
        assert codec_census(n) == direct


def test_census_bounds():
    with pytest.raises(ValueError):
        codec_census(0)
    with pytest.raises(ValueError):
        codec_census(21)
