import pytest
from hypothesis import given, settings

from otplab import padfile
from otplab.bitstring import BitString
from otplab.padfile import (
    BadMagicError,
    PaddingBitsError,
    TrailingDataError,
    TruncatedPadError,
    deserialize_pad,
    read_pad,
    serialize_pad,
    write_pad,
)
from otplab.rng import RandomSource

from conftest import bitstrings


def test_wire_layout_of_ten_bit_pad():
    data = serialize_pad(BitString("1011001001"))
    assert data == b"OTPD" + (10).to_bytes(8, "big") + bytes([0xB2, 0x40])


def test_wire_layout_of_empty_pad():
    assert serialize_pad(BitString("")) == b"OTPD" + bytes(8)


def test_round_trip_examples():
    for text in ("", "1", "0", "1011001001", "1" * 65):
        assert deserialize_pad(serialize_pad(BitString(text))) == BitString(text)


def test_exhaustive_lengths_0_to_256():
    src = RandomSource(99)
    for n in range(257):
        p = src.bits(n)
        assert deserialize_pad(serialize_pad(p)) == p


@settings(max_examples=300)
@given(bitstrings(max_len=400))
def test_round_trip_property(p):
    assert deserialize_pad(serialize_pad(p)) == p


def test_round_trip_10k_random_pads():
    src = RandomSource(0xC0DEC)
    for _ in range(10_000):
        p = src.bits(src.randbelow(300))
        assert deserialize_pad(serialize_pad(p)) == p


def test_bad_magic():
    data = serialize_pad(BitString("101"))
    with pytest.raises(BadMagicError):
        deserialize_pad(b"XXXX" + data[4:])
    with pytest.raises(BadMagicError):
        deserialize_pad(b"NOPE")


def test_truncated_header_and_body():
    data = serialize_pad(BitString("10110010"))
    with pytest.raises(TruncatedPadError):
        deserialize_pad(data[:8])
    with pytest.raises(TruncatedPadError):
        deserialize_pad(data[:-1])


def test_trailing_bytes_rejected():
    data = serialize_pad(BitString("101"))
    with pytest.raises(TrailingDataError):
        deserialize_pad(data + b"\x00")


def test_nonzero_padding_rejected():
    data = bytearray(serialize_pad(BitString("101")))
    data[-1] |= 0x01  # set a bit below the 3 valid ones
    with pytest.raises(PaddingBitsError):
        deserialize_pad(bytes(data))


def test_byte_aligned_pad_has_no_padding_bits():
    p = BitString("10110010")
    assert deserialize_pad(serialize_pad(p)) == p


def test_file_round_trip(tmp_path):
    p = RandomSource(5).bits(77)
    path = tmp_path / "pad.otpd"
    write_pad(path, p)
    assert read_pad(path) == p


def test_write_pad_out_of_memory_leaves_no_file(tmp_path, monkeypatch):
    # A pad whose container cannot be built in memory (a keygen of 2.4 Gbit
    # under a 1 GB address-space limit) must not leave an empty pad file.
    def out_of_memory(bits):
        raise MemoryError
    monkeypatch.setattr(padfile, "serialize_pad", out_of_memory)
    path = tmp_path / "pad.otpd"
    with pytest.raises(MemoryError):
        write_pad(path, BitString("1011"))
    assert not path.exists()
