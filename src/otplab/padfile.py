"""The "OTPD" pad container format.

Layout, bit-exact:

* 4 ASCII magic bytes ``OTPD``
* 8-byte big-endian unsigned bit count
* ``ceil(count / 8)`` data bytes, bits packed MSB-first; the final byte is
  zero-padded on its low side.

Nonzero padding bits, a wrong magic, missing bytes and trailing bytes are
all rejected with distinct errors: a pad file that does not parse exactly
is corrupt, and corruption on the secure channel must fail loud.
"""

from __future__ import annotations

import os
from .bitstring import BitString

MAGIC = b"OTPD"
_HEADER_LEN = len(MAGIC) + 8
MAX_BITS = (1 << 64) - 1  # the largest bit count the 8-byte header holds


class PadFormatError(ValueError):
    """Base class for OTPD container violations; also raised for a pad whose
    length the protocol reading it cannot accept."""


class BadMagicError(PadFormatError):
    pass


class TruncatedPadError(PadFormatError):
    pass


class TrailingDataError(PadFormatError):
    pass


class PaddingBitsError(PadFormatError):
    pass


def serialize_pad(bits: BitString) -> bytes:
    """Encode a bit string into the OTPD container."""
    nbytes = (bits.length + 7) // 8
    packed = bits.value << (8 * nbytes - bits.length)
    return MAGIC + bits.length.to_bytes(8, "big") + packed.to_bytes(nbytes, "big")


def deserialize_pad(data: bytes) -> BitString:
    """Decode an OTPD container; the exact inverse of :func:`serialize_pad`."""
    if data[: len(MAGIC)] != MAGIC[: len(data)]:
        raise BadMagicError("not an OTPD pad (bad magic)")
    if len(data) < _HEADER_LEN:
        raise TruncatedPadError(
            f"pad header truncated: got {len(data)} bytes, need {_HEADER_LEN}"
        )
    count = int.from_bytes(data[len(MAGIC) : _HEADER_LEN], "big")
    nbytes = (count + 7) // 8
    body = data[_HEADER_LEN:]
    if len(body) < nbytes:
        raise TruncatedPadError(
            f"pad body truncated: got {len(body)} data bytes, need {nbytes}"
        )
    if len(body) > nbytes:
        raise TrailingDataError(
            f"{len(body) - nbytes} unexpected bytes after pad data"
        )
    packed = int.from_bytes(body, "big")
    pad_width = 8 * nbytes - count
    if packed & ((1 << pad_width) - 1):
        raise PaddingBitsError("nonzero padding bits in final byte")
    return BitString.from_int(packed >> pad_width, count)


def write_pad(path: "os.PathLike[str] | str", bits: BitString) -> None:
    data = serialize_pad(bits)  # first: a pad too large leaves no empty file
    with open(path, "wb") as fh:
        fh.write(data)


def read_pad(path: "os.PathLike[str] | str") -> BitString:
    with open(path, "rb") as fh:
        return deserialize_pad(fh.read())
