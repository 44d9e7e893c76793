"""Bit-exact bit strings of arbitrary length.

A :class:`BitString` is an ordered, immutable sequence of bits with an
explicit length that need not be byte-aligned.  Bits are written and indexed
left to right: index 0 is the leftmost bit, ``len(s) - 1`` the last one.
Protocol descriptions that speak of "position p" (1-based) map to index
``p - 1`` here.

Values are hashable and safe to share between threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Union

BitsLike = Union[str, Iterable[int], "BitString"]

# Maps the ASCII digits of to01() to byte values, whose iteration yields ints.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


class BitString:
    """An immutable sequence of 0/1 bits, not necessarily byte-aligned.

    Internally stored as ``(value, length)`` where ``value`` is the integer
    whose binary expansion (MSB first, zero-padded to ``length``) spells the
    bit string.
    """

    __slots__ = ("_value", "_length")

    def __init__(self, bits: BitsLike = ()) -> None:
        if isinstance(bits, BitString):
            value, length = bits._value, bits._length
        elif isinstance(bits, str):
            # int(text, 2) alone would also accept "_", whitespace, signs
            # and a "0b" prefix, so check the characters first.
            if not bits.isascii() or bits.encode("ascii").translate(None, b"01"):
                raise ValueError("bit string text may contain only '0' and '1'")
            length = len(bits)
            value = int(bits, 2) if bits else 0
        else:
            chars = []
            for b in bits:
                if b not in (0, 1):
                    raise ValueError(f"bit must be 0 or 1, got {b!r}")
                chars.append("1" if b else "0")
            length = len(chars)
            value = int("".join(chars), 2) if chars else 0
        self._value = value
        self._length = length

    @classmethod
    def from_int(cls, value: int, length: int) -> "BitString":
        """Bit string of ``length`` bits spelling ``value`` MSB-first."""
        if length < 0:
            raise ValueError("length must be >= 0")
        if value < 0 or value >> length:
            raise ValueError(f"value {value} does not fit in {length} bits")
        self = cls.__new__(cls)
        self._value = value
        self._length = length
        return self

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls.from_int(0, n)

    @classmethod
    def ones(cls, n: int) -> "BitString":
        if n < 0:
            raise ValueError("length must be >= 0")
        return cls.from_int((1 << n) - 1, n)

    @property
    def value(self) -> int:
        """The bits read as a binary number (MSB first)."""
        return self._value

    @property
    def length(self) -> int:
        return self._length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index) -> Union[int, "BitString"]:
        if isinstance(index, slice):
            start, stop, step = index.indices(self._length)
            if step != 1:
                raise ValueError("BitString slices must be contiguous (step 1)")
            width = max(0, stop - start)
            chunk = (self._value >> (self._length - stop)) & ((1 << width) - 1)
            return BitString.from_int(chunk, width)
        if index < 0:
            index += self._length
        if not 0 <= index < self._length:
            raise IndexError("bit index out of range")
        return (self._value >> (self._length - 1 - index)) & 1

    def __iter__(self) -> Iterator[int]:
        return iter(self.to01().encode("ascii").translate(_DIGIT_VALUES))

    def __xor__(self, other: "BitString") -> "BitString":
        if not isinstance(other, BitString):
            return NotImplemented
        return xor(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitString):
            return NotImplemented
        return self._value == other._value and self._length == other._length

    def __hash__(self) -> int:
        return hash((self._value, self._length))

    def to01(self) -> str:
        """ASCII text form: one '0'/'1' character per bit."""
        return format(self._value, f"0{self._length}b") if self._length else ""

    def __str__(self) -> str:
        return self.to01()

    def __repr__(self) -> str:
        return f"BitString({self.to01()!r})"


def _fitted(value: int, length: int) -> BitString:
    """:meth:`BitString.from_int` for a caller whose ``value`` fits in
    ``length`` bits by construction, so the checks are not repeated."""
    self = object.__new__(BitString)
    self._value = value
    self._length = length
    return self


def xor(a: BitString, b: BitString) -> BitString:
    """Bitwise XOR of two equal-length bit strings.

    Unequal lengths are an error: silently truncating either operand would
    corrupt pads and ciphertexts.
    """
    if a.length != b.length:
        raise ValueError(
            f"xor requires equal lengths, got {a.length} and {b.length} bits"
        )
    return BitString.from_int(a.value ^ b.value, a.length)


def bits_from_text(text: str) -> BitString:
    """Encode text as bits using 8-bit (Latin-1) character codes, MSB first."""
    try:
        data = text.encode("latin-1")
    except UnicodeEncodeError as exc:
        raise ValueError("text encoding supports 8-bit characters only") from exc
    return BitString.from_int(int.from_bytes(data, "big"), 8 * len(data))

