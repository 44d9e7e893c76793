"""Encryption as statements about a shared secret object.

Instead of XORing bits, the sender emits one True/False assertion about a
mutually known *private object* per message bit: a true statement carries a
0, a false one carries a 1.  The receiver checks each statement against the
object and reads the bits back off.  When the object is a pad and feature
``i`` is "bit i of the pad", the claimed values are exactly the XOR
ciphertext, which is what makes the reinterpretation faithful.

The encoder and the verifier read the object once per message, through
:meth:`PrivateObject.features`, not once per bit: for a pad that is one
slice, so encoding a message costs one XOR plus rendering the lines.

Each direction has two forms.  :func:`encode_statements` and
:func:`verify_statements` work on :class:`Statement` values and are the
reference.  :func:`encode_lines` and :func:`decode_lines` work on the wire
form, one ``<index> <claimed_value> <rendering>`` line per bit, and build no
per-line object; the command line uses them.  Both forms share the XOR, the
line format, the strict line parser and the bounds-and-compare loop, so
they differ only in what they hand back.

Each message bit must consume its own feature; reusing or correlating
features is what breaks the secrecy argument, so the encoder walks feature
indices 1, 2, 3, ... in order.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable, List, Sequence, Tuple

from .bitstring import BitString


class StatementParseError(ValueError):
    """A statement line off the wire is malformed."""


class PrivateObject(abc.ABC):
    """An object known only to the two endpoints, read as boolean features.

    Features are indexed 1-based; ``entropy_bits`` is the number of
    independent features and bounds how many message bits the object can
    carry.  Implementations must be deterministic and immutable.
    """

    @property
    @abc.abstractmethod
    def entropy_bits(self) -> int: ...

    @abc.abstractmethod
    def feature(self, index: int) -> int:
        """The bit value of feature ``index`` (1 <= index <= entropy_bits)."""

    def features(self, count: int) -> BitString:
        """Features ``1..count`` as one bit string, feature 1 leftmost."""
        if count:
            self._check_index(count)
        return BitString(self.feature(i) for i in range(1, count + 1))

    def describe(self, index: int, claimed_value: int) -> str:
        """Human rendering of the claim 'feature <index> equals <value>'."""
        return f"feature {index} of the object is {claimed_value}"

    def _check_index(self, index: int) -> None:
        if not 1 <= index <= self.entropy_bits:
            raise ValueError(
                f"feature index {index} outside 1..{self.entropy_bits}"
            )


@dataclass(frozen=True)
class Statement:
    """An assertion that one feature of the object has a particular value.

    Equality is decided by ``(feature_index, claimed_value)`` alone; the
    rendering is display-only.
    """

    feature_index: int
    claimed_value: int
    rendering: str = field(default="", compare=False)


class PadObject(PrivateObject):
    """A pad viewed as a private object: feature i is bit i of the pad."""

    def __init__(self, pad: BitString) -> None:
        if pad.length < 1:
            raise ValueError("pad object needs at least one bit")
        self._pad = pad

    @property
    def entropy_bits(self) -> int:
        return self._pad.length

    def feature(self, index: int) -> int:
        self._check_index(index)
        return self._pad[index - 1]

    def features(self, count: int) -> BitString:
        if count:
            self._check_index(count)
        return self._pad[:count]

    def describe(self, index: int, claimed_value: int) -> str:
        return f"bit {index} of the OTP is {claimed_value}"


class TableObject(PrivateObject):
    """A fixed table of named boolean features; stands in for physical objects."""

    def __init__(self, features: Sequence[Tuple[str, int]]) -> None:
        for name, value in features:
            if value not in (0, 1):
                raise ValueError(f"feature {name!r} must be 0 or 1")
        self._features = tuple(features)

    @property
    def entropy_bits(self) -> int:
        return len(self._features)

    def feature(self, index: int) -> int:
        self._check_index(index)
        return self._features[index - 1][1]

    def describe(self, index: int, claimed_value: int) -> str:
        name = self._features[index - 1][0]
        return f"'{name}' is {'true' if claimed_value else 'false'}"


def _claims(message: BitString, obj: PrivateObject) -> BitString:
    # The claimed values: message XOR features 1..len(message).
    if message.length > obj.entropy_bits:
        raise ValueError(
            f"message has {message.length} bits but the object offers only "
            f"{obj.entropy_bits} independent features"
        )
    return message ^ obj.features(message.length)


def encode_statements(message: BitString, obj: PrivateObject) -> List[Statement]:
    """One statement per message bit: true claims carry 0, false carry 1."""
    describe = obj.describe
    return [
        Statement(j, claimed, describe(j, claimed))
        for j, claimed in enumerate(_claims(message, obj), start=1)
    ]


def encode_lines(message: BitString, obj: PrivateObject) -> str:
    """The wire form of :func:`encode_statements`: one line per message bit,
    each ending in a newline, built without a :class:`Statement` per line."""
    describe = obj.describe
    return "".join([
        _format_line(j, claimed, describe(j, claimed)) + "\n"
        for j, claimed in enumerate(_claims(message, obj), start=1)
    ])


def _verify(pairs: Iterable[Tuple[int, int]], obj: PrivateObject) -> BitString:
    # One bit per (feature index, claimed value) pair, in order: true -> 0.
    width = obj.entropy_bits
    values = obj.features(width).to01()
    bits = []
    for index, claimed in pairs:
        if not 1 <= index <= width:
            raise StatementParseError(
                f"feature index {index} outside 1..{width}"
            )
        bits.append("0" if (values[index - 1] == "1") == claimed else "1")
    return BitString("".join(bits))


def verify_statements(
    statements: Iterable[Statement], obj: PrivateObject
) -> BitString:
    """Check each statement against the object: true -> 0, false -> 1.

    A statement naming a feature the object lacks cannot have come from
    :func:`encode_statements`, so it raises :class:`StatementParseError`.
    """
    return _verify(
        ((stmt.feature_index, stmt.claimed_value) for stmt in statements), obj
    )


def decode_lines(lines: Iterable[str], obj: PrivateObject) -> BitString:
    """Parse and check statement lines in one pass, without a
    :class:`Statement` per line; the same bits and errors as
    :func:`verify_statements` over :func:`statement_from_line`, except that
    the first faulty line is reported, whichever of the two checks it fails.
    """
    return _verify(
        ((index, claimed) for index, claimed, _ in map(_parse_line, lines)), obj
    )


def _format_line(index: int, claimed: int, rendering: str) -> str:
    # The wire form: <index> <claimed_value> <rendering>, the last optional.
    if rendering:
        return f"{index} {claimed} {rendering}"
    return f"{index} {claimed}"


def _parse_line(line: str) -> Tuple[int, int, str]:
    # (index, claimed value, rendering) of a line, accepting only what
    # _format_line writes: int() alone would also take signs, underscores,
    # leading zeros and non-ASCII digits.
    parts = line.split(maxsplit=2)
    if len(parts) < 2:
        raise StatementParseError(
            f"statement line needs '<index> <value>': {line!r}"
        )
    index_text, claimed_text = parts[0], parts[1]
    if claimed_text not in ("0", "1"):
        raise StatementParseError(f"claimed value must be 0 or 1: {line!r}")
    if not (index_text.isascii() and index_text.isdigit()) or index_text[0] == "0":
        raise StatementParseError(
            f"feature index must be a decimal number >= 1: {line!r}"
        )
    try:
        index = int(index_text)
    except ValueError as exc:  # more digits than int() converts
        raise StatementParseError(f"malformed statement line: {line!r}") from exc
    claimed = 1 if claimed_text == "1" else 0
    return index, claimed, parts[2] if len(parts) == 3 else ""


def statement_to_line(stmt: Statement) -> str:
    """Wire form: ``<index> <claimed_value> <rendering>``."""
    return _format_line(stmt.feature_index, stmt.claimed_value, stmt.rendering)


def statement_from_line(line: str) -> Statement:
    """Parse the wire form; the rendering tail is kept but never compared."""
    return Statement(*_parse_line(line))
