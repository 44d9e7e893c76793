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
:func:`encode_lines` renders them in text blocks of :data:`_BLOCK_LINES`
lines, so a writer holds one block at a time; a block is rendered when it
is taken, so a faulty rendering surfaces after the blocks before it.

A statement travels as one line, ``<index> <claimed_value> <rendering>``:
an index of 1 or more, a claim of 0 or 1 and a display-only rendering.
There is one reader and one writer of that line.  :func:`decode_lines`
reads it from any iterable of lines, with no Python call per line.
:func:`statement_to_line` writes it, and refuses what its reader would
misread: an index or claim that is not a single token, or a rendering
with a line break.  The default :meth:`PrivateObject.render_lines` writes
through it; :class:`PadObject` renders its fixed wording in one
comprehension.  A :class:`Statement` is the wire form read back:
:func:`encode_statements` reads the lines :func:`encode_lines` writes, and
:func:`verify_statements` writes each statement's index and claim as a
line for :func:`decode_lines`.

Each message bit must consume its own feature; reusing or correlating
features is what breaks the secrecy argument, so the encoder walks feature
indices 1, 2, 3, ... in order.
"""

from __future__ import annotations

import abc
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Sequence, Tuple

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
        """Human rendering of the claim 'feature <index> equals <value>'
        (1 <= index <= entropy_bits); one line, which
        :func:`statement_to_line` writes as a line's third field."""
        self._check_index(index)
        return f"feature {index} of the object is {claimed_value}"

    def render_lines(self, claims: str, first: int) -> str:
        """The wire lines of the claimed values ``claims``, a text of ``0``
        and ``1`` characters, about features ``first, first + 1, ...``: the
        :func:`statement_to_line` line of each claim and its ``describe``,
        each ending in a newline.  Subclasses may render all lines at once,
        as long as the text is the same."""
        describe = self.describe
        return "".join([
            statement_to_line(Statement(j, claimed, describe(j, claimed))) + "\n"
            for j, claimed in enumerate(map(int, claims), start=first)
        ])

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
        self._check_index(index)
        return f"bit {index} of the OTP is {claimed_value}"

    def render_lines(self, claims: str, first: int) -> str:
        # describe's wording, one comprehension with no Python call per line
        return "".join([f"{j} {c} bit {j} of the OTP is {c}\n"
                        for j, c in enumerate(claims, start=first)])


class TableObject(PrivateObject):
    """A fixed table of named boolean features; stands in for physical objects."""

    def __init__(self, features: Sequence[Tuple[str, int]]) -> None:
        for name, value in features:
            if value not in (0, 1):
                raise ValueError(f"feature {name!r} must be 0 or 1")
            if name and name.splitlines() != [name]:  # one statement, one line
                raise ValueError(f"feature name {name!r} contains a line break")
        self._features = tuple(features)

    @property
    def entropy_bits(self) -> int:
        return len(self._features)

    def feature(self, index: int) -> int:
        self._check_index(index)
        return self._features[index - 1][1]

    def describe(self, index: int, claimed_value: int) -> str:
        self._check_index(index)
        name = self._features[index - 1][0]
        return f"'{name}' is {'true' if claimed_value else 'false'}"


# Lines per text block that encode_lines yields, here and in facts.
_BLOCK_LINES = 1024


def encode_lines(message: BitString, obj: PrivateObject) -> Iterator[str]:
    """The statement lines of ``message``, one per bit, each ending in a
    newline, in text blocks of :data:`_BLOCK_LINES` lines (the last block
    may be shorter) that the object's :meth:`PrivateObject.render_lines`
    builds without a :class:`Statement` per line.  A message longer than
    the object is refused by this call; that is the only check made before
    the first block.  Each block is rendered when it is taken, so a
    rendering fault, such as a line break in a ``describe``, raises after
    the blocks before it have been yielded."""
    if message.length > obj.entropy_bits:
        raise ValueError(
            f"message has {message.length} bits but the object offers only "
            f"{obj.entropy_bits} independent features"
        )
    # The claims' text is sliced per block: slicing the BitString instead
    # would shift the whole message once per block.
    claims = (message ^ obj.features(message.length)).to01()
    return (obj.render_lines(claims[i:i + _BLOCK_LINES], i + 1)
            for i in range(0, len(claims), _BLOCK_LINES))


def encode_statements(message: BitString, obj: PrivateObject) -> List[Statement]:
    """The lines of :func:`encode_lines` as :func:`statement_from_line`
    reads them: true claims carry 0, false carry 1."""
    return [statement_from_line(line)
            for block in encode_lines(message, obj) for line in block.splitlines()]


def verify_statements(statements: Iterable[Statement], obj: PrivateObject) -> BitString:
    """Check each statement against the object: true -> 0, false -> 1.  Each
    is read by :func:`decode_lines` as the line ``<index> <claimed_value>``
    that :func:`statement_to_line` writes of it."""
    return decode_lines((statement_to_line(Statement(s.feature_index, s.claimed_value))
                         for s in statements), obj)


# The one test of a statement line: an unsigned ASCII decimal index without
# leading zeros, whitespace, a claimed value of exactly 0 or 1, then the end
# or whitespace and the rendering.  ``\s`` is the whitespace str.split()
# splits on.  int() alone would also take signs, underscores, leading zeros
# and non-ASCII digits.
_LINE = re.compile(r"\s*([1-9][0-9]*)\s+([01])(?!\S)")


def decode_lines(lines: Iterable[str], obj: PrivateObject) -> BitString:
    """Parse, check and read back statement lines in one loop, with no
    :class:`Statement` and no Python call per line: true -> 0, false -> 1.
    The first faulty line raises :class:`StatementParseError`.
    """
    width = obj.entropy_bits
    values = " " + obj.features(width).to01()  # values[i] is feature i
    digits = bytearray()  # one ASCII "0" or "1" per line
    append = digits.append
    accept = _LINE.match
    for line in lines:
        fields = accept(line)
        if fields is None:
            raise _line_error(line)
        index_text, claimed = fields.groups()
        try:
            index = int(index_text)
        except ValueError:  # more digits than int() converts
            raise _line_error(line) from None
        if index > width:
            raise StatementParseError(
                f"feature index {index} outside 1..{width}"
            )
        append(48 if values[index] == claimed else 49)
    return BitString.from_int(int(digits or b"0", 2), len(digits))


def _line_error(line: str) -> StatementParseError:
    # Names what is wrong with a line that _LINE refuses or whose index
    # int() cannot convert.  Only the first two checks are spelled out: a
    # line with two fields and a valid claim that _LINE still refuses has a
    # bad index.
    parts = line.split(maxsplit=2)
    if len(parts) < 2:
        return StatementParseError(
            f"statement line needs '<index> <value>': {line!r}"
        )
    if parts[1] not in ("0", "1"):
        return StatementParseError(f"claimed value must be 0 or 1: {line!r}")
    if _LINE.match(line) is None:
        return StatementParseError(
            f"feature index must be a decimal number >= 1: {line!r}"
        )
    return StatementParseError(f"malformed statement line: {line!r}")


def statement_to_line(stmt: Statement) -> str:
    """Wire form: ``<index> <claimed_value> <rendering>``, the rendering
    left out when it is empty.  It refuses what its reader would misread:
    an index or claim that is not exactly one token raises
    :class:`StatementParseError`, and a rendering that str.splitlines()
    would split raises :class:`ValueError`."""
    fields = [str(stmt.feature_index), str(stmt.claimed_value)]
    head = " ".join(fields)
    if head.split() != fields:  # a field that is empty or holds whitespace
        raise StatementParseError(f"statement field is not one token: {head!r}")
    rendering = stmt.rendering
    if not rendering:
        return head
    if rendering.splitlines() != [rendering]:
        raise ValueError(f"statement rendering {rendering!r} contains a line break")
    return f"{head} {rendering}"


def statement_from_line(line: str) -> Statement:
    """Parse the wire form; the rendering tail is kept but never compared."""
    fields = _LINE.match(line)
    if fields is None:
        raise _line_error(line)
    try:
        index = int(fields[1])
    except ValueError:  # more digits than int() converts
        raise _line_error(line) from None
    return Statement(index, int(fields[2]), line[fields.end():].lstrip())
