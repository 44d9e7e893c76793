"""A bit channel built on theoremhood in a tiny formal system.

The two endpoints share a formal system; the sender transmits strings of
that system and each string carries one bit: theorems convey 0,
well-formed non-theorems convey 1.  The receiver decides theoremhood to
read the bit back.

The concrete system here is Hofstadter's pq-system.  Well-formed strings
look like ``--p---q-----``: a group of hyphens, one ``p``, a group of
hyphens, one ``q``, a group of hyphens, with every group nonempty.  Writing
``(x, y, z)`` for the group sizes:

* axioms: ``(a, 1, a+1)`` for every ``a >= 1``;
* inference rule: from ``(a, b, c)`` derive ``(a, b+1, c+1)``.

A string is a theorem exactly when ``x + y == z``, and the decision
procedure :func:`is_theorem` uses that arithmetic shortcut.  The
independent check :func:`derive_oracle` knows nothing about it: it searches
derivations mechanically from the axioms.

The grammar is one regular expression.  :func:`encode_lines` draws all of
a message's ranks in one :meth:`RandomSource.randbelow_many` and looks each
up in its bit's class, in the order :func:`enumerate_wellformed` fixes; it
yields the lines in text blocks of :data:`_BLOCK_LINES`, drawing the ranks
as the blocks are taken, and :func:`encode_bit` is its one-bit case.  The
size bound is capped at :data:`MAX_SIZE_BOUND`, so that every string fits
on one text line.  A class no larger than the message's count of its bit
(55 theorems and 1,485 non-theorems at bound 24) is rendered whole, every
line in rank order, so a repeat costs a list index and the list never
holds more lines than the class adds to the output.  A larger class keeps
a lazy table from rank to line that unranks each distinct rank once in
closed form: a lookup in the cumulative counts per hyphen total, then the
root of a quadratic for ``x``.  Both kinds of table live for the whole
message, not for one block.  :func:`decode_lines` keeps a table from line
to bit and parses each distinct line once.  The encoder and the decoder
work on the group sizes and build no :class:`PqString`; :func:`parse_pq`
and ``PqString.render`` share their matcher and renderer.

The system is decidable and consistent, which is precisely what makes the
receiver's verdict computable; it is also utterly insecure, and nothing
here claims otherwise.  It demonstrates the channel, not a cipher.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cache
from itertools import islice
from typing import Callable, Iterable, Iterator, List, Tuple

from .bitstring import BitString
from .private_object import _BLOCK_LINES
from .rng import RandomSource


class ParseError(ValueError):
    """Input is not a well-formed string of the system."""


# The whole grammar: three nonempty hyphen groups split by one 'p' and one 'q'.
_PQ_GRAMMAR = re.compile(r"(-+)p(-+)q(-+)")

# The largest size bound the encoder takes: a POSIX text line holds at most
# LINE_MAX = 2048 bytes, newline included, so every string fits on a line.
MAX_SIZE_BOUND = 2047


def _line(x: int, y: int, z: int) -> str:
    # The string with group sizes (x, y, z) and its newline, built in one piece.
    return f"{'-' * x}p{'-' * y}q{'-' * z}\n"


def _groups(text: str) -> Tuple[int, int, int]:
    # The hyphen group sizes of a well-formed string, from where the first
    # two groups end: no group is copied out.
    match = _PQ_GRAMMAR.fullmatch(text)
    if match is None:
        raise ParseError("not of the form -..-p-..-q-..- (nonempty hyphen groups)")
    p, q = match.end(1), match.end(2)
    return p, q - p - 1, len(text) - q - 1


@dataclass(frozen=True)
class PqString:
    """A parsed well-formed string: hyphen group sizes around 'p' and 'q'."""

    x: int
    y: int
    z: int

    def __post_init__(self) -> None:
        if min(self.x, self.y, self.z) < 1:
            raise ValueError("all three hyphen groups must be nonempty")

    @property
    def surface_length(self) -> int:
        return self.x + self.y + self.z + 2

    def render(self) -> str:
        return _line(self.x, self.y, self.z)[:-1]


def parse_pq(text: str) -> PqString:
    """Parse ``-..-p-..-q-..-``; anything else raises :class:`ParseError`."""
    return PqString(*_groups(text))


def is_theorem(ps: PqString) -> bool:
    """Fast decision procedure: theorem iff x + y == z."""
    return ps.x + ps.y == ps.z


def derive_oracle(ps: PqString, max_steps: int) -> bool:
    """Decide theoremhood by brute-force derivation, ignoring arithmetic.

    Breadth-first search from every axiom ``(a, 1, a+1)`` that fits within
    the target's surface length, applying the inference rule up to
    ``max_steps`` times.  The rule only ever lengthens a string, so pruning
    to the target length keeps the search finite.  With
    ``max_steps >= y - 1`` the answer is exact.
    """
    limit = ps.surface_length
    target = (ps.x, ps.y, ps.z)
    frontier = deque()
    seen = set()
    a = 1
    while a + 1 + (a + 1) + 2 <= limit:
        frontier.append(((a, 1, a + 1), 0))
        a += 1
    while frontier:
        state, depth = frontier.popleft()
        if state in seen:
            continue
        seen.add(state)
        if state == target:
            return True
        if depth >= max_steps:
            continue
        sx, sy, sz = state
        if sx + (sy + 1) + (sz + 1) + 2 <= limit:
            frontier.append(((sx, sy + 1, sz + 1), depth + 1))
    return False


def enumerate_wellformed(max_surface_length: int):
    """Yield every well-formed string with surface length <= the bound."""
    budget = max_surface_length - 2
    for total in range(3, budget + 1):
        for x in range(1, total - 1):
            for y in range(1, total - x):
                yield PqString(x, y, total - x - y)


def _count_theorems(budget: int) -> int:
    # Theorems have x + y = z, so total hyphens 2z; z ranges 2..budget//2
    # and each z admits z - 1 choices of x.
    top = budget // 2
    return top * (top - 1) // 2


def _unrank_theorem(rank: int) -> Tuple[int, int, int]:
    # Theorems ordered by z, then x: the z = u + 2 group holds u + 1 of them
    # and starts at rank u * (u + 1) / 2.
    u = (math.isqrt(8 * rank + 1) - 1) // 2
    x = rank - u * (u + 1) // 2 + 1
    return x, u + 2 - x, u + 2


def _theorem_lines(budget: int) -> List[str]:
    # Every theorem's line, in rank order: by z, then x.
    return [_line(x, z - x, z)
            for z in range(2, budget // 2 + 1) for x in range(1, z)]


def _count_nontheorems(budget: int) -> int:
    # Compositions of s into 3 positive parts, summed over s <= budget, less
    # the theorems among them.
    return budget * (budget - 1) * (budget - 2) // 6 - _count_theorems(budget)


@cache
def _nontheorems_upto() -> Tuple[int, ...]:
    # Item t: the non-theorems with at most t hyphens, for every t the
    # largest size bound allows.  Built on first use, not at import.
    return tuple(_count_nontheorems(t) for t in range(MAX_SIZE_BOUND - 1))


def _rows_within(rank: int, width: int) -> int:
    # The most rows u with u * (width - u) / 2 <= rank, rows shrinking by one
    # from (width - 1) / 2: the root of a quadratic, off by at most one.
    u = (width - math.isqrt(width * width - 8 * rank)) // 2
    return u - (u * (width - u) > 2 * rank)


def _unrank_nontheorem(rank: int, budget: int) -> Tuple[int, int, int]:
    # Non-theorems ordered by total hyphens, then x, then y.
    upto = _nontheorems_upto()
    total = bisect_right(upto, rank)
    if total > budget:
        raise AssertionError("rank out of range")
    rank -= upto[total - 1]
    # Row x holds total - x - 1 strings, less the theorem y = total/2 - x in
    # the first `lead` rows, so the rows before x = u + 1 hold
    # u * (2 * total - 3 - u) / 2 - min(u, lead) non-theorems.
    half = total // 2 if total % 2 == 0 else 0
    lead = max(half - 1, 0)
    u = _rows_within(rank + lead, 2 * total - 3)
    if u < lead:
        u = _rows_within(rank, 2 * total - 5)
    rank -= u * (2 * total - 3 - u) // 2 - min(u, lead)
    x = u + 1
    theorem_y = half - x
    y = rank + 1 + (1 <= theorem_y <= rank + 1)
    return x, y, total - x - y


def _nontheorem_lines(budget: int) -> List[str]:
    # Every non-theorem's line, in rank order: by total hyphens, then x, then y.
    return [_line(x, y, total - x - y) for total in range(3, budget + 1)
            for x in range(1, total - 1) for y in range(1, total - x)
            if 2 * (x + y) != total]


class _Table(dict):
    """One call's table of ``fn(key)``, computed at a key's first lookup."""

    def __init__(self, fn: Callable) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def encode_bit(bit: int, src: RandomSource, size_bound: int) -> str:
    """The string :func:`encode_lines` writes for the one-bit message ``bit``."""
    return "".join(encode_lines(BitString((bit,)), src, size_bound))[:-1]


def encode_lines(message: BitString, src: RandomSource,
                 size_bound: int) -> Iterator[str]:
    """One uniformly random string of surface length <= size_bound per bit
    of ``message``, one per line: 0 -> theorem, 1 -> well-formed non-theorem.
    The lines come in text blocks of :data:`_BLOCK_LINES` (the last block
    may be shorter), and the ranks are drawn as the blocks are taken.

    Uniformity within each class keeps the obvious length statistics from
    distinguishing the two classes more than the system already allows; no
    secrecy is claimed either way.  The size bound is checked by this call,
    before any draw: one above :data:`MAX_SIZE_BOUND` raises
    :class:`ValueError`.
    """
    if size_bound < 6:
        raise ValueError("size bound must be >= 6 (smallest theorem is '-p-q--')")
    if size_bound > MAX_SIZE_BOUND:
        raise ValueError(
            f"size bound must be <= {MAX_SIZE_BOUND} (one string per text line)"
        )
    budget = size_bound - 2
    counts = (_count_theorems(budget), _count_nontheorems(budget))
    ones = message.value.bit_count()
    ranks = src.randbelow_many(counts[bit] for bit in message)
    # A class no larger than its bit's count is rendered whole; a larger one
    # unranks each distinct rank at its first lookup.
    tables = (_theorem_lines(budget) if counts[0] <= len(message) - ones
              else _Table(lambda rank: _line(*_unrank_theorem(rank))),
              _nontheorem_lines(budget) if counts[1] <= ones
              else _Table(lambda rank: _line(*_unrank_nontheorem(rank, budget))))
    lines = zip(message, ranks)
    return ("".join([tables[bit][rank] for bit, rank in islice(lines, _BLOCK_LINES)])
            for _ in range(0, len(message), _BLOCK_LINES))


def decode_string(text: str) -> int:
    """Read the bit carried by a string: theorem -> 0, non-theorem -> 1."""
    x, y, z = _groups(text)
    return 0 if x + y == z else 1  # is_theorem, on the group sizes


def decode_lines(lines: Iterable[str]) -> BitString:
    """The bits :func:`decode_string` reads from ``lines``, in order; the
    first malformed line raises its :class:`ParseError`."""
    table = _Table(lambda line: b"01"[decode_string(line)])  # an ASCII digit
    digits = bytes(map(table.__getitem__, lines))
    return BitString.from_int(int(digits or b"0", 2), len(digits))
