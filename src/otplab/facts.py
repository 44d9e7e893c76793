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

The grammar is one regular expression.  :func:`encode_bit` unranks a
uniform rank within the bit's class from the class's closed-form counts, in
the order :func:`enumerate_wellformed` fixes.

The system is decidable and consistent, which is precisely what makes the
receiver's verdict computable; it is also utterly insecure, and nothing
here claims otherwise.  It demonstrates the channel, not a cipher.
"""

from __future__ import annotations

import math
import re
from collections import deque
from dataclasses import dataclass

from .rng import RandomSource


class ParseError(ValueError):
    """Input is not a well-formed string of the system."""


# The whole grammar: three nonempty hyphen groups split by one 'p' and one 'q'.
_PQ_GRAMMAR = re.compile(r"(-+)p(-+)q(-+)")


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
        return "-" * self.x + "p" + "-" * self.y + "q" + "-" * self.z


def parse_pq(text: str) -> PqString:
    """Parse ``-..-p-..-q-..-``; anything else raises :class:`ParseError`."""
    match = _PQ_GRAMMAR.fullmatch(text)
    if match is None:
        raise ParseError("not of the form -..-p-..-q-..- (nonempty hyphen groups)")
    return PqString(*map(len, match.groups()))


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


def _unrank_theorem(rank: int) -> PqString:
    # Theorems ordered by z, then x: the z = u + 2 group holds u + 1 of them
    # and starts at rank u * (u + 1) / 2.
    u = (math.isqrt(8 * rank + 1) - 1) // 2
    x = rank - u * (u + 1) // 2 + 1
    return PqString(x, u + 2 - x, u + 2)


def _count_nontheorems(budget: int) -> int:
    # Compositions of s into 3 positive parts, summed over s <= budget, less
    # the theorems among them.
    return budget * (budget - 1) * (budget - 2) // 6 - _count_theorems(budget)


def _unrank_nontheorem(rank: int, budget: int) -> PqString:
    # Non-theorems ordered by total hyphens, then x, then y.  The cumulative
    # count grows like total**3 / 6, so a cube root lands near the total
    # whose block holds the rank, and the loops settle it exactly.
    total = max(3, int((6 * rank) ** (1 / 3)))
    while _count_nontheorems(total - 1) > rank:
        total -= 1
    while _count_nontheorems(total) <= rank:
        total += 1
    if total > budget:
        raise AssertionError("rank out of range")
    rank -= _count_nontheorems(total - 1)
    half = total // 2 if total % 2 == 0 else 0  # a theorem has y = half - x
    for x in range(1, total - 1):
        theorem_y = half - x
        in_x = total - x - 1 - (theorem_y >= 1)
        if rank < in_x:
            y = rank + 1 + (1 <= theorem_y <= rank + 1)
            return PqString(x, y, total - x - y)
        rank -= in_x
    raise AssertionError("unreachable: the total's block holds the rank")


def encode_bit(bit: int, src: RandomSource, size_bound: int) -> str:
    """Emit a uniformly random string of surface length <= size_bound that
    carries ``bit`` (0 -> theorem, 1 -> well-formed non-theorem).

    Uniformity within each class keeps the obvious length statistics from
    distinguishing the two classes more than the system already allows; no
    secrecy is claimed either way.
    """
    if bit not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    if size_bound < 6:
        raise ValueError("size bound must be >= 6 (smallest theorem is '-p-q--')")
    budget = size_bound - 2
    if bit == 0:
        total = _count_theorems(budget)
        ps = _unrank_theorem(src.randbelow(total))
    else:
        total = _count_nontheorems(budget)
        ps = _unrank_nontheorem(src.randbelow(total), budget)
    return ps.render()


def decode_string(text: str) -> int:
    """Read the bit carried by a string: theorem -> 0, non-theorem -> 1."""
    ps = parse_pq(text)
    return 0 if is_theorem(ps) else 1
