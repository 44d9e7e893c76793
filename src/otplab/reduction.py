"""Length reduction for transmitted pads.

A message of length ``n`` can be protected by a pad whose *transmitted*
length is shorter than ``n`` without giving an eavesdropper anything: the
pad's length itself is secret side information.  A transmitted pad is a
plain :class:`~otplab.bitstring.BitString`, so that secret is simply its bit
count.  Before use, both parties deterministically complete the transmitted
pad to ``n`` bits.

Construction, for a reduction bound ``k`` (valid while ``n >= k + 2**(k-1)``):

* Reserved tail patterns ``P_1 .. P_k``: ``P_i`` is the ``k`` low-order bits
  of the integer ``n - i``.  Consecutive integers are distinct mod ``2**k``,
  so the patterns are pairwise distinct.
* The sender draws one ``k``-bit coin ``t``:

  - ``t < k``: transmit a fully random pad of length ``n - (t + 1)``.
  - ``t >= k``: transmit a full-length pad whose first ``n - k`` bits are
    random and whose tail is the ``(t - k)``-th element (ascending) of the
    ``2**k - k`` non-reserved patterns.

* Completion: a pad of length ``n - i`` keeps its first ``n - k`` bits and
  gains the tail ``P_i``; a full-length pad passes through unchanged.

Every k-bit tail of the completed pad therefore occurs with probability
exactly ``2**-k`` (reserved patterns via the short branches, the rest via
direct indexing), so the completed pad is uniform over all ``2**n`` values
and ciphertexts carry no information about the message.  The ``k = 1`` case
degenerates to a parity rule: append the low bit of ``n - 1`` to a short
pad, force a full-length pad's last bit to its complement.

The coin mapping above is deliberately rejection-free so that a pad draw
always consumes the same number of generator words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Tuple

from .bitstring import BitString, xor
from .padfile import PadFormatError
from .rng import RandomSource


@dataclass(frozen=True)
class ReductionParams:
    """Protocol configuration: message length ``n``, reduction bound ``k``."""

    n: int
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("reduction bound k must be >= 1")
        if self.n < self.k + (1 << (self.k - 1)):
            raise ValueError(
                f"message length {self.n} too short for k={self.k}; "
                f"need n >= k + 2**(k-1) = {self.k + (1 << (self.k - 1))}"
            )


def max_k(n: int) -> int:
    """Largest usable reduction bound for an n-bit message; 0 if none."""
    if n < 1:
        raise ValueError("message length must be >= 1")
    k = 0
    while n >= (k + 1) + (1 << k):
        k += 1
    return k


def expected_reduction(k: int) -> Fraction:
    """Average number of bits saved per pad: ``k * (k+1) / 2**(k+1)``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return Fraction(k * (k + 1), 1 << (k + 1))


def reserved_pattern(params: ReductionParams, i: int) -> BitString:
    """The k-bit tail forced onto a pad transmitted ``i`` bits short
    (1 <= i <= k)."""
    if not 1 <= i <= params.k:
        raise ValueError(f"pattern index {i} outside 1..{params.k}")
    return BitString.from_int(_reserved_value(params, i), params.k)


def _reserved_value(params: ReductionParams, i: int) -> int:
    # P_i: the k low-order bits of n - i.
    return (params.n - i) & ((1 << params.k) - 1)


@lru_cache(maxsize=64)  # every full-length pad draw needs the tails
def allowed_tails(params: ReductionParams) -> Tuple[int, ...]:
    """The ``2**k - k`` non-reserved k-bit tail values, ascending."""
    reserved = {_reserved_value(params, i) for i in range(1, params.k + 1)}
    return tuple(v for v in range(1 << params.k) if v not in reserved)


def generate_reduced_pad(params: ReductionParams, src: RandomSource) -> BitString:
    """Draw a transmitted pad under the length-reduction protocol; its
    length is the secret transmitted length."""
    # One k-bit draw decides both the pad length and, for full-length pads,
    # which allowed tail is used; no rejection, constant draws per pad.
    n, k = params.n, params.k
    t = src.bits(k).value
    if t < k:
        return src.bits(n - (t + 1))
    head = src.bits(n - k).value
    return BitString.from_int((head << k) | allowed_tails(params)[t - k], n)


def effective_pad(pad: BitString, params: ReductionParams) -> BitString:
    """Complete a transmitted pad to the full ``n`` bits used for XOR.

    Deterministic, so both endpoints compute identical results from their
    shared pad.  A pad whose length lies outside ``n - k .. n`` cannot have
    come from the sender, so it raises :class:`PadFormatError`.
    """
    n, k = params.n, params.k
    length = pad.length
    if not n - k <= length <= n:
        raise PadFormatError(
            f"pad length {length} incompatible with n={n}, k={k} "
            f"(expected {n - k}..{n})"
        )
    if length == n:
        return pad
    head = pad.value >> (length - (n - k))
    return BitString.from_int((head << k) | _reserved_value(params, n - length), n)


def encrypt_reduced(
    message: BitString, pad: BitString, params: ReductionParams
) -> BitString:
    """XOR the message with the completed pad."""
    if message.length != params.n:
        raise ValueError(f"message is {message.length} bits, expected {params.n}")
    return xor(message, effective_pad(pad, params))


def decrypt_reduced(
    ciphertext: BitString, pad: BitString, params: ReductionParams
) -> BitString:
    """Inverse of :func:`encrypt_reduced` (XOR with the same completed pad)."""
    if ciphertext.length != params.n:
        raise ValueError(
            f"ciphertext is {ciphertext.length} bits, expected {params.n}"
        )
    return xor(ciphertext, effective_pad(pad, params))
