"""Length reduction for transmitted pads.

A message of length ``n`` can be protected by a pad whose *transmitted*
length is shorter than ``n`` without giving an eavesdropper anything: the
pad's length itself is secret side information.  A transmitted pad is a
plain :class:`~otplab.bitstring.BitString`, so that secret is simply its bit
count.  Before use, both parties deterministically complete the transmitted
pad to ``n`` bits.

Construction, for a reduction bound ``k`` (valid while ``n >= k + 2**(k-1)``).
The sender draws one ``k``-bit coin ``t``; the coin alone picks the completed
pad's ``k``-bit tail:

* ``t < k``: the reserved tail ``P_(t+1)``, where ``P_i`` is the ``k``
  low-order bits of ``n - i``.  The sender transmits a fully random pad of
  length ``n - (t + 1)``; completion cuts a pad ``i`` bits short to its
  first ``n - k`` bits and appends ``P_i``.
* ``t >= k``: the ``(t - k)``-th (ascending) of the ``2**k - k`` tails that
  are not reserved.  The sender transmits ``n - k`` random bits and that
  tail; completion passes a full-length pad through unchanged.

Consecutive integers are distinct mod ``2**k``, so the coin -> tail map is a
bijection: a uniform coin gives a uniform tail, the completed pad is uniform
over all ``2**n`` values, and ciphertexts carry no information about the
message (Shannon 1949).  For ``k = 1`` it is a parity rule: append the low
bit of ``n - 1`` to a short pad, force a full-length pad's last bit to its
complement.  The map needs no rejection, so a pad draw always consumes the
same number of generator words.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .bitstring import BitString, _fitted, xor
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
        # A valid k has 2**(k-1) < n, so k <= n.bit_length(): a larger k is
        # refused before 2**(k-1), which may not fit in memory, is computed.
        least = (self.k + (1 << (self.k - 1))
                 if self.k <= self.n.bit_length() else None)
        if least is None or self.n < least:
            raise ValueError(
                f"message length {self.n} too short for k={self.k}; "
                f"need n >= k + 2**(k-1)" + (f" = {least}" if least else "")
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
    return BitString.from_int(_completed_tail(params.n, params.k, i - 1), params.k)


def allowed_tails(params: ReductionParams) -> Tuple[int, ...]:
    """The ``2**k - k`` non-reserved k-bit tail values, ascending."""
    n, k = params.n, params.k
    return tuple(_completed_tail(n, k, t) for t in range(k, 1 << k))


def _completed_tail(n: int, k: int, t: int) -> int:
    # The completed pad's k-bit tail for coin t (module docstring).  The
    # reserved tails n-k .. n-1 (mod 2**k) are one cyclic run of k values
    # starting at lo.  If the run wraps past 2**k - 1, the others are the one
    # interval wrap .. lo-1; otherwise they are 0 .. lo-1, then lo+k and up.
    mask = (1 << k) - 1
    if t < k:
        return (n - t - 1) & mask
    j = t - k
    lo = (n - k) & mask
    wrap = lo + k - (1 << k)
    if wrap > 0:
        return j + wrap
    return j + k if j >= lo else j


def generate_reduced_pad(params: ReductionParams, src: RandomSource) -> BitString:
    """Draw a transmitted pad under the length-reduction protocol; its
    length is the secret transmitted length."""
    # One k-bit coin decides both the pad length and the completed tail;
    # no rejection, constant draws per pad.
    n, k = params.n, params.k
    t = src.bits(k).value
    if t < k:
        return src.bits(n - (t + 1))
    head = src.bits(n - k).value
    return _fitted((head << k) | _completed_tail(n, k, t), n)


def completed_value(pad: BitString, params: ReductionParams) -> int:
    """The completion rule: the value of ``pad`` completed to ``n`` bits.

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
        return pad.value
    head = pad.value >> (length - (n - k))
    return (head << k) | _completed_tail(n, k, n - length - 1)


def effective_pad(pad: BitString, params: ReductionParams) -> BitString:
    """Complete a transmitted pad to the full ``n`` bits used for XOR, by
    :func:`completed_value`."""
    return _fitted(completed_value(pad, params), params.n)


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
