"""Seeded, portable randomness.

The generator is pinned to SplitMix64 (Steele, Lea & Flood; Vigna's public
domain ``splitmix64.c``) and is never changed silently: identical seeds
produce identical bit streams on every platform, which is what makes every
simulation and golden test in this project reproducible.

This is a *deterministic* generator standing in for the perfect random
source the protocols assume.  It makes no cryptographic claim; see the
README for the consequences of that substitution.

Draw discipline (part of the pinned contract, mirrored by the pure-Python
:mod:`otplab._kernels`):

* ``bits(n)`` consumes exactly ``ceil(n / 64)`` generator words; the result
  is the concatenation of those words' bits MSB-first, truncated to the
  first ``n`` bits.  ``bits(0)`` consumes nothing.
* ``randbelow(n)`` draws ``(n - 1).bit_length()`` bits per attempt and
  rejects values >= n, so it is exactly uniform.  ``randbelow(1)`` consumes
  nothing.

A RandomSource is single-owner: concurrent draws from one source are
forbidden.  Parallel work derives independent child seeds instead, see
:func:`derive_child_seed`.
"""

from __future__ import annotations

from typing import Tuple

from .bitstring import BitString

MASK64 = (1 << 64) - 1

# SplitMix64 constants.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def splitmix64_next(state: int) -> Tuple[int, int]:
    """One SplitMix64 step: return ``(output_word, next_state)``."""
    state = (state + _GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31), state


def derive_child_seed(seed: int, index: int) -> int:
    """Seed for the ``index``-th independent child stream (index >= 0).

    Defined as ``seed XOR (0x9E3779B97F4A7C15 * (index + 1))`` truncated to
    64 bits.  Trial harnesses key every trial off its own child seed so that
    results are independent of execution order.
    """
    return (seed ^ ((_GAMMA * (index + 1)) & MASK64)) & MASK64


class RandomSource:
    """Deterministic 64-bit generator with bit-level draws.

    Two sources built from the same seed yield identical streams.  Not
    thread-safe; give each task its own source.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & MASK64

    def next_word(self) -> int:
        """Next raw 64-bit generator word."""
        word, self._state = splitmix64_next(self._state)
        return word

    def bits(self, n: int) -> BitString:
        """Draw ``n`` unbiased bits as a :class:`BitString`."""
        if n < 0:
            raise ValueError("bit count must be >= 0")
        if n == 0:
            return BitString.from_int(0, 0)
        if n <= 64:
            word, self._state = splitmix64_next(self._state)
            return BitString.from_int(word >> (64 - n), n)
        # Pack the words into one buffer and convert once: shifting a growing
        # integer per word would make the draw quadratic in n.
        nwords = (n + 63) // 64
        buf = bytearray()
        state = self._state
        for _ in range(nwords):
            word, state = splitmix64_next(state)
            buf += word.to_bytes(8, "big")
        self._state = state
        value = int.from_bytes(buf, "big") >> (64 * nwords - n)
        return BitString.from_int(value, n)

    def randbelow(self, n: int) -> int:
        """Exactly uniform integer in ``[0, n)`` via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow needs n >= 1")
        if n == 1:
            return 0
        nbits = (n - 1).bit_length()
        while True:
            v = self.bits(nbits).value
            if v < n:
                return v
