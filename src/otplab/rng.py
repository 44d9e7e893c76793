"""Seeded, portable randomness.

The generator is pinned to SplitMix64 (Steele, Lea & Flood; Vigna's public
domain ``splitmix64.c``) and is never changed silently: identical seeds
produce identical bit streams on every platform, which is what makes every
simulation and golden test in this project reproducible.

This is a *deterministic* generator standing in for the perfect random
source the protocols assume.  It makes no cryptographic claim; see the
README for the consequences of that substitution.

Draw discipline (part of the pinned contract, mirrored by
:mod:`otplab._kernels`):

* ``bits(n)`` consumes exactly ``ceil(n / 64)`` generator words; the result
  is the concatenation of those words' bits MSB-first, truncated to the
  first ``n`` bits.  ``bits(0)`` consumes nothing.
* ``randbelow(n)`` draws ``(n - 1).bit_length()`` bits per attempt and
  rejects values >= n, so it is exactly uniform.  ``randbelow(1)`` consumes
  nothing.
* ``randbelow_many(bounds)`` consumes exactly the words of one ``randbelow``
  per bound, in order.  Every bound is checked before the first draw.  It
  draws the words through ``bits`` in rounds of at most ``_CHUNK`` words,
  each within the words that one attempt per remaining bound owes.

A RandomSource is single-owner: concurrent draws from one source are
forbidden.  Parallel work derives independent child seeds instead, see
:func:`derive_child_seed`.

Packed lanes.  SplitMix64 is counter-based: from state ``s``, word ``j``
mixes ``s + (j + 1)*GAMMA``, and child seeds step by ``GAMMA`` too.
:func:`_lane_chunks` lays out up to ``_CHUNK = 2048`` such states in one
32 KiB ``int`` (larger chunks were no faster), for ``bits(n)`` with ``n > 64``
and the packed kernels alike: state ``i`` owns the low half of the 128-bit
lane ``i``, and :func:`_splitmix64_lanes` is a handful of adds, shifts, XORs
and ANDs over all lanes.  Two pitfalls:

* A right shift pulls the low bits of lane ``i + 1`` into the high half of
  lane ``i``, and a product fills it, so every multiply is preceded and
  followed by an AND with the lane mask.  A masked lane times a 64-bit
  constant is under ``2**128`` and never carries into the next lane.
* Multiply a packed int only by a 64-bit constant, which is linear in its
  size; a product of two packed ints would be a Karatsuba multiplication.
"""

from __future__ import annotations

import struct
import sys
from collections import Counter
from functools import cache
from typing import Iterable, Iterator, Tuple

from .bitstring import BitString, _fitted

MASK64 = (1 << 64) - 1

# SplitMix64 constants.
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_LANE_BYTES = 16  # one lane: a 64-bit word times a 64-bit constant fits
_CHUNK = 2048  # lanes per packed int, a power of two
_LOW_WORD = int(sys.byteorder == "big")  # which native word of a lane is low


def splitmix64_next(state: int) -> Tuple[int, int]:
    """One SplitMix64 step: return ``(output_word, next_state)``."""
    state = (state + _GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31), state


def _splitmix64_lanes(state: int, gamma: int, mask: int) -> Tuple[int, int]:
    """:func:`splitmix64_next` on every lane of ``state``; each output lane
    carries bits of the next lane above bit 64, for the caller to drop."""
    state = (state + gamma) & mask
    z = ((state ^ (state >> 30)) & mask) * _MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
    return z ^ (z >> 31), state


@cache  # built on first use, not at import
def _chunk_constants() -> Tuple[int, int, int, int]:
    ones, ramp, lanes = 1, 0, 1
    while lanes < _CHUNK:  # double: lane i + lanes gets i + lanes
        ramp |= (ramp + lanes * ones) << 128 * lanes
        ones |= ones << 128 * lanes
        lanes *= 2
    return ones, _GAMMA * ramp, MASK64 * ones, _GAMMA * ones


def _lane_chunks(count: int, base: int, seed: int = 0, *values: int) -> Iterator[tuple]:
    """Yields ``(i0, lanes, state, gamma, mask, *replicated)`` for each chunk
    of at most ``_CHUNK`` of ``count`` lanes: lane ``i`` of ``state`` holds
    ``(base + (i0 + i)*GAMMA) XOR seed`` in 64 bits, and each of ``values``
    comes back with a copy in every lane."""
    ones, ramp, mask, gamma = _chunk_constants()
    seeds = (seed & MASK64) * ones
    replicated = [v * ones for v in values]
    for i0 in range(0, count, _CHUNK):
        lanes = min(_CHUNK, count - i0)
        if lanes < _CHUNK:  # only the last chunk is short: drop its top lanes
            low = (1 << 128 * lanes) - 1
            ones, ramp, mask, gamma, seeds, *replicated = (
                c & low for c in (ones, ramp, mask, gamma, seeds, *replicated))
        state = (ramp + ((base + _GAMMA * i0) & MASK64) * ones) & mask
        yield (i0, lanes, state ^ seeds, gamma, mask, *replicated)


def _low_words(packed: int, lanes: int) -> memoryview:
    """The low 64-bit word of each of the ``lanes`` lanes of ``packed``."""
    words = memoryview(packed.to_bytes(_LANE_BYTES * lanes, sys.byteorder))
    return words.cast("Q")[_LOW_WORD::2]


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

    def bits(self, n: int) -> BitString:
        """Draw ``n`` unbiased bits as a :class:`BitString`."""
        if 0 < n <= 64:  # one word, whose top n bits fit in n bits
            word, self._state = splitmix64_next(self._state)
            return _fitted(word >> (64 - n), n)
        if n < 0:
            raise ValueError("bit count must be >= 0")
        # Packed lanes (module docstring) into one buffer converted once:
        # shifting a growing int per chunk would make the draw quadratic.
        nwords = (n + 63) // 64
        try:
            out = memoryview(bytearray(8 * nwords)).cast("Q")
        except MemoryError:
            raise ValueError(f"{n} random bits do not fit in memory") from None
        for w0, lanes, state, gamma, mask in _lane_chunks(nwords, self._state):
            words, _ = _splitmix64_lanes(state, gamma, mask)
            # Big-endian bytes end with lane 0's low word: every other 8-byte
            # word, read backwards, is the chunk's output in order.
            lows = memoryview(words.to_bytes(_LANE_BYTES * lanes, "big"))
            out[w0:w0 + lanes] = lows.cast("Q")[::-2]
        self._state = (self._state + _GAMMA * nwords) & MASK64
        value = int.from_bytes(out, "big") >> (64 * nwords - n)
        return BitString.from_int(value, n)

    def randbelow(self, n: int) -> int:
        """Exactly uniform integer in ``[0, n)`` via rejection sampling."""
        return next(self.randbelow_many((n,)))

    def randbelow_many(self, bounds: Iterable[int]) -> Iterator[int]:
        """Yield ``randbelow(n)`` for each ``n`` in ``bounds``, drawing the
        words of one call per bound as the module docstring says; a bound
        below 1 raises :class:`ValueError` before the first draw."""
        bounds = list(bounds)
        if min(bounds, default=1) < 1:
            raise ValueError("randbelow needs n >= 1")
        # Each distinct bound's attempt width, worked out once: the words one
        # attempt takes and the spare low bits it shifts out of them.  `owed`
        # is one attempt's words per bound not yet done; a round never draws
        # more.
        widths, owed = {}, 0
        for n, times in Counter(bounds).items():
            nbits = (n - 1).bit_length()
            need = (nbits + 63) // 64
            widths[n] = need, 64 * need - nbits
            owed += need * times
        # A bound of 1 takes no word: its attempt is 0, always accepted.
        words, i, have = [], 0, 0  # drawn words, the next unread one, their count
        for n in bounds:
            need, spare = widths[n]
            while True:
                if i + need > have:  # top up, keep the unread words
                    words, i = words[i:], 0
                    while need > len(words):
                        r = min(_CHUNK, owed - len(words))
                        raw = self.bits(64 * r).value.to_bytes(8 * r, "big")
                        words += struct.unpack(f">{r}Q", raw)
                    have = len(words)
                v = (words[i] if need == 1 else int.from_bytes(
                    struct.pack(f">{need}Q", *words[i:i + need]), "big")) >> spare
                i += need
                if v < n:
                    break
            owed -= need
            yield v
