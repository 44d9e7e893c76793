"""Length-aware pad compression.

When every message is known to be exactly ``n`` bits, a transmitted n-bit
pad can be shortened: delete the trailing run of zeros together with the
``1`` that precedes it (a pad ending in ``1`` just loses that bit).  The
receiver, knowing ``n``, restores the missing ``1`` and zeros.  Only the
all-zeros pad is ever sent unshortened, so this is not a memoryless
compressor and the usual counting argument does not apply: the shared
knowledge of ``n`` is the memory.
"""

from __future__ import annotations

from typing import Dict

from ._kernels import census_counts
from .bitstring import BitString


class CorruptPadError(ValueError):
    """A received compressed pad cannot have come from the compressor."""


def compress_pad(p: BitString) -> BitString:
    """Drop the trailing zeros and the ``1`` before them; all-zeros passes through."""
    if p.length < 1:
        raise ValueError("cannot compress an empty pad")
    # Trailing zeros of the written form = low-order zero bits of the value;
    # the all-zeros pad has none set, so it drops nothing.
    drop = (p.value & -p.value).bit_length()  # trailing zeros + 1
    return BitString.from_int(p.value >> drop, p.length - drop)


def decompress_pad(c: BitString, n: int) -> BitString:
    """Restore a compressed pad to ``n`` bits: append ``1`` then zeros.

    A full-length input must be all zeros; the compressor emits nothing else
    at full length, so any 1-bit there signals corruption.
    """
    if n < 1:
        raise ValueError(f"message length must be >= 1, got {n}")
    if c.length > n:
        raise CorruptPadError(
            f"compressed pad has {c.length} bits, longer than message length {n}"
        )
    j = n - c.length
    if j == 0:
        if c.value != 0:
            raise CorruptPadError(
                "full-length compressed pad contains a 1; "
                "only the all-zeros pad is transmitted uncompressed"
            )
        return c
    return BitString.from_int((c.value << j) | (1 << (j - 1)), n)


def codec_census(n: int) -> Dict[int, int]:
    """Saved-bit histogram over all ``2**n`` pads (n <= 20).

    Maps bits-saved to the number of n-bit pads achieving that saving, from
    the closed form :func:`otplab._kernels.census_counts`.
    """
    if not 1 <= n <= 20:
        raise ValueError("census n must be in 1..20")
    return dict(enumerate(census_counts(n)))
