"""Hot-loop kernels: the Monte-Carlo trial loops and the codec census.

Each function replays, word for word, the draw discipline documented in
:mod:`otplab.rng` and the pad construction in :mod:`otplab.reduction`, and
the test suite checks it against that library path.  Pads are handled as
raw integers (value of the bit string read MSB-first), and everything is
standard-library Python.

:mod:`otplab.reduction` owns the protocol rules: which ``(n, k)`` are valid,
the reserved tails and the allowed tails.  The kernels take them from there.
The eve and distinguisher kernels add one limit of their own, ``n <= 63``,
because each message and pad is cut from a single 64-bit generator word.  The
reduction kernel draws only the k-bit length coin, so n is free, but the coin
is cut from one word too: it needs ``k <= 64``.

Shared trial contract (one independent child stream per trial index):

* reduction trial: 1 word  -> k-bit length coin
* eve trial:       4 words -> message, pad coin, pad bits, Eve's guess
* distinguisher:   4 words -> two pads (coin + bits each)

The distinguisher completes a pad from one table: whatever the coin, the
head is the first ``n - k`` bits of the pad word, and the coin alone picks
the k-bit tail (``P_(coin+1)`` for a short pad, else an allowed tail).

Packed lanes (distinguisher and reduction).  These kernels run many trials at
once in one Python ``int``: trial ``t0 + i`` owns the 128-bit lane ``i`` (bits
``128*i .. 128*i + 127``), its 64-bit SplitMix64 state in the low half.
With ``ones`` holding 1 in every lane and ``ramp`` holding ``i`` in lane
``i``, the child seeds of a chunk are
``((ramp*GAMMA + ((GAMMA*(t0+1)) mod 2**64)*ones) & mask) ^ seed*ones``, and
each SplitMix64 step is a handful of adds, shifts, XORs and ANDs over all
lanes.  Two pitfalls:

* A right shift pulls the low bits of lane ``i + 1`` into the high half of
  lane ``i``, and a product fills it, so every multiply is preceded and
  followed by an AND with the lane mask.  A masked lane times a 64-bit
  constant is under ``2**128`` and never carries into the next lane.
* Multiply a packed int only by a 64-bit constant, which is linear in its
  size; a product of two packed ints would be a Karatsuba multiplication.

``_lane_chunks`` builds these lane constants and the seeds of every chunk
for both packed kernels.

Neither kernel finishes a trial in the lanes; each histograms a small key
read from the low word of every lane (through a ``memoryview``) with a
``Counter`` and maps each distinct key once:

* distinguisher: the n-bit key ``(head << k) | coin``, at most ``2**n`` of
  them over the whole run, goes through the ``tail_of`` table at the end.
  The coin select thus costs nothing per trial, and the completion rule
  lives in one place.
* reduction: the k-bit coin ``(w & mask) >> (64 - k)`` (masking first drops
  the next lane's bits) maps to its length index.  Each chunk's ``Counter``
  is folded into the counts at once, so for k up to 64 at most 2048 coins
  are held: at k = 40 nearly every coin is distinct, and one ``Counter``
  over the run would hold a key per trial (10.5 MiB at 100,000 trials).

A chunk is ``_CHUNK = 2048`` lanes, a 32 KiB int.  The working set is a
few such ints and stays under 1 MiB (0.62 MiB peak under ``tracemalloc`` at
n = 8 and 200,000 distinguisher trials, 0.44 MiB at (12, 4) and 500,000
reduction trials).  32768-lane chunks peaked at 8.5 MiB, grew the process
by 11 MiB more over 1M trials, and were no faster.

``eve_guess_correct`` stays a scalar per-trial loop.  A packed eve kernel
built on ``_lane_chunks`` matched it and ran 200,000 trials 6 to 20 times
faster, but with all three kernels packed the ``_kernels`` share of the
traced ``verify`` time was 35.3 %, 35.6 %, 38.6 % and 43.4 % in four runs,
under the 50 % that ``perfbench/tracer.py`` requires of a kernel-bound
workload (``KERNEL_SHARE``).  That check must change first (ROADMAP
item 1).
"""

from __future__ import annotations

import sys
from collections import Counter
from typing import Iterator, List, Tuple

from .reduction import ReductionParams, allowed_tails, reserved_pattern
from .rng import MASK64, _GAMMA, _MIX1, _MIX2, derive_child_seed, splitmix64_next

IMPL_NAME = "pure"

_LANE_BYTES = 16  # one lane: a 64-bit word times a 64-bit constant fits
_ONE_LANE = (1).to_bytes(_LANE_BYTES, "little")
_CHUNK = 2048  # lanes per packed int; see the module docstring
# Index of a lane's low 64-bit word among the native words of its bytes.
_LOW_WORD = 0 if sys.byteorder == "little" else 1


def available_impls() -> tuple:
    """Names of the kernel implementations: this module is the only one."""
    return (IMPL_NAME,)


def _params(n: int, k: int) -> ReductionParams:
    params = ReductionParams(n, k)
    if n > 63:
        raise ValueError(
            f"kernels cut each pad from one 64-bit word; need n <= 63, got n={n}"
        )
    return params


def _splitmix64_lanes(state: int, gamma: int, mask: int) -> Tuple[int, int]:
    """:func:`~otplab.rng.splitmix64_next` on every lane of ``state``.

    Lanes of the output word carry bits of the next lane above bit 64; the
    caller masks them off.
    """
    state = (state + gamma) & mask
    z = ((state ^ (state >> 30)) & mask) * _MIX1 & mask
    z = ((z ^ (z >> 27)) & mask) * _MIX2 & mask
    return z ^ (z >> 31), state


def _lane_chunks(seed: int, trials: int, *values: int) -> Iterator[tuple]:
    """Trials ``0 .. trials - 1`` in packed chunks of at most ``_CHUNK`` lanes.

    Yields ``(lanes, state, gamma, mask, *replicated)`` per chunk: lane ``i``
    of ``state`` holds ``derive_child_seed(seed, t0 + i)``, ``gamma`` and
    ``mask`` hold the SplitMix64 increment and ``MASK64`` in every lane, and
    each of ``values`` comes back with a copy in every lane.  The lane
    constants are built for the first chunk and rebuilt for a short last one.
    """
    seed &= MASK64
    lanes = 0
    for t0 in range(0, trials, _CHUNK):
        if lanes != min(_CHUNK, trials - t0):
            lanes = min(_CHUNK, trials - t0)
            ones = int.from_bytes(_ONE_LANE * lanes, "little")
            ramp_gamma = _GAMMA * int.from_bytes(
                b"".join(i.to_bytes(_LANE_BYTES, "little") for i in range(lanes)),
                "little",
            )
            mask = MASK64 * ones
            gamma = _GAMMA * ones
            seeds = seed * ones
            replicated = [v * ones for v in values]
        state = (ramp_gamma + ((_GAMMA * (t0 + 1)) & MASK64) * ones) & mask
        yield (lanes, state ^ seeds, gamma, mask, *replicated)


def _low_words(packed: int, lanes: int) -> memoryview:
    """The low 64-bit word of each of the ``lanes`` lanes of ``packed``."""
    words = memoryview(packed.to_bytes(_LANE_BYTES * lanes, sys.byteorder))
    return words.cast("Q")[_LOW_WORD::2]


def census_counts(n: int) -> List[int]:
    """Bits-saved histogram of the trailing-zeros codec over all 2**n pads."""
    counts = [0] * (n + 1)
    counts[0] = 1  # the all-zeros pad is the only one that saves nothing
    for v in range(1, 1 << n):
        counts[(v & -v).bit_length()] += 1
    return counts


def reduction_length_counts(n: int, k: int, seed: int, trials: int) -> List[int]:
    """Counts of transmitted length ``n - i`` for i = 0..k over the trials."""
    ReductionParams(n, k)
    if k > 64:
        raise ValueError(
            f"kernels cut the length coin from one 64-bit word; need k <= 64, "
            f"got k={k}"
        )
    counts = [0] * (k + 1)
    for lanes, state, gamma, mask in _lane_chunks(seed, trials):
        w, _ = _splitmix64_lanes(state, gamma, mask)
        # Masking first drops the next lane's bits, so the shift leaves only
        # the k-bit coin in each lane's low word.
        coins = Counter(_low_words((w & mask) >> (64 - k), lanes))
        for coin, count in coins.items():
            counts[coin + 1 if coin < k else 0] += count
    return counts


def eve_guess_correct(n: int, k: int, seed: int, trials: int) -> int:
    """Correct guesses (out of trials*k) by an eavesdropper guessing the
    last k message bits uniformly after seeing the ciphertext."""
    _params(n, k)
    kmask = (1 << k) - 1
    correct = 0
    for t in range(trials):
        state = derive_child_seed(seed, t)
        w, state = splitmix64_next(state)  # message
        message = w >> (64 - n)
        _, state = splitmix64_next(state)  # pad coin (ciphertext is drawn
        _, state = splitmix64_next(state)  # pad bits  but does not inform
        w, state = splitmix64_next(state)  # Eve's guess  a uniform guess)
        guess = w >> (64 - k)
        correct += k - bin((guess ^ message) & kmask).count("1")
    return correct


def distinguisher_counts(
    n: int, k: int, m0: int, m1: int, seed: int, trials: int
) -> Tuple[List[int], List[int]]:
    """Ciphertext histograms for the two candidate messages."""
    params = _params(n, k)
    # Completed tail by coin: a permutation of the 2**k tails.
    tail_of = [reserved_pattern(params, i).value for i in range(1, k + 1)]
    tail_of += allowed_tails(params)
    kmask = (1 << k) - 1
    keys0: Counter = Counter()
    keys1: Counter = Counter()
    chunks = _lane_chunks(seed, trials, (1 << n) - 1 - kmask, kmask)
    for lanes, state, gamma, mask, head_mask, coin_mask in chunks:
        for keys in (keys0, keys1):
            coin, state = _splitmix64_lanes(state, gamma, mask)
            bits, state = _splitmix64_lanes(state, gamma, mask)
            # (head << k) | coin: the first n - k pad bits, then the coin.
            key = ((bits >> (64 - n)) & head_mask) | ((coin >> (64 - k)) & coin_mask)
            keys.update(_low_words(key, lanes))
    hist0 = [0] * (1 << n)
    hist1 = [0] * (1 << n)
    for m, keys, hist in ((m0, keys0, hist0), (m1, keys1, hist1)):
        for key, count in keys.items():
            hist[m ^ ((key >> k) << k | tail_of[key & kmask])] += count
    return hist0, hist1
