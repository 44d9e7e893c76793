"""Hot-loop kernels: the Monte-Carlo trial loops and the codec census.

Each function replays, word for word, the draw discipline documented in
:mod:`otplab.rng` and the pad construction in :mod:`otplab.reduction`, and
the test suite checks it against that library path.  Pads are handled as
raw integers (value of the bit string read MSB-first) so these loops stay
fast in pure Python.

:mod:`otplab.reduction` owns the protocol rules: which ``(n, k)`` are valid,
the reserved tails and the allowed tails.  The kernels take them from there.
The eve and distinguisher kernels add one limit of their own, ``n <= 63``,
because each message and pad is cut from a single 64-bit generator word; the
reduction kernel draws only the k-bit length coin and has no such limit.

Shared trial contract (one independent child stream per trial index):

* reduction trial: 1 word  -> k-bit length coin
* eve trial:       4 words -> message, pad coin, pad bits, Eve's guess
* distinguisher:   4 words -> two pads (coin + bits each)

The distinguisher completes a pad from one table: whatever the coin, the
head is the first ``n - k`` bits of the pad word, and the coin alone picks
the k-bit tail (``P_(coin+1)`` for a short pad, else an allowed tail).
"""

from __future__ import annotations

from typing import List, Tuple

from .reduction import ReductionParams, allowed_tails, reserved_pattern
from .rng import derive_child_seed, splitmix64_next

IMPL_NAME = "pure"


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
    counts = [0] * (k + 1)
    for t in range(trials):
        w, _ = splitmix64_next(derive_child_seed(seed, t))
        coin = w >> (64 - k)
        counts[coin + 1 if coin < k else 0] += 1
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
    head_shift = 64 - (n - k)
    coin_shift = 64 - k
    hist0 = [0] * (1 << n)
    hist1 = [0] * (1 << n)
    for t in range(trials):
        state = derive_child_seed(seed, t)
        coin0, state = splitmix64_next(state)
        bits0, state = splitmix64_next(state)
        coin1, state = splitmix64_next(state)
        bits1, state = splitmix64_next(state)
        pad0 = ((bits0 >> head_shift) << k) | tail_of[coin0 >> coin_shift]
        pad1 = ((bits1 >> head_shift) << k) | tail_of[coin1 >> coin_shift]
        hist0[m0 ^ pad0] += 1
        hist1[m1 ^ pad1] += 1
    return hist0, hist1
