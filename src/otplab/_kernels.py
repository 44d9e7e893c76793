"""Hot-loop kernels: Monte-Carlo trial loops and the closed-form codec census.

Each trial loop replays, word for word, the draw discipline documented in
:mod:`otplab.rng` and the pad construction in :mod:`otplab.reduction`, and
the test suite checks it against that library path.  Pads are handled as
raw integers (value of the bit string read MSB-first), and everything is
standard-library Python.

:mod:`otplab.reduction` owns the protocol rules: which ``(n, k)`` are valid,
and the one coin -> tail bijection that completes a pad.  The kernels take
them from there.
The eve and distinguisher kernels add one limit of their own, ``n <= 63``,
because each message and pad is cut from a single 64-bit generator word.  The
reduction kernel draws only the k-bit length coin, so n is free, but the coin
is cut from one word too: it needs ``k <= 64``.

Shared trial contract (one independent child stream per trial index):

* reduction trial: 1 word  -> k-bit length coin
* eve trial:       4 words -> message, pad coin, pad bits, Eve's guess
* distinguisher:   4 words -> two pads (coin + bits each)

The distinguisher and reduction kernels step ``_CHUNK`` trials at once in
the lanes of :func:`otplab.rng._lane_chunks` and count a small key from each
lane's low word with a ``Counter``: a reduction coin maps to its length
index, and the distinguisher's ``(head << k) | coin`` goes through one
``tail_of`` table of that bijection, as the coin alone picks the tail.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Tuple

from .reduction import ReductionParams, _completed_tail
from .rng import (_CHUNK, _GAMMA, _lane_chunks, _low_words, _splitmix64_lanes,
                  derive_child_seed, splitmix64_next)

IMPL_NAME = "pure"


def available_impls() -> tuple:
    """Names of the kernel implementations: this module is the only one."""
    return (IMPL_NAME,)


def _params(n: int, k: int) -> None:
    ReductionParams(n, k)
    if n > 63:
        raise ValueError(
            f"kernels cut each pad from one 64-bit word; need n <= 63, got n={n}"
        )


def census_counts(n: int) -> List[int]:
    """Bits-saved histogram of the trailing-zeros codec over all 2**n pads,
    in closed form: a pad ending in 1 and s - 1 zeros saves s bits, and only
    the all-zeros pad saves nothing."""
    return [1] + [1 << (n - s) for s in range(1, n + 1)]


def reduction_length_counts(n: int, k: int, seed: int, trials: int) -> List[int]:
    """Counts of transmitted length ``n - i`` for i = 0..k over the trials."""
    ReductionParams(n, k)
    if k > 64:
        raise ValueError(
            f"kernels cut the length coin from one 64-bit word; need k <= 64, "
            f"got k={k}"
        )
    counts = [0] * (k + 1)
    for _, lanes, state, gamma, mask in _lane_chunks(trials, _GAMMA, seed):
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
    _params(n, k)
    tail_of = [_completed_tail(n, k, t) for t in range(1 << k)]
    kmask = (1 << k) - 1
    keys0: Counter = Counter()
    keys1: Counter = Counter()
    chunks = _lane_chunks(trials, _GAMMA, seed, (1 << n) - 1 - kmask, kmask)
    for _, lanes, state, gamma, mask, head_mask, coin_mask in chunks:
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
