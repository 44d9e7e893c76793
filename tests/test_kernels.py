"""Kernel contracts: agreement with the library path at every k."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otplab import _kernels
from otplab.bitstring import BitString, xor
from otplab.reduction import (
    ReductionParams,
    effective_pad,
    generate_reduced_pad,
)
from otplab.rng import RandomSource, derive_child_seed, splitmix64_next

GRID = [(10, 1), (10, 2), (10, 3), (12, 4), (8, 2)]
grid = pytest.mark.parametrize("n, k", GRID, ids=[f"n{n}k{k}" for n, k in GRID])


def _library_ciphertexts(params, m0, m1, seed, trials):
    """``(c0, c1)`` per trial: both candidates encrypted on the library path,
    with the draw discipline the distinguisher kernel replays."""
    out = []
    for t in range(trials):
        src = RandomSource(derive_child_seed(seed, t))
        c0 = xor(m0, effective_pad(generate_reduced_pad(params, src), params))
        c1 = xor(m1, effective_pad(generate_reduced_pad(params, src), params))
        out.append((c0.value, c1.value))
    return out


def _library_savings(params, seed, trials):
    """Bits saved, ``n - len(pad)``, by the pad the library draws per trial."""
    return [params.n - len(generate_reduced_pad(
        params, RandomSource(derive_child_seed(seed, t)))) for t in range(trials)]


def _one_word_counts(k, seed, trials):
    """Reduction counts from the k-bit coin of each trial's first word; the
    reference for n too large to draw pads on the library path."""
    counts = [0] * (k + 1)
    for t in range(trials):
        coin = splitmix64_next(derive_child_seed(seed, t))[0] >> (64 - k)
        counts[coin + 1 if coin < k else 0] += 1
    return counts


def _histograms(n, ciphertexts):
    hist0 = [0] * (1 << n)
    hist1 = [0] * (1 << n)
    for c0, c1 in ciphertexts:
        hist0[c0] += 1
        hist1[c1] += 1
    return hist0, hist1


def test_selected_impl_is_sane():
    assert _kernels.available_impls() == (_kernels.IMPL_NAME,) == ("pure",)


class TestAgainstLibraryPath:
    """Kernels replicate the exact draws the library itself would make."""

    @grid
    def test_reduction_counts(self, n, k):
        saved = _library_savings(ReductionParams(n, k), 31337, 2000)
        expected = [saved.count(i) for i in range(k + 1)]
        assert _kernels.reduction_length_counts(n, k, 31337, 2000) == expected

    @grid
    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    def test_reduction_chunk_borders(self, n, k, seed):
        # Trial counts on both sides of one and two packed chunks.
        chunk = _kernels._CHUNK
        saved = _library_savings(ReductionParams(n, k), seed, 2 * chunk + 1)
        for trials in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            expected = [saved[:trials].count(i) for i in range(k + 1)]
            assert _kernels.reduction_length_counts(n, k, seed, trials) \
                == expected, trials

    @grid
    def test_eve(self, n, k):
        seed, trials = 4242, 1500
        params = ReductionParams(n, k)
        correct = 0
        for t in range(trials):
            src = RandomSource(derive_child_seed(seed, t))
            message = src.bits(n)
            pad = generate_reduced_pad(params, src)
            xor(message, effective_pad(pad, params))  # observed by Eve, unused
            guess = src.bits(k)
            tail = message[n - k:]
            correct += sum(1 for g, m in zip(guess, tail) if g == m)
        assert _kernels.eve_guess_correct(n, k, seed, trials) == correct

    @grid
    def test_distinguisher(self, n, k):
        seed, trials = 909, 1500
        params = ReductionParams(n, k)
        m0, m1 = BitString.zeros(n), BitString.ones(n)
        expected = _histograms(n, _library_ciphertexts(params, m0, m1, seed,
                                                        trials))
        assert _kernels.distinguisher_counts(n, k, m0.value, m1.value, seed,
                                             trials) == expected

    @grid
    @pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
    def test_distinguisher_chunk_borders(self, n, k, seed):
        # Trial counts on both sides of one and two packed chunks.
        chunk = _kernels._CHUNK
        rnd = random.Random(n * 100 + k)
        m0, m1 = rnd.sample(range(1 << n), 2)
        params = ReductionParams(n, k)
        ciphertexts = _library_ciphertexts(
            params, BitString.from_int(m0, n), BitString.from_int(m1, n), seed,
            2 * chunk + 1)
        for trials in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            assert _kernels.distinguisher_counts(n, k, m0, m1, seed, trials) \
                == _histograms(n, ciphertexts[:trials]), trials

    def test_census_against_formula(self):
        # The closed form against a count over every pad: a nonzero pad
        # saves its trailing zeros and the 1 before them, all-zeros nothing.
        for n in range(1, 15):
            counts = [0] * (n + 1)
            for v in range(1 << n):
                text = format(v, f"0{n}b")
                counts[n - len(text.rstrip("0")) + 1 if v else 0] += 1
            assert _kernels.census_counts(n) == counts


@pytest.mark.parametrize("seed", [-7, (1 << 70) + 3], ids=["minus7", "2^70+3"])
def test_kernels_read_a_seed_modulo_2_64(seed):
    # TrialConfig takes any integer seed; a kernel reads it as the library
    # path's derive_child_seed does.  The trials cross one chunk border.
    wrapped, trials = seed % (1 << 64), _kernels._CHUNK + 1
    assert _kernels.distinguisher_counts(4, 1, 0, 15, seed, trials) \
        == _kernels.distinguisher_counts(4, 1, 0, 15, wrapped, trials)
    assert _kernels.reduction_length_counts(12, 4, seed, trials) \
        == _kernels.reduction_length_counts(12, 4, wrapped, trials)
    assert _kernels.eve_guess_correct(10, 2, seed, trials) \
        == _kernels.eve_guess_correct(10, 2, wrapped, trials)


def test_kernel_validation():
    with pytest.raises(ValueError):
        _kernels.reduction_length_counts(10, 0, 1, 10)
    with pytest.raises(ValueError):
        _kernels.reduction_length_counts(10, 4, 1, 10)  # needs n >= 12
    with pytest.raises(ValueError, match="k <= 64"):  # a valid pair
        _kernels.reduction_length_counts((1 << 64) + 65, 65, 1, 10)
    with pytest.raises(ValueError):
        _kernels.eve_guess_correct(64, 1, 1, 10)
    with pytest.raises(ValueError):
        _kernels.distinguisher_counts(10, 4, 0, 1023, 1, 10)  # needs n >= 12


@pytest.mark.parametrize("n, k", [(1 << 40, 40), ((1 << 63) + 64, 64), (100, 6)],
                         ids=["n2^40k40", "n2^63+64k64", "n100k6"])
@pytest.mark.parametrize("seed", [0, (1 << 64) - 1])
def test_reduction_past_one_word(n, k, seed):
    # The kernel draws only the coin, so n has no limit and k reaches 64.
    chunk = _kernels._CHUNK
    for trials in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
        assert _kernels.reduction_length_counts(n, k, seed, trials) \
            == _one_word_counts(k, seed, trials), trials


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 64), st.integers(0, 100), st.integers(0, (1 << 64) - 1),
       st.integers(0, 3 * _kernels._CHUNK))
def test_reduction_matches_one_word_reference(k, extra, seed, trials):
    n = k + (1 << (k - 1)) + extra
    assert _kernels.reduction_length_counts(n, k, seed, trials) \
        == _one_word_counts(k, seed, trials)


PINNED_HISTOGRAMS = [
    (8, 1, 165, 252, 100_003,
     "afbaff5f9e2e281a352a83acab9bfe3615aa21eff44bdc68d79b1dc75b0cc2b8"),
    (12, 3, 2640, 4092, 50_001,
     "ff807af6a042eb8acbcb9b1ef52c6576c85689fdba7a732c938ee8fdc39d769e"),
    (12, 4, 2640, 4092, 70_001,
     "68944d5b7cf11f99b47fe720f7a47bac67923e66a37e6a194d81b9ff30e3e44c"),
    (10, 2, 660, 1020, 4_097,
     "eb79b53dc8590c6215373e241da877e3e7f704ca406433a77bb508eb8f24385e"),
]


@pytest.mark.parametrize("n, k, m0, m1, trials, digest", PINNED_HISTOGRAMS,
                         ids=[f"n{c[0]}k{c[1]}t{c[4]}" for c in PINNED_HISTOGRAMS])
def test_distinguisher_histograms_are_pinned(n, k, m0, m1, trials, digest):
    # Digests of repr((hist0, hist1)) taken from the scalar per-trial kernel.
    hists = _kernels.distinguisher_counts(n, k, m0, m1, 0x5EED2026, trials)
    assert hashlib.sha256(repr(hists).encode()).hexdigest() == digest


def test_distinguisher_memory_is_bounded():
    # Packed chunks keep the working set to a few chunk-sized integers.
    tracemalloc.start()
    try:
        _kernels.distinguisher_counts(8, 1, 0, 255, 2024, 200_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("n, k, trials", [(12, 4, 500_000), (1 << 40, 40, 100_000)],
                         ids=["n12k4", "n2^40k40"])
def test_reduction_memory_is_bounded(n, k, trials):
    # Coins are counted per chunk: at k = 40 nearly every coin is distinct,
    # and one Counter over all trials would hold one key per trial.
    tracemalloc.start()
    try:
        _kernels.reduction_length_counts(n, k, 2024, trials)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
