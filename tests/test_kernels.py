"""Kernel contracts: agreement with the library path at every k."""

import pytest

from otplab import _kernels
from otplab.bitstring import BitString, xor
from otplab.reduction import (
    ReductionParams,
    effective_pad,
    generate_reduced_pad,
)
from otplab.rng import RandomSource, derive_child_seed

GRID = [(10, 1), (10, 2), (10, 3), (12, 4), (8, 2)]
grid = pytest.mark.parametrize("n, k", GRID, ids=[f"n{n}k{k}" for n, k in GRID])


def test_selected_impl_is_sane():
    assert _kernels.available_impls() == (_kernels.IMPL_NAME,) == ("pure",)


class TestAgainstLibraryPath:
    """Kernels replicate the exact draws the library itself would make."""

    @grid
    def test_reduction_counts(self, n, k):
        seed, trials = 31337, 2000
        params = ReductionParams(n, k)
        expected = [0] * (k + 1)
        for t in range(trials):
            src = RandomSource(derive_child_seed(seed, t))
            expected[n - len(generate_reduced_pad(params, src))] += 1
        assert _kernels.reduction_length_counts(n, k, seed, trials) == expected

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
        hist0 = [0] * (1 << n)
        hist1 = [0] * (1 << n)
        for t in range(trials):
            src = RandomSource(derive_child_seed(seed, t))
            hist0[xor(m0, effective_pad(generate_reduced_pad(params, src),
                                        params)).value] += 1
            hist1[xor(m1, effective_pad(generate_reduced_pad(params, src),
                                        params)).value] += 1
        assert _kernels.distinguisher_counts(n, k, m0.value, m1.value, seed,
                                             trials) == (hist0, hist1)

    def test_census_against_formula(self):
        for n in (1, 4, 9, 14):
            counts = _kernels.census_counts(n)
            assert counts[0] == 1
            assert counts[1:] == [1 << (n - m - 1) for m in range(n)]


def test_kernel_validation():
    with pytest.raises(ValueError):
        _kernels.reduction_length_counts(10, 0, 1, 10)
    with pytest.raises(ValueError):
        _kernels.reduction_length_counts(10, 4, 1, 10)  # needs n >= 12
    with pytest.raises(ValueError):
        _kernels.eve_guess_correct(64, 1, 1, 10)
    with pytest.raises(ValueError):
        _kernels.distinguisher_counts(10, 4, 0, 1023, 1, 10)  # needs n >= 12
