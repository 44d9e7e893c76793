from fractions import Fraction

import pytest

from otplab.analysis import (
    MAX_TRIALS,
    TrialConfig,
    _count_outcomes,
    distinguisher_test,
    eve_guess_rate,
    exhaustive_secrecy_check,
    reduction_stats,
)
from otplab.bitstring import BitString
from otplab.padfile import PadFormatError
from otplab.reduction import (
    ReductionParams,
    effective_pad,
    generate_reduced_pad,
    max_k,
)

from conftest import (
    clamped_tail_mutant,
    coin_head_mutant,
    last_bits_completion_mutant,
    reserved_tail_mutant,
    wrapped_tail_mutant,
)


def biased_generator(params, src):
    """Pad generator with no randomness at all; trivially distinguishable."""
    src.bits(params.k)
    src.bits(params.n - params.k)
    return BitString.zeros(params.n)


# --- exact mode -----------------------------------------------------------


def _valid_small_params():
    for n in range(2, 5):
        for k in range(1, max_k(n) + 1):
            yield ReductionParams(n, k)


@pytest.mark.parametrize("params", list(_valid_small_params()),
                         ids=lambda p: f"n{p.n}k{p.k}")
def test_exact_uniformity(params):
    report = exhaustive_secrecy_check(params)
    assert report.passed
    assert report.mode == "exact"
    assert report.deviation == 0
    assert report.threshold == 0
    uniform = Fraction(1, 1 << params.n)
    assert set(report.probabilities) == set(range(1 << params.n))
    assert all(p == uniform for p in report.probabilities.values())


def test_exact_mode_admits_no_tolerance():
    report = exhaustive_secrecy_check(ReductionParams(3, 1))
    assert isinstance(report.deviation, Fraction)
    assert sum(report.probabilities.values()) == 1


def test_exact_ciphertext_distribution_is_message_independent():
    # Uniform completed pad means the ciphertext of any fixed message is
    # uniform too; check the XOR corollary directly for one message.
    params = ReductionParams(4, 2)
    report = exhaustive_secrecy_check(params)
    m = 0b1010
    cipher_probs = {}
    for pad_value, prob in report.probabilities.items():
        cipher_probs[pad_value ^ m] = cipher_probs.get(pad_value ^ m, 0) + prob
    assert all(p == Fraction(1, 16) for p in cipher_probs.values())


def test_exact_tail_marginal_at_protocol_scale():
    # Full enumeration of a 10-bit pad is out of reach, but the k-bit tail
    # marginal of the completed pad can still be enumerated exactly: every
    # 2-bit tail must carry probability exactly 1/4.
    params = ReductionParams(10, 2)

    def run(src):
        return effective_pad(generate_reduced_pad(params, src), params).value & 0b11

    counts, width = _count_outcomes(run)
    dist = {tail: Fraction(c, 1 << width) for tail, c in counts.items()}
    assert dist == {tail: Fraction(1, 4) for tail in range(4)}


def test_exact_enumeration_of_an_adaptive_draw_sequence():
    # The width of the second draw depends on the first: one more bit after
    # a 1, three after a 0.
    def run(src):
        first = src.bits(1)
        return first.to01() + src.bits(1 if first.value else 3).to01()

    counts, width = _count_outcomes(run)
    dist = {result: Fraction(c, 1 << width) for result, c in counts.items()}
    assert dist == {**{f"1{b}": Fraction(1, 4) for b in "01"},
                    **{f"0{v:03b}": Fraction(1, 16) for v in range(8)}}


def test_exact_enumeration_of_a_run_without_draws():
    assert _count_outcomes(lambda src: "constant") == ({"constant": 1}, 0)


def test_exact_check_refuses_a_generator_past_the_bit_budget():
    def greedy_generator(params, src):
        src.bits(21)
        return generate_reduced_pad(params, src)

    with pytest.raises(ValueError, match="draws too many bits"):
        exhaustive_secrecy_check(ReductionParams(2, 1), generator=greedy_generator)


def test_mutated_protocol_fails_exact_check():
    report = exhaustive_secrecy_check(ReductionParams(3, 1),
                                      generator=reserved_tail_mutant)
    assert not report.passed
    assert report.deviation > 0


# Exact deviation of each mutant at the grid points where it fails; it must
# pass everywhere else.
MUTANT_FAILURES = [
    (clamped_tail_mutant, {(4, 2): Fraction(1, 16)}),
    (coin_head_mutant, {(2, 1): Fraction(1, 4), (3, 1): Fraction(3, 8),
                        (4, 1): Fraction(7, 16), (4, 2): Fraction(3, 16)}),
    (wrapped_tail_mutant, {}),
]


@pytest.mark.parametrize("params", list(_valid_small_params()),
                         ids=lambda p: f"n{p.n}k{p.k}")
@pytest.mark.parametrize("mutant, failures", MUTANT_FAILURES,
                         ids=[m.__name__ for m, _ in MUTANT_FAILURES])
def test_mutant_exact_verdicts(mutant, failures, params):
    report = exhaustive_secrecy_check(params, generator=mutant)
    deviation = failures.get((params.n, params.k), Fraction(0))
    assert (report.passed, report.deviation) == (deviation == 0, deviation)


@pytest.mark.parametrize("params", list(_valid_small_params()),
                         ids=lambda p: f"n{p.n}k{p.k}")
def test_completion_from_last_bits_is_an_equivalent_mutant(monkeypatch, params):
    monkeypatch.setattr("otplab.analysis.completed_value",
                        last_bits_completion_mutant)
    report = exhaustive_secrecy_check(params)
    assert (report.passed, report.deviation) == (True, 0)


def test_exact_check_rejects_large_n():
    with pytest.raises(ValueError):
        exhaustive_secrecy_check(ReductionParams(5, 1))


def test_exact_report_lines():
    lines = exhaustive_secrecy_check(ReductionParams(2, 1)).to_lines()
    assert "mode=exact" in lines
    assert "result=PASS" in lines
    assert "p[00]=1/4" in lines
    assert "max_deviation=0" in lines


# --- trial configuration --------------------------------------------------


def test_trial_config_validation():
    params = ReductionParams(8, 1)
    TrialConfig(params=params, trials=10, seed=1)
    with pytest.raises(ValueError):
        TrialConfig(params=params, trials=0, seed=1)
    with pytest.raises(ValueError):
        TrialConfig(params=params, trials=10, seed=1, m0=BitString.zeros(8))
    with pytest.raises(ValueError):
        TrialConfig(params=params, trials=10, seed=1,
                    m0=BitString.zeros(8), m1=BitString.zeros(8))
    with pytest.raises(ValueError):
        TrialConfig(params=params, trials=10, seed=1,
                    m0=BitString.zeros(7), m1=BitString.ones(8))


def test_trial_config_caps_trials():
    params = ReductionParams(8, 1)
    assert TrialConfig(params=params, trials=10**9, seed=1).trials == MAX_TRIALS
    with pytest.raises(ValueError, match=f"^trials must be <= {MAX_TRIALS}$"):
        TrialConfig(params=params, trials=10**9 + 1, seed=1)
    with pytest.raises(ValueError, match="^trials must be >= 1$"):
        TrialConfig(params=params, trials=0, seed=1)


# --- eavesdropper guessing -------------------------------------------------


def test_eve_guess_rate_half():
    for n, k in [(10, 1), (10, 3)]:
        cfg = TrialConfig(params=ReductionParams(n, k), trials=100_000, seed=2024)
        assert abs(eve_guess_rate(cfg) - 0.5) < 0.01


def test_eve_single_trial_is_zero_or_one():
    cfg = TrialConfig(params=ReductionParams(10, 1), trials=1, seed=5)
    assert eve_guess_rate(cfg) in (0.0, 1.0)


def test_eve_rate_reproducible():
    cfg = TrialConfig(params=ReductionParams(10, 2), trials=5000, seed=321)
    assert eve_guess_rate(cfg) == eve_guess_rate(cfg)


# --- distinguisher ----------------------------------------------------------


def _dist_cfg(trials, seed=2024, n=8, k=1):
    return TrialConfig(
        params=ReductionParams(n, k),
        trials=trials,
        seed=seed,
        m0=BitString.zeros(n),
        m1=BitString.ones(n),
    )


def test_distinguisher_passes_for_real_protocol():
    report = distinguisher_test(_dist_cfg(200_000))
    assert report.mode == "statistical"
    assert report.passed
    assert float(report.deviation) < report.threshold
    h0, h1 = report.counts
    assert sum(h0) == sum(h1) == 200_000


def test_distinguisher_threshold_formula():
    report = distinguisher_test(_dist_cfg(4096))
    assert report.threshold == pytest.approx(3.0 * (256 / 4096) ** 0.5)


def test_distinguisher_requires_messages():
    cfg = TrialConfig(params=ReductionParams(8, 1), trials=10, seed=1)
    with pytest.raises(ValueError):
        distinguisher_test(cfg)


def test_distinguisher_rejects_large_n():
    params = ReductionParams(13, 1)
    cfg = TrialConfig(params=params, trials=10, seed=1,
                      m0=BitString.zeros(13), m1=BitString.ones(13))
    with pytest.raises(ValueError):
        distinguisher_test(cfg)


def test_biased_generator_fails_distinguisher():
    report = distinguisher_test(_dist_cfg(4096), generator=biased_generator)
    assert not report.passed
    assert float(report.deviation) == 1.0


@pytest.mark.parametrize("length", [7, 11])  # n - k - 1 and n + 1
def test_library_path_rejects_a_pad_outside_the_length_range(length):
    cfg = _dist_cfg(5, n=10, k=2)

    def generator(params, src):
        return src.bits(length)

    with pytest.raises(PadFormatError, match=rf"^pad length {length} "
                       r"incompatible with n=10, k=2 \(expected 8\.\.10\)$"):
        distinguisher_test(cfg, generator=generator)


def test_generator_override_path_matches_kernel_path():
    cfg = _dist_cfg(3000, seed=77, n=8, k=2)
    via_kernel = distinguisher_test(cfg)
    via_library = distinguisher_test(cfg, generator=generate_reduced_pad)
    assert via_kernel.counts == via_library.counts
    assert via_kernel.deviation == via_library.deviation


def test_statistical_report_lines():
    lines = distinguisher_test(_dist_cfg(4096)).to_lines()
    assert "mode=statistical" in lines
    assert any(line.startswith("tv_distance=") for line in lines)
    assert any(line.startswith("threshold=") for line in lines)


# --- reduction statistics ---------------------------------------------------


def test_reduction_stats_match_expected_means():
    for n, k, expected in [(10, 1, 0.5), (10, 2, 0.75), (10, 3, 0.75),
                           (12, 4, 0.625)]:
        cfg = TrialConfig(params=ReductionParams(n, k), trials=100_000,
                          seed=2024)
        stats = reduction_stats(cfg)
        assert abs(float(stats.mean_saving) - expected) < 0.01
        assert stats.expected_saving == Fraction(k * (k + 1), 1 << (k + 1))


def test_reduction_stats_frequencies():
    cfg = TrialConfig(params=ReductionParams(10, 2), trials=100_000, seed=2024)
    stats = reduction_stats(cfg)
    assert abs(stats.frequency(10) - 0.5) < 0.01
    assert abs(stats.frequency(9) - 0.25) < 0.01
    assert abs(stats.frequency(8) - 0.25) < 0.01
    assert sum(stats.length_counts.values()) == 100_000


def test_reduction_single_bit_frequency():
    cfg = TrialConfig(params=ReductionParams(10, 1), trials=100_000, seed=2024)
    stats = reduction_stats(cfg)
    assert abs(stats.frequency(9) - 0.5) < 0.005


def test_reduction_stats_exact_mean_type():
    cfg = TrialConfig(params=ReductionParams(10, 2), trials=1000, seed=9)
    stats = reduction_stats(cfg)
    assert isinstance(stats.mean_saving, Fraction)
    lines = stats.to_lines()
    assert "check=reduction" in lines
    assert any(line.startswith("freq[10]=") for line in lines)


def test_reduction_stats_reproducible():
    cfg = TrialConfig(params=ReductionParams(10, 3), trials=2000, seed=123)
    assert reduction_stats(cfg) == reduction_stats(cfg)
