"""Secrecy and reduction verification: exact at tiny sizes, statistical at scale.

The exact checker enumerates *every* outcome of the pad-generation process
(each coin value, each random bit) with exact rational probabilities and
demands that the completed pad be uniform as a rational identity, zero
tolerance.  Uniformity of the completed pad makes the ciphertext
distribution message-independent, which is the whole secrecy claim.

The statistical harness replays the same protocol at scale.  Every trial is
keyed off its own child seed (see :func:`otplab.rng.derive_child_seed`), so
results depend only on ``(seed, trial_index)``: chunks of a run can execute
in any order, or in parallel, and merge into the identical report.

Thresholds are carried inside the reports rather than buried in test code,
so a failing check can be read directly off its output.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from . import _kernels
from .bitstring import BitString
from .reduction import (
    ReductionParams,
    effective_pad,
    expected_reduction,
    generate_reduced_pad,
)
from .rng import RandomSource, derive_child_seed

# Draws one transmitted pad; its length is the secret transmitted length.
PadGenerator = Callable[[ReductionParams, RandomSource], BitString]


@dataclass(frozen=True)
class TrialConfig:
    """Configuration of a statistical run.

    ``m0``/``m1`` are the candidate messages for distinguishing tests; the
    other checks ignore them.
    """

    params: ReductionParams
    trials: int
    seed: int
    m0: Optional[BitString] = None
    m1: Optional[BitString] = None

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if (self.m0 is None) != (self.m1 is None):
            raise ValueError("m0 and m1 must be supplied together")
        if self.m0 is not None and self.m1 is not None:
            n = self.params.n
            if self.m0.length != n or self.m1.length != n:
                raise ValueError(f"m0 and m1 must both be {n} bits")
            if self.m0 == self.m1:
                raise ValueError("m0 and m1 must differ")


@dataclass(frozen=True)
class SecrecyReport:
    """Outcome of a secrecy check, exact or statistical."""

    mode: str  # "exact" | "statistical"
    n: int
    k: int
    passed: bool
    deviation: object  # Fraction in exact mode, float in statistical mode
    threshold: object
    trials: Optional[int] = None
    probabilities: Optional[Dict[int, Fraction]] = None
    counts: Optional[Tuple[List[int], List[int]]] = None

    def to_lines(self) -> List[str]:
        """Machine-readable key=value block; exact probabilities as fractions."""
        lines = [
            f"mode={self.mode}",
            f"n={self.n}",
            f"k={self.k}",
        ]
        if self.trials is not None:
            lines.append(f"trials={self.trials}")
        if self.mode == "exact":
            lines.append(f"max_deviation={self.deviation}")
            lines.append(f"threshold={self.threshold}")
        else:
            lines.append(f"tv_distance={float(self.deviation):.6f}")
            lines.append(f"threshold={float(self.threshold):.6f}")
        lines.append(f"result={'PASS' if self.passed else 'FAIL'}")
        if self.probabilities is not None:
            width = self.n
            for value in sorted(self.probabilities):
                prob = self.probabilities[value]
                lines.append(f"p[{value:0{width}b}]={prob}")
        return lines

    def __str__(self) -> str:
        return "\n".join(self.to_lines())


class _NeedBits(Exception):
    def __init__(self, width: int) -> None:
        self.width = width


class _TapeSource:
    """Feeds a generator a planned sequence of draws.

    Quacks like :class:`RandomSource` for code that only calls ``bits``;
    raising :class:`_NeedBits` tells the enumerator to branch on a fresh
    draw of the requested width.
    """

    def __init__(self, tape: Tuple[Tuple[int, int], ...]) -> None:
        self._tape = tape
        self._pos = 0

    def bits(self, n: int) -> BitString:
        if n == 0:
            return BitString.from_int(0, 0)
        if self._pos == len(self._tape):
            raise _NeedBits(n)
        width, value = self._tape[self._pos]
        if width != n:
            raise RuntimeError(
                "draw widths must be a deterministic function of prior draws"
            )
        self._pos += 1
        return BitString.from_int(value, n)


def _enumerate_outcomes(run, max_total_bits: int = 20):
    """Yield ``(probability, result)`` over every random outcome of ``run``.

    ``run`` takes a source and may only draw through ``bits``; the draw tree
    is explored exhaustively, each leaf weighted ``2**-(bits consumed)``.
    """
    stack = [()]
    while stack:
        tape = stack.pop()
        src = _TapeSource(tape)
        try:
            result = run(src)
        except _NeedBits as need:
            used = sum(width for width, _ in tape)
            if used + need.width > max_total_bits:
                raise ValueError(
                    "generator draws too many bits for exact enumeration"
                ) from None
            stack.extend(
                tape + ((need.width, value),) for value in range(1 << need.width)
            )
            continue
        if src._pos != len(tape):
            raise RuntimeError(
                "generator consumed fewer draws than on an earlier replay"
            )
        consumed = sum(width for width, _ in tape)
        yield Fraction(1, 1 << consumed), result


def exhaustive_secrecy_check(
    params: ReductionParams, generator: Optional[PadGenerator] = None
) -> SecrecyReport:
    """Exact distribution of the completed pad; PASS iff exactly uniform.

    Limited to n <= 4 where the full outcome space is enumerable.  A custom
    ``generator`` can be substituted to demonstrate that broken protocols
    fail the check.
    """
    if params.n > 4:
        raise ValueError("exact enumeration is limited to n <= 4")
    gen = generator if generator is not None else generate_reduced_pad

    def run(src) -> int:
        return effective_pad(gen(params, src), params).value

    dist: Dict[int, Fraction] = defaultdict(lambda: Fraction(0))
    for prob, value in _enumerate_outcomes(run):
        dist[value] += prob
    uniform = Fraction(1, 1 << params.n)
    deviation = max(
        abs(dist.get(value, Fraction(0)) - uniform)
        for value in range(1 << params.n)
    )
    return SecrecyReport(
        mode="exact",
        n=params.n,
        k=params.k,
        passed=deviation == 0,
        deviation=deviation,
        threshold=Fraction(0),
        probabilities=dict(dist),
    )


def eve_guess_rate(cfg: TrialConfig) -> float:
    """Fraction of the k protected message bits a guessing eavesdropper gets
    right; should hover at 1/2."""
    n, k = cfg.params.n, cfg.params.k
    correct = _kernels.eve_guess_correct(n, k, cfg.seed, cfg.trials)
    return correct / (cfg.trials * k)


def distinguisher_test(
    cfg: TrialConfig, generator: Optional[PadGenerator] = None
) -> SecrecyReport:
    """Empirical ciphertext distributions for m0 vs m1, compared in total
    variation; PASS iff below ``3 * sqrt(2**n / trials)``.

    The default path runs on the kernels; passing a ``generator`` (e.g. a
    deliberately biased one) switches to a library-path loop with the same
    draw discipline.
    """
    if cfg.m0 is None or cfg.m1 is None:
        raise ValueError("distinguisher needs candidate messages m0 and m1")
    params = cfg.params
    n = params.n
    if n > 12:
        raise ValueError("distinguisher histograms are limited to n <= 12")
    if generator is None:
        hist0, hist1 = _kernels.distinguisher_counts(
            n, params.k, cfg.m0.value, cfg.m1.value, cfg.seed, cfg.trials
        )
    else:
        # TrialConfig holds both messages to n bits, as effective_pad does
        # every pad, so the ciphertexts are plain integer XORs.
        m0, m1 = cfg.m0.value, cfg.m1.value
        hist0 = [0] * (1 << n)
        hist1 = [0] * (1 << n)
        for t in range(cfg.trials):
            src = RandomSource(derive_child_seed(cfg.seed, t))
            hist0[m0 ^ effective_pad(generator(params, src), params).value] += 1
            hist1[m1 ^ effective_pad(generator(params, src), params).value] += 1
    tv = Fraction(sum(abs(a - b) for a, b in zip(hist0, hist1)), 2 * cfg.trials)
    threshold = 3.0 * math.sqrt((1 << n) / cfg.trials)
    return SecrecyReport(
        mode="statistical",
        n=n,
        k=params.k,
        passed=float(tv) < threshold,
        deviation=float(tv),
        threshold=threshold,
        trials=cfg.trials,
        counts=(list(hist0), list(hist1)),
    )


@dataclass(frozen=True)
class ReductionStats:
    """Empirical transmitted-length distribution and mean saving."""

    params: ReductionParams
    trials: int
    seed: int
    length_counts: Dict[int, int]
    mean_saving: Fraction
    expected_saving: Fraction

    def frequency(self, length: int) -> float:
        return self.length_counts.get(length, 0) / self.trials

    def to_lines(self) -> List[str]:
        n, k = self.params.n, self.params.k
        lines = [
            "check=reduction",
            f"n={n}",
            f"k={k}",
            f"trials={self.trials}",
            f"mean_saving={float(self.mean_saving):.6f}",
            f"expected_saving={self.expected_saving}",
        ]
        for length in sorted(self.length_counts, reverse=True):
            expected = (
                Fraction((1 << k) - k, 1 << k)
                if length == n
                else Fraction(1, 1 << k)
            )
            lines.append(
                f"freq[{length}]={self.frequency(length):.6f} (expected {expected})"
            )
        return lines

    def __str__(self) -> str:
        return "\n".join(self.to_lines())


def reduction_stats(cfg: TrialConfig) -> ReductionStats:
    """Sample transmitted lengths and compare the mean saving to
    ``k * (k+1) / 2**(k+1)``."""
    n, k = cfg.params.n, cfg.params.k
    counts = _kernels.reduction_length_counts(n, k, cfg.seed, cfg.trials)
    length_counts = {n - i: c for i, c in enumerate(counts) if c}
    saved = sum(i * c for i, c in enumerate(counts))
    return ReductionStats(
        params=cfg.params,
        trials=cfg.trials,
        seed=cfg.seed,
        length_counts=length_counts,
        mean_saving=Fraction(saved, cfg.trials),
        expected_saving=expected_reduction(k),
    )
