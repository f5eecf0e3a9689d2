"""Statistical FI: sample sizes and confidence intervals.

The paper handles its state-space explosion (Challenge 1) by fixing
parameters and sweeping MAC positions exhaustively — feasible at 16x16
(256 experiments) but not at TPU scale (65K MACs x bits x polarities).
The standard alternative in the FI literature (Leveugle et al., DATE 2009)
is statistical sampling: inject a random sample and bound the estimation
error.

This module provides that machinery so campaigns can trade experiments for
confidence:

* :func:`required_sample_size` — the finite-population sample size for a
  target margin of error at a confidence level;
* :func:`wilson_interval` — a robust confidence interval for an observed
  SDC (or class) rate;
* :func:`estimate_rate` — run the estimator over a sampled campaign's
  experiments.

The sampling bench validates the machinery against exhaustive ground
truth: the true SDC rate of every Table I configuration falls inside the
predicted interval at the stated confidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.campaign import ExperimentResult

__all__ = [
    "required_sample_size",
    "wilson_interval",
    "RateEstimate",
    "estimate_rate",
]


def _z_score(confidence: float) -> float:
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    # Imported here: scipy.stats is most of the package's import time,
    # which every spawned pool child and CLI start would otherwise pay.
    from scipy.stats import norm

    return float(norm.ppf(0.5 + confidence / 2.0))


def required_sample_size(
    population: int,
    margin: float = 0.05,
    confidence: float = 0.95,
    expected_rate: float = 0.5,
) -> int:
    """Finite-population FI sample size (Leveugle et al.'s formula).

    Parameters
    ----------
    population:
        Total number of possible FI experiments (e.g. 65536 MACs x bits).
    margin:
        Half-width of the acceptable error interval on the estimated rate.
    confidence:
        Probability that the true rate lies within the margin.
    expected_rate:
        Prior on the rate; 0.5 is the conservative worst case.

    Returns
    -------
    int
        Number of experiments to sample (never more than ``population``).
    """
    if population <= 0:
        raise ValueError(f"population must be positive, got {population}")
    if not 0.0 < margin < 1.0:
        raise ValueError(f"margin must be in (0, 1), got {margin}")
    if not 0.0 < expected_rate < 1.0:
        raise ValueError(
            f"expected_rate must be in (0, 1), got {expected_rate}"
        )
    z = _z_score(confidence)
    variance = expected_rate * (1.0 - expected_rate)
    n = population / (
        1.0 + margin**2 * (population - 1) / (z**2 * variance)
    )
    return min(population, math.ceil(n))


def wilson_interval(
    successes: int, trials: int, confidence: float = 0.95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Preferred over the normal approximation because FI rates are often
    near 0 or 1 (e.g. a fully-masked configuration), where the naive
    interval degenerates.
    """
    if trials <= 0:
        raise ValueError(f"trials must be positive, got {trials}")
    if not 0 <= successes <= trials:
        raise ValueError(
            f"successes must be in [0, {trials}], got {successes}"
        )
    z = _z_score(confidence)
    p = successes / trials
    denom = 1.0 + z**2 / trials
    centre = (p + z**2 / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(p * (1.0 - p) / trials + z**2 / (4 * trials**2))
        / denom
    )
    return (max(0.0, centre - half), min(1.0, centre + half))


@dataclass(frozen=True)
class RateEstimate:
    """A sampled rate with its confidence interval."""

    rate: float
    low: float
    high: float
    samples: int
    confidence: float

    def contains(self, true_rate: float) -> bool:
        """Whether ``true_rate`` lies inside the interval."""
        return self.low <= true_rate <= self.high

    @property
    def margin(self) -> float:
        """Half-width of the interval."""
        return (self.high - self.low) / 2.0


def estimate_rate(
    experiments: Sequence[ExperimentResult],
    predicate=lambda e: e.sdc,
    confidence: float = 0.95,
) -> RateEstimate:
    """Estimate the rate of ``predicate`` over sampled FI experiments.

    The default predicate estimates the SDC rate; pass e.g.
    ``lambda e: e.pattern_class is PatternClass.MASKED`` for class rates.
    """
    if not experiments:
        raise ValueError("cannot estimate a rate from zero experiments")
    hits = sum(bool(predicate(e)) for e in experiments)
    trials = len(experiments)
    low, high = wilson_interval(hits, trials, confidence)
    return RateEstimate(
        rate=hits / trials,
        low=low,
        high=high,
        samples=trials,
        confidence=confidence,
    )
