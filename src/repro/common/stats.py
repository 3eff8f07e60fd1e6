"""Statistics used by the beam and fault-injection analyses.

The paper reports beam FIT rates with 95% confidence intervals under a
Poisson counting model (§VI) and sizes its injection campaigns so that the
95% interval on the AVF stays below 5% (§III-D).  Both interval constructions
live here so every subsystem reports uncertainty the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from scipy.special import gammaincinv, ndtri


def poisson_ci(count: float, confidence: float = 0.95) -> Tuple[float, float]:
    """Exact ("Garwood") two-sided confidence interval for a Poisson mean.

    Returns the (lower, upper) bounds on the expected count given an observed
    ``count``: the ``alpha/2`` quantile of Gamma(count) and the
    ``1 - alpha/2`` quantile of Gamma(count + 1) — the same numbers as the
    textbook ``chi2.ppf(p, 2k) / 2`` form.  For count == 0 the lower bound
    is 0.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    alpha = 1.0 - confidence
    if not 0 < alpha < 1:
        raise ValueError("confidence must be in (0, 1)")
    lower = 0.0 if count == 0 else float(gammaincinv(count, alpha / 2.0))
    upper = float(gammaincinv(count + 1.0, 1.0 - alpha / 2.0))
    return lower, upper


def wilson_ci(successes: int, trials: int, confidence: float = 0.95) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion (used for AVFs)."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must be within [0, trials]")
    z = _z_value(confidence)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def _z_value(confidence: float) -> float:
    """Two-sided standard-normal quantile for common confidence levels."""
    table = {0.90: 1.6449, 0.95: 1.9600, 0.99: 2.5758}
    if confidence in table:
        return table[confidence]
    return float(ndtri(1.0 - (1.0 - confidence) / 2.0))


def ratio(measured: float, predicted: float) -> float:
    """measured / predicted, guarding against a zero prediction."""
    if predicted <= 0:
        return math.inf if measured > 0 else 1.0
    return measured / predicted


def signed_ratio(measured: float, predicted: float) -> float:
    """The paper's Figure 6 convention.

    Positive: beam measured a FIT *higher* than predicted (ratio >= 1 plotted
    as +measured/predicted).  Negative: prediction was higher, plotted as
    -predicted/measured.  By construction |signed_ratio| >= 1.
    """
    r = ratio(measured, predicted)
    if r >= 1.0:
        return r
    if r <= 0.0:
        return -math.inf
    return -1.0 / r


@dataclass(frozen=True)
class Estimate:
    """A point estimate plus a 95% confidence interval."""

    value: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        if not (self.lower <= self.value <= self.upper) and not math.isnan(self.value):
            raise ValueError(f"interval [{self.lower}, {self.upper}] does not contain {self.value}")

    def scaled(self, factor: float) -> "Estimate":
        if factor < 0:
            raise ValueError("scale factor must be non-negative")
        return Estimate(self.value * factor, self.lower * factor, self.upper * factor)

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0


def poisson_rate_estimate(count: float, exposure: float, confidence: float = 0.95) -> Estimate:
    """Estimate of a Poisson rate = count/exposure with its interval."""
    if exposure <= 0:
        raise ValueError("exposure must be positive")
    lo, hi = poisson_ci(count, confidence)
    return Estimate(count / exposure, lo / exposure, hi / exposure)


def proportion_estimate(successes: int, trials: int, confidence: float = 0.95) -> Estimate:
    """Estimate of a binomial proportion with its Wilson interval."""
    lo, hi = wilson_ci(successes, trials, confidence)
    p = successes / trials
    # Wilson centers can exclude extreme MLEs at tiny n; clamp for safety.
    return Estimate(min(max(p, lo), hi), lo, hi)
