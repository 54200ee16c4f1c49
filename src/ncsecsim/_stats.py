"""Small statistics helpers shared by the Monte-Carlo harnesses."""

from __future__ import annotations

import math


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = 1.96
    if trials <= 0:
        return (0.0, 1.0)
    phat = successes / trials
    denom = 1.0 + z * z / trials
    centre = phat + z * z / (2 * trials)
    half = z * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4 * trials * trials))
    return ((centre - half) / denom, (centre + half) / denom)


def binomial_sigma(p: float, trials: int) -> float:
    return math.sqrt(p * (1.0 - p) / trials)
