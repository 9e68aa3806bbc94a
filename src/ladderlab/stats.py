"""Small statistical helpers shared by the simulation modules."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["linear_fit", "slope_interval", "wilson_interval", "batch_means_error", "effective_sample_size"]


def linear_fit(x, y) -> tuple[float, float, float]:
    """Least-squares line through (x, y); returns (slope, intercept, r2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2:
        raise ValueError("need at least two points to fit a line")
    xm, ym = x.mean(), y.mean()
    sxx = float(np.sum((x - xm) ** 2))
    sxy = float(np.sum((x - xm) * (y - ym)))
    slope = sxy / sxx
    intercept = ym - slope * xm
    resid = y - slope * x - intercept
    syy = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if syy == 0 else 1.0 - float(np.sum(resid**2)) / syy
    return slope, intercept, r2


def slope_interval(x, y, z: float = 1.96) -> tuple[float, float, float]:
    """OLS slope with a normal-theory confidence interval (lo, hi, stderr)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept, _ = linear_fit(x, y)
    resid = y - slope * x - intercept
    dof = max(x.size - 2, 1)
    sxx = float(np.sum((x - x.mean()) ** 2))
    se = math.sqrt(float(np.sum(resid**2)) / dof / sxx)
    return slope - z * se, slope + z * se, se


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("need at least one trial")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def batch_means_error(samples) -> float:
    """Monte Carlo standard error of the mean via batch means.

    Block length is the square root of the sample count, which absorbs the
    autocorrelation of geometrically mixing chains.
    """
    x = np.asarray(samples, dtype=float)
    m = x.size
    if m < 4:
        return float("inf")
    b = max(2, int(math.sqrt(m)))
    nblocks = m // b
    blocks = x[: nblocks * b].reshape(nblocks, b).mean(axis=1)
    return float(blocks.std(ddof=1) / math.sqrt(nblocks))


def effective_sample_size(samples) -> float:
    """ESS implied by the batch-means variance estimate."""
    x = np.asarray(samples, dtype=float)
    if x.size < 4:
        return float(x.size)
    var = float(x.var(ddof=1))
    if var == 0:
        return float(x.size)
    se = batch_means_error(x)
    if se == 0 or not math.isfinite(se):
        return float(x.size)
    return min(float(x.size), var / (se * se))
