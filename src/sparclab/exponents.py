"""Large-deviation exponents for differences of squared correlated normals.

The central object is the Chernoff exponent of half the difference of
squares of a standardized normal pair, parametrized by the exponent gap
``delta`` and the pair's ``spread`` (one minus the squared correlation).
Everything is computed in nats; unit conversion happens only at I/O
boundaries.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np


class Branch(enum.Enum):
    """Which regime produced an exponent value."""

    INTERIOR = "interior"
    CLAMPED_AT_ONE = "clamped_at_one"
    DEGENERATE_ZERO_SPREAD = "degenerate_zero_spread"


@dataclass(frozen=True)
class ExponentResult:
    value: float        # nats, >= 0
    lambda_opt: float   # maximizing tilt
    branch: Branch


def _validate(delta: float, spread: float, spread_max: float = 1.0) -> None:
    if delta < 0:
        raise ValueError(f"gap must be nonnegative, got {delta}")
    if not 0.0 <= spread <= spread_max:
        raise ValueError(f"spread must be in [0, {spread_max}], got {spread}")


def _exponent_from_ratio(q: float) -> tuple[float, float]:
    """Value and gamma for the closed form at ratio q = 4 delta^2 / spread."""
    gamma = q / (math.sqrt(1.0 + q) + 1.0)
    return 0.5 * (gamma - math.log1p(0.5 * gamma)), gamma


def optimal_tilt(delta: float, spread: float) -> float:
    """Unrestricted maximizer of tilt*delta + (1/2)ln(1 - tilt^2*spread).

    Returns 0 for delta = 0 by continuity.  Rationalized form avoids the
    sqrt cancellation for small delta (series limit delta/spread).
    """
    if delta < 0:
        raise ValueError(f"gap must be nonnegative, got {delta}")
    if not 0.0 < spread <= 1.0:
        raise ValueError(f"spread must be in (0, 1], got {spread}")
    if delta == 0.0:
        return 0.0
    q = 4.0 * delta * delta / spread
    return 2.0 * delta / (spread * (1.0 + math.sqrt(1.0 + q)))


def deviation_exponent(delta: float, spread: float) -> ExponentResult:
    """Exponent maximized over all nonnegative tilts.

    Zero spread is the perfectly correlated pair: the supremum is unbounded
    for positive gap, reported as an infinite sentinel.
    """
    _validate(delta, spread)
    if delta == 0.0:
        branch = Branch.DEGENERATE_ZERO_SPREAD if spread == 0.0 else Branch.INTERIOR
        return ExponentResult(0.0, 0.0, branch)
    if spread == 0.0:
        return ExponentResult(math.inf, math.inf, Branch.DEGENERATE_ZERO_SPREAD)
    value, _ = _exponent_from_ratio(4.0 * delta * delta / spread)
    return ExponentResult(value, optimal_tilt(delta, spread), Branch.INTERIOR)


def capped_deviation_exponent(delta: float, spread: float) -> ExponentResult:
    """Exponent with the tilt restricted to [0, 1].

    Matches the unrestricted exponent while the optimal tilt stays below 1
    (gap < spread/(1-spread)); beyond that the tilt clamps and the value is
    delta + (1/2)ln(1-spread).  Zero spread gives exactly delta.
    """
    _validate(delta, spread)
    if spread == 0.0:
        return ExponentResult(delta, 1.0 if delta > 0.0 else 0.0,
                              Branch.DEGENERATE_ZERO_SPREAD)
    if delta == 0.0:
        return ExponentResult(0.0, 0.0, Branch.INTERIOR)
    lam = optimal_tilt(delta, spread)
    if lam >= 1.0:
        return ExponentResult(delta + 0.5 * math.log1p(-spread), 1.0,
                              Branch.CLAMPED_AT_ONE)
    value, _ = _exponent_from_ratio(4.0 * delta * delta / spread)
    return ExponentResult(value, lam, Branch.INTERIOR)


def _exponent_array(delta, spread):
    """Array form of deviation_exponent(delta, spread).value.

    Elementwise over broadcast arrays; nonpositive gaps give zero.  Agrees
    with the scalar form up to the last bits of log1p (numpy's, not math's).
    """
    d = np.maximum(delta, 0.0)
    zero = spread == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = 4.0 * d * d / spread
        gamma = q / (np.sqrt(1.0 + q) + 1.0)
        value = 0.5 * (gamma - np.log1p(0.5 * gamma))
    if np.any(zero):
        value = np.where(zero, np.where(d > 0.0, math.inf, 0.0), value)
    return value


def _per_element(fn, x):
    """fn of each element of x: a float for a scalar, an array for an array.

    np.log1p can differ from math.log1p in the last bit, and numpy has no
    lgamma, so array forms that must carry the scalar forms' bits apply the
    math function per element through here.
    """
    if np.ndim(x) == 0:
        return fn(x)
    x = np.asarray(x, dtype=np.float64)
    return np.array([fn(e) for e in x.ravel().tolist()]).reshape(x.shape)


def _log1p(x):
    """math.log1p per element (see _per_element); -1 gives -inf."""
    return _per_element(lambda e: -math.inf if e == -1.0 else math.log1p(e), x)


def _capped_exponent_array(delta, spread, clamp_offset=None):
    """Array form of capped_deviation_exponent(delta, spread).value.

    Elementwise over broadcast arrays; nonpositive gaps give zero and zero
    spread gives the gap itself.  ``clamp_offset`` is (1/2)ln(1 - spread) on
    spread's shape; it defaults to _log1p's, as the scalar form computes it.
    At spread 1 the tilt never reaches 1, so the offset there is never used.
    """
    d = np.maximum(delta, 0.0)
    spread = np.asarray(spread, dtype=np.float64)
    if clamp_offset is None:
        clamp_offset = 0.5 * _log1p(-spread)
    zero = spread == 0.0
    safe = np.where(zero, 1.0, spread)
    q = 4.0 * d * d / safe
    root = np.sqrt(1.0 + q)
    lam = 2.0 * d / (safe * (1.0 + root))
    gamma = q / (root + 1.0)
    interior = 0.5 * (gamma - np.log1p(0.5 * gamma))
    value = np.where(lam >= 1.0, d + clamp_offset, interior)
    return np.where(zero, d, value)


def _bisect_increasing(f, target: float, hi0: float) -> float:
    """Root of f(x) = target for increasing f on [0, inf), f(0) = 0."""
    if target <= 0.0:
        return 0.0
    hi = hi0
    while f(hi) < target:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def inverse_deviation_exponent(r: float) -> float:
    """Gap whose unit-spread deviation exponent equals r (near sqrt(2r) small r)."""
    if r < 0:
        raise ValueError(f"exponent must be nonnegative, got {r}")
    if r == 0.0:
        return 0.0
    f = lambda d: deviation_exponent(d, 1.0).value
    x = _bisect_increasing(f, r, 1.0 + 2.0 * r)
    # Newton polish; by the envelope theorem the derivative is the optimal tilt.
    for _ in range(3):
        slope = optimal_tilt(x, 1.0)
        if slope <= 0.0:
            break
        x -= (f(x) - r) / slope
    return x


def chi_square_exponent(delta: float) -> float:
    """Upper-deviation exponent for a chi-square exceeding (1+delta) times its mean."""
    if delta < 0:
        raise ValueError(f"deviation must be nonnegative, got {delta}")
    return 0.5 * (delta - math.log1p(delta))


def inverse_chi_square_exponent(r: float) -> float:
    """Inverse of chi_square_exponent: ~2 sqrt(r) for small r, ~2r for large r."""
    if r < 0:
        raise ValueError(f"exponent must be nonnegative, got {r}")
    if r == 0.0:
        return 0.0
    x = _bisect_increasing(chi_square_exponent, r, 2.0 * math.sqrt(r) + 2.0 * r + 1.0)
    for _ in range(3):
        slope = 0.5 * x / (1.0 + x)
        if slope <= 0.0:
            break
        x -= (chi_square_exponent(x) - r) / slope
    return x


def statistic_cgf(lam: float, alpha: float, v: float) -> float:
    """Cumulant generating function of the per-coordinate decoding statistic.

    Returns an infinite sentinel when the log argument is not positive
    (tilt beyond the finite-moment range).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if v <= 0:
        raise ValueError(f"snr must be positive, got {v}")
    if lam < 0:
        raise ValueError(f"tilt must be nonnegative, got {lam}")
    s = alpha * v / (1.0 + alpha * v)
    arg = 1.0 - lam * lam * s
    if arg <= 0.0:
        return math.inf
    return -0.5 * math.log(arg)
