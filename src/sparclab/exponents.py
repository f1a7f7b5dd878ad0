"""Large-deviation exponents for differences of squared correlated normals.

The central object is the Chernoff exponent of half the difference of
squares of a standardized normal pair, parametrized by the exponent gap
``delta`` and the pair's ``spread`` (one minus the squared correlation).
The exponents and the tilt are elementwise over broadcast arrays and give a
float for scalar inputs.  Everything is computed in nats; unit conversion
happens only at I/O boundaries.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


def _scalar_or_array(x):
    """A float for a 0-d result, else the array itself."""
    return float(x) if np.ndim(x) == 0 else x


def _checked(delta, spread, spread_open_at_zero: bool = False):
    """delta and spread as float arrays; ValueError if any element is out of range."""
    delta = np.asarray(delta, dtype=np.float64)
    spread = np.asarray(spread, dtype=np.float64)
    if np.any(delta < 0):
        raise ValueError(f"gap must be nonnegative, got {delta[delta < 0]}")
    low = spread > 0.0 if spread_open_at_zero else spread >= 0.0
    bad = ~(low & (spread <= 1.0))
    if np.any(bad):
        interval = "(0, 1]" if spread_open_at_zero else "[0, 1]"
        raise ValueError(f"spread must be in {interval}, got {spread[bad]}")
    return delta, spread


def _per_element(fn, x):
    """fn of each element of x: a float for a scalar, an array for an array.

    np.log1p can differ from math.log1p in the last bit, and numpy has no
    lgamma, so array forms that must keep math's bits (the clamp offset,
    partial capacities, log binomials) apply the math function per element
    through here.
    """
    if np.ndim(x) == 0:
        return fn(x)
    x = np.asarray(x, dtype=np.float64)
    return np.array([fn(e) for e in x.ravel().tolist()]).reshape(x.shape)


def _log1p(x):
    """math.log1p per element (see _per_element); -1 gives -inf."""
    return _per_element(lambda e: -math.inf if e == -1.0 else math.log1p(e), x)


def _interior(d, spread):
    """Closed-form exponent at gap d >= 0 and spread > 0, and sqrt(1 + q).

    With q = 4 d^2 / spread and gamma = q / (sqrt(1 + q) + 1) the exponent
    is (gamma - ln(1 + gamma/2)) / 2.  Unchecked.
    """
    q = 4.0 * d * d / spread
    root = np.sqrt(1.0 + q)
    gamma = q / (root + 1.0)
    return 0.5 * (gamma - np.log1p(0.5 * gamma)), root


def _tilt(d, spread, root):
    """Maximizing tilt 2 d / (spread (1 + sqrt(1 + q))), root from _interior.

    The rationalized form avoids the sqrt cancellation for small d (series
    limit d / spread).  Unchecked.
    """
    return 2.0 * d / (spread * (1.0 + root))


class _Spread(NamedTuple):
    """Per-element constants of a spread array, prepared once for many kernel calls.

    safe is the spread with its zeros replaced by 1, so the closed form
    never divides by zero; zero marks those elements and any_zero says
    whether there are any, so a kernel skips the zero-spread fix-up when
    there are none.
    """

    safe: np.ndarray
    zero: np.ndarray
    any_zero: bool


def _prepare_spread(spread) -> _Spread:
    """The _Spread of a spread array (or scalar)."""
    zero = np.asarray(spread, dtype=np.float64) == 0.0
    return _Spread(np.where(zero, 1.0, spread), zero, bool(zero.any()))


def _exponent_array(delta, spread):
    """Unchecked kernel of deviation_exponent; nonpositive gaps give zero.

    spread is an array or its _Spread.
    """
    if not isinstance(spread, _Spread):
        spread = _prepare_spread(spread)
    d = np.maximum(delta, 0.0)
    value, _ = _interior(d, spread.safe)
    if spread.any_zero:
        value = np.where(spread.zero, np.where(d > 0.0, math.inf, 0.0), value)
    return value


def _capped_exponent_array(delta, spread, clamp_offset=None):
    """Unchecked kernel of capped_deviation_exponent.

    Nonpositive gaps give zero and zero spread gives the gap itself.
    spread is an array or its _Spread.  ``clamp_offset`` is (1/2)ln(1 -
    spread) on spread's shape; it defaults to _log1p's and must be given
    with a _Spread.  At spread 1 the tilt never reaches 1, so the offset
    there is never used.
    """
    if not isinstance(spread, _Spread):
        if clamp_offset is None:
            clamp_offset = 0.5 * _log1p(-np.asarray(spread, dtype=np.float64))
        spread = _prepare_spread(spread)
    d = np.maximum(delta, 0.0)
    interior, root = _interior(d, spread.safe)
    value = np.where(_tilt(d, spread.safe, root) >= 1.0, d + clamp_offset, interior)
    return np.where(spread.zero, d, value) if spread.any_zero else value


def optimal_tilt(delta, spread):
    """Unrestricted maximizer of tilt*delta + (1/2)ln(1 - tilt^2*spread).

    Zero for delta = 0 by continuity; spread must be positive.
    """
    delta, spread = _checked(delta, spread, spread_open_at_zero=True)
    return _scalar_or_array(_tilt(delta, spread, _interior(delta, spread)[1]))


def deviation_exponent(delta, spread):
    """Exponent maximized over all nonnegative tilts.

    Zero spread is the perfectly correlated pair: the supremum is unbounded
    for positive gap, reported as an infinite sentinel.
    """
    return _scalar_or_array(_exponent_array(*_checked(delta, spread)))


def capped_deviation_exponent(delta, spread):
    """Exponent with the tilt restricted to [0, 1].

    Matches the unrestricted exponent while the optimal tilt stays below 1
    (gap < spread/(1-spread)); beyond that the tilt clamps and the value is
    delta + (1/2)ln(1-spread), with math.log1p.  Zero spread gives exactly
    delta.
    """
    return _scalar_or_array(_capped_exponent_array(*_checked(delta, spread)))


def _invert(f, slope, target: float, hi: float) -> float:
    """Root of f(x) = target for increasing f on [0, inf) with f(0) = 0.

    Bisection from [0, hi] (hi doubles until it brackets the root), then
    three Newton steps with the derivative ``slope``.
    """
    if target <= 0.0:
        return 0.0
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
    x = 0.5 * (lo + hi)
    for _ in range(3):
        s = slope(x)
        if s <= 0.0:
            break
        x -= (f(x) - target) / s
    return float(x)


def inverse_deviation_exponent(r: float) -> float:
    """Gap whose unit-spread deviation exponent equals r (near sqrt(2r) small r)."""
    if r < 0:
        raise ValueError(f"exponent must be nonnegative, got {r}")
    # by the envelope theorem the derivative is the optimal tilt
    return _invert(lambda d: _interior(d, 1.0)[0],
                   lambda d: _tilt(d, 1.0, _interior(d, 1.0)[1]), r, 1.0 + 2.0 * r)


def chi_square_exponent(delta: float) -> float:
    """Upper-deviation exponent for a chi-square exceeding (1+delta) times its mean."""
    if delta < 0:
        raise ValueError(f"deviation must be nonnegative, got {delta}")
    return 0.5 * (delta - math.log1p(delta))


def inverse_chi_square_exponent(r: float) -> float:
    """Inverse of chi_square_exponent: ~2 sqrt(r) for small r, ~2r for large r."""
    if r < 0:
        raise ValueError(f"exponent must be nonnegative, got {r}")
    return _invert(chi_square_exponent, lambda x: 0.5 * x / (1.0 + x),
                   r, 2.0 * math.sqrt(r) + 2.0 * r + 1.0)


def statistic_cgf(lam: float, alpha: float, v: float) -> float:
    """Cumulant generating function of the per-coordinate decoding statistic.

    Returns an infinite sentinel when the log argument is not positive
    (tilt beyond the finite-moment range).
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"alpha must be in (0, 1], got {alpha}")
    if not 0 < v < math.inf:
        raise ValueError(f"snr must be positive and finite, got {v}")
    if lam < 0:
        raise ValueError(f"tilt must be nonnegative, got {lam}")
    s = alpha * v / (1.0 + alpha * v)
    arg = 1.0 - lam * lam * s
    if arg <= 0.0:
        return math.inf
    return -0.5 * math.log(arg)
