"""Channel and code parameter arithmetic plus the section-size analysis.

Rates and capacities are in nats throughout.  The analysis codelength
``n_real`` is kept real valued; the integer ``n_int`` exists only for
simulation, so analytic curves are not perturbed by rounding.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .exponents import (
    _capped_exponent_array,
    _invert,
    _log1p,
    _per_element,
    _scalar_or_array,
    capped_deviation_exponent,
    optimal_tilt,
)

LN2 = math.log(2.0)
_lgamma = functools.partial(_per_element, math.lgamma)


def _check_alpha(alpha) -> None:
    """ValueError naming the elements of alpha outside [0, 1]."""
    ok = (0.0 <= alpha) & (alpha <= 1.0)
    if not np.all(ok):
        bad = np.asarray(alpha)[~ok] if np.ndim(alpha) else alpha
        raise ValueError(f"alpha must be in [0, 1], got {bad}")


def _check_snr(v) -> None:
    """ValueError naming the elements of v that are not positive and finite."""
    ok = (v > 0) & (v < math.inf)
    if not np.all(ok):
        bad = np.asarray(v)[~ok] if np.ndim(v) else v
        raise ValueError(f"snr must be positive and finite, got {bad}")


@dataclass(frozen=True)
class ChannelSpec:
    """AWGN channel with signal power P and noise variance sigma2."""

    P: float
    sigma2: float

    def __post_init__(self):
        if not (0 < self.P < math.inf and 0 < self.sigma2 < math.inf):
            raise ValueError("signal power and noise variance must be positive and finite")

    @classmethod
    def from_snr(cls, v: float) -> "ChannelSpec":
        _check_snr(v)
        return cls(P=float(v), sigma2=1.0)

    @property
    def snr(self) -> float:
        return self.P / self.sigma2

    @property
    def capacity(self) -> float:
        return capacity(self.snr)


@dataclass(frozen=True)
class CodeSpec:
    """Partitioned superposition code: L sections of B columns at rate R nats."""

    L: int
    B: int
    rate: float
    signed: bool = False

    def __post_init__(self):
        if self.L < 1:
            raise ValueError(f"need at least one section, got L={self.L}")
        if self.B < 2:
            raise ValueError(f"section size must be at least 2, got B={self.B}")
        if not (self.rate > 0 and math.isfinite(self.rate)):
            raise ValueError(f"rate must be positive and finite, got {self.rate}")

    @property
    def section_size_rate(self) -> float:
        """a = ln B / ln L; the dictionary has N = L^(a+1) columns."""
        if self.L < 2:
            raise ValueError("section size rate needs L >= 2")
        return math.log(self.B) / math.log(self.L)

    @property
    def n_real(self) -> float:
        per_section = math.log(2 * self.B) if self.signed else math.log(self.B)
        return self.L * per_section / self.rate

    @property
    def n_int(self) -> int:
        return math.ceil(self.n_real)

    @property
    def bits_per_section(self) -> int:
        if self.B & (self.B - 1):
            raise ValueError(f"bit encoding requires a power-of-two section size, got {self.B}")
        b = self.B.bit_length() - 1
        return b + 1 if self.signed else b

    @property
    def input_bits(self) -> int:
        return self.L * self.bits_per_section

    @property
    def num_columns(self) -> int:
        return self.L * self.B

    def candidate_count(self) -> int:
        """Number of admissible coefficient vectors."""
        return (2 * self.B if self.signed else self.B) ** self.L


def capacity(v: float) -> float:
    """Channel capacity (1/2)ln(1+v) in nats per use."""
    _check_snr(v)
    return 0.5 * math.log1p(v)


def partial_capacity(alpha, v):
    """(1/2)ln(1+alpha*v): the rate obstacle for a fraction-alpha confusion.

    This and the spreads below are elementwise over arrays; a scalar in
    gives a float out.
    """
    _check_alpha(alpha)
    _check_snr(v)
    return 0.5 * _log1p(alpha * v)


def spread_direct(alpha, v):
    """Spread alpha*v/(1+alpha*v) of the one-shot decoding statistic."""
    _check_alpha(alpha)
    _check_snr(v)
    return alpha * v / (1.0 + alpha * v)


def spread_refined(alpha, v):
    """Spread alpha*(1-alpha)*v/(1+alpha*v) after splitting the statistic.

    The extra (1-alpha) factor is what keeps the split bound useful for
    mistake fractions near one.  Vanishes at both endpoints.
    """
    _check_alpha(alpha)
    _check_snr(v)
    return alpha * (1.0 - alpha) * v / (1.0 + alpha * v)


def capacity_shape_gap(alpha, v: float):
    """Concave gap C_alpha - alpha*C, zero exactly at the endpoints; elementwise in alpha."""
    return partial_capacity(alpha, v) - alpha * capacity(v)


def log_binomial(L, ell):
    """ln of (L choose ell) via math.lgamma, elementwise over arrays."""
    if not np.all((0 <= ell) & (ell <= L)):
        raise ValueError(f"need 0 <= ell <= L, got ell={ell}, L={L}")
    return _lgamma(L + 1) - _lgamma(ell + 1) - _lgamma(L - ell + 1)


def combinatorial_rate(ell: int, L: int, n_real: float) -> float:
    """Per-symbol log count of fraction-ell/L confusions: ln(L choose ell)/n."""
    if n_real <= 0:
        raise ValueError(f"codelength must be positive, got {n_real}")
    return log_binomial(L, ell) / n_real


def min_gap(ell: int, L: int, n_real: float, v: float) -> float:
    """Smallest gap whose capped exponent cancels the combinatorial coefficient.

    Solves n * capped_exponent(gap, spread) = ln(L choose ell) with the
    refined spread, by bisection plus Newton polish.  The root of the
    clamped-branch formula bounds the root from above.
    """
    if not 1 <= ell <= L - 1:
        raise ValueError(f"need 1 <= ell <= L-1, got ell={ell}, L={L}")
    r = combinatorial_rate(ell, L, n_real)
    s = spread_refined(ell / L, v)
    return _invert(lambda d: n_real * _capped_exponent_array(d, s),
                   lambda d: n_real * min(1.0, optimal_tilt(d, s)) if d > 0 else n_real,
                   log_binomial(L, ell), r - 0.5 * math.log1p(-s))


def shape_exponent(ell, L: int, v: float):
    """Capped exponent of the capacity-shape gap at the refined spread; elementwise in ell."""
    alpha = np.asarray(ell) / L
    return capped_deviation_exponent(capacity_shape_gap(alpha, v),
                                     spread_refined(alpha, v))


def section_size_rate_finite(v: float, L: int, rate: float) -> float:
    """Smallest section size rate canceling every combinatorial coefficient.

    Exhaustive maximum of R*ln(L choose ell) / (shape_exponent * L * ln L)
    over the interior integer grid; no continuous optimization.
    """
    _check_snr(v)
    if L < 3:
        raise ValueError(f"need L >= 3, got {L}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    ell = np.arange(1, L)
    ratio = rate * log_binomial(L, ell) / (shape_exponent(ell, L, v) * (L * math.log(L)))
    return max(0.0, float(ratio.max()))


@functools.lru_cache(maxsize=1)
def snr_branch_point() -> float:
    """The snr near 15.8 solving (1+v)ln(1+v) = 3v, splitting the limit formula."""
    f = lambda v: (1.0 + v) * math.log1p(v) - 3.0 * v
    lo, hi = 10.0, 20.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def section_size_rate_limit(v: float, rate: float) -> float:
    """Large-L limit of the finite section size rate (continuous in v).

    Approximately 16/v^2 for small v (at rate C) and decreasing toward 1
    for large v.
    """
    _check_snr(v)
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    t = (1.0 + v) * math.log1p(v)
    if v < snr_branch_point():
        return rate * 8.0 * v * (1.0 + v) / (t - v) ** 2
    return rate * 2.0 * (1.0 + v) / (t - 2.0 * v)


def small_alpha_slope(v: float, rate: float, a: float) -> float:
    """Slope at alpha = 0 of the exponent surplus beyond the minimum gap."""
    _check_snr(v)
    if a <= 0:
        raise ValueError(f"section size rate must be positive, got {a}")
    return 0.5 * (v - math.log1p(v)) - math.sqrt(2.0 * v * rate / a)


def combinatorial_surplus_at_n(ell, L: int, n_real: float, v: float):
    """n * shape_exponent - ln(L choose ell) at an explicit codelength; elementwise in ell."""
    ell = np.asarray(ell)
    if not np.all((0 <= ell) & (ell <= L)):
        raise ValueError(f"need 0 <= ell <= L, got ell={ell}")
    surplus = n_real * shape_exponent(ell, L, v) - log_binomial(L, ell)
    return _scalar_or_array(np.where((ell == 0) | (ell == L), 0.0, surplus))


def combinatorial_surplus(ell, code: CodeSpec, v: float):
    """n * shape_exponent - ln(L choose ell); nonnegative iff a suffices.

    Zero at the endpoints by convention (both constituents vanish there).
    Elementwise in ell.
    """
    return combinatorial_surplus_at_n(ell, code.L, code.n_real, v)
