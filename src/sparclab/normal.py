"""Standard-normal CDF and quantile functions.

The quantile is Acklam's rational approximation (relative error about
1.15e-9 over (0,1)).  Unpolished and vectorized, it is the fixed, documented
transform used to turn seeded uniform streams into Gaussian samples, so
dictionaries and noise are bit-reproducible for a given seed.  The scalar
quantile starts from the same transform and adds one Halley step against
the exact (erfc based) CDF, which brings it to near machine precision.
"""

from __future__ import annotations

import math
import sys

import numpy as np

SQRT2 = math.sqrt(2.0)
SQRT_2PI = math.sqrt(2.0 * math.pi)

# Acklam coefficients (central, lower-tail, and shared tail denominators).
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)
_P_LOW = 0.02425


def normal_cdf(x: float) -> float:
    """Phi(x) = P[Z <= x] for standard normal Z."""
    return 0.5 * math.erfc(-x / SQRT2)


def normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF, polished to near machine precision.

    One Halley step against the erfc-based CDF removes the ~1e-9 residual
    of the rational approximation.  Subnormal p is rejected: the step's
    exp(x^2/2) overflows there.
    """
    if not sys.float_info.min <= p < 1.0:
        raise ValueError(f"quantile requires p in [{sys.float_info.min!r}, 1) "
                         f"(no subnormal p), got {p}")
    x = float(standard_normal_from_uniform(np.array([p]))[0])
    e = normal_cdf(x) - p
    u = e * SQRT_2PI * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def q_inverse(eps: float) -> float:
    """Upper-tail quantile: the x with Q(x) = eps.  Accurate for small eps."""
    return -normal_quantile(eps)


def standard_normal_from_uniform(u: np.ndarray) -> np.ndarray:
    """Vectorized raw Acklam quantile: the fixed sampling transform.

    Maps uniforms in (0, 1) to standard normals.  No polish step, so the
    output is a pure elementwise function of the input bits; this is the
    contract that makes seeded dictionaries reproducible.
    """
    u = np.asarray(u, dtype=np.float64)
    out = np.empty_like(u)

    lo = u < _P_LOW
    hi = u > 1.0 - _P_LOW
    mid = ~(lo | hi)

    q = np.sqrt(-2.0 * np.log(u[lo]))
    out[lo] = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
               / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))

    q = np.sqrt(-2.0 * np.log(1.0 - u[hi]))
    out[hi] = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
                / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))

    q = u[mid] - 0.5
    r = q * q
    out[mid] = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
                / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    return out
