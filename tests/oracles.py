"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's closed forms: exponents come from
dense tilt grids, quantiles from bisection on erfc, decoders from plain
itertools enumeration.  The one exception is the split-bound optimizer
below: it is the slow per-cell path that the lockstep array optimizer in
``sparclab.bounds`` replaced, kept unchanged as the reference that one must
match bit for bit.  Production code never imports this module.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from sparclab.geometry import log_binomial, partial_capacity, spread_refined

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def grid_max_exponent(delta: float, spread: float, lam_hi: float,
                      step: float = 1e-5) -> float:
    """Maximize lam*delta + 0.5*ln(1 - lam^2*spread) on a dense tilt grid."""
    lam = np.arange(0.0, lam_hi + step, step)
    arg = 1.0 - lam * lam * spread
    vals = np.where(arg > 0.0, lam * delta + 0.5 * np.log(np.maximum(arg, 1e-300)),
                    -np.inf)
    return float(np.max(vals))


def q_inverse_bisect(eps: float) -> float:
    """Upper-tail normal quantile by bisection on 0.5*erfc(x/sqrt(2))."""
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(mid / math.sqrt(2.0)) > eps:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brute_force_decode(X: np.ndarray, y: np.ndarray, L: int, B: int,
                       signed: bool = False):
    """Exhaustive least-squares search written independently of the codec.

    Returns (indices, signs, residual_sq) with the normalized norm, scanning
    candidates in plain nested-loop order and keeping strict improvements
    only (so the first optimum in scan order wins ties).
    """
    n = X.shape[0]
    best = (None, None, math.inf)
    sign_choices = [(1, -1)] * L if signed else [(1,)] * L
    for idx in itertools.product(range(B), repeat=L):
        for sgn in itertools.product(*sign_choices):
            c = np.zeros(n)
            for i in range(L):
                c = c + sgn[i] * X[:, i * B + idx[i]]
            r = float(np.sum((y - c) ** 2) / n)
            if r < best[2]:
                best = (list(idx), list(sgn), r)
    return best


def capped_exponent_vec(delta: np.ndarray, spread: float) -> np.ndarray:
    """Vectorized tilt-capped exponent; zero for nonpositive gaps."""
    d = np.maximum(delta, 0.0)
    if spread == 0.0:
        return d
    q = 4.0 * d * d / spread
    root = np.sqrt(1.0 + q)
    lam = 2.0 * d / (spread * (1.0 + root))
    gamma = q / (root + 1.0)
    interior = 0.5 * (gamma - np.log1p(0.5 * gamma))
    clamped = d + 0.5 * math.log1p(-spread)
    return np.where(lam >= 1.0, clamped, interior)


def exponent_vec(delta: np.ndarray, spread: float) -> np.ndarray:
    """Vectorized unrestricted exponent; zero for nonpositive gaps."""
    d = np.maximum(delta, 0.0)
    q = 4.0 * d * d / spread
    gamma = q / (np.sqrt(1.0 + q) + 1.0)
    return 0.5 * (gamma - np.log1p(0.5 * gamma))


def split_terms(t_alpha, n, t, log_comb, s_main, s_star, room):
    """Log of the two split-bound terms at intermediate thresholds t_alpha."""
    main = log_comb - n * capped_exponent_vec(room - (t_alpha - t), s_main)
    star = -n * exponent_vec(t_alpha - t, s_star)
    return main, star


def split_eval(ell: int, L: int, n: float, v: float, rate: float, t: float,
               grid_points: int = 256):
    """Optimize the split bound over the open threshold interval.

    Uniform grid then golden-section refinement around the grid minimum.
    Returns (log_total, t_alpha, log_main, log_star).
    """
    alpha = ell / L
    head = partial_capacity(alpha, v) - alpha * rate
    room = head - t
    if room <= 0.0:
        return 0.0, t, 0.0, 0.0

    log_comb = log_binomial(L, ell)
    s_main = spread_refined(alpha, v)
    s_star = alpha * alpha * v / (1.0 + alpha * alpha * v)

    ks = np.arange(1, grid_points + 1, dtype=np.float64)
    xs = t + room * ks / (grid_points + 1)
    main, star = split_terms(xs, n, t, log_comb, s_main, s_star, room)
    tot = np.logaddexp(main, star)
    j = int(np.argmin(tot))

    lo = xs[j - 1] if j > 0 else t + 1e-12 * room
    hi = xs[j + 1] if j < grid_points - 1 else t + room * (1.0 - 1e-12)

    def f(x: float) -> float:
        m, s = split_terms(np.array([x]), n, t, log_comb, s_main, s_star, room)
        return float(np.logaddexp(m, s)[0])

    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(60):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        if b - a <= 1e-14 * room:
            break
    x_opt = c if fc < fd else d
    if float(tot[j]) < min(fc, fd):
        x_opt = float(xs[j])
    m, s = split_terms(np.array([x_opt]), n, t, log_comb, s_main, s_star, room)
    return float(np.logaddexp(m, s)[0]), float(x_opt), float(m[0]), float(s[0])
