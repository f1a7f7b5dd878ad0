"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's closed forms: exponents come from
dense tilt grids, quantiles from bisection on erfc, decoders from plain
itertools enumeration.  The exceptions are slow paths that a fast one
replaced, kept unchanged as references: the scalar closed-form exponents
and tilt (the array forms in ``sparclab.exponents`` must match them to the
last bits of log1p), the per-cell split-bound optimizer with golden-section
refinement, its cells' searches run in lockstep on each cell's own
arithmetic (the Newton-refined optimizer in ``sparclab.bounds`` must match
its values to 1e-12 relative and its thresholds to 1e-7 of the room), the
per-cell scalar union bound (the array table must match it to the last
bits of log1p), the one-row bisection for the target section size rate,
whose probes run the full split optimization (the predicted and verified
target search and its yes/no probes must match it exactly), the full-grid
achievable-rate search (the pruned lockstep ``achievable_rate`` must
return the same record, repr for repr), the scalar Acklam quantile
(``normal_quantile`` must match it bit for bit) and the prefix/suffix-table
exhaustive decoder (the meet-in-the-middle
``sparclab.codec.decode_exhaustive`` must pick the same coefficients).  Production code never imports this module.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from sparclab.bounds import (
    ALPHA0_CAP,
    AchievableRate,
    InfeasibleError,
    _cells,
    _split_cells,
    _union_logs,
    next_power_of_two,
)
from sparclab.codec import (
    _SUFFIX_BLOCK_TARGET,
    DEFAULT_ENUMERATION_CAP,
    DecodeResult,
    Dictionary,
    EnumerationCapError,
    _rank_to_coefficients,
)
from sparclab.geometry import (
    CodeSpec,
    capacity,
    combinatorial_rate,
    log_binomial,
    partial_capacity,
    spread_direct,
    spread_refined,
)
from sparclab.normal import _A, _B, _C, _D, _P_LOW, SQRT_2PI, normal_cdf
from sparclab.rs import RSSpec, rs_encode

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


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


def grid_max_exponent(delta: float, spread: float, lam_hi: float,
                      step: float = 1e-5) -> float:
    """Maximize lam*delta + 0.5*ln(1 - lam^2*spread) on a dense tilt grid."""
    lam = np.arange(0.0, lam_hi + step, step)
    arg = 1.0 - lam * lam * spread
    vals = np.where(arg > 0.0, lam * delta + 0.5 * np.log(np.maximum(arg, 1e-300)),
                    -np.inf)
    return float(np.max(vals))


def binomial_sf(k: int, n: int, p: float) -> float:
    """P[Bin(n, p) >= k], exact via log-space summation."""
    if k <= 0:
        return 1.0
    if k > n:
        return 0.0
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for i in range(k, n + 1):
        total += math.exp(math.lgamma(n + 1) - math.lgamma(i + 1)
                          - math.lgamma(n - i + 1) + i * log_p + (n - i) * log_q)
    return min(1.0, total)


def coverage_critical_count(n: int, p: float, significance: float = 0.01) -> int:
    """Largest violation count consistent with rate p at the given level.

    Returns the greatest k with P[Bin(n, p) >= k] >= significance; observing
    more than k violations rejects the claimed coverage.
    """
    k = 0
    while k <= n and binomial_sf(k + 1, n, p) >= significance:
        k += 1
    return k


def wilson_upper_bisect(successes: int, trials: int, z: float) -> float:
    """Upper end of the score-test interval by bisection on p in [phat, 1].

    The interval holds the p with (phat - p)^2 <= z^2 p (1 - p) / trials.
    """
    phat = successes / trials
    lo, hi = phat, 1.0
    if (hi - phat) ** 2 <= z * z * hi * (1.0 - hi) / trials:
        return 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (mid - phat) ** 2 <= z * z * mid * (1.0 - mid) / trials:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def acklam_quantile(p: float) -> float:
    """Scalar Acklam quantile plus one Halley step against the erfc CDF."""
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    elif p > 1.0 - _P_LOW:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0))
    else:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0))
    e = normal_cdf(x) - p
    u = e * SQRT_2PI * math.exp(0.5 * x * x)
    return x - u / (1.0 + 0.5 * x * u)


def inverse_deviation_bisect(r: float) -> float:
    """Gap whose unit-spread exponent (the scalar closed form above) equals r.

    Plain bisection, independent of the library's shared inverter.
    """
    f = lambda d: deviation_exponent(d, 1.0).value
    hi = 1.0
    while f(hi) < r:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < r:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def min_gap_branch_formula(ell: int, L: int, n_real: float, v: float) -> float:
    """Closed-form value of sparclab.geometry.min_gap via the inverse exponent.

    Uses the scaled inverse while the implied tilt stays below one, and the
    clamped-branch linear solution beyond; the library finds the same gap
    by bisection on the capped exponent.  The inverse is a plain bisection
    on the oracle exponent, so no library solver is shared.
    """
    if not 1 <= ell <= L - 1:
        raise ValueError(f"need 1 <= ell <= L-1, got ell={ell}, L={L}")
    r = combinatorial_rate(ell, L, n_real)
    s = spread_refined(ell / L, v)
    g = inverse_deviation_bisect(r)
    rho_sq = 1.0 - s
    if g < math.sqrt(s) / rho_sq:
        return math.sqrt(s) * g
    return r - 0.5 * math.log(rho_sq)


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


def union_log(ell: int, L: int, n: float, v: float, rate: float, t: float) -> float:
    """ln of the single-term bound before clamping, one cell at a time."""
    alpha = ell / L
    gap = partial_capacity(alpha, v) - alpha * rate - t
    if gap <= 0.0:
        return log_binomial(L, ell)
    expo = capped_deviation_exponent(gap, spread_direct(alpha, v)).value
    return log_binomial(L, ell) - n * expo


def _clamp_offsets(spread) -> np.ndarray:
    """(1/2)ln(1 - spread) per element, with math.log1p's bits."""
    return np.array([0.5 * math.log1p(-s) for s in np.ravel(spread).tolist()]).reshape(
        np.shape(spread))


def capped_exponent_vec(delta: np.ndarray, spread) -> np.ndarray:
    """Vectorized tilt-capped exponent; zero for nonpositive gaps.

    spread is a scalar or an array broadcast against delta.
    """
    d = np.maximum(delta, 0.0)
    zero = np.asarray(spread) == 0.0
    safe = np.where(zero, 1.0, spread)
    q = 4.0 * d * d / safe
    root = np.sqrt(1.0 + q)
    lam = 2.0 * d / (safe * (1.0 + root))
    gamma = q / (root + 1.0)
    interior = 0.5 * (gamma - np.log1p(0.5 * gamma))
    clamped = d + _clamp_offsets(np.where(zero, 0.0, spread))
    return np.where(zero, d, np.where(lam >= 1.0, clamped, interior))


def exponent_vec(delta: np.ndarray, spread) -> np.ndarray:
    """Vectorized unrestricted exponent; zero for nonpositive gaps.

    spread is a positive scalar or array broadcast against delta.
    """
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
    return split_eval_cells([(ell, L, n, v, rate, t)], grid_points)[0]


def split_eval_cells(cells, grid_points: int = 256) -> list:
    """split_eval of each cell (ell, L, n, v, rate, t), as a list.

    The golden-section searches of all cells run in lockstep, each with
    its own bracket and its own stop, so each cell's arithmetic is that of
    a search on its own.
    """
    out = [None] * len(cells)
    params = []     # (index, n, t, log_comb, s_main, s_star, room) of the cells with room
    for i, (ell, L, n, v, rate, t) in enumerate(cells):
        alpha = ell / L
        head = partial_capacity(alpha, v) - alpha * rate
        room = head - t
        if room <= 0.0:
            out[i] = (0.0, t, 0.0, 0.0)
            continue
        params.append((i, n, t, log_binomial(L, ell), spread_refined(alpha, v),
                       alpha * alpha * v / (1.0 + alpha * alpha * v), room))
    if not params:
        return out
    index, *cols = zip(*params)
    n, t, log_comb, s_main, s_star, room = (np.array(c) for c in cols)

    def f(x, live=slice(None)):
        m, s = split_terms(x, n[live], t[live], log_comb[live], s_main[live],
                           s_star[live], room[live])
        return np.logaddexp(m, s)

    ks = np.arange(1, grid_points + 1, dtype=np.float64)
    xs = t[:, None] + room[:, None] * ks / (grid_points + 1)
    main, star = split_terms(xs, *(c[:, None] for c in (n, t, log_comb, s_main, s_star,
                                                         room)))
    tot = np.logaddexp(main, star)
    j = np.argmin(tot, axis=1)
    rows = np.arange(j.size)
    tot_j, x_j = tot[rows, j], xs[rows, j]
    a = np.where(j > 0, xs[rows, np.maximum(j - 1, 0)], t + 1e-12 * room)
    b = np.where(j < grid_points - 1, xs[rows, np.minimum(j + 1, grid_points - 1)],
                 t + room * (1.0 - 1e-12))

    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    live = np.ones(j.size, dtype=bool)
    for _ in range(60):
        if not live.any():
            break
        left = live & (fc < fd)
        right = live & ~(fc < fd)
        b, d, fd = np.where(left, d, b), np.where(left, c, d), np.where(left, fc, fd)
        a, c, fc = np.where(right, c, a), np.where(right, d, c), np.where(right, fd, fc)
        c = np.where(left, b - GOLDEN * (b - a), c)
        d = np.where(right, a + GOLDEN * (b - a), d)
        new = np.where(left, c, d)
        f_new = np.full(j.size, np.nan)
        f_new[live] = f(new[live], live)
        fc, fd = np.where(left, f_new, fc), np.where(right, f_new, fd)
        live &= ~(b - a <= 1e-14 * room)
    x_opt = np.where(fc < fd, c, d)
    x_opt = np.where(tot_j < np.minimum(fc, fd), x_j, x_opt)
    m, s = split_terms(x_opt, n, t, log_comb, s_main, s_star, room)
    total = np.logaddexp(m, s)
    for k, i in enumerate(index):
        out[i] = (float(total[k]), float(x_opt[k]), float(m[k]), float(s[k]))
    return out


def target_feasible(v: float, L: int, rate: float, alpha0: float,
                    epsilon: float, a: float) -> bool:
    """Is every clamped per-count bound from alpha0 L up at most epsilon at a?

    One row at a time, with the full split optimization of every cell the
    union bound leaves above epsilon.
    """
    ells = np.arange(max(1, math.ceil(alpha0 * L - 1e-9)), L + 1)
    log_eps = math.log(epsilon)
    cells = _cells(ells, L, a * L * math.log(L) / rate, v, rate, 0.0)
    u = _union_logs(cells)
    above = u > log_eps
    if not above.any():
        return True
    s, _, _, _ = _split_cells(cells[:, above], 0.0)
    # compare clamped log probabilities, so epsilon = 1 always passes
    return not np.any(np.minimum(np.minimum(u[above], s), 0.0) > log_eps)


def min_section_size_rate_bracket(v: float, L: int, rate: float, alpha0: float,
                                  epsilon: float, a_max: float = 50.0,
                                  tol: float = 1e-6) -> tuple[float | None, float]:
    """One row's bisection for the target section size rate: its final
    bracket (lo, hi), lo failing and hi meeting epsilon.

    lo is None when the lower end 1e-6 already meets epsilon.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")

    def feasible(a: float) -> bool:
        return target_feasible(v, L, rate, alpha0, epsilon, a)

    a_lo = 1e-6
    if feasible(a_lo):
        return None, a_lo
    if not feasible(a_max):
        raise InfeasibleError(
            f"no section size rate up to {a_max} meets epsilon={epsilon} "
            f"at v={v}, L={L}, rate={rate}, alpha0={alpha0}")
    lo, hi = a_lo, a_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return lo, hi


def achievable_rate(v: float, L: int, a: float, epsilon: float,
                    rate_points: int = 200) -> AchievableRate:
    """Maximize the composite rate (1 - 2 alpha0) R subject to the tail bound.

    The section size is B = ceil(L^a) rounded up to a power of two.  The
    declared search grid is rate_points interior points of (0.3 C, C) for
    the inner rate and integer multiples of 1/L up to ALPHA0_CAP for the
    outer mistake-fraction budget; the split-policy mistake-tail bound at
    ell0 = alpha0 L must stay at or below epsilon.  Each rate takes its
    smallest such alpha0, and ties in the composite rate go to the lowest
    inner rate.  Returns a zero rate when no grid point is feasible.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if rate_points < 1:
        raise ValueError(f"need at least one rate point, got {rate_points}")
    B = next_power_of_two(math.ceil(L ** a))
    C = capacity(v)
    ell0_max = max(1, math.floor(ALPHA0_CAP * L))

    rates = np.linspace(0.3 * C, C, rate_points + 2)[1:-1]
    ns = L * math.log(B) / rates
    cells = _cells(np.arange(1, L + 1), L, ns[:, None], v, rates[:, None], 0.0)
    logs, _, _, _ = _split_cells(cells.reshape(8, -1), 0.0)
    probs = np.exp(np.minimum(logs.reshape(rates.size, L), 0.0))
    # tails[r, ell0 - 1]: the clamped tail from ell0 at rate r
    tails = np.minimum(1.0, np.cumsum(probs[:, ::-1], axis=1)[:, ::-1])[:, :ell0_max]
    met = tails <= epsilon
    first = met.argmax(axis=1)               # ell0 - 1 of the first tail met
    alpha0 = (first + 1) / L
    r_comp = np.where(met.any(axis=1), (1.0 - 2.0 * alpha0) * rates, 0.0)
    i = int(np.argmax(r_comp))
    if r_comp[i] <= 0.0:
        return AchievableRate(0.0, 0.0, 0.0, 1.0, B, math.inf)
    return AchievableRate(float(r_comp[i]), float(rates[i]), float(alpha0[i]),
                          float(tails[i, first[i]]), B, float(ns[i]))


def nearest_codewords(spec: RSSpec):
    """Every received word with its messages at minimum Hamming distance.

    Enumerates all q^n_out words against all q^K_out codewords; yields
    (word, distance, messages), where messages lists every message whose
    codeword is nearest to the word.
    """
    q = spec.field.q
    messages = list(itertools.product(range(q), repeat=spec.K_out))
    book = np.array([rs_encode(m, spec) for m in messages])
    for word in itertools.product(range(q), repeat=spec.n_out):
        dist = np.count_nonzero(book != np.array(word), axis=1)
        best = int(dist.min())
        yield word, best, [messages[i] for i in np.flatnonzero(dist == best)]


def _symbol_block(dic: Dictionary, section: int, signed: bool) -> np.ndarray:
    """(S, n) candidate contributions of one section, in code-point order.

    Code point p < B selects column p with sign +1; p >= B selects column
    p - B negated.  This fixes the lexicographic order used for tie-breaks.
    """
    cols = dic.section(section).T
    return np.vstack([cols, -cols]) if signed else cols


def suffix_table_decode(dic: Dictionary, y: np.ndarray, code: CodeSpec,
                        cap: int = DEFAULT_ENUMERATION_CAP) -> DecodeResult:
    """Global least-squares search over every admissible coefficient vector.

    Scans candidates in lexicographic code-point order, so exact ties
    resolve to the lowest index sequence.
    """
    if code.L != dic.L or code.B != dic.B:
        raise ValueError("code and dictionary disagree on the layout")
    total = code.candidate_count()
    if total > cap:
        raise EnumerationCapError(
            f"{total} candidates exceed the enumeration cap {cap}")

    y = np.asarray(y, dtype=np.float64)
    n = dic.n
    base = 2 * code.B if code.signed else code.B
    L = code.L

    # Split sections into a small prefix loop and a vectorized suffix table.
    j = 1
    while j < L and base ** (j + 1) <= _SUFFIX_BLOCK_TARGET:
        j += 1
    suffix = _symbol_block(dic, L - j, code.signed)
    for sec in range(L - j + 1, L):
        block = _symbol_block(dic, sec, code.signed)
        suffix = (suffix[:, None, :] + block[None, :, :]).reshape(-1, n)

    prefix_sections = L - j
    prefix_count = base ** prefix_sections
    best_rss = math.inf
    best_rank = -1
    for p in range(prefix_count):
        shift = np.zeros(n)
        rank = p
        digits = []
        for _ in range(prefix_sections):
            digits.append(rank % base)
            rank //= base
        digits.reverse()
        for sec, point in enumerate(digits):
            col = dic.section(sec)[:, point % code.B]
            shift = shift + (-col if point >= code.B else col)
        z = (y - shift)[None, :] - suffix
        rss = np.einsum("ij,ij->i", z, z)
        local = int(np.argmin(rss))
        if rss[local] < best_rss:
            best_rss = float(rss[local])
            best_rank = p * suffix.shape[0] + local

    return DecodeResult(_rank_to_coefficients(best_rank, L, code.B, code.signed),
                        best_rss / n)
