"""Error-probability bounds for least-squares decoding of superposition codes.

Per mistake-fraction bounds (the single-term union bound and the two-term
split bound with an optimized intermediate threshold), their aggregation
into a mistake-tail probability, the minimal section size rate meeting a
target bound level, the achievable composite-rate search, and the
finite-blocklength normal-approximation comparator.

Everything is computed in log space and exponentiated once, so values like
1e-12 are exact rather than underflow artifacts; probabilities are clamped
to [0, 1] at the boundary only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exponents import _capped_exponent_array, _exponent_array, _log1p
from .geometry import (
    ChannelSpec,
    CodeSpec,
    capacity,
    log_binomial,
    partial_capacity,
    spread_direct,
    spread_refined,
)
from .normal import q_inverse

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ALPHA0_CAP = 0.25   # largest outer mistake fraction achievable_rate tries


class InfeasibleError(RuntimeError):
    """No admissible parameter meets the requested bound level."""


@dataclass(frozen=True)
class BoundQuery:
    """Channel, code, and threshold context for the per-fraction bounds.

    The threshold t is the decoder tolerance in nats (delta0 / (2 sigma^2)).
    """

    channel: ChannelSpec
    code: CodeSpec
    t: float = 0.0

    def __post_init__(self):
        if self.t < 0:
            raise ValueError(f"threshold must be nonnegative, got {self.t}")


@dataclass(frozen=True)
class SectionBound:
    """Both bounds for one mistake count, with the split-bound internals."""

    ell: int
    alpha: float
    union_prob: float
    union_log: float
    split_prob: float
    split_log: float
    split_main_log: float
    split_star_log: float
    t_alpha_opt: float

    def chosen(self, policy: str = "split") -> float:
        """Per-count bound under the given aggregation policy.

        "split" takes the two-term bound alone (the aggregation the fig2
        curve family and its tail summary are built on); "min" takes the
        tighter minimum of both bounds.  At moderate rate fractions the
        single-term bound is dramatically tighter, so the two policies
        differ by many orders of magnitude; both are valid upper bounds.
        """
        if policy == "split":
            return self.split_prob
        if policy == "min":
            return min(self.union_prob, self.split_prob)
        raise ValueError(f"unknown policy {policy!r}")


@dataclass(frozen=True)
class TailBound:
    """Aggregated mistake-tail bound: sum of per-count chosen bounds."""

    ell0: int
    per_ell: tuple[SectionBound, ...]
    total: float
    policy: str = "split"


def _cells(ells, L: int, n, v: float, rate, t: float) -> np.ndarray:
    """Per-cell inputs of both bounds, one row each, as a (6, cells) array.

    Cell i is mistake count ells[i] at codelength n[i] and rate rate[i] (n
    and rate may be scalars shared by all cells).  The rows are n, the gap
    room = C_alpha - alpha R - t, ln(L choose ell), and the direct, refined
    and star spreads, the last being the direct spread at alpha^2.
    """
    ells = np.asarray(ells, dtype=np.int64).ravel()
    alpha = ells / L
    return np.stack(np.broadcast_arrays(
        n, partial_capacity(alpha, v) - alpha * rate - t,
        log_binomial(L, ells), spread_direct(alpha, v),
        spread_refined(alpha, v), spread_direct(alpha * alpha, v)))


def _union_logs(cells: np.ndarray) -> np.ndarray:
    """ln of the single-term bound per cell, before clamping."""
    n, room, log_comb, s_direct, _, _ = cells
    return log_comb - n * _capped_exponent_array(room, s_direct)


def _split_terms(t_alpha, t, n, log_comb, s_main, clamp, s_star, room):
    """Log of the two split-bound terms at intermediate thresholds t_alpha."""
    main = log_comb - n * _capped_exponent_array(room - (t_alpha - t), s_main, clamp)
    star = -n * _exponent_array(t_alpha - t, s_star)
    return main, star


_GRID_POINTS = 256  # grid-stage points per cell of the split optimizer
_GRID_CHUNK = 16    # cells per grid-stage pass; bounds the (cells, grid) temporaries


def _split_optimize(ells, L: int, n, v: float, rate, t: float,
                    grid_points: int = _GRID_POINTS):
    """Optimize the split bound over the open threshold interval, per cell.

    The cells are those of _cells(ells, L, n, v, rate, t); see _split_cells.
    """
    return _split_cells(_cells(ells, L, n, v, rate, t), t, grid_points)


def _split_cells(cells: np.ndarray, t: float, grid_points: int = _GRID_POINTS):
    """Optimize the split bound over the open threshold interval of each cell.

    Each cell of a _cells table gets a uniform grid, then golden-section
    refinement around the grid minimum; the refinement runs on every cell
    in lockstep, with per-cell masks for the bracket update and the early
    exit.  Returns arrays (log_total, t_alpha, log_main, log_star); a cell
    whose threshold leaves no room gives (0, t, 0, 0).
    """
    out = np.zeros((4, cells.shape[1]))
    out[1] = t
    has_room = cells[1] > 0.0
    if not has_room.any():
        return tuple(out)
    n, room, log_comb, _, s_main, s_star = cells[:, has_room]
    # one row per parameter: n, log_comb, s_main, clamp, s_star, room; the
    # clamp offset takes math's log1p, as the scalar exponent has it
    P = np.stack([n, log_comb, s_main, 0.5 * _log1p(-s_main), s_star, room])
    m = room.size

    ks = np.arange(1, grid_points + 1, dtype=np.float64)
    lo, hi, x_grid, f_grid = (np.empty(m) for _ in range(4))
    for start in range(0, m, _GRID_CHUNK):
        block = slice(start, start + _GRID_CHUNK)
        r = room[block, None]
        xs = t + r * ks / (grid_points + 1)
        tot = np.logaddexp(*_split_terms(xs, t, *P[:, block, None]))
        j = np.argmin(tot, axis=1)
        k = np.arange(j.size)
        x_grid[block] = xs[k, j]
        f_grid[block] = tot[k, j]
        lo[block] = np.where(j > 0, xs[k, j - 1], t + 1e-12 * r[:, 0])
        hi[block] = np.where(j < grid_points - 1,
                             xs[k, np.minimum(j + 1, grid_points - 1)],
                             t + r[:, 0] * (1.0 - 1e-12))

    def f(x, params):
        return np.logaddexp(*_split_terms(x, t, *params))

    a, b = lo, hi
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    S = np.stack([a, b, c, d, f(c, P), f(d, P)])   # a, b, c, d, fc, fd
    final = np.empty((4, m))                         # c, d, fc, fd at exit
    live, params = np.arange(m), P
    for _ in range(60):
        a, b, c, d, fc, fd = S
        left = fc < fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        x = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        fx = f(x, params)
        S = np.stack([a, b, np.where(left, x, d), np.where(left, c, x),
                      np.where(left, fx, fd), np.where(left, fc, fx)])
        done = b - a <= 1e-14 * params[5]
        if done.any():
            final[:, live[done]] = S[2:, done]
            keep = ~done
            S, params, live = S[:, keep], params[:, keep], live[keep]
            if not live.size:
                break
    final[:, live] = S[2:]

    c, d, fc, fd = final
    x_opt = np.where(fc < fd, c, d)
    x_opt = np.where(f_grid < np.where(fd < fc, fd, fc), x_grid, x_opt)
    main, star = _split_terms(x_opt, t, *P)
    out[:, has_room] = np.logaddexp(main, star), x_opt, main, star
    return tuple(out)


def _query_params(q: BoundQuery) -> tuple[int, float, float, float, float]:
    return q.code.L, q.code.n_real, q.channel.snr, q.code.rate, q.t


def union_bound(ell: int, q: BoundQuery) -> float:
    """Single-term bound on the probability of exactly ell/L mistakes."""
    L, n, v, rate, t = _query_params(q)
    if not 1 <= ell <= L:
        raise ValueError(f"need 1 <= ell <= L, got {ell}")
    u_log = float(_union_logs(_cells([ell], L, n, v, rate, t))[0])
    return min(1.0, math.exp(min(0.0, u_log)))


def split_bound(ell: int, q: BoundQuery) -> tuple[float, float]:
    """Two-term bound minimized over the intermediate threshold.

    Returns (probability, optimizing threshold).  Degenerates to 1 when the
    threshold leaves no interval to optimize over.
    """
    L, n, v, rate, t = _query_params(q)
    if not 1 <= ell <= L:
        raise ValueError(f"need 1 <= ell <= L, got {ell}")
    log_total, t_opt, _, _ = (float(x[0]) for x in
                              _split_optimize([ell], L, n, v, rate, t))
    return min(1.0, math.exp(min(0.0, log_total))), t_opt


def _section_bounds(ells, q: BoundQuery) -> tuple[SectionBound, ...]:
    """section_bound for each mistake count, from one table of cells."""
    L, n, v, rate, t = _query_params(q)
    cells = _cells(ells, L, n, v, rate, t)
    logs = [_union_logs(cells), *_split_cells(cells, t)]
    return tuple(
        SectionBound(
            ell=ell,
            alpha=ell / L,
            union_prob=min(1.0, math.exp(min(0.0, u_log))),
            union_log=u_log,
            split_prob=min(1.0, math.exp(min(0.0, s_log))),
            split_log=s_log,
            split_main_log=m_log,
            split_star_log=st_log,
            t_alpha_opt=t_opt,
        )
        for ell, u_log, s_log, t_opt, m_log, st_log
        in zip(ells, *(x.tolist() for x in logs)))


def section_bound(ell: int, q: BoundQuery) -> SectionBound:
    """Full per-fraction record: both bounds plus split internals."""
    if not 1 <= ell <= q.code.L:
        raise ValueError(f"need 1 <= ell <= L, got {ell}")
    return _section_bounds([ell], q)[0]


def mistake_tail_bound(ell0: int, q: BoundQuery,
                       policy: str = "split") -> TailBound:
    """Bound on P[mistakes >= ell0]: per-count bounds summed, clamped to 1."""
    L = q.code.L
    if not 1 <= ell0 <= L:
        raise ValueError(f"need 1 <= ell0 <= L, got {ell0}")
    per = _section_bounds(range(ell0, L + 1), q)
    return TailBound(ell0=ell0, per_ell=per,
                     total=min(1.0, sum(b.chosen(policy) for b in per)),
                     policy=policy)


def subset_rate(alpha: float, N: int, L: int, rate: float) -> float:
    """Rate term replacing alpha*R when all size-L subsets are codewords."""
    if L > N:
        raise ValueError(f"need L <= N, got L={L}, N={N}")
    ell = round(alpha * L)
    if abs(alpha * L - ell) > 1e-9:
        raise ValueError(f"alpha*L must be an integer, got {alpha * L}")
    if ell == 0:
        return 0.0
    return rate * log_binomial(N - L, ell) / log_binomial(N, L)


def min_section_size_rate_for_target(v: float, L: int, rate: float,
                                     alpha0: float, epsilon: float,
                                     a_max: float = 50.0,
                                     tol: float = 1e-6) -> float:
    """Smallest section size rate pushing every per-count bound below epsilon.

    Feasibility is monotone in a (larger a means longer codewords), so this
    is a bracketed bisection, re-deriving n = a L ln L / R at each probe.
    Raises InfeasibleError when even a_max fails.
    """
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    ells = np.arange(max(1, math.ceil(alpha0 * L - 1e-9)), L + 1)
    log_eps = math.log(epsilon)

    def feasible(a: float) -> bool:
        cells = _cells(ells, L, a * L * math.log(L) / rate, v, rate, 0.0)
        u = _union_logs(cells)
        above = u > log_eps
        if not above.any():
            return True
        s, _, _, _ = _split_cells(cells[:, above], 0.0)
        # compare clamped log probabilities, so epsilon = 1 always passes
        return not np.any(np.minimum(np.minimum(u[above], s), 0.0) > log_eps)

    a_lo = 1e-6
    if feasible(a_lo):
        return a_lo
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
    return hi


def next_power_of_two(x: int) -> int:
    return 1 << max(1, (int(x) - 1)).bit_length()


@dataclass(frozen=True)
class AchievableRate:
    """Best composite rate found on the declared search grid."""

    R_comp: float
    R_inner: float
    alpha0: float
    tail_total: float
    B: int
    n_real: float


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
    logs, _, _, _ = _split_optimize(np.tile(np.arange(1, L + 1), rates.size), L,
                                    np.repeat(ns, L), v, np.repeat(rates, L), 0.0)
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


def channel_dispersion(v: float) -> float:
    """Dispersion (v/2)(v+2)/(v+1)^2 in nats^2 per channel use."""
    if v <= 0:
        raise ValueError(f"snr must be positive, got {v}")
    return 0.5 * v * (v + 2.0) / (v + 1.0) ** 2


def normal_approximation_rate(v: float, n: float, epsilon: float) -> float:
    """Benchmark rate C - sqrt(V/n) Qinv(eps) + ln(n)/(2n) in nats."""
    if n <= 1:
        raise ValueError(f"codelength must exceed 1, got {n}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    C = capacity(v)
    return C - math.sqrt(channel_dispersion(v) / n) * q_inverse(epsilon) \
        + 0.5 * math.log(n) / n
