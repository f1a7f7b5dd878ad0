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
    _check_snr,
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


def _cells(ells, L: int, n, v, rate, t: float) -> np.ndarray:
    """Per-cell inputs of both bounds, one row each, as a (6, cells) array.

    Cell i is mistake count ells[i] at codelength n[i], snr v[i] and rate
    rate[i] (n, v and rate may be scalars shared by all cells).  The rows
    are n, the gap room = C_alpha - alpha R - t, ln(L choose ell), and the
    direct, refined and star spreads, the last being the direct spread at
    alpha^2.
    """
    ells = np.asarray(ells, dtype=np.int64).ravel()
    alpha = ells / L
    return np.stack(np.broadcast_arrays(
        n, partial_capacity(alpha, v) - alpha * rate - t,
        log_binomial(L, ells), spread_direct(alpha, v),
        spread_refined(alpha, v), spread_direct(alpha * alpha, v)))


def _union_logs(cells, clamp=None) -> np.ndarray:
    """ln of the single-term bound per cell, before clamping.

    clamp is the direct spread's clamp offset, (1/2)ln(1 - s_direct); it
    defaults to the exponent kernel's.
    """
    n, room, log_comb, s_direct, _, _ = cells
    return log_comb - n * _capped_exponent_array(room, s_direct, clamp)


def _split_terms(t_alpha, t, n, log_comb, s_main, clamp, s_star, room):
    """Log of the two split-bound terms at intermediate thresholds t_alpha."""
    main = log_comb - n * _capped_exponent_array(room - (t_alpha - t), s_main, clamp)
    star = -n * _exponent_array(t_alpha - t, s_star)
    return main, star


_GRID_POINTS = 256  # grid-stage points per cell of the split optimizer
_GRID_CHUNK = 16    # cells per grid-stage pass; bounds the (cells, grid) temporaries
_BRACKET_MARGIN = 1e-9  # relative slack of the bracket lower bound (see _split_search)


def _split_optimize(ells, L: int, n, v: float, rate, t: float,
                    grid_points: int = _GRID_POINTS):
    """Optimize the split bound over the open threshold interval, per cell.

    The cells are those of _cells(ells, L, n, v, rate, t); see _split_cells.
    """
    return _split_cells(_cells(ells, L, n, v, rate, t), t, grid_points)


def _split_cells(cells: np.ndarray, t: float, grid_points: int = _GRID_POINTS):
    """Optimize the split bound over the open threshold interval of each cell.

    The cells are the columns of a _cells table; _split_search does the
    optimization.  Returns arrays (log_total, t_alpha, log_main, log_star);
    a cell whose threshold leaves no room gives (0, t, 0, 0).
    """
    out = np.zeros((4, cells.shape[1]))
    out[1] = t
    has_room = cells[1] > 0.0
    if not has_room.any():
        return tuple(out)
    n, room, log_comb, _, s_main, s_star = cells[:, has_room]
    # the clamp offset takes math's log1p, as the scalar exponent has it
    P = np.stack([n, log_comb, s_main, 0.5 * _log1p(-s_main), s_star, room])
    x_opt, _ = _split_search(P, t, grid_points)
    main, star = _split_terms(x_opt, t, *P)
    out[:, has_room] = np.logaddexp(main, star), x_opt, main, star
    return tuple(out)


def _split_search(P: np.ndarray, t: float, grid_points: int = _GRID_POINTS,
                  stop: float | None = None, groups=None):
    """Grid stage, then golden-section refinement around each grid minimum.

    P has one column per cell with room and one row per parameter: n,
    log_comb, s_main, clamp, s_star, room.  The refinement runs on every
    cell in lockstep, with per-cell masks for the bracket update and the
    exits.  Returns (t_alpha, log_total): per cell, the best threshold the
    search evaluated and its value.

    Golden-section search keeps the better of its two interior points, so
    the returned value is the smallest one evaluated.  Given a ``stop``
    level, a cell therefore leaves at its first value at or below it, and
    its result is at or below ``stop`` exactly when the full search would
    end there.  ``groups`` (an integer label per cell) comes with ``stop``:
    a cell that finishes above ``stop`` ends its group, whose other cells
    leave where they are, above ``stop``.

    With ``stop``, a cell also finishes above it as soon as its bracket
    [a, b] proves the full search would.  The main term is nondecreasing
    in the threshold (its gap room - (x - t) shrinks) and the star term
    nonincreasing (its gap x - t grows), so every value left to evaluate,
    all inside the bracket, is at least logaddexp(main(a), star(b)).  Once
    that lower bound exceeds ``stop`` by _BRACKET_MARGIN, which covers the
    few ulps by which the rounded terms can break monotonicity, the cell
    fails.  The terms at the bracket ends and interior points ride along
    in the state, so the bound costs no evaluations beyond the two bracket
    ends at the start.
    """
    room = P[5]
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

    final = np.full((4, m), np.inf)                  # c, d, fc, fd at exit
    if stop is None:
        live, params, a, b = np.arange(m), P, lo, hi
    else:   # cells the grid settles skip the refinement
        live = np.flatnonzero(f_grid > stop)
        params, a, b = P[:, live], lo[live], hi[live]
        dead = np.zeros(groups.max(initial=-1) + 1, dtype=bool)
        fail_above = stop + _BRACKET_MARGIN * (1.0 + abs(stop))
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    ends = () if stop is None else (a, b)
    main, star = _split_terms(np.stack([c, d, *ends]), t, *params)
    # a, b, c, d, fc, fd, and with stop: mc, md, ma, sc, sd, sb, the main (m)
    # and star (s) terms at the interior points and the bracket ends
    S = np.stack([a, b, c, d, *np.logaddexp(main[:2], star[:2])])
    if stop is not None:
        S = np.concatenate([S, main[:3], star[[0, 1, 3]]])
    for _ in range(60):
        if not live.size:
            break
        a, b, c, d, fc, fd = S[:6]
        left = fc < fd
        a = np.where(left, a, c)
        b = np.where(left, d, b)
        x = np.where(left, b - GOLDEN * (b - a), a + GOLDEN * (b - a))
        mx, sx = _split_terms(x, t, *params)
        fx = np.logaddexp(mx, sx)
        rows = [a, b, np.where(left, x, d), np.where(left, c, x),
                np.where(left, fx, fd), np.where(left, fc, fx)]
        done = b - a <= 1e-14 * params[5]
        if stop is not None:
            mc, md, ma, sc, sd, sb = S[6:]
            ma, sb = np.where(left, ma, mc), np.where(left, sd, sb)
            rows += [np.where(left, mx, md), np.where(left, mc, mx), ma,
                     np.where(left, sx, sd), np.where(left, sc, sx), sb]
            hit = np.minimum(rows[4], rows[5]) <= stop
            done |= np.logaddexp(ma, sb) > fail_above
            dead[groups[live[done & ~hit]]] = True
            done |= hit | dead[groups[live]]
        S = np.stack(rows)
        if done.any():
            final[:, live[done]] = S[2:6, done]
            keep = ~done
            S, params, live = S[:, keep], params[:, keep], live[keep]
    final[:, live] = S[2:6]

    c, d, fc, fd = final
    left = fc < fd
    grid = f_grid < np.where(fd < fc, fd, fc)
    return (np.where(grid, x_grid, np.where(left, c, d)),
            np.where(grid, f_grid, np.where(left, fc, fd)))


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


_A_FLOOR = 1e-6   # lower bracket of the target search, returned when it already passes


def _target_table(ells, L: int, v, rate) -> np.ndarray:
    """Cells of the target search as an (8, rows, len(ells)) array.

    Row r holds mistake counts ells at snr v[r] and rate rate[r]: the six
    _cells rows with n left at zero, then the clamp offsets of the direct
    and refined spreads.  Only n depends on the section size rate, so a
    probe fills in n and reuses the rest.
    """
    k = len(ells)
    cells = _cells(np.tile(ells, v.size), L, 0.0, np.repeat(v, k),
                   np.repeat(rate, k), 0.0)
    clamps = 0.5 * _log1p(-cells[[3, 4]])
    return np.concatenate([cells, clamps]).reshape(8, v.size, k)


def _target_feasible(table: np.ndarray, n: np.ndarray, log_eps: float) -> np.ndarray:
    """Per row of a target table at codelength n[row]: is every clamped
    per-count bound at most exp(log_eps)?

    A cell passes when its union bound does, or else when some threshold
    the split search evaluates does (see _split_search); a row fails as
    soon as one of its cells fails, and its other cells stop there.
    """
    ok = np.ones(n.size, dtype=bool)
    if log_eps >= 0.0:    # clamped bounds never exceed 1
        return ok
    _, room, log_comb, _, s_main, s_star, clamp_direct, clamp_main = table
    open_ = _union_logs((n[:, None], *table[1:6]), clamp_direct) > log_eps
    ok &= ~np.any(open_ & (room <= 0.0), axis=1)   # no room: the split bound is 1
    rows, cols = np.nonzero(open_ & ok[:, None])
    if rows.size:
        P = np.stack([n[rows], log_comb[rows, cols], s_main[rows, cols],
                      clamp_main[rows, cols], s_star[rows, cols], room[rows, cols]])
        _, log_split = _split_search(P, 0.0, stop=log_eps, groups=rows)
        ok[rows[log_split > log_eps]] = False
    return ok


def min_section_size_rate_for_target(v, L: int, rate, alpha0: float,
                                     epsilon: float, a_max: float = 50.0,
                                     tol: float = 1e-6):
    """Smallest section size rate pushing every per-count bound below epsilon.

    Elementwise over broadcast v and rate: a float for scalars, an array
    for arrays.  The bounds cover every mistake count from alpha0 L up.
    Feasibility is monotone in a (larger a means longer codewords), so each
    element is a bracketed bisection on [1e-6, a_max] to width tol,
    re-deriving n = a L ln L / R at each probe.  All elements bisect in
    lockstep, one _target_feasible decision per step on one table of cells.
    Raises InfeasibleError for the first element, in input order, that
    even a_max fails.  L must be an integer of at least 2: at L = 1 the
    codelength is 0 for every a.
    """
    if not (isinstance(L, (int, np.integer)) and L >= 2):
        raise ValueError(f"L must be an integer >= 2, got {L!r}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    if not 0.0 <= alpha0 <= 1.0:
        raise ValueError(f"alpha0 must be in [0, 1], got {alpha0}")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not (a_max > _A_FLOOR and math.isfinite(a_max)):
        raise ValueError(f"a_max must be finite and above {_A_FLOOR}, got {a_max}")
    vs, rates = np.broadcast_arrays(np.asarray(v, dtype=np.float64),
                                    np.asarray(rate, dtype=np.float64))
    shape = vs.shape
    vs, rates = vs.ravel(), rates.ravel()
    _check_snr(vs)
    if not np.all(rates > 0.0):
        raise ValueError(f"rate must be positive, got {rates[~(rates > 0.0)]}")
    ells = np.arange(max(1, math.ceil(alpha0 * L - 1e-9)), L + 1)
    table = _target_table(ells, L, vs, rates)
    log_eps, log_L = math.log(epsilon), math.log(L)

    def feasible(rows, a):
        return _target_feasible(table[:, rows], a * L * log_L / rates[rows], log_eps)

    out = np.full(vs.size, _A_FLOOR)
    rows = np.flatnonzero(~feasible(np.arange(vs.size), out))
    lo, hi = np.full(rows.size, _A_FLOOR), np.full(rows.size, float(a_max))
    top = feasible(rows, hi)
    if not top.all():
        i = rows[np.argmin(top)]
        raise InfeasibleError(
            f"no section size rate up to {a_max} meets epsilon={epsilon} "
            f"at v={float(vs[i])}, L={L}, rate={float(rates[i])}, alpha0={alpha0}")
    while (live := np.flatnonzero(hi - lo > tol)).size:
        mid = 0.5 * (lo[live] + hi[live])
        ok = feasible(rows[live], mid)
        hi[live[ok]] = mid[ok]
        lo[live[~ok]] = mid[~ok]
    out[rows] = hi
    return float(out[0]) if not shape else out.reshape(shape)


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
