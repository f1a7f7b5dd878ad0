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

from .exponents import (
    _capped_exponent_array,
    _exponent_array,
    _interior,
    _log1p,
    _prepare_spread,
    _tilt,
)
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

ALPHA0_CAP = 0.25   # largest outer mistake fraction achievable_rate tries


class InfeasibleError(RuntimeError):
    """No admissible parameter meets the requested bound level."""


@dataclass(frozen=True)
class BoundQuery:
    """Channel, code, and threshold context for the per-fraction bounds.

    The threshold t (nats) is the bound's slack: it covers every decoder
    whose residual is within delta0 = 2 sigma^2 t of the true codeword's.
    The exact least-squares decoder never does worse than the truth, so
    it is covered at every t >= 0.
    """

    channel: ChannelSpec
    code: CodeSpec
    t: float = 0.0

    def __post_init__(self):
        if not (self.t >= 0 and math.isfinite(self.t)):
            raise ValueError(f"threshold must be nonnegative and finite, got {self.t}")


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

    def total_from(self, ell0: int) -> float:
        """The tail from a larger ell0: the suffix of per_ell from ell0 on,
        summed and clamped as total is, so ell0 = self.ell0 gives total."""
        if not self.ell0 <= ell0 < self.ell0 + len(self.per_ell):
            raise ValueError(f"need {self.ell0} <= ell0 <= "
                             f"{self.ell0 + len(self.per_ell) - 1}, got {ell0}")
        return _clamped_sum(self.per_ell[ell0 - self.ell0:], self.policy)


def _clamped_sum(per_ell, policy: str) -> float:
    return min(1.0, sum(b.chosen(policy) for b in per_ell))


def _first_count(alpha0: float, L: int) -> int:
    """Smallest mistake count a tail from mistake fraction alpha0 covers.

    ValueError unless alpha0 is in [0, 1] (NaN included), before any bound
    is computed.
    """
    if not 0.0 <= alpha0 <= 1.0:
        raise ValueError(f"alpha0 must be in [0, 1], got {alpha0}")
    return max(1, math.ceil(alpha0 * L - 1e-9))


def _cells(ells, L: int, n, v, rate, t: float) -> np.ndarray:
    """Per-cell inputs of both bounds as an (8, ...) table, one row each.

    The rows are n, the gap room = C_alpha - alpha R - t, ln(L choose ell),
    the direct, refined and star spreads (the last the direct spread at
    alpha^2), and the clamp offsets (1/2)ln(1 - s) of the direct and
    refined spreads, with math's log1p bits.  The per-count rows are built
    once over the raveled ells and v, and n and rate broadcast against
    them: a v of shape (rows, 1) gives one row of counts per snr, an n and
    rate of shape (rates, 1) one row per rate.
    """
    ells = np.asarray(ells, dtype=np.int64).ravel()
    alpha = ells / L
    s_direct, s_refined = spread_direct(alpha, v), spread_refined(alpha, v)
    return np.stack(np.broadcast_arrays(
        n, partial_capacity(alpha, v) - alpha * rate - t, log_binomial(L, ells),
        s_direct, s_refined, spread_direct(alpha * alpha, v),
        0.5 * _log1p(-s_direct), 0.5 * _log1p(-s_refined)))


def _union_logs(cells) -> np.ndarray:
    """ln of the single-term bound per cell of a _cells table, before clamping."""
    n, room, log_comb, s_direct, _, _, clamp, _ = cells
    return log_comb - n * _capped_exponent_array(room, s_direct, clamp)


def _split_terms(t_alpha, t, cells):
    """Log of the two split-bound terms at intermediate thresholds t_alpha.

    cells is a _cells table, or its rows with both spreads of the split
    bound replaced by their _Spread (see exponents and _refine_params).
    """
    n, room, log_comb, _, s_main, s_star, _, clamp = cells
    gap = t_alpha - t
    main = log_comb - n * _capped_exponent_array(room - gap, s_main, clamp)
    star = -n * _exponent_array(gap, s_star)
    return main, star


def _split_newton(t_alpha, t, params):
    """The split terms at thresholds t_alpha inside the open interval, the
    log-ratio rho = ln(-main'/star') of their slopes, and dh/dt_alpha for h
    = main - star + rho.

    params are a _cells table's rows with both split spreads prepared
    (_refine_params).  F = logaddexp(main, star) has the sign of h as its
    slope.  An exponent's slope in its gap is its optimal tilt lam (the
    envelope theorem), so main' = n min(lam_main, 1), which is n on the
    capped branch and at zero spread, and star' = -n lam_star.  Its second
    derivative is (1 - lam^2 s)^2 / (s (1 + lam^2 s)) = 2 / (s root (1 +
    root)), with root from _interior, and 0 on the capped branch; so E''/E'
    = 1 / (root gap) on the interior branch, and dh = main' - star' -
    (star''/star' - main''/main').  As the threshold grows, main - star
    rises and rho falls: the main tilt falls as its gap shrinks, and the
    star tilt rises as its gap grows.
    """
    main, star = _split_terms(t_alpha, t, params)
    n, room, _, _, s_main, s_star, _, _ = params
    gap = t_alpha - t
    d = room - gap
    _, root_main = _interior(d, s_main.safe)
    _, root_star = _interior(gap, s_star.safe)
    lam_main = _tilt(d, s_main.safe, root_main)
    lam_star = _tilt(gap, s_star.safe, root_star)
    interior = lam_main < 1.0
    if s_main.any_zero:
        interior &= ~s_main.zero
    slope_main = np.where(interior, lam_main, 1.0)
    dh = (n * (slope_main + lam_star) - 1.0 / (root_star * gap)
          - np.where(interior, 1.0 / (root_main * d), 0.0))
    return main, star, np.log(slope_main / lam_star), dh


_GRID_POINTS = 256  # grid-stage points per cell of the split optimizer
_GRID_CHUNK = 128   # cells per grid-stage pass; bounds the (cells, grid) temporaries
_GRID_BLOCK = 16    # grid points per block the grid stage may skip (see _grid_and_refine)
_BRACKET_MARGIN = 1e-9  # relative slack of the bracket lower bound (see _split_search)


def _split_cells(cells: np.ndarray, t: float, grid_points: int = _GRID_POINTS):
    """Optimize the split bound over the open threshold interval of each cell.

    The cells are the columns of a _cells table: a grid stage, then a
    safeguarded Newton refinement around each grid minimum
    (_grid_and_refine).  Returns arrays (log_total, t_alpha, log_main,
    log_star); a cell whose threshold leaves no room gives (0, t, 0, 0).
    """
    out = np.zeros((4, cells.shape[1]))
    out[1] = t
    has_room = cells[1] > 0.0
    if not has_room.any():
        return tuple(out)
    cells = cells[:, has_room]
    x_opt, _, _ = _grid_and_refine(cells, t, grid_points)
    main, star = _split_terms(x_opt, t, cells)
    out[:, has_room] = np.logaddexp(main, star), x_opt, main, star
    return tuple(out)


def _fail_above(stop: float) -> float:
    """Level a bracket lower bound must exceed to fail a cell (see _split_search)."""
    return stop + _BRACKET_MARGIN * (1.0 + abs(stop))


def _grid_thresholds(t, room, ks, grid_points: int):
    """Thresholds t + room ks / (grid_points + 1) at 1-based grid positions ks.

    The grid stage and the warm-start check of _split_search both place
    their points here, so a grid point has the same bits in either.
    """
    return t + room * ks / (grid_points + 1)


def _split_search(cells: np.ndarray, t: float, stop: float, groups, hint=None):
    """Is the optimized split bound of each cell at or below ``stop``?

    cells are the columns with room of a _cells table.  The search is
    _grid_and_refine's (a grid stage, then a safeguarded Newton refinement
    around each grid minimum, on every cell in lockstep), cut short once
    a cell's decision is known: the same points, evaluated in the same
    order, until then.  Returns (t_alpha, log_total): per cell, the
    threshold it left at and its value.

    The refinement keeps the best value it evaluates, starting from the
    grid minimum's, so the full search returns the smallest value it
    evaluated.  A cell therefore leaves at its first value at or below
    ``stop``, and its result is at or below ``stop`` exactly when the full
    search would end there.  ``groups`` is an integer label per cell: a
    cell that finishes above ``stop`` ends its group, whose other cells
    leave where they are; a cell that ends before any evaluation reports
    (nan, inf).

    A cell also finishes above ``stop`` as soon as its bracket [a, b]
    proves the full search would.  The main term is nondecreasing in the
    threshold (its gap room - (x - t) shrinks) and the star term
    nonincreasing (its gap x - t grows), and every point the refinement
    evaluates lies inside its bracket at the time, so every value left to
    evaluate is at least logaddexp(main(a), star(b)).  Once that lower
    bound exceeds ``stop`` by _BRACKET_MARGIN, which covers the few ulps
    by which the rounded terms can break monotonicity, the cell fails.
    The terms at the bracket ends ride along in the refinement's state, so
    the bound costs no evaluations beyond the two bracket ends the
    refinement starts with.

    Two checks run before any grid work, and neither changes a decision:
    - the whole-interval screen: the bound over the widest bracket, [t +
      1e-12 room, t + room (1 - 1e-12)], holds every threshold either
      stage evaluates, so a cell it fails would fail the full search;
    - with ``hint`` (a grid index per cell, 0 to _GRID_POINTS - 1), the
      warm check: each cell is evaluated at its hinted grid point, which
      its full search evaluates too, with the same bits (see
      _grid_thresholds).  A value at or below ``stop`` there means the
      full search ends at or below it as well, so the cell passes.
    Only the cells left after both run the grid stage and the refinement,
    and ``hint`` is updated in place with their new grid argmin.
    """
    m = cells.shape[1]
    x_out, f_out = np.full(m, np.nan), np.full(m, np.inf)
    dead = np.zeros(groups.max(initial=-1) + 1, dtype=bool)
    room = cells[1]
    main, star = _split_terms(np.stack([t + 1e-12 * room, t + room * (1.0 - 1e-12)]),
                              t, cells)
    dead[groups[np.logaddexp(main[0], star[1]) > _fail_above(stop)]] = True
    search = np.flatnonzero(~dead[groups])
    if hint is not None and search.size:
        x = _grid_thresholds(t, room[search], hint[search] + 1.0, _GRID_POINTS)
        f = np.logaddexp(*_split_terms(x, t, cells[:, search]))
        met = f <= stop
        x_out[search[met]], f_out[search[met]] = x[met], f[met]
        search = search[~met]
    if search.size:
        x, f, j = _grid_and_refine(cells[:, search], t, _GRID_POINTS, stop,
                                   groups[search], dead)
        x_out[search], f_out[search] = x, f
        if hint is not None:
            hint[search] = j
    return x_out, f_out


def _block_ends(grid_points: int):
    """0-based grid indices of the first and last point of each grid-stage block."""
    first = np.arange(0, grid_points, _GRID_BLOCK)
    return first, np.minimum(first + _GRID_BLOCK - 1, grid_points - 1)


def _grid_and_refine(cells: np.ndarray, t: float, grid_points: int,
                     stop: float | None = None, groups=None, dead=None):
    """Grid stage, then safeguarded Newton refinement around each grid minimum.

    The cells are the columns with room of a _cells table.  Returns
    (t_alpha, log_total, j): per cell, the best threshold evaluated, its
    value and the index of its grid minimum.  With ``stop``, the cells the
    grid settles at or below it skip the refinement.

    The grid stage splits the grid into blocks of _GRID_BLOCK points and
    evaluates each cell at both ends of every block first.  By the
    monotone terms of _split_search's bracket lower bound, every point of
    a block is worth at least logaddexp(main(first), star(last)); where
    that clears the best end value by _fail_above's margin, no point
    inside the block can reach that value, let alone tie the minimum, so
    the block's inside is left unevaluated.  The argmin, its first-index
    ties and the bits of every grid value are those of the full grid.

    The refinement (_refine) brackets each grid minimum by its two grid
    neighbours, or by the open interval's end, 1e-12 of the room inside
    it, where the minimum is the grid's first or last point.
    """
    room = cells[1]
    m = room.size
    ks = np.arange(1, grid_points + 1, dtype=np.float64)
    first, last = _block_ends(grid_points)
    # (first, last) per block; a point evaluated twice gets the same bits twice
    ends = np.stack([first, last], axis=1).ravel()
    # each block's inside; a block shorter than _GRID_BLOCK repeats its last point
    inside = np.minimum(first[:, None] + np.arange(1, _GRID_BLOCK - 1), last[:, None])
    j_min = np.empty(m, dtype=np.int64)
    lo, hi, x_grid, f_grid = (np.empty(m) for _ in range(4))
    for start in range(0, m, _GRID_CHUNK):
        part = slice(start, start + _GRID_CHUNK)
        r = room[part, None]
        chunk = cells[:, part, None]
        tot = np.full((r.size, grid_points), np.inf)
        main, star = _split_terms(_grid_thresholds(t, r, ks[ends], grid_points), t, chunk)
        tot[:, ends] = end_values = np.logaddexp(main, star)
        floor = np.logaddexp(main[:, 0::2], star[:, 1::2])
        rows, blocks = np.nonzero(~(floor > _fail_above(end_values.min(axis=1))[:, None]))
        pts = inside[blocks]
        tot[rows[:, None], pts] = np.logaddexp(*_split_terms(
            _grid_thresholds(t, r[rows], ks[pts], grid_points), t, chunk[:, rows]))
        j = np.argmin(tot, axis=1)
        j_min[part] = j
        f_grid[part] = tot[np.arange(j.size), j]
        x_grid[part], x_lo, x_hi = _grid_thresholds(
            t, r[:, 0], ks[[j, np.maximum(j - 1, 0), np.minimum(j + 1, grid_points - 1)]],
            grid_points)
        lo[part] = np.where(j > 0, x_lo, t + 1e-12 * r[:, 0])
        hi[part] = np.where(j < grid_points - 1, x_hi, t + r[:, 0] * (1.0 - 1e-12))

    if stop is None:
        return (*_refine(cells, t, x_grid, lo, hi), j_min)
    live = np.flatnonzero(f_grid > stop)     # cells the grid settles skip the refinement
    if live.size:
        x_grid[live], f_grid[live] = _refine(cells[:, live], t, x_grid[live], lo[live],
                                             hi[live], stop, groups[live], dead)
    return x_grid, f_grid, j_min


def _refine_params(cells: np.ndarray) -> list:
    """The rows of a _cells table, the split bound's two spreads prepared."""
    params = list(cells)
    params[4:6] = map(_prepare_spread, params[4:6])
    return params


_REFINE_STEPS = 60  # bisection alone narrows a grid bracket to 1e-14 of the room in 40


# a bracket end within rounding of the interval's end has a zero gap, where
# h and dh are infinite (with h's sign right) or nan; such a step bisects
@np.errstate(divide="ignore", invalid="ignore")
def _refine(cells: np.ndarray, t: float, x, a, b, stop: float | None = None,
            groups=None, dead=None) -> np.ndarray:
    """Safeguarded Newton search of every cell on its bracket [a, b], in lockstep.

    x is each cell's grid minimum, inside its bracket.  Returns a (2,
    cells) array: per cell, the best threshold evaluated and its value.

    The search looks for a zero of h = main - star + rho (_split_newton),
    which has the sign of the split bound's slope.  Newton's method on the
    slope itself can step away from the minimum where a capped, linear
    main term crosses the star term, since the bound follows the concave
    star term below the crossing; h is nearly linear across it.

    The search starts from x and both bracket ends, evaluated in one call,
    and keeps the best point evaluated.  Each step takes the latest point:
    if it is the best point, it moves the bracket end on the side its h
    points away from, else the end on its side of the best point, so the
    bracket always holds the best point.  The next point is the Newton
    point x - h/dh, or the bracket's midpoint when dh <= 0 or the Newton
    point falls outside (a, b).  A cell stops when its Newton step is at
    most 1e-10 of the room with dh > 0, or its bracket at most 1e-14 of
    the room.

    A cell also stops when its best point is one bracket end, the latest
    point the other, and the split bound is monotone in between.  main -
    star rises with the threshold and rho falls, so h >= (main - star)(p)
    + rho(q) on [p, q], and h <= (main - star)(q) + rho(p): a best point a
    with (main - star)(a) + rho(b) >= 0 is the minimum over [a, b], and so
    is a best point b with (main - star)(b) + rho(a) <= 0.  That ends the
    cells whose minimum is at an end of the open interval on their first
    step, where bisection would take about 40.

    Every point a cell evaluates lies in the bracket it had then, which
    _split_search's bracket lower bound rests on.  The state is a list of
    per-cell arrays; it and the prepared parameters are compacted only
    when a cell exits.  With ``stop`` (see _split_search), a cell also
    exits once its best value is at or below ``stop``, or once its bracket
    lower bound logaddexp(main(a), star(b)) clears _fail_above(stop); one
    that finishes above ``stop`` marks its group in ``dead``, and the
    group's other cells exit with it.
    """
    out = np.empty((2, x.size))
    live = np.arange(x.size)
    params = _refine_params(cells)
    pts = np.stack([x, a, b])
    main, star, rho, dh = _split_newton(pts, t, params)
    f = np.logaddexp(main, star)
    pick = np.argmin(f, axis=0), np.arange(x.size)    # the grid minimum wins ties
    # a, b, the latest point x, its main and star terms, rho and dh, and the
    # best point, its value and its main - star; with stop also main(a)
    # and star(b)
    state = [a, b, x, main[0], star[0], rho[0], dh[0], pts[pick], f[pick],
             (main - star)[pick]]
    decide = stop is not None
    if decide:
        state += [main[1], star[2]]
        fail_above = _fail_above(stop)
    for _ in range(_REFINE_STEPS):
        a, b, x, main, star, rho, dh, best_x, best_f, best_diff = state[:10]
        h = main - star + rho
        at_best = x == best_x
        up = np.where(at_best, h < 0.0, x < best_x)        # the minimum lies above x
        down = np.where(at_best, h > 0.0, x > best_x)
        a, b = np.where(up, x, a), np.where(down, x, b)
        step = h / dh
        newton = x - step
        bisect = ~((dh > 0.0) & (a < newton) & (newton < b))
        room = cells[1]
        done = (((dh > 0.0) & (np.abs(step) <= 1e-10 * room)) | (b - a <= 1e-14 * room)
                | (down & (best_x == a) & (best_diff + rho >= 0.0))
                | (up & (best_x == b) & (best_diff + rho <= 0.0)))
        state[:3] = a, b, np.where(bisect, 0.5 * (a + b), newton)
        if decide:
            main_a, star_b = np.where(up, main, state[10]), np.where(down, star, state[11])
            state[10:] = main_a, star_b
            hit = best_f <= stop
            done |= hit | (np.logaddexp(main_a, star_b) > fail_above)
        if np.count_nonzero(done):     # a cheaper test than done.any() on small arrays
            if decide:
                dead[groups[done & ~hit]] = True
                done |= dead[groups]
            out[:, live[done]] = best_x[done], best_f[done]
            keep = ~done
            live, cells = live[keep], cells[:, keep]
            if not live.size:
                return out
            state = [s[keep] for s in state]
            params = _refine_params(cells)
            if decide:
                groups = groups[keep]
        x, best_x, best_f, best_diff = state[2], *state[7:10]
        main, star, rho, dh = _split_newton(x, t, params)
        f = np.logaddexp(main, star)
        better = f < best_f
        state[3:10] = (main, star, rho, dh, np.where(better, x, best_x),
                       np.where(better, f, best_f),
                       np.where(better, main - star, best_diff))
    out[:, live] = state[7:9]
    return out


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
                              _split_cells(_cells([ell], L, n, v, rate, t), t))
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
    return TailBound(ell0=ell0, per_ell=per, total=_clamped_sum(per, policy),
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


def _target_feasible(table: np.ndarray, n: np.ndarray, log_eps: float,
                     hint=None) -> np.ndarray:
    """Per row of a (8, rows, counts) _cells table at codelength n[row]: is
    every clamped per-count bound at most exp(log_eps)?

    The table's own n row is not read.  A cell passes when its union bound
    does, or else when some threshold the split search evaluates does (see
    _split_search); a row fails as soon as one of its cells fails, and its
    other cells stop there.
    ``hint``, an integer array on the table's (rows, counts) shape, warm
    starts each split search at a grid point and takes its new grid argmin
    in place.
    """
    ok = np.ones(n.size, dtype=bool)
    if log_eps >= 0.0:    # clamped bounds never exceed 1
        return ok
    open_ = _union_logs((n[:, None], *table[1:])) > log_eps
    ok &= ~np.any(open_ & (table[1] <= 0.0), axis=1)   # no room: the split bound is 1
    rows, cols = np.nonzero(open_ & ok[:, None])
    if rows.size:
        cells = table[:, rows, cols]
        cells[0] = n[rows]
        cell_hint = None if hint is None else hint[rows, cols]
        _, log_split = _split_search(cells, 0.0, log_eps, rows, cell_hint)
        if hint is not None:
            hint[rows, cols] = cell_hint
        ok[rows[log_split > log_eps]] = False
    return ok


_PREDICT_PASSES = 8     # most fixed-point passes of _predict_targets
_PREDICT_SETTLED = 1e-7  # a pass moving no need that matters by more, relative, is the last
_NEED_STEPS = 30        # cap on the Newton steps of _split_needs; about 6 are taken


def _term_exponents(x, cells):
    """The exponents Em and Es of the two split terms at thresholds x, t = 0.

    cells is a _cells table broadcast against x; its n row is not read.
    The terms are ln(L choose ell) - n Em and -n Es.
    """
    _, room, _, _, s_main, s_star, _, clamp = cells
    main, star = _split_terms(x, 0.0, (1.0, room, 0.0, None, s_main, s_star, None, clamp))
    return -main, -star


def _term_needs(e_main, e_star, log_comb, log_eps: float):
    """The codelengths (lc - log_eps)/Em and -log_eps/Es at which each split
    term alone is exp(log_eps); the first rises with the threshold, the
    second falls."""
    return (log_comb - log_eps) / e_main, -log_eps / e_star


def _split_needs(e_main, e_star, log_comb, log_eps: float) -> np.ndarray:
    """The codelength N at which the split bound with term exponents Em and
    Es (_term_exponents) is exp(log_eps) < 1.

    Only n varies, so N solves g(n) = logaddexp(lc - n Em, -n Es) =
    log_eps, lc = ln(L choose ell).  g is convex and decreasing, and at the
    larger of the two _term_needs one term is exp(log_eps) and the other at
    most that, so g >= log_eps there: Newton's method from there rises to N
    from below.  A zero exponent gives an infinite N.
    """
    n = np.maximum(*_term_needs(e_main, e_star, log_comb, log_eps))
    live = np.isfinite(n)
    n = np.where(live, n, math.inf)
    for _ in range(_NEED_STEPS):
        main, star = log_comb - n * e_main, -n * e_star
        total = np.logaddexp(main, star)
        step = (total - log_eps) / (e_main * np.exp(main - total)
                                    + e_star * np.exp(star - total))
        n = np.where(live, n + step, n)
        live &= step > 1e-13 * n
        if not live.any():
            break
    return n


# a zero exponent makes a need infinite and the arithmetic on it nan: such a
# cell's need is then its union need, or its row's guess is off and the
# replay probes its way to the target
@np.errstate(all="ignore")
def _predict_targets(table: np.ndarray, n_per_a, log_eps: float, hint) -> np.ndarray:
    """Per row of a (8, rows, counts) _cells table, a guess at the smallest
    section size rate at which every cell meets exp(log_eps) < 1.

    n_per_a is each row's codelength per unit of section size rate, and
    every cell needs room (as every cell of a row that passes at some a
    has).  A cell needs n_u = (lc - log_eps)/E_union for its union bound,
    and min over x of N(x) (_split_needs) for its split bound.  That
    minimum is the fixed point of n <- N(x*(n)), x*(n) the split bound's
    best threshold at n: at the minimizer the bound at every threshold is
    at least exp(log_eps), so it is the best one.  From any start the
    iterates fall, since the best threshold at n beats the one whose N is
    n; near the fixed point they converge quadratically, since N is flat
    at its minimum.

    Each cell starts at the best of its grid's block ends by the larger of
    its two _term_needs, which is at most N and within ln(2)/min(Em, Es)
    of it.  Those values also bound the cell's need from below (the floor
    in the code), and a row needs at least the largest floor of its cells;
    a cell whose need is already below that can never set its row's need,
    so only the others iterate.  Each pass refines the threshold over the
    open interval with _refine at the cell's latest n, from its latest
    threshold, and takes N there.  A row's need is the largest over its
    cells of min(n_u, N), and its guess that over n_per_a.  The passes stop
    once one moves no N by more than _PREDICT_SETTLED relative, which the
    quadratic convergence leaves far inside a bisection leaf, among the
    cells whose need was at or above their row's new need: needs only
    fall, so no other cell can set a row's need again.

    ``hint``, an integer array on the table's (rows, counts) shape, takes
    the grid index nearest each cell's last threshold, where a warm check
    near the guess (_split_search) is likely to pass.
    """
    rows = table.shape[1]
    cells = table.reshape(8, -1)
    room, log_comb = cells[1], cells[2]
    n_union = (log_comb - log_eps) / -_union_logs((1.0, room, 0.0, *cells[3:]))
    first, last = _block_ends(_GRID_POINTS)
    ks = np.arange(1.0, _GRID_POINTS + 1.0)[np.stack([first, last], axis=1).ravel()]
    xs = _grid_thresholds(0.0, room[:, None], ks, _GRID_POINTS)
    e_main, e_star = _term_exponents(xs, cells[:, :, None])
    main_need, star_need = _term_needs(e_main, e_star, log_comb[:, None], log_eps)
    pick = np.arange(room.size), np.argmin(np.maximum(main_need, star_need), axis=1)
    x = xs[pick]
    n = _split_needs(e_main[pick], e_star[pick], log_comb, log_eps)
    cell_need = np.minimum(n_union, n).reshape(rows, -1)
    # N >= max(main need, star need), and between consecutive block ends
    # the first is at least its value at the lower end and the second at
    # the upper; below the first end and above the last, one term alone
    floor = np.minimum(np.maximum(main_need[:, :-1], star_need[:, 1:]).min(axis=1),
                       np.minimum(star_need[:, 0], main_need[:, -1]))
    row_floor = np.minimum(n_union, floor).reshape(rows, -1).max(axis=1)
    live = np.flatnonzero(cell_need >= (1.0 - _BRACKET_MARGIN) * row_floor[:, None])
    cells = cells[:, live]
    lo, hi = 1e-12 * room[live], room[live] * (1.0 - 1e-12)
    need = cell_need.max(axis=1)
    for _ in range(_PREDICT_PASSES):
        cells[0] = n[live]
        x[live] = _refine(cells, 0.0, x[live], lo, hi)[0]
        last = n[live]
        n[live] = _split_needs(*_term_exponents(x[live], cells), log_comb[live], log_eps)
        top, cell_need = cell_need, np.minimum(n_union, n).reshape(rows, -1)
        need = cell_need.max(axis=1)
        moved = last - n[live] > _PREDICT_SETTLED * n[live]
        if not np.any(moved & (top >= need[:, None]).ravel()[live]):
            break
    k = np.clip(np.nan_to_num(np.rint(x / room * (_GRID_POINTS + 1))), 1, _GRID_POINTS)
    hint[...] = k.reshape(hint.shape) - 1
    return need / n_per_a


def _bisect(lo, hi, tol: float, known_fail, known_pass, probe=None):
    """Bisect each bracket [lo, hi] to width at most tol; returns (lo, hi).

    Each step halves a bracket at mid = (lo + hi)/2, as a plain bisection
    does.  A mid at or above the row's known_pass point passes and becomes
    hi, else one at or below its known_fail point fails and becomes lo;
    other mids go to probe(rows, mids), a bool per row, one call per round
    for every row waiting on one, and its answers become known points.
    With a predicate monotone in the mid, known points that agree with it
    leave every bracket where the plain bisection ends.  Without probe,
    every mid must be decided by the known points; a known_fail of inf
    fails every mid below known_pass.
    """
    lo, hi = np.array(lo, dtype=np.float64), np.array(hi, dtype=np.float64)
    known_fail, known_pass = (np.array(np.broadcast_to(k, lo.shape), dtype=np.float64)
                              for k in (known_fail, known_pass))
    while True:
        while True:
            live = hi - lo > tol
            mid = 0.5 * (lo + hi)
            up = live & (mid >= known_pass)
            down = live & ~up & (mid <= known_fail)
            if not (up.any() or down.any()):
                break
            hi[up], lo[down] = mid[up], mid[down]
        ask = np.flatnonzero(live)
        if not ask.size:
            return lo, hi
        ok = np.asarray(probe(ask, mid[ask]), dtype=bool)
        known_pass[ask[ok]] = mid[ask[ok]]
        known_fail[ask[~ok]] = mid[ask[~ok]]


def min_section_size_rate_for_target(v, L: int, rate, alpha0: float,
                                     epsilon: float, a_max: float = 50.0,
                                     tol: float = 1e-6):
    """Smallest section size rate pushing every per-count bound below epsilon.

    Elementwise over broadcast v and rate: a float for scalars, an array
    for arrays.  The bounds cover every mistake count from alpha0 L up.
    Feasibility is monotone in a (larger a means longer codewords), so each
    element's answer is where a bisection on [1e-6, a_max] to width tol
    ends: the upper end of its last bracket, with n = a L ln L / R at each
    probe.  A probe is one _target_feasible decision for any number of
    elements on one table of cells, and each cell's latest grid argmin
    warm starts its next split search.  1e-6 is probed first, then a_max
    for the elements 1e-6 fails; the rest are searched in three steps:
    - predict: _predict_targets guesses each element's target from closed
      forms in n, and sets each cell's warm start near its threshold there;
    - verify: the bisection's leaf that holds the guess, [p, q], is found
      by replaying the bisection's float arithmetic with mid >= guess as a
      pass, and p and q are probed for every element in one call;
    - replay: _bisect reruns the bisection from each element's largest a
      known to fail and smallest known to pass.  A mid at or below the
      first fails and one at or above the second passes without a probe;
      the others are probed, one call per round for every element waiting.
      A guess in the right leaf (p fails, q passes) needs no further probe;
      a wrong one needs no more than the bisection's own probes.
    Each answer is the bisection's leaf wherever feasibility is monotone in
    a across the points probed here and by the bisection: the replay then
    decides every mid as a probe would.  The exact bound is monotone, since
    both of its terms fall as n grows, and the split search is within
    about 1e-13 relative of it, so a flip needs a bisection point within
    about 1e-12 of the crossing.  The guess moves only the probes, so only
    the speed.
    Raises InfeasibleError for the first element, in input order, that
    even a_max fails.  L must be an integer of at least 2: at L = 1 the
    codelength is 0 for every a.
    """
    if not (isinstance(L, (int, np.integer)) and L >= 2):
        raise ValueError(f"L must be an integer >= 2, got {L!r}")
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"epsilon must be in (0, 1], got {epsilon}")
    ell0 = _first_count(alpha0, L)
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
    # only n depends on the section size rate: a probe fills it in
    table = _cells(np.arange(ell0, L + 1), L, 0.0, vs[:, None], rates[:, None], 0.0)
    log_eps, log_L = math.log(epsilon), math.log(L)
    hint = np.full(table.shape[1:], _GRID_POINTS // 2)

    def feasible(rows, a):
        row_hint = hint[rows]
        ok = _target_feasible(table[:, rows], a * L * log_L / rates[rows], log_eps,
                              row_hint)
        hint[rows] = row_hint
        return ok

    out = np.full(vs.size, _A_FLOOR)
    rows = np.flatnonzero(~feasible(np.arange(vs.size), out))
    lo, hi = np.full(rows.size, _A_FLOOR), np.full(rows.size, float(a_max))
    top = feasible(rows, hi)
    if not top.all():
        i = rows[np.argmin(top)]
        raise InfeasibleError(
            f"no section size rate up to {a_max} meets epsilon={epsilon} "
            f"at v={float(vs[i])}, L={L}, rate={float(rates[i])}, alpha0={alpha0}")
    if rows.size:
        n_per_a = L * log_L / rates[rows]
        row_hint = hint[rows]
        guess = _predict_targets(table[:, rows], n_per_a, log_eps, row_hint)
        hint[rows] = row_hint
        # the leaf of each guess's bisection, then both its ends in one probe
        p, q = _bisect(lo, hi, tol, math.inf, guess)
        ends = np.stack([p, q])
        ok = feasible(np.tile(rows, 2), ends.ravel()).reshape(2, -1)
        known_fail = np.maximum(lo, np.where(ok, -math.inf, ends).max(axis=0))
        known_pass = np.minimum(hi, np.where(ok, ends, math.inf).min(axis=0))
        _, hi = _bisect(lo, hi, tol, known_fail, known_pass,
                        lambda i, mid: feasible(rows[i], mid))
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


_RATE_BLOCK = 16    # rates per section count per round of achievable_rate


def _rates_may_pass(blocks, stop: float) -> list:
    """Per (8, rates, counts) slice of a _cells table, a mask of the rates
    whose optimized split bound may be at or below ``stop`` at every count.

    One decision _split_search covers every slice, one group per rate: a
    rate is masked out once one of its counts has no room (its split bound
    is 1) or ends its search above ``stop``.
    """
    starts = np.cumsum([0] + [b.shape[1] for b in blocks])
    cells = np.concatenate([b.reshape(8, -1) for b in blocks], axis=1)
    groups = np.concatenate([np.repeat(np.arange(s, s + b.shape[1]), b.shape[2])
                             for s, b in zip(starts, blocks)])
    failed = np.zeros(starts[-1], dtype=bool)
    failed[groups[cells[1] <= 0.0]] = True
    search = np.flatnonzero(~failed[groups])
    if search.size:
        _, f = _split_search(cells[:, search], 0.0, stop, groups[search])
        failed[groups[search[f > stop]]] = True
    return np.split(~failed, starts[1:-1])


def achievable_rate(v: float, L, a: float, epsilon: float, rate_points: int = 200):
    """Maximize the composite rate (1 - 2 alpha0) R subject to the tail bound.

    Elementwise over L: an integer gives one AchievableRate, a sequence a
    tuple of them.  The section size is B = ceil(L^a) rounded up to a
    power of two.  The declared search grid is rate_points interior points
    of (0.3 C, C) for the inner rate and integer multiples of 1/L up to
    ALPHA0_CAP for the outer mistake-fraction budget; the split-policy
    mistake-tail bound at ell0 = alpha0 L must stay at or below epsilon.
    Each rate takes its smallest such alpha0, and ties in the composite
    rate go to the lowest inner rate.  Returns a zero rate when no grid
    point is feasible, as always for L <= 2.  Each L must be an integer of
    at least 1.

    The search visits the rates from the top, _RATE_BLOCK per L per round,
    every L in lockstep on its one cell table, and optimizes fully only the
    rates that could still win.  Neither cut changes a result:
    - the prune: alpha0 >= 1/L, so (1 - 2/L) R bounds a rate's composite
      rate from above, in floats too (each step is monotone and alpha0 =
      1/L gives the same bits).  A rate whose bound is below the best
      composite rate r* found so far cannot win or tie, and neither can
      any lower rate.  A bound of zero or less (L <= 2) rules out a
      positive composite rate;
    - the screen: a feasible rate has every per-count bound from ell0_max
      = max(1, floor(ALPHA0_CAP L)) at most its tail, so at most epsilon.
      One decision _split_search, stopping a margin above ln(epsilon),
      rejects a rate only when some count's optimized split bound exceeds
      that level, and so exceeds epsilon.
    A rate that passes both is optimized at every count, and its tails,
    alpha0 and composite rate come from those values as in a full search:
    the optimizer is elementwise per cell.  A rate cut off has a composite
    rate below r* or of zero, so the argmax and its tie-break are those of
    the full grid.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if rate_points < 1:
        raise ValueError(f"need at least one rate point, got {rate_points}")
    scalar = np.ndim(L) == 0
    Ls = [L] if scalar else list(L)
    for x in Ls:
        if not (isinstance(x, (int, np.integer)) and x >= 1):
            raise ValueError(f"L must be an integer >= 1, got {x!r}")
    C = capacity(v)
    rates = np.linspace(0.3 * C, C, rate_points + 2)[1:-1]
    stop = _fail_above(math.log(epsilon))
    Bs = [next_power_of_two(math.ceil(x ** a)) for x in Ls]
    ns = [x * math.log(B) / rates for x, B in zip(Ls, Bs)]
    tables = [_cells(np.arange(1, x + 1), x, n[:, None], v, rates[:, None], 0.0)
              for x, n in zip(Ls, ns)]
    ell0_max = [max(1, math.floor(ALPHA0_CAP * x)) for x in Ls]
    uppers = [(1.0 - 2.0 * (1 / x)) * rates for x in Ls]
    # per L and rate: composite rate, alpha0 and the tail at alpha0 L
    r_comp, alpha0, tail = np.zeros((3, len(Ls), rate_points))
    top = [rate_points] * len(Ls)          # rates at top[k] and up are visited
    live = list(range(len(Ls)))
    while live:
        picks = []
        for k in list(live):
            idx = np.arange(top[k] - 1, max(top[k] - _RATE_BLOCK, 0) - 1, -1)
            keep = (uppers[k][idx] > 0.0) & ~(uppers[k][idx] < r_comp[k].max())
            top[k] = idx[-1]
            if not (keep.all() and top[k]):
                live.remove(k)
            picks.append((k, idx[keep]))
        passed = _rates_may_pass([tables[k][:, idx, ell0_max[k] - 1:]
                                  for k, idx in picks], stop)
        picks = [(k, idx[ok]) for (k, idx), ok in zip(picks, passed) if ok.any()]
        if not picks:
            continue
        full = [tables[k][:, idx].reshape(8, -1) for k, idx in picks]
        logs, _, _, _ = _split_cells(np.concatenate(full, axis=1), 0.0)
        for (k, idx), logs_k in zip(picks, np.split(logs, np.cumsum(
                [c.shape[1] for c in full])[:-1])):
            x = Ls[k]
            probs = np.exp(np.minimum(logs_k.reshape(idx.size, x), 0.0))
            # tails[r, ell0 - 1]: the clamped tail from ell0 at rate r
            tails = np.minimum(1.0, np.cumsum(probs[:, ::-1], axis=1)[:, ::-1])[:, :ell0_max[k]]
            met = tails <= epsilon
            first = met.argmax(axis=1)               # ell0 - 1 of the first tail met
            alpha0[k, idx] = (first + 1) / x
            r_comp[k, idx] = np.where(met.any(axis=1),
                                      (1.0 - 2.0 * alpha0[k, idx]) * rates[idx], 0.0)
            tail[k, idx] = tails[np.arange(idx.size), first]
    out = []
    for k, B in enumerate(Bs):
        i = int(np.argmax(r_comp[k]))
        if r_comp[k, i] <= 0.0:
            out.append(AchievableRate(0.0, 0.0, 0.0, 1.0, B, math.inf))
        else:
            out.append(AchievableRate(float(r_comp[k, i]), float(rates[i]),
                                      float(alpha0[k, i]), float(tail[k, i]), B,
                                      float(ns[k][i])))
    return out[0] if scalar else tuple(out)


def channel_dispersion(v: float) -> float:
    """Dispersion (v/2)(v+2)/(v+1)^2 in nats^2 per channel use."""
    _check_snr(v)
    return 0.5 * v * (v + 2.0) / (v + 1.0) ** 2


def normal_approximation_rate(v: float, n: float, epsilon: float) -> float:
    """Benchmark rate C - sqrt(V/n) Qinv(eps) + ln(n)/(2n) in nats."""
    if not 1 < n < math.inf:
        raise ValueError(f"codelength must be finite and exceed 1, got {n}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    C = capacity(v)
    return C - math.sqrt(channel_dispersion(v) / n) * q_inverse(epsilon) \
        + 0.5 * math.log(n) / n
