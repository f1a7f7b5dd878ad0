"""Error-probability bound engine and the curve-generation primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparclab import bounds
from sparclab.bounds import (
    _BRACKET_MARGIN,
    BoundQuery,
    InfeasibleError,
    _cells,
    _split_optimize,
    _split_search,
    _split_terms,
    _target_feasible,
    _target_table,
    _union_logs,
    achievable_rate,
    channel_dispersion,
    min_section_size_rate_for_target,
    mistake_tail_bound,
    next_power_of_two,
    normal_approximation_rate,
    section_bound,
    split_bound,
    subset_rate,
    union_bound,
)
from sparclab.exponents import _log1p, capped_deviation_exponent
from sparclab.geometry import (
    ChannelSpec,
    CodeSpec,
    capacity,
    log_binomial,
    partial_capacity,
    spread_direct,
    spread_refined,
)
from sparclab.harness import fig3_rows

from oracles import (
    min_section_size_rate_bracket,
    q_inverse_bisect,
    split_eval,
    split_terms,
    target_feasible,
    union_log,
)


def fig2_query(t: float = 0.0) -> BoundQuery:
    C = capacity(15.0)
    return BoundQuery(channel=ChannelSpec.from_snr(15.0),
                      code=CodeSpec(L=100, B=2 ** 13, rate=0.7 * C), t=t)


class TestBoundQuery:
    def test_validation(self):
        C = capacity(15.0)
        code = CodeSpec(L=100, B=2 ** 13, rate=0.7 * C)
        ch = ChannelSpec.from_snr(15.0)
        with pytest.raises(ValueError):
            BoundQuery(channel=ch, code=code, t=-0.1)


class TestUnionBound:
    def test_vacuous_when_gap_nonpositive(self):
        # rate far above the partial capacity over alpha
        ch = ChannelSpec.from_snr(15.0)
        code = CodeSpec(L=10, B=4, rate=10.0)
        q = BoundQuery(channel=ch, code=code)
        assert union_bound(10, q) == 1.0

    def test_direct_composition_at_fig2(self):
        # equals exp(ln C(100,10) - n*exponent) built from tested primitives
        q = fig2_query()
        v, L, ell = 15.0, 100, 10
        alpha = ell / L
        gap = partial_capacity(alpha, v) - alpha * q.code.rate
        expo = capped_deviation_exponent(gap, spread_direct(alpha, v))
        expected = math.exp(log_binomial(L, ell) - q.code.n_real * expo)
        assert union_bound(ell, q) == pytest.approx(expected, rel=1e-12)

    def test_strictly_decreasing_in_codelength(self):
        C = capacity(15.0)
        ch = ChannelSpec.from_snr(15.0)
        small = BoundQuery(channel=ch, code=CodeSpec(L=100, B=2 ** 13, rate=0.7 * C))
        # doubling B^... halving the rate doubles n at fixed L, B
        big = BoundQuery(channel=ch, code=CodeSpec(L=100, B=2 ** 13, rate=0.35 * C))
        assert big.code.n_real == pytest.approx(2 * small.code.n_real)
        for ell in (5, 20, 60, 95):
            assert union_bound(ell, big) < union_bound(ell, small)

    def test_threshold_weakens_bound(self):
        lo = union_bound(10, fig2_query(t=0.0))
        hi = union_bound(10, fig2_query(t=0.1))
        assert hi > lo


class TestSplitBound:
    def test_boundary_threshold_gives_one(self):
        q = fig2_query()
        alpha = 0.5
        head = partial_capacity(alpha, 15.0) - alpha * q.code.rate
        qq = fig2_query(t=head)
        prob, _ = split_bound(50, qq)
        assert prob == 1.0

    def test_optimum_interior_and_bracketed(self):
        q = fig2_query()
        b = section_bound(50, q)
        alpha = 0.5
        head = partial_capacity(alpha, 15.0) - alpha * q.code.rate
        assert 0.0 < b.t_alpha_opt < head
        # reported total is the logaddexp of the two reported parts
        recomputed = math.exp(b.split_main_log) + math.exp(b.split_star_log)
        assert b.split_prob == pytest.approx(recomputed, rel=1e-12)

    def test_grid_refinement_stable_within_one_percent(self):
        q = fig2_query()
        L, n, v, rate = 100, q.code.n_real, 15.0, q.code.rate
        for ell in (10, 30, 50, 90):
            coarse, _ = split_bound(ell, q)
            fine_log, _, _, _ = _split_optimize([ell], L, n, v, rate, 0.0,
                                                grid_points=2560)
            assert coarse == pytest.approx(math.exp(fine_log[0]), rel=0.01)

    def test_both_split_terms_worse_away_from_optimum(self):
        q = fig2_query()
        b = section_bound(20, q)
        L, n, v, rate, t = 100, q.code.n_real, 15.0, q.code.rate, 0.0
        alpha = 0.2
        head = partial_capacity(alpha, v) - alpha * rate
        log_comb = log_binomial(L, 20)
        s_main = spread_refined(alpha, v)
        s_star = alpha * alpha * v / (1 + alpha * alpha * v)
        for x in (0.5 * b.t_alpha_opt, 1.3 * b.t_alpha_opt):
            log_tot, _, _, _ = split_eval(20, L, n, v, rate, t)
            # the reported optimum is no worse than nearby probes
            m, s = split_terms(np.array([x]), n, t, log_comb, s_main, s_star,
                               head - t)
            assert log_tot <= float(np.logaddexp(m, s)[0]) + 1e-12


class TestMistakeTailBound:
    def test_fig2_anchor_split_policy(self):
        tb = mistake_tail_bound(10, fig2_query())
        assert tb.total == pytest.approx(1.7843356309015093e-12, rel=1e-6)
        assert 1.8e-12 / 3 <= tb.total <= 1.8e-12 * 3

    def test_min_policy_far_tighter_here(self):
        tb_min = mistake_tail_bound(10, fig2_query(), policy="min")
        tb_split = mistake_tail_bound(10, fig2_query(), policy="split")
        assert tb_min.total <= tb_split.total
        assert tb_min.total == pytest.approx(1.678551658139296e-27, rel=1e-6)

    def test_chosen_respects_policy(self):
        tb = mistake_tail_bound(10, fig2_query())
        for b in tb.per_ell:
            assert b.chosen("min") <= b.union_prob
            assert b.chosen("min") <= b.split_prob
            assert b.chosen("split") == b.split_prob
        with pytest.raises(ValueError):
            tb.per_ell[0].chosen("nonsense")

    def test_clamped_to_one_for_hopeless_configuration(self):
        ch = ChannelSpec.from_snr(15.0)
        code = CodeSpec(L=8, B=4, rate=5.0)  # rate above every C_alpha/alpha
        tb = mistake_tail_bound(1, BoundQuery(channel=ch, code=code))
        assert tb.total == 1.0

    def test_nonincreasing_in_ell0(self):
        q = fig2_query()
        totals = [mistake_tail_bound(ell0, q).total for ell0 in (5, 10, 20, 40)]
        assert all(b <= a for a, b in zip(totals, totals[1:]))

    def test_nonincreasing_in_codelength_and_rate_gap(self):
        # lowering the rate lengthens the codeword and widens the capacity
        # gap; the tail must shrink
        ch = ChannelSpec.from_snr(15.0)
        C = capacity(15.0)
        totals = [mistake_tail_bound(
            10, BoundQuery(channel=ch, code=CodeSpec(L=100, B=2 ** 13,
                                                     rate=f * C))).total
            for f in (0.8, 0.7, 0.6)]
        assert all(b < a for a, b in zip(totals, totals[1:]))

    def test_per_ell_covers_range(self):
        tb = mistake_tail_bound(97, fig2_query())
        assert [b.ell for b in tb.per_ell] == [97, 98, 99, 100]

    def test_every_bound_below_one_at_sufficient_section_size(self):
        # with a >= the finite sufficient rate, rate below capacity, and a
        # zero threshold, no per-count bound is vacuous
        v, L = 15.0, 64
        rate = 0.8 * capacity(v)
        from sparclab.geometry import section_size_rate_finite
        code = CodeSpec(L=L, B=2 ** 19, rate=rate)
        assert code.section_size_rate >= section_size_rate_finite(v, L, rate)
        q = BoundQuery(channel=ChannelSpec.from_snr(v), code=code)
        tb = mistake_tail_bound(1, q, policy="min")
        assert all(b.chosen("min") < 1.0 for b in tb.per_ell)
        assert all(b.chosen("split") < 1.0 for b in tb.per_ell)


class TestSubsetRate:
    def test_zero_fraction(self):
        assert subset_rate(0.0, 8, 2, 1.0) == 0.0

    def test_small_counts(self):
        assert subset_rate(1.0, 8, 2, 1.0) == pytest.approx(
            math.log(15) / math.log(28), rel=1e-12)

    def test_full_fraction_below_nominal_rate(self):
        for N, L in ((64, 8), (1024, 16)):
            assert subset_rate(1.0, N, L, 1.0) < 1.0

    def test_increasing_in_alpha(self):
        N, L, rate = 256, 8, 1.0
        vals = [subset_rate(ell / L, N, L, rate) for ell in range(L + 1)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_non_integer_alpha_rejected(self):
        with pytest.raises(ValueError):
            subset_rate(0.3, 8, 2, 1.0)


class TestMinSectionSizeRate:
    def test_epsilon_one_returns_lower_bracket(self):
        a = min_section_size_rate_for_target(15.0, 16, capacity(15.0), 0.25, 1.0)
        assert a == pytest.approx(1e-6)

    def test_decreasing_in_epsilon(self):
        v, L, rate, alpha0 = 15.0, 32, 0.8 * capacity(15.0), 0.125
        tight = min_section_size_rate_for_target(v, L, rate, alpha0, 1e-8)
        loose = min_section_size_rate_for_target(v, L, rate, alpha0, 1e-3)
        assert loose < tight

    def test_solution_is_feasible_and_marginal(self):
        v, L, rate, alpha0, eps = 15.0, 32, 0.8 * capacity(15.0), 0.125, math.exp(-10)
        a = min_section_size_rate_for_target(v, L, rate, alpha0, eps)
        for factor, expect in ((1.0, True), (0.98, False)):
            n = factor * a * L * math.log(L) / rate
            ok = True
            for ell in range(4, L + 1):
                u = union_log(ell, L, n, v, rate, 0.0)
                s, _, _, _ = split_eval(ell, L, n, v, rate, 0.0)
                if min(u, s) > math.log(eps):
                    ok = False
                    break
            assert ok == expect

    def test_infeasible_raises(self):
        with pytest.raises(InfeasibleError):
            min_section_size_rate_for_target(2.0, 8, capacity(2.0), 0.125,
                                             1e-300, a_max=2.0)


    def test_infeasible_message(self):
        with pytest.raises(InfeasibleError) as info:
            min_section_size_rate_for_target(2.0, 8, 0.25, 0.125, 1e-300, a_max=2.0)
        assert str(info.value) == (
            "no section size rate up to 2.0 meets epsilon=1e-300 "
            "at v=2.0, L=8, rate=0.25, alpha0=0.125")

    @pytest.mark.parametrize("kwargs, match", [
        ({"tol": 0.0}, "tol"), ({"tol": -1e-6}, "tol"), ({"tol": math.nan}, "tol"),
        ({"tol": math.inf}, "tol"),
        ({"a_max": 1e-6}, "a_max"), ({"a_max": math.nan}, "a_max"),
        ({"a_max": math.inf}, "a_max"),
        ({"alpha0": 2.0}, "alpha0"), ({"alpha0": -0.1}, "alpha0"),
        ({"alpha0": math.nan}, "alpha0"),
        ({"epsilon": 0.0}, "epsilon"), ({"epsilon": 1.5}, "epsilon"),
        ({"rate": 0.0}, "rate"), ({"rate": [1.0, -1.0]}, "rate"),
        *(({"L": L}, r"^L must be an integer >= 2, got ")
          for L in (0, 1, -3, 2.0, 16.5, True)),
    ])
    def test_bad_inputs_rejected(self, kwargs, match):
        args = {"v": 15.0, "L": 16, "rate": 1.0, "alpha0": 0.25,
                "epsilon": 1e-3, **kwargs}
        with pytest.raises(ValueError, match=match):
            min_section_size_rate_for_target(**args)

    def test_smallest_L_runs(self):
        assert min_section_size_rate_for_target(15.0, np.int64(2), 0.5, 0.0, 1e-3) > 1e-6

    def test_bad_snr_named_once(self):
        with pytest.raises(ValueError) as info:
            min_section_size_rate_for_target(np.array([2.0, -1.0, 15.0]), 16, 1.0,
                                             0.125, 1e-3)
        assert str(info.value) == "snr must be positive, got [-1.]"


def target_box(seed: int = 6, groups: int = 14):
    """Seeded rows for the target-search differential tests, four per
    (L, alpha0, epsilon, a_max) group.

    L in {2, 3, 5, 8, 16, 24}; alpha0 uniform on (0, 0.6) or an endpoint;
    epsilon 1 in every fifth group, else log-uniform on [1e-12, 10^-0.5];
    a_max uniform on (0.3, 4) in even groups, else 50; v log-uniform on
    [0.01, 1000].  The
    rates are, as fractions of capacity, one tiny (a floor row), one beyond
    capacity (no room at ell = L) and two log-uniform on [1e-3, 1].
    """
    rng = np.random.default_rng(seed)
    for g in range(groups):
        L = int(rng.choice([2, 3, 5, 8, 16, 24]))
        alpha0 = (float(rng.choice([0.0, 1.0])) if rng.random() < 0.15
                  else float(rng.uniform(0.0, 0.6)))
        eps = 1.0 if g % 5 == 0 else float(10.0 ** rng.uniform(-12, -0.5))
        a_max = 50.0 if g % 2 else float(rng.uniform(0.3, 4.0))
        v = 10.0 ** rng.uniform(-2.0, 3.0, 4)
        fraction = [10.0 ** rng.uniform(-12, -7), rng.uniform(1.0, 1.5),
                    *10.0 ** rng.uniform(-3, 0, 2)]
        rate = [f * capacity(x) for f, x in zip(fraction, v)]
        yield L, alpha0, eps, a_max, v.tolist(), rate


def outcome(fn, *args):
    """fn's value, or the message of the InfeasibleError it raises."""
    try:
        return fn(*args)
    except InfeasibleError as exc:
        return str(exc)


@pytest.fixture(scope="class")
def oracle_brackets():
    """The one-row oracle bisection of every target_box row: per group, the
    group's parameters and, per row, the final (lo, hi) bracket or the
    InfeasibleError message."""
    return [(L, alpha0, eps, a_max, vs, rates,
             [outcome(min_section_size_rate_bracket, v, L, rate, alpha0, eps, a_max)
              for v, rate in zip(vs, rates)])
            for L, alpha0, eps, a_max, vs, rates in target_box()]


class TestTargetOracle:
    """The lockstep search reproduces the one-row bisection exactly."""

    def test_rows_match_oracle_bisection(self, oracle_brackets):
        counts = dict.fromkeys(("eps_one", "floor", "no_room", "infeasible",
                                "bisected"), 0)
        for L, alpha0, eps, a_max, vs, rates, brackets in oracle_brackets:
            wants = [b if isinstance(b, str) else b[1] for b in brackets]
            for v, rate, want in zip(vs, rates, wants):
                got = outcome(min_section_size_rate_for_target, v, L, rate,
                              alpha0, eps, a_max)
                assert got == want, (v, L, rate, alpha0, eps, a_max)
                room = _cells(range(max(1, math.ceil(alpha0 * L - 1e-9)), L + 1),
                              L, 1.0, v, rate, 0.0)[1]
                if eps == 1.0:
                    counts["eps_one"] += 1
                elif isinstance(want, str):
                    counts["no_room" if np.any(room <= 0.0) else "infeasible"] += 1
                else:
                    counts["floor" if want == 1e-6 else "bisected"] += 1
            got = outcome(min_section_size_rate_for_target, np.array(vs), L,
                          np.array(rates), alpha0, eps, a_max)
            errors = [w for w in wants if isinstance(w, str)]
            if errors:
                assert got == errors[0]
            else:
                assert got.tolist() == wants
        assert counts["eps_one"] >= 8 and counts["floor"] >= 5
        assert counts["no_room"] >= 5 and counts["infeasible"] >= 3
        assert counts["bisected"] >= 12

    def test_final_bracket_probes_match_oracle(self, oracle_brackets):
        # the nearest decisions to each row's boundary: lo fails, hi passes
        rows = 0
        for L, alpha0, eps, _, vs, rates, brackets in oracle_brackets:
            ells = np.arange(max(1, math.ceil(alpha0 * L - 1e-9)), L + 1)
            for v, rate, bracket in zip(vs, rates, brackets):
                if isinstance(bracket, str) or bracket[0] is None:
                    continue
                a = np.array(bracket)
                table = _target_table(ells, L, np.array([v, v]), np.array([rate, rate]))
                got = _target_feasible(table, a * L * math.log(L) / rate, math.log(eps))
                want = [target_feasible(v, L, rate, alpha0, eps, x) for x in bracket]
                assert got.tolist() == want == [False, True], (v, L, rate, alpha0, eps)
                rows += 1
        assert rows >= 12

    def test_probe_decisions_match_oracle(self):
        rng = np.random.default_rng(17)
        decisions = {True: 0, False: 0}
        for L, alpha0, eps, _, vs, rates in target_box(seed=7):
            ells = np.arange(max(1, math.ceil(alpha0 * L - 1e-9)), L + 1)
            v, rate = np.array(vs), np.array(rates)
            table = _target_table(ells, L, v, rate)
            for a in 10.0 ** rng.uniform(-6.0, 2.0, (3, v.size)):
                got = _target_feasible(table, a * L * math.log(L) / rate,
                                       math.log(eps)).tolist()
                want = [target_feasible(*row, alpha0, eps, x)
                        for row, x in zip(zip(vs, [L] * v.size, rates), a.tolist())]
                assert got == want, (L, alpha0, eps, vs, rates, a)
                for w in want:
                    decisions[w] += 1
        assert min(decisions.values()) >= 50


def spread_mix(rng, size):
    """Spreads in (0, 1): a third below 1e-6, a third above 1 - 1e-6, the
    rest uniform."""
    kind = rng.integers(0, 3, size)
    return np.select([kind == 0, kind == 1],
                     [10.0 ** rng.uniform(-14, -6, size),
                      1.0 - 10.0 ** rng.uniform(-12, -6, size)],
                     rng.uniform(1e-3, 1.0 - 1e-3, size))


class TestBracketLowerBound:
    """The bound a decision-mode split search fails a cell on is a lower
    bound on every value left in its bracket."""

    def test_bound_below_every_value_in_bracket(self):
        rng = np.random.default_rng(3781)
        m = 6000
        t = np.where(rng.random(m) < 0.5, 0.0, rng.uniform(0.0, 0.2, m))
        s_main, s_star = spread_mix(rng, m), spread_mix(rng, m)
        P = np.stack([10.0 ** rng.uniform(0.0, 5.0, m), rng.uniform(0.0, 60.0, m),
                      s_main, 0.5 * _log1p(-s_main), s_star,
                      10.0 ** rng.uniform(-6.0, 1.5, m)])
        room = P[5]
        # the capped main exponent clamps (tilt >= 1) once its gap
        # room - (x - t) reaches s/(1 - s): center half the brackets there
        knee = t + room - s_main / (1.0 - s_main)
        center = np.where((rng.random(m) < 0.5) & (knee > t) & (knee < t + room),
                          knee, t + room * rng.uniform(0.0, 1.0, m))
        # the open threshold interval the grid stage brackets within
        ends = t + room * 1e-12, t + room * (1.0 - 1e-12)
        center = np.clip(center, *ends)
        half = room * 10.0 ** rng.uniform(-13.0, 0.0, m)
        a, b = np.maximum(center - half, ends[0]), np.minimum(center + half, ends[1])
        xs = a[:, None] + (b - a)[:, None] * np.linspace(0.0, 1.0, 65)
        vals = np.logaddexp(*_split_terms(xs, t[:, None], *P[:, :, None]))
        main, star = _split_terms(np.stack([a, b]), t, *P)
        bound = np.logaddexp(main[0], star[1])
        slack = _BRACKET_MARGIN * (1.0 + np.abs(vals))
        assert np.all(bound[:, None] <= vals + slack)

        assert np.sum((a <= knee) & (knee < b)) >= 500
        for s in (s_main, s_star):
            assert (s < 1e-6).sum() >= 1000 and (s > 1.0 - 1e-6).sum() >= 1000

    def test_decision_exact_at_the_full_search_minimum(self):
        # a stop level at the full search's minimum passes, one ulp below it
        # fails: the bound may not end a cell that would reach stop
        checked = 0
        for L, v, t, ells, ns, rates in oracle_box(seed=8, groups=12, per_group=20):
            cells = _cells(ells, L, ns, v, rates, t)
            n, room, log_comb, _, s_main, s_star = cells[:, cells[1] > 0.0]
            P = np.stack([n, log_comb, s_main, 0.5 * _log1p(-s_main), s_star, room])
            _, full = _split_search(P, t)
            for i, value in enumerate(full.tolist()):
                for stop in (value, np.nextafter(value, -np.inf)):
                    _, got = _split_search(P[:, i:i + 1], t, stop=stop,
                                           groups=np.zeros(1, dtype=np.int64))
                    assert (got[0] <= stop) == (value <= stop), (L, v, t, P[:, i])
                checked += 1
        assert checked >= 150

    def test_fig3_split_terms_calls_bounded(self, monkeypatch):
        calls = 0
        inner = bounds._split_terms

        def counted(*args):
            nonlocal calls
            calls += 1
            return inner(*args)

        monkeypatch.setattr(bounds, "_split_terms", counted)
        fig3_rows()
        assert 0 < calls <= 600


class TestTargetElementwise:
    """One call over arrays is the per-element calls, bit for bit."""

    V = [2.0, 1e3, 15.0, 0.3, 50.0]
    FRACTION = [0.8, 1e-10, 0.5, 0.6, 0.7]

    def rates(self, fractions=None):
        return [f * capacity(v) for v, f in zip(self.V, fractions or self.FRACTION)]

    def test_array_equals_scalar_calls(self):
        args = (16, 0.125, 1e-4)
        got = min_section_size_rate_for_target(np.array(self.V), args[0],
                                               np.array(self.rates()), *args[1:])
        want = [min_section_size_rate_for_target(v, args[0], r, *args[1:])
                for v, r in zip(self.V, self.rates())]
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        assert got.tolist() == want
        assert want[1] == 1e-6 and all(w > 1e-6 for i, w in enumerate(want) if i != 1)

    def test_broadcast_shape(self):
        v = np.array([[2.0], [15.0]])
        rate = np.array([0.1, 0.2, 0.3])
        got = min_section_size_rate_for_target(v, 8, rate, 0.25, 1e-3)
        assert got.shape == (2, 3)
        for i, j in np.ndindex(2, 3):
            assert got[i, j] == min_section_size_rate_for_target(
                float(v[i, 0]), 8, float(rate[j]), 0.25, 1e-3)

    def test_scalar_call_returns_float(self):
        a = min_section_size_rate_for_target(15.0, 16, 0.8 * capacity(15.0), 0.125, 1e-3)
        assert type(a) is float
        assert type(min_section_size_rate_for_target(
            np.float64(15.0), 16, 1.0, 0.125, 1.0)) is float

    def test_empty_array(self):
        got = min_section_size_rate_for_target(np.array([]), 16, 1.0, 0.125, 1e-3)
        assert got.shape == (0,)

    def test_first_infeasible_element_raises_scalar_message(self):
        # floor, bisected, bisected, infeasible at a_max, infeasible (no room)
        rates = self.rates([1e-10, 0.5, 0.5, 0.9, 1.2])
        kinds = [outcome(min_section_size_rate_for_target, v, 16, r, 0.125, 1e-4)
                 for v, r in zip(self.V, rates)]
        assert kinds[0] == 1e-6 and kinds[1] > 1e-6 and kinds[2] > 1e-6
        assert isinstance(kinds[3], str) and isinstance(kinds[4], str)
        with pytest.raises(InfeasibleError) as info:
            min_section_size_rate_for_target(np.array(self.V), 16, np.array(rates),
                                             0.125, 1e-4)
        assert str(info.value) == kinds[3]


class TestAchievableRate:
    def test_composite_identity_and_capacity_gap(self):
        ar = achievable_rate(20.0, 30, 2.6712, 1e-4, rate_points=40)
        assert ar.R_comp == (1 - 2 * ar.alpha0) * ar.R_inner
        assert 0.0 < ar.R_comp < capacity(20.0)
        assert ar.tail_total <= 1e-4
        assert ar.B == next_power_of_two(math.ceil(30 ** 2.6712))

    def test_loose_epsilon_approaches_grid_maximum(self):
        tight = achievable_rate(20.0, 30, 2.6712, 1e-4, rate_points=40)
        loose = achievable_rate(20.0, 30, 2.6712, 0.9, rate_points=40)
        assert loose.R_comp >= tight.R_comp

    def test_rate_points_must_be_positive(self):
        for rate_points in (0, -3):
            with pytest.raises(ValueError, match="rate point"):
                achievable_rate(20.0, 10, 2.0, 1e-4, rate_points=rate_points)

    def test_zero_when_infeasible(self):
        # one section pair, tiny epsilon: nothing on the grid works
        ar = achievable_rate(0.05, 4, 1.5, 1e-12, rate_points=10)
        assert ar.R_comp == 0.0

    def test_composite_rate_nondecreasing_in_sections(self):
        # the achievable-rate curve rises with the section count (coarse
        # rate grid keeps this affordable; the orderings are robust to it)
        from sparclab.geometry import section_size_rate_limit
        a = section_size_rate_limit(20.0, capacity(20.0))
        vals = [achievable_rate(20.0, L, a, 1e-4, rate_points=40).R_comp
                for L in (20, 60, 100)]
        assert all(b >= a_ for a_, b in zip(vals, vals[1:]))
        assert all(v < capacity(20.0) for v in vals)


class TestNormalApproximationRate:
    def test_median_epsilon_drops_quantile_term(self):
        v, n = 15.0, 500.0
        assert normal_approximation_rate(v, n, 0.5) == pytest.approx(
            capacity(v) + 0.5 * math.log(n) / n, abs=1e-12)

    def test_frozen_value_and_oracle_cross_check(self):
        got = normal_approximation_rate(100.0, 1e3, 1e-4)
        assert got == pytest.approx(2.2278584755088753, abs=1e-9)
        C, V = capacity(100.0), channel_dispersion(100.0)
        oracle = C - math.sqrt(V / 1e3) * q_inverse_bisect(1e-4) \
            + 0.5 * math.log(1e3) / 1e3
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_increasing_in_n_past_dispersion_regime(self):
        vals = [normal_approximation_rate(15.0, n, 1e-4)
                for n in (200, 500, 1000, 5000, 20000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert vals[-1] < capacity(15.0)

    def test_dispersion_formula(self):
        assert channel_dispersion(15.0) == pytest.approx(
            0.5 * 15 * 17 / 16 ** 2, rel=1e-12)
        with pytest.raises(ValueError):
            channel_dispersion(0.0)


def oracle_box(seed: int = 1006, groups: int = 170, per_group: int = 30,
               log_v: tuple[float, float] = (-2.0, 4.0)):
    """Seeded cells for the differential tests, grouped by (L, v, t).

    L in {2, 3, 5, 10, 37, 100}, v log-uniform on [10^log_v[0],
    10^log_v[1]], n log-uniform on [1, 1e4], t zero or uniform on (0, 0.2),
    rate between 0.05 and 1.2 of capacity; each group holds one ell = L cell.
    """
    rng = np.random.default_rng(seed)
    for _ in range(groups):
        L = int(rng.choice([2, 3, 5, 10, 37, 100]))
        v = float(10.0 ** rng.uniform(*log_v))
        t = 0.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 0.2))
        ells = rng.integers(1, L + 1, per_group)
        ells[0] = L
        n = 10.0 ** rng.uniform(0.0, 4.0, per_group)
        rate = rng.uniform(0.05, 1.2, per_group) * capacity(v)
        yield L, v, t, ells.tolist(), n.tolist(), rate.tolist()


class TestSplitOptimizeOracle:
    """The lockstep optimizer reproduces the per-cell scalar optimizer exactly."""

    def test_bit_identical_on_seeded_box(self):
        cells = full = no_room = 0
        for L, v, t, ells, ns, rates in oracle_box():
            got = _split_optimize(ells, L, ns, v, rates, t)
            for i, (ell, n, rate) in enumerate(zip(ells, ns, rates)):
                want = split_eval(ell, L, n, v, rate, t)
                assert tuple(x[i] for x in got) == want, (ell, L, n, v, rate, t)
                cells += 1
                full += ell == L
                no_room += want == (0.0, t, 0.0, 0.0)
        assert cells >= 5000
        assert full >= 170 and no_room >= 100 and cells - no_room >= 3000

    def test_grid_points_and_shared_scalars(self):
        q = fig2_query(t=0.01)
        L, n, v, rate, t = 100, q.code.n_real, 15.0, q.code.rate, 0.01
        for grid_points in (1, 2, 7, 256):
            got = _split_optimize(range(1, L + 1), L, n, v, rate, t, grid_points)
            for ell in range(1, L + 1):
                assert tuple(x[ell - 1] for x in got) == split_eval(
                    ell, L, n, v, rate, t, grid_points)

    def test_empty_and_all_without_room(self):
        assert all(x.size == 0 for x in _split_optimize([], 5, 10.0, 15.0, 1.0, 0.0))
        got = _split_optimize([1, 5], 5, 10.0, 15.0, 10.0, 0.0)
        assert [x.tolist() for x in got] == [[0.0, 0.0], [0.0, 0.0],
                                             [0.0, 0.0], [0.0, 0.0]]


class TestSplitOptimizeProperties:
    """The clamped split bound is a probability that shrinks as n grows."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(L=st.sampled_from([2, 3, 5, 10, 37]), data=st.data(),
           log_v=st.floats(-2.0, 4.0), fraction=st.floats(0.05, 1.2),
           t=st.one_of(st.just(0.0), st.floats(1e-9, 0.2)),
           log_n=st.floats(0.0, 4.0), growth=st.floats(1.0, 100.0))
    def test_clamped_bound_in_unit_interval_and_nonincreasing_in_n(
            self, L, data, log_v, fraction, t, log_n, growth):
        ell = data.draw(st.integers(1, L))
        v = 10.0 ** log_v
        n = 10.0 ** log_n
        logs, _, _, _ = _split_optimize([ell, ell], L, [n, n * growth], v,
                                        fraction * capacity(v), t)
        short, long = (min(1.0, math.exp(min(0.0, x))) for x in logs.tolist())
        assert 0.0 <= long <= 1.0 and 0.0 <= short <= 1.0
        # the grid does not depend on n, so only the refinement's last bits
        # can reorder two nearly equal optima
        assert long <= short * (1.0 + 1e-9)


class TestUnionLogsOracle:
    """The union-bound table matches the per-cell scalar bound.

    The exponent's interior branch takes numpy's log1p, which can differ
    from math's in the last bit; every other step has the scalar bits.
    """

    def test_matches_scalar_on_seeded_box(self):
        cells = no_room = 0
        for L, v, t, ells, ns, rates in oracle_box(seed=3780, log_v=(-3.0, 8.0)):
            table = _cells(ells, L, ns, v, rates, t)
            got = _union_logs(table).tolist()
            for i, (ell, n, rate) in enumerate(zip(ells, ns, rates)):
                want = union_log(ell, L, n, v, rate, t)
                if table[1, i] <= 0.0:
                    assert got[i] == want, (ell, L, n, v, rate, t)
                    no_room += 1
                else:
                    assert abs(got[i] - want) <= 1e-14 * max(1.0, abs(want)), \
                        (ell, L, n, v, rate, t)
                cells += 1
        assert cells >= 5000 and no_room >= 100 and cells - no_room >= 3000


class TestBoundProperties:
    """Both per-count bounds are probabilities, and the tail behaves.

    The rate drops at fixed n by trading section size for rate: B = 2^m at
    rate R against B = 2^j at rate R j / m, j < m, whose codelengths agree
    to rounding.  A 1e-9 relative slack covers that rounding and the
    optimizer's last bits.
    """

    @settings(max_examples=100, deadline=None, database=None)
    @given(L=st.sampled_from([2, 3, 5, 10, 37, 100]), data=st.data(),
           log_v=st.floats(-3.0, 8.0), fraction=st.floats(0.05, 1.2),
           t=st.one_of(st.just(0.0), st.floats(1e-9, 0.2)),
           m=st.integers(2, 40))
    def test_unit_interval_monotone_in_ell0_and_rate(
            self, L, data, log_v, fraction, t, m):
        j = data.draw(st.integers(1, m - 1))
        lo, hi = sorted(data.draw(st.integers(1, L)) for _ in range(2))
        v = 10.0 ** log_v
        rate = fraction * capacity(v)
        channel = ChannelSpec.from_snr(v)
        q = BoundQuery(channel=channel, code=CodeSpec(L=L, B=2 ** m, rate=rate), t=t)
        slower = BoundQuery(channel=channel, t=t,
                            code=CodeSpec(L=L, B=2 ** j, rate=rate * j / m))
        assert slower.code.n_real == pytest.approx(q.code.n_real, rel=1e-14)

        per, per_slower = (mistake_tail_bound(1, x).per_ell for x in (q, slower))
        for b in per + per_slower:
            assert 0.0 <= b.union_prob <= 1.0 and 0.0 <= b.split_prob <= 1.0
        for b, b_slower in zip(per, per_slower):
            assert b_slower.union_prob <= b.union_prob * (1.0 + 1e-9)
            assert b_slower.split_prob <= b.split_prob * (1.0 + 1e-9)
        for policy in ("split", "min"):
            tail_lo, tail_hi = (mistake_tail_bound(e, q, policy=policy).total
                                for e in (lo, hi))
            assert 0.0 <= tail_hi <= tail_lo <= 1.0
