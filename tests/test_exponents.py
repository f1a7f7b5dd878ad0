"""Exponent kernel: closed forms against dense-grid maximization oracles."""

import math

import numpy as np
import pytest

from sparclab.exponents import (
    Branch,
    _capped_exponent_array,
    _exponent_array,
    capped_deviation_exponent,
    chi_square_exponent,
    deviation_exponent,
    inverse_chi_square_exponent,
    inverse_deviation_exponent,
    optimal_tilt,
    statistic_cgf,
)

from oracles import grid_max_exponent

SQRT3_2 = math.sqrt(3.0) / 2.0

# Shared (delta, spread) grid for the oracle-equivalence sweeps.
DELTAS = [0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0]
SPREADS = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]


class TestDeviationExponent:
    def test_zero_gap_is_zero(self):
        r = deviation_exponent(0.0, 0.5)
        assert r.value == 0.0
        assert r.lambda_opt == 0.0

    def test_closed_form_sqrt3_case(self):
        # q = 3, gamma = 1 exactly; grid oracle gave 0.29726744594.
        r = deviation_exponent(SQRT3_2, 1.0)
        assert r.value == pytest.approx(0.2972674459459178, abs=1e-12)
        assert r.lambda_opt == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-12)

    def test_closed_form_unit_case(self):
        # grid oracle (step 1e-5) gave 0.37742807619.
        assert deviation_exponent(1.0, 1.0).value == pytest.approx(
            0.3774280762200931, abs=1e-10)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("spread", SPREADS)
    def test_matches_grid_oracle(self, delta, spread):
        closed = deviation_exponent(delta, spread).value
        grid = grid_max_exponent(delta, spread, min(10.0, 1.0 / math.sqrt(spread)))
        assert closed == pytest.approx(grid, abs=1e-6)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("spread", SPREADS)
    def test_gamma_quarter_lower_bound(self, delta, spread):
        q = 4.0 * delta * delta / spread
        gamma = math.sqrt(1.0 + q) - 1.0
        assert deviation_exponent(delta, spread).value >= gamma / 4.0 - 1e-12

    def test_zero_spread_sentinel(self):
        r = deviation_exponent(1.0, 0.0)
        assert math.isinf(r.value)
        assert r.branch is Branch.DEGENERATE_ZERO_SPREAD
        assert deviation_exponent(0.0, 0.0).value == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            deviation_exponent(-0.1, 0.5)
        with pytest.raises(ValueError):
            deviation_exponent(1.0, 1.5)

    def test_monotone_in_gap_and_spread(self):
        for spread in SPREADS:
            vals = [deviation_exponent(d, spread).value for d in DELTAS]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for delta in DELTAS:
            vals = [deviation_exponent(delta, s).value for s in SPREADS]
            assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestCappedDeviationExponent:
    def test_zero_spread_equals_gap(self):
        r = capped_deviation_exponent(0.7, 0.0)
        assert r.value == 0.7
        assert r.branch is Branch.DEGENERATE_ZERO_SPREAD

    def test_clamped_case(self):
        # gap 2 >= spread/(1-spread) = 1, so the tilt clamps at one.
        r = capped_deviation_exponent(2.0, 0.5)
        assert r.value == pytest.approx(2.0 + 0.5 * math.log(0.5), abs=1e-12)
        assert r.branch is Branch.CLAMPED_AT_ONE
        assert r.lambda_opt == 1.0

    def test_interior_case_matches_unrestricted(self):
        r = capped_deviation_exponent(SQRT3_2, 1.0)
        assert r.branch is Branch.INTERIOR
        assert r.value == pytest.approx(0.2972674459459178, abs=1e-12)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("spread", SPREADS)
    def test_matches_grid_oracle(self, delta, spread):
        closed = capped_deviation_exponent(delta, spread).value
        grid = grid_max_exponent(delta, spread, 1.0)
        assert closed == pytest.approx(grid, abs=1e-6)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("spread", SPREADS)
    def test_below_unrestricted_with_equality_iff_interior(self, delta, spread):
        capped = capped_deviation_exponent(delta, spread)
        full = deviation_exponent(delta, spread)
        assert capped.value <= full.value + 1e-12
        if capped.branch is Branch.INTERIOR:
            assert capped.value == pytest.approx(full.value, abs=1e-12)
        elif optimal_tilt(delta, spread) > 1.0 + 1e-9:
            # strictly clamped (the boundary tilt-of-one case has equality)
            assert capped.value < full.value

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("spread", SPREADS)
    def test_clamped_branch_between_half_gap_and_gap(self, delta, spread):
        r = capped_deviation_exponent(delta, spread)
        if r.branch is Branch.CLAMPED_AT_ONE:
            assert r.value >= delta - 0.5 * math.log1p(delta) - 1e-12
            assert delta / 2.0 - 1e-12 <= r.value <= delta

    def test_branch_flag_follows_unrestricted_tilt(self):
        for delta in DELTAS:
            for spread in SPREADS:
                r = capped_deviation_exponent(delta, spread)
                clamped = optimal_tilt(delta, spread) >= 1.0
                assert (r.branch is Branch.CLAMPED_AT_ONE) == clamped


class TestOptimalTilt:
    def test_small_gap_series(self):
        assert optimal_tilt(1e-6, 0.5) == pytest.approx(2e-6, rel=1e-6)

    def test_sqrt3_case(self):
        assert optimal_tilt(SQRT3_2, 1.0) == pytest.approx(0.5773502691896257,
                                                           abs=1e-12)

    def test_preclamp_quadratic_root(self):
        assert optimal_tilt(2.0, 0.5) == pytest.approx((math.sqrt(33) - 1) / 4,
                                                       abs=1e-12)

    def test_zero_gap_by_continuity(self):
        assert optimal_tilt(0.0, 0.5) == 0.0

    def test_first_order_condition(self):
        # Interior stationarity: delta = lam*spread/(1 - lam^2*spread).
        for delta in DELTAS:
            for spread in SPREADS:
                lam = optimal_tilt(delta, spread)
                assert delta == pytest.approx(lam * spread / (1 - lam * lam * spread),
                                              rel=1e-10)


class TestInverseFunctions:
    def test_inverse_at_origin(self):
        assert inverse_deviation_exponent(0.0) == 0.0
        assert inverse_chi_square_exponent(0.0) == 0.0

    def test_round_trip_through_unit_exponent(self):
        r = deviation_exponent(1.0, 1.0).value
        assert inverse_deviation_exponent(r) == pytest.approx(1.0, rel=1e-9)

    def test_small_argument_asymptote(self):
        # near sqrt(2r) for small r
        assert inverse_deviation_exponent(5e-5) == pytest.approx(0.01, rel=1e-2)

    @pytest.mark.parametrize("r", [1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0])
    def test_round_trips(self, r):
        d = inverse_deviation_exponent(r)
        assert deviation_exponent(d, 1.0).value == pytest.approx(r, rel=1e-9)
        x = inverse_chi_square_exponent(r)
        assert chi_square_exponent(x) == pytest.approx(r, rel=1e-9)

    def test_monotone(self):
        rs = np.linspace(0.0, 5.0, 50)
        g = [inverse_deviation_exponent(r) for r in rs]
        g2 = [inverse_chi_square_exponent(r) for r in rs]
        assert all(b > a for a, b in zip(g, g[1:]))
        assert all(b > a for a, b in zip(g2, g2[1:]))

    def test_chi_square_values(self):
        assert chi_square_exponent(0.0) == 0.0
        assert chi_square_exponent(1.0) == pytest.approx(0.5 * (1 - math.log(2)),
                                                         abs=1e-15)

    def test_chi_square_inverse_asymptotes(self):
        assert inverse_chi_square_exponent(1e-8) == pytest.approx(2e-4, rel=1e-3)
        assert inverse_chi_square_exponent(100.0) == pytest.approx(200.0, rel=0.05)


class TestTestStatisticCgf:
    def test_zero_tilt_is_zero(self):
        for alpha in (0.1, 0.5, 1.0):
            assert statistic_cgf(0.0, alpha, 15.0) == 0.0

    def test_unit_tilt_full_fraction(self):
        assert statistic_cgf(1.0, 1.0, 15.0) == pytest.approx(
            0.5 * math.log(16.0), abs=1e-12)

    def test_increasing_in_tilt(self):
        vals = [statistic_cgf(lam, 0.5, 15.0) for lam in np.linspace(0, 1, 20)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_infinite_sentinel(self):
        assert math.isinf(statistic_cgf(1.1, 1.0, 1e12))

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 1.0])
    def test_legendre_transform_matches_capped_exponent(self, alpha):
        # max over tilts of lam*delta - cgf(lam) equals the capped exponent
        # at spread alpha*v/(1+alpha*v).
        v, delta = 15.0, 0.3
        lams = np.arange(0.0, 1.0 + 1e-5, 1e-5)
        vals = [lam * delta - statistic_cgf(lam, alpha, v) for lam in lams]
        spread = alpha * v / (1.0 + alpha * v)
        assert max(vals) == pytest.approx(
            capped_deviation_exponent(delta, spread).value, abs=1e-6)


class TestArrayForms:
    """The array forms the bound engine uses agree with the scalar API."""

    @staticmethod
    def grid():
        spreads = np.array([0.0, 1e-6, 0.01, 0.3, 0.5, 0.9, 0.99, 1.0 - 1e-9, 1.0])
        deltas = [0.0, 1e-8, 0.01, 0.2, 1.0, 5.0, 50.0]
        cells = [(d, s) for s in spreads for d in deltas]
        # the tilt = 1 boundary gap spread/(1 - spread), and either side of it
        for s in spreads[(spreads > 0.0) & (spreads < 1.0)]:
            edge = s / (1.0 - s)
            cells += [(edge, s), (edge * (1 - 1e-12), s), (edge * (1 + 1e-12), s)]
        delta, spread = (np.array(x) for x in zip(*cells))
        return delta, spread

    @staticmethod
    def assert_agree(got, want):
        for g, w in zip(got.tolist(), want):
            if math.isinf(w) or w == 0.0:
                assert g == w
            else:
                assert g == pytest.approx(w, rel=1e-14)

    def test_capped_matches_scalar(self):
        delta, spread = self.grid()
        want = [capped_deviation_exponent(d, s).value
                for d, s in zip(delta.tolist(), spread.tolist())]
        self.assert_agree(_capped_exponent_array(delta, spread), want)

    def test_unrestricted_matches_scalar(self):
        delta, spread = self.grid()
        want = [deviation_exponent(d, s).value
                for d, s in zip(delta.tolist(), spread.tolist())]
        self.assert_agree(_exponent_array(delta, spread), want)

    def test_branch_choice_matches_scalar_at_tilt_one(self):
        # on the boundary grid the clamped branch is taken exactly where the
        # scalar form reports CLAMPED_AT_ONE, with the same math.log1p offset
        delta, spread = self.grid()
        for d, s in zip(delta.tolist(), spread.tolist()):
            if 0.0 < s < 1.0 and d > 0.0:
                r = capped_deviation_exponent(d, s)
                got = float(_capped_exponent_array(np.array([d]), np.array([s]))[0])
                if r.branch is Branch.CLAMPED_AT_ONE:
                    assert got == r.value

    def test_negative_gap_is_zero(self):
        d = np.array([-1.0, -1e-9])
        assert _exponent_array(d, np.array([0.5, 0.0])).tolist() == [0.0, 0.0]
        assert _capped_exponent_array(d, np.array([0.5, 0.0])).tolist() == [0.0, 0.0]
