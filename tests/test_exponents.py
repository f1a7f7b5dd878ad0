"""Exponent kernel: closed forms against dense-grid maximization oracles and
against the scalar closed forms they replaced."""

import math

import numpy as np
import pytest

from sparclab.exponents import (
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

import oracles
from oracles import Branch, grid_max_exponent

SQRT3_2 = math.sqrt(3.0) / 2.0

# Shared (delta, spread) grid for the oracle-equivalence sweeps.
DELTAS = [0.01, 0.05, 0.2, 0.5, 1.0, 2.0, 5.0]
SPREADS = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]


class TestDeviationExponent:
    def test_zero_gap_is_zero(self):
        assert deviation_exponent(0.0, 0.5) == 0.0
        assert optimal_tilt(0.0, 0.5) == 0.0

    def test_closed_form_sqrt3_case(self):
        # q = 3, gamma = 1 exactly; grid oracle gave 0.29726744594.
        assert deviation_exponent(SQRT3_2, 1.0) == pytest.approx(0.2972674459459178,
                                                                 abs=1e-12)
        assert optimal_tilt(SQRT3_2, 1.0) == pytest.approx(1.0 / math.sqrt(3.0),
                                                           abs=1e-12)

    def test_closed_form_unit_case(self):
        # grid oracle (step 1e-5) gave 0.37742807619.
        assert deviation_exponent(1.0, 1.0) == pytest.approx(
            0.3774280762200931, abs=1e-10)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("spread", SPREADS)
    def test_matches_grid_oracle(self, delta, spread):
        closed = deviation_exponent(delta, spread)
        grid = grid_max_exponent(delta, spread, min(10.0, 1.0 / math.sqrt(spread)))
        assert closed == pytest.approx(grid, abs=1e-6)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("spread", SPREADS)
    def test_gamma_quarter_lower_bound(self, delta, spread):
        q = 4.0 * delta * delta / spread
        gamma = math.sqrt(1.0 + q) - 1.0
        assert deviation_exponent(delta, spread) >= gamma / 4.0 - 1e-12

    def test_zero_spread_sentinel(self):
        assert math.isinf(deviation_exponent(1.0, 0.0))
        assert oracles.deviation_exponent(1.0, 0.0).branch is Branch.DEGENERATE_ZERO_SPREAD
        assert deviation_exponent(0.0, 0.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            deviation_exponent(-0.1, 0.5)
        with pytest.raises(ValueError):
            deviation_exponent(1.0, 1.5)

    def test_monotone_in_gap_and_spread(self):
        for spread in SPREADS:
            vals = [deviation_exponent(d, spread) for d in DELTAS]
            assert all(b >= a for a, b in zip(vals, vals[1:]))
        for delta in DELTAS:
            vals = [deviation_exponent(delta, s) for s in SPREADS]
            assert all(b <= a for a, b in zip(vals, vals[1:]))


class TestCappedDeviationExponent:
    def test_zero_spread_equals_gap(self):
        assert capped_deviation_exponent(0.7, 0.0) == 0.7
        assert oracles.capped_deviation_exponent(0.7, 0.0).branch \
            is Branch.DEGENERATE_ZERO_SPREAD

    def test_clamped_case(self):
        # gap 2 >= spread/(1-spread) = 1, so the tilt clamps at one.
        value = capped_deviation_exponent(2.0, 0.5)
        assert value == pytest.approx(2.0 + 0.5 * math.log(0.5), abs=1e-12)
        assert value == 2.0 + 0.5 * math.log1p(-0.5)
        assert optimal_tilt(2.0, 0.5) >= 1.0
        r = oracles.capped_deviation_exponent(2.0, 0.5)
        assert r.branch is Branch.CLAMPED_AT_ONE
        assert r.lambda_opt == 1.0

    def test_interior_case_matches_unrestricted(self):
        assert optimal_tilt(SQRT3_2, 1.0) < 1.0
        assert oracles.capped_deviation_exponent(SQRT3_2, 1.0).branch is Branch.INTERIOR
        value = capped_deviation_exponent(SQRT3_2, 1.0)
        assert value == pytest.approx(0.2972674459459178, abs=1e-12)
        assert value == deviation_exponent(SQRT3_2, 1.0)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("spread", SPREADS)
    def test_matches_grid_oracle(self, delta, spread):
        closed = capped_deviation_exponent(delta, spread)
        grid = grid_max_exponent(delta, spread, 1.0)
        assert closed == pytest.approx(grid, abs=1e-6)

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("spread", SPREADS)
    def test_below_unrestricted_with_equality_iff_interior(self, delta, spread):
        capped = capped_deviation_exponent(delta, spread)
        full = deviation_exponent(delta, spread)
        assert capped <= full + 1e-12
        lam = optimal_tilt(delta, spread)
        if lam < 1.0:
            assert capped == pytest.approx(full, abs=1e-12)
        elif lam > 1.0 + 1e-9:
            # strictly clamped (the boundary tilt-of-one case has equality)
            assert capped < full

    @pytest.mark.parametrize("delta", DELTAS)
    @pytest.mark.parametrize("spread", SPREADS)
    def test_clamped_branch_between_half_gap_and_gap(self, delta, spread):
        value = capped_deviation_exponent(delta, spread)
        if optimal_tilt(delta, spread) >= 1.0:
            assert value >= delta - 0.5 * math.log1p(delta) - 1e-12
            assert delta / 2.0 - 1e-12 <= value <= delta

    def test_branch_follows_unrestricted_tilt(self):
        # clamped iff the unrestricted tilt reaches one, and then the value is
        # the clamped formula exactly; the oracle's branch flag agrees
        for delta in DELTAS:
            for spread in SPREADS:
                clamped = optimal_tilt(delta, spread) >= 1.0
                value = capped_deviation_exponent(delta, spread)
                if clamped:
                    assert value == delta + 0.5 * math.log1p(-spread)
                else:
                    assert value == deviation_exponent(delta, spread)
                r = oracles.capped_deviation_exponent(delta, spread)
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
        r = deviation_exponent(1.0, 1.0)
        assert inverse_deviation_exponent(r) == pytest.approx(1.0, rel=1e-9)

    def test_small_argument_asymptote(self):
        # near sqrt(2r) for small r
        assert inverse_deviation_exponent(5e-5) == pytest.approx(0.01, rel=1e-2)

    @pytest.mark.parametrize("r", [1e-6, 1e-4, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0])
    def test_round_trips(self, r):
        d = inverse_deviation_exponent(r)
        assert deviation_exponent(d, 1.0) == pytest.approx(r, rel=1e-9)
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

    @pytest.mark.parametrize("v", [0.0, math.inf, math.nan])
    def test_snr_must_be_positive_and_finite(self, v):
        with pytest.raises(ValueError, match="snr must be positive and finite"):
            statistic_cgf(0.5, 0.5, v)

    @pytest.mark.parametrize("alpha", [0.1, 0.3, 0.7, 1.0])
    def test_legendre_transform_matches_capped_exponent(self, alpha):
        # max over tilts of lam*delta - cgf(lam) equals the capped exponent
        # at spread alpha*v/(1+alpha*v).
        v, delta = 15.0, 0.3
        lams = np.arange(0.0, 1.0 + 1e-5, 1e-5)
        vals = [lam * delta - statistic_cgf(lam, alpha, v) for lam in lams]
        spread = alpha * v / (1.0 + alpha * v)
        assert max(vals) == pytest.approx(
            capped_deviation_exponent(delta, spread), abs=1e-6)


class TestOracleDifferential:
    """The array forms against the scalar closed forms they replaced."""

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
        """Exact where the oracle's value is 0 or inf, on the clamped branch
        and at zero spread; within 1e-14 relative elsewhere."""
        assert len(got) == len(want)
        for g, r in zip(got, want):
            if math.isinf(r.value) or r.value == 0.0 or r.branch is not Branch.INTERIOR:
                assert g == r.value
            else:
                assert g == pytest.approx(r.value, rel=1e-14)

    def test_capped_array_matches_oracle(self):
        delta, spread = self.grid()
        want = [oracles.capped_deviation_exponent(d, s)
                for d, s in zip(delta.tolist(), spread.tolist())]
        got = capped_deviation_exponent(delta, spread)
        self.assert_agree(got.tolist(), want)
        assert got.tolist() == _capped_exponent_array(delta, spread).tolist()
        assert any(r.branch is Branch.CLAMPED_AT_ONE for r in want)

    def test_unrestricted_array_matches_oracle(self):
        delta, spread = self.grid()
        want = [oracles.deviation_exponent(d, s)
                for d, s in zip(delta.tolist(), spread.tolist())]
        got = deviation_exponent(delta, spread)
        self.assert_agree(got.tolist(), want)
        assert got.tolist() == _exponent_array(delta, spread).tolist()

    def test_scalar_calls_match_oracle(self):
        delta, spread = self.grid()
        pairs = list(zip(delta.tolist(), spread.tolist()))
        self.assert_agree([capped_deviation_exponent(d, s) for d, s in pairs],
                          [oracles.capped_deviation_exponent(d, s) for d, s in pairs])
        self.assert_agree([deviation_exponent(d, s) for d, s in pairs],
                          [oracles.deviation_exponent(d, s) for d, s in pairs])

    def test_tilt_matches_oracle_exactly(self):
        delta, spread = self.grid()
        keep = spread > 0.0
        delta, spread = delta[keep], spread[keep]
        want = [oracles.optimal_tilt(d, s) for d, s in zip(delta.tolist(), spread.tolist())]
        assert optimal_tilt(delta, spread).tolist() == want

    def test_clamped_branch_taken_where_oracle_clamps(self):
        # on the boundary grid the clamped branch is taken exactly where the
        # oracle reports CLAMPED_AT_ONE, with the same math.log1p offset
        delta, spread = self.grid()
        for d, s in zip(delta.tolist(), spread.tolist()):
            if 0.0 < s < 1.0 and d > 0.0:
                clamped = oracles.capped_deviation_exponent(d, s).branch is Branch.CLAMPED_AT_ONE
                assert (optimal_tilt(d, s) >= 1.0) == clamped
                if clamped:
                    assert capped_deviation_exponent(d, s) == d + 0.5 * math.log1p(-s)

    def test_negative_gap_is_zero_in_kernels(self):
        d = np.array([-1.0, -1e-9])
        assert _exponent_array(d, np.array([0.5, 0.0])).tolist() == [0.0, 0.0]
        assert _capped_exponent_array(d, np.array([0.5, 0.0])).tolist() == [0.0, 0.0]


class TestElementwiseApi:
    def test_scalar_in_float_out(self):
        for fn in (deviation_exponent, capped_deviation_exponent, optimal_tilt):
            assert type(fn(0.5, 0.5)) is float
            assert type(fn(np.float64(0.5), 1)) is float

    def test_broadcasts(self):
        deltas = np.array([[0.1], [1.0], [3.0]])
        spreads = np.array([0.2, 0.5, 0.8, 1.0])
        for fn in (deviation_exponent, capped_deviation_exponent, optimal_tilt):
            got = fn(deltas, spreads)
            assert got.shape == (3, 4)
            for i, d in enumerate(deltas.ravel().tolist()):
                want = [fn(d, s) for s in spreads.tolist()]
                assert got[i].tolist() == pytest.approx(want, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("fn", [deviation_exponent, capped_deviation_exponent,
                                    optimal_tilt])
    def test_one_bad_element_raises(self, fn):
        with pytest.raises(ValueError, match="gap"):
            fn(np.array([0.1, 0.2, -1e-3]), 0.5)
        with pytest.raises(ValueError, match="spread"):
            fn(0.1, np.array([0.2, 1.5, 0.5]))
        with pytest.raises(ValueError, match="spread"):
            fn(np.array([0.1, 0.2]), np.array([0.5, -0.1]))

    def test_tilt_rejects_zero_spread(self):
        with pytest.raises(ValueError, match="spread"):
            optimal_tilt(np.array([0.1, 0.2]), np.array([0.5, 0.0]))
        assert deviation_exponent(np.array([0.1, 0.0]), 0.0).tolist() == [math.inf, 0.0]


class TestInversesPinned:
    """The shared inverter keeps the values of the per-function loops it replaced."""

    RS = [1e-12, 1e-6, 1e-3, 0.01, 0.1, 0.5, 1.0, 3.0, 10.0, 100.0]
    # inverse_deviation_exponent and inverse_chi_square_exponent at RS, from
    # their earlier separate bisect-then-Newton loops
    DEVIATION = [1.414213562373802e-06, 0.001414214269479228, 0.04474369977984731,
                 0.1421221268722113, 0.46788910705650333, 1.1908264618599151,
                 1.8822647176901106, 4.2531907219965595, 11.742240019985783,
                 102.81769447336958]
    CHI_SQUARE = [2.000001333436167e-06, 0.0020013335554962823, 0.06458585479903411,
                  0.21354970715172958, 0.7722498296092303, 2.1461932206205825,
                  3.5052414957928835, 8.22154230138681, 23.185764204040805,
                  205.3294742808408]

    def test_deviation_inverse(self):
        got = [inverse_deviation_exponent(r) for r in self.RS]
        assert got == pytest.approx(self.DEVIATION, rel=1e-14, abs=0.0)

    def test_chi_square_inverse(self):
        got = [inverse_chi_square_exponent(r) for r in self.RS]
        assert got == pytest.approx(self.CHI_SQUARE, rel=1e-14, abs=0.0)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            inverse_deviation_exponent(-1e-9)
        with pytest.raises(ValueError):
            inverse_chi_square_exponent(-1e-9)
