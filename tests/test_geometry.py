"""Channel/code arithmetic and the section-size analysis."""

import math

import numpy as np
import pytest

from sparclab.exponents import capped_deviation_exponent
from sparclab.geometry import (
    ChannelSpec,
    CodeSpec,
    capacity,
    capacity_shape_gap,
    combinatorial_rate,
    combinatorial_surplus,
    combinatorial_surplus_at_n,
    log_binomial,
    min_gap,
    partial_capacity,
    section_size_rate_finite,
    section_size_rate_limit,
    shape_exponent,
    small_alpha_slope,
    snr_branch_point,
    spread_direct,
    spread_refined,
)

from oracles import min_gap_branch_formula


def fig2_code() -> CodeSpec:
    return CodeSpec(L=100, B=2 ** 13, rate=0.7 * capacity(15.0))


class TestChannelSpec:
    def test_snr_and_capacity_consistent(self):
        ch = ChannelSpec(P=15.0, sigma2=1.0)
        assert ch.snr == 15.0
        assert ch.capacity == pytest.approx(0.5 * math.log(16.0), abs=1e-12)

    def test_from_snr(self):
        ch = ChannelSpec.from_snr(100.0)
        assert ch.snr == 100.0
        assert ch.capacity == pytest.approx(2.30756025842063, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ChannelSpec(P=0.0, sigma2=1.0)
        with pytest.raises(ValueError):
            ChannelSpec(P=1.0, sigma2=-1.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_infinite_and_nan(self, bad):
        for P, sigma2 in ((bad, 1.0), (1.0, bad)):
            with pytest.raises(ValueError, match="positive and finite"):
                ChannelSpec(P=P, sigma2=sigma2)
        with pytest.raises(ValueError, match=f"^snr must be positive and finite, got {bad}$"):
            ChannelSpec.from_snr(bad)
        for f in (capacity, lambda v: partial_capacity(0.5, v)):
            with pytest.raises(ValueError, match="snr must be positive and finite"):
                f(bad)
        with pytest.raises(ValueError, match=r"got \[inf nan\]$"):
            spread_direct(0.5, np.array([15.0, math.inf, math.nan]))


class TestCodeSpec:
    def test_section_size_rate(self):
        code = fig2_code()
        assert code.section_size_rate == pytest.approx(13 * math.log(2) / math.log(100),
                                                       abs=1e-12)

    def test_codelength_unsigned(self):
        code = fig2_code()
        assert code.n_real == pytest.approx(928.5714285714286, abs=1e-9)
        assert code.n_int == 929

    def test_codelength_signed(self):
        code = CodeSpec(L=4, B=16, rate=1.0, signed=True)
        assert code.n_real == pytest.approx(4 * math.log(32), abs=1e-12)

    def test_input_bits(self):
        assert CodeSpec(L=4, B=16, rate=1.0).input_bits == 16
        assert CodeSpec(L=4, B=16, rate=1.0, signed=True).input_bits == 20

    def test_non_power_of_two_rejected_for_bits_only(self):
        code = CodeSpec(L=2, B=3, rate=1.0)
        assert code.num_columns == 6
        with pytest.raises(ValueError):
            _ = code.input_bits

    @pytest.mark.parametrize("rate", [0.0, -1.0, math.nan, math.inf])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="rate must be positive and finite"):
            CodeSpec(L=2, B=4, rate=rate)

    def test_candidate_count(self):
        assert CodeSpec(L=2, B=4, rate=1.0).candidate_count() == 16
        assert CodeSpec(L=2, B=4, rate=1.0, signed=True).candidate_count() == 64


class TestArrayForms:
    """The closed forms take arrays elementwise, with the scalar forms' bits."""

    L = 37
    ells = np.arange(0, L + 1)

    @pytest.mark.parametrize("f", [partial_capacity, spread_direct, spread_refined])
    @pytest.mark.parametrize("v", [1e-3, 0.7, 15.0, 1e8])
    def test_alpha_forms_match_scalar_bits(self, f, v):
        alpha = self.ells / self.L
        got = f(alpha, v)
        assert got.shape == alpha.shape
        assert got.tolist() == [f(a, v) for a in alpha.tolist()]
        assert type(f(0.3, v)) is float

    def test_log_binomial_matches_scalar_bits(self):
        got = log_binomial(self.L, self.ells)
        assert got.tolist() == [log_binomial(self.L, e) for e in range(self.L + 1)]
        assert type(log_binomial(self.L, 3)) is float
        assert log_binomial(self.L, np.array([], dtype=int)).shape == (0,)

    def test_one_bad_element_rejects_the_array(self):
        # the message names the bad elements only
        with pytest.raises(ValueError, match=r"^alpha must be in \[0, 1\], got \[ 1.5 -0.5\]$"):
            partial_capacity(np.array([0.5, 1.5, 0.25, -0.5]), 15.0)
        with pytest.raises(ValueError,
                           match=r"^snr must be positive and finite, got \[ 0. nan\]$"):
            spread_direct(np.array([0.5, 0.25, 0.1]), np.array([15.0, 0.0, np.nan]))
        with pytest.raises(ValueError, match=r"^snr must be positive and finite, got -1.0$"):
            spread_refined(0.5, -1.0)
        with pytest.raises(ValueError):
            log_binomial(5, np.array([0, 6]))


class TestCapacities:
    def test_small_snr_limit(self):
        assert capacity(1e-12) == pytest.approx(5e-13, rel=1e-6)

    def test_two_bits(self):
        assert capacity(15.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_snr_100(self):
        assert capacity(100.0) == pytest.approx(2.30756025842063, abs=1e-12)

    def test_partial_endpoints(self):
        assert partial_capacity(0.0, 15.0) == 0.0
        assert partial_capacity(1.0, 15.0) == pytest.approx(capacity(15.0), abs=1e-15)

    def test_partial_midpoint(self):
        assert partial_capacity(0.5, 15.0) == pytest.approx(0.5 * math.log(8.5),
                                                            abs=1e-12)

    def test_partial_concave(self):
        alphas = [i / 50 for i in range(51)]
        vals = [partial_capacity(a, 15.0) for a in alphas]
        second = [vals[i + 1] - 2 * vals[i] + vals[i - 1] for i in range(1, 50)]
        assert all(d < 0 for d in second)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            capacity(0.0)
        with pytest.raises(ValueError):
            partial_capacity(1.5, 15.0)


class TestSpreads:
    def test_endpoint_alpha_one(self):
        assert spread_direct(1.0, 15.0) == pytest.approx(0.9375, abs=1e-15)
        assert spread_refined(1.0, 15.0) == 0.0

    def test_midpoint_refined(self):
        assert spread_refined(0.5, 15.0) == pytest.approx(0.25 * 15 / 8.5, abs=1e-15)

    def test_zero_at_origin(self):
        assert spread_direct(0.0, 15.0) == 0.0
        assert spread_refined(0.0, 15.0) == 0.0

    def test_refined_below_direct_in_unit_interval(self):
        for i in range(1, 100):
            a = i / 100
            for v in (1.0, 15.0, 100.0):
                assert spread_refined(a, v) <= spread_direct(a, v)
                assert 0.0 <= spread_refined(a, v) < 1.0


class TestShapeGap:
    def test_zero_at_endpoints(self):
        assert capacity_shape_gap(0.0, 15.0) == 0.0
        assert abs(capacity_shape_gap(1.0, 15.0)) < 1e-15

    def test_midpoint_value(self):
        assert capacity_shape_gap(0.5, 15.0) == pytest.approx(0.3768859011881901,
                                                              abs=1e-12)

    @pytest.mark.parametrize("v", [1.0, 15.0, 100.0])
    def test_quadratic_lower_bound(self, v):
        for i in range(1, 100):
            a = i / 100
            lower = 0.25 * a * (1 - a) * v * v / (1 + v) ** 2
            assert capacity_shape_gap(a, v) >= lower - 1e-14

    def test_positive_inside(self):
        assert all(capacity_shape_gap(i / 20, 15.0) > 0 for i in range(1, 20))


class TestLogBinomial:
    def test_edge_zero(self):
        assert log_binomial(7, 0) == pytest.approx(0.0, abs=1e-12)

    def test_small_count(self):
        assert log_binomial(4, 2) == pytest.approx(math.log(6.0), abs=1e-12)

    def test_upper_bounds(self):
        val = log_binomial(100, 10)
        assert val <= 10 * math.log(100)
        assert val <= 100 * math.log(2)

    def test_symmetry(self):
        for ell in range(0, 101):
            assert log_binomial(100, ell) == pytest.approx(
                log_binomial(100, 100 - ell), rel=1e-12)

    def test_exact_against_comb(self):
        for L in (5, 12, 30):
            for ell in range(L + 1):
                assert log_binomial(L, ell) == pytest.approx(
                    math.log(math.comb(L, ell)), rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            log_binomial(5, 6)


class TestCombinatorialRate:
    def test_zero_mistakes(self):
        assert combinatorial_rate(0, 100, 928.57) == 0.0

    def test_fig2_value(self):
        code = fig2_code()
        assert combinatorial_rate(10, 100, code.n_real) == pytest.approx(
            0.03282711746706924, abs=1e-12)

    def test_symmetry(self):
        code = fig2_code()
        for ell in range(1, 100):
            assert combinatorial_rate(ell, 100, code.n_real) == pytest.approx(
                combinatorial_rate(100 - ell, 100, code.n_real), rel=1e-12)

    def test_global_upper_bound(self):
        # r <= (R/a) ln2 / lnL for every ell
        code = fig2_code()
        cap = (code.rate / code.section_size_rate) * math.log(2) / math.log(code.L)
        for ell in range(0, 101):
            assert combinatorial_rate(ell, 100, code.n_real) <= cap + 1e-15


class TestMinGap:
    def test_residual_small_across_grid(self):
        code = fig2_code()
        for ell in (1, 5, 10, 25, 50, 75, 90, 99):
            d = min_gap(ell, 100, code.n_real, 15.0)
            target = log_binomial(100, ell)
            got = code.n_real * capped_deviation_exponent(
                d, spread_refined(ell / 100, 15.0))
            assert abs(got - target) <= 1e-9 * target

    def test_branch_formula_agrees(self):
        code = fig2_code()
        for ell in range(1, 100):
            a = min_gap(ell, 100, code.n_real, 15.0)
            b = min_gap_branch_formula(ell, 100, code.n_real, 15.0)
            assert a == pytest.approx(b, rel=1e-9)

    def test_branch_crossover_continuity(self):
        # Scan codelengths until the closed form switches branch; values on
        # both sides of the crossover must agree with the root-found gap.
        v, L, ell = 15.0, 100, 50
        s = spread_refined(0.5, v)
        branches = set()
        for n in (50.0, 80.0, 120.0, 200.0, 400.0, 928.57):
            a = min_gap(ell, L, n, v)
            b = min_gap_branch_formula(ell, L, n, v)
            assert a == pytest.approx(b, rel=1e-9)
            r = combinatorial_rate(ell, L, n)
            from sparclab.exponents import inverse_deviation_exponent
            g = inverse_deviation_exponent(r)
            branches.add(g < math.sqrt(s) / (1 - s))
        assert branches == {True, False}

    # min_gap at (ell, L, n, v), from its earlier bisect-then-Newton loop
    PINNED = [
        ((1, 10, 50.0, 0.5), 0.06795301318907741),
        ((3, 10, 50.0, 15.0), 0.34587796854896036),
        ((9, 10, 50.0, 10000.0), 0.09809030194999731),
        ((1, 100, 900.0, 15.0), 0.03644478952637405),
        ((33, 100, 900.0, 0.5), 0.11757086310326684),
        ((33, 100, 900.0, 10000.0), 0.31084066759066),
        ((99, 100, 900.0, 15.0), 0.009823481327980152),
        ((1, 30, 4000.0, 10000.0), 0.04050170281199049),
        ((10, 30, 4000.0, 15.0), 0.06930631193231167),
        ((29, 30, 4000.0, 0.5), 0.004299606847016129),
    ]

    @pytest.mark.parametrize("args, want", PINNED)
    def test_pinned_values(self, args, want):
        assert min_gap(*args) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            min_gap(0, 100, 928.57, 15.0)
        with pytest.raises(ValueError):
            min_gap(100, 100, 928.57, 15.0)


class TestSectionSizeRateFinite:
    def test_definition_round_trip(self):
        v, L = 15.0, 64
        rate = capacity(v)
        a = section_size_rate_finite(v, L, rate)
        n = a * L * math.log(L) / rate
        surpluses = [combinatorial_surplus_at_n(ell, L, n, v) for ell in range(1, L)]
        assert min(surpluses) == pytest.approx(0.0, abs=1e-9)
        assert all(s >= -1e-9 for s in surpluses)

    @pytest.mark.parametrize("v", [0.5, 7.0, 15.0, 1e6])
    @pytest.mark.parametrize("L", [3, 20, 100])
    def test_equals_per_ell_loop(self, v, L):
        rate = 0.9 * capacity(v)
        scale = L * math.log(L)
        loop = max(rate * log_binomial(L, ell) / (shape_exponent(ell, L, v) * scale)
                   for ell in range(1, L))
        assert section_size_rate_finite(v, L, rate) == pytest.approx(loop, rel=1e-15)

    def test_frozen_value_at_v15_L64(self):
        assert section_size_rate_finite(15.0, 64, capacity(15.0)) == pytest.approx(
            3.1292668866348112, rel=1e-10)

    def test_above_limit_and_close(self):
        for v in (2.0, 15.0, 100.0):
            rate = capacity(v)
            finite = section_size_rate_finite(v, 64, rate)
            limit = section_size_rate_limit(v, rate)
            assert finite >= limit
            assert finite <= 1.25 * limit

    def test_argmax_migrates_to_outer_grid(self):
        v, L = 15.0, 512
        rate = capacity(v)
        scale = L * math.log(L)
        ratios = {ell: rate * log_binomial(L, ell) / (shape_exponent(ell, L, v) * scale)
                  for ell in range(1, L)}
        best = max(ratios, key=ratios.get)
        assert best >= 0.9 * L or best <= 0.1 * L
        assert best == 511


class TestSectionSizeRateLimit:
    def test_branch_point_location(self):
        vs = snr_branch_point()
        assert vs == pytest.approx(15.801016190708335, abs=1e-9)
        assert (1 + vs) * math.log1p(vs) == pytest.approx(3 * vs, rel=1e-12)

    def test_anchor_v7(self):
        assert section_size_rate_limit(7.0, capacity(7.0)) == pytest.approx(5.0, abs=0.05)

    def test_anchor_v158(self):
        assert section_size_rate_limit(15.8, capacity(15.8)) == pytest.approx(3.00, abs=0.01)

    def test_branch_continuity(self):
        vs = snr_branch_point()
        below = section_size_rate_limit(vs * (1 - 1e-13), capacity(vs))
        above = section_size_rate_limit(vs * (1 + 1e-13), capacity(vs))
        assert abs(below - above) < 1e-9

    def test_small_snr_inverse_square(self):
        v = 0.01
        assert section_size_rate_limit(v, capacity(v)) == pytest.approx(16 / v ** 2,
                                                                        rel=0.10)

    def test_asymptote_toward_one_at_extreme_snr(self):
        # Convergence is logarithmic: within 1 percent only near v = e^202.
        assert section_size_rate_limit(1e88, capacity(1e88)) == pytest.approx(1.0,
                                                                              rel=0.01)
        v6 = section_size_rate_limit(1e6, capacity(1e6))
        assert v6 == pytest.approx(1.1692688168136645, rel=1e-10)

    def test_proportional_to_rate(self):
        assert section_size_rate_limit(15.0, 0.5) == pytest.approx(
            0.5 * section_size_rate_limit(15.0, 1.0), rel=1e-12)


class TestSmallAlphaSlope:
    def test_frozen_value(self):
        assert small_alpha_slope(15.0, capacity(15.0), 3.0) == pytest.approx(
            2.390408227821075, abs=1e-10)

    def test_rate_zero_limit(self):
        assert small_alpha_slope(15.0, 1e-300, 3.0) == pytest.approx(
            0.5 * (15 - math.log(16)), abs=1e-9)

    def test_doubling_a_shrinks_subtrahend_by_sqrt2(self):
        v, rate = 15.0, capacity(15.0)
        base = 0.5 * (v - math.log1p(v))
        s1 = base - small_alpha_slope(v, rate, 3.0)
        s2 = base - small_alpha_slope(v, rate, 6.0)
        assert s1 / s2 == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_positive_when_a_exceeds_limit(self):
        for v in (2.0, 15.0, 100.0):
            rate = capacity(v)
            a = 1.05 * section_size_rate_limit(v, rate)
            assert small_alpha_slope(v, rate, a) > 0


class TestCombinatorialSurplus:
    def test_zero_at_endpoints(self):
        code = fig2_code()
        assert combinatorial_surplus(0, code, 15.0) == 0.0
        assert combinatorial_surplus(100, code, 15.0) == 0.0

    def test_elementwise_with_zero_endpoints(self):
        code = fig2_code()
        ells = np.arange(0, 101)
        got = combinatorial_surplus(ells, code, 15.0)
        assert got.shape == (101,)
        assert got[0] == 0.0 and got[100] == 0.0
        want = [combinatorial_surplus(ell, code, 15.0) for ell in range(101)]
        assert got.tolist() == pytest.approx(want, rel=0.0, abs=1e-10)
        assert type(combinatorial_surplus(7, code, 15.0)) is float
        with pytest.raises(ValueError):
            combinatorial_surplus(np.array([5, 101]), code, 15.0)

    def test_positive_at_midpoint_of_fig2_grid(self):
        # The fig2 configuration has a < a_{v,L}, so nonnegativity is not
        # guaranteed across the whole grid (it dips at the top end), but the
        # interior is comfortably positive.
        code = fig2_code()
        assert combinatorial_surplus(50, code, 15.0) > 0
        assert all(combinatorial_surplus(ell, code, 15.0) > 0
                   for ell in range(1, 95))

    def test_negative_when_a_insufficient(self):
        v, L = 15.0, 64
        rate = capacity(v)
        a_low = 0.9 * section_size_rate_finite(v, L, rate)
        n = a_low * L * math.log(L) / rate
        assert min(combinatorial_surplus_at_n(ell, L, n, v)
                   for ell in range(1, L)) < 0
