"""Power statistics: exact ensemble identities and one-sided envelopes."""

import itertools
import math

import numpy as np
import pytest

from sparclab.codec import (
    SparseCoefficients,
    generate_dictionary,
    normalized_power,
    synthesize,
)
from sparclab.diagnostics import (
    ColumnGeometry,
    average_power_signed,
    average_power_unsigned,
    codeword_power_stats,
    column_geometry,
    power_report,
    signed_power_sd,
    unsigned_power_sd,
    worst_case_power_bound,
)
from sparclab.geometry import ChannelSpec, CodeSpec

from oracles import coverage_critical_count

CH15 = ChannelSpec.from_snr(15.0)


def code_with_n(L: int, B: int, n: int, **kw) -> CodeSpec:
    return CodeSpec(L=L, B=B, rate=L * math.log(B) / n, **kw)


class TestAveragePower:
    def test_uniform_columns_give_exact_power(self):
        # every column norm^2 exactly P/L
        n, L, B = 16, 4, 4
        entries = np.ones((n, L * B)) * math.sqrt(CH15.P / L)
        from sparclab.codec import Dictionary
        d = Dictionary(entries=entries, L=L, B=B, entry_variance=CH15.P / L)
        assert average_power_signed(d) == pytest.approx(CH15.P, rel=1e-12)

    def test_identical_columns_kill_section_variance(self):
        n, L, B = 8, 2, 3
        rng = np.random.default_rng(0)
        sec = rng.normal(size=(n, 1))
        entries = np.hstack([np.repeat(sec, B, axis=1),
                             np.repeat(rng.normal(size=(n, 1)), B, axis=1)])
        from sparclab.codec import Dictionary
        d = Dictionary(entries=entries, L=L, B=B, entry_variance=1.0)
        mean_cw = sum(entries[:, i * B] for i in range(L))
        assert average_power_unsigned(d) == pytest.approx(
            float(np.mean(mean_cw ** 2)), rel=1e-12)

    def test_random_dictionary_within_four_sd(self):
        code = code_with_n(8, 16, 200)
        d = generate_dictionary(code, CH15, 0)
        assert abs(average_power_signed(d) - CH15.P) <= \
            4 * signed_power_sd(CH15.P, 8, 16, 200)
        assert abs(average_power_unsigned(d) - CH15.P) <= \
            4 * unsigned_power_sd(CH15.P, 8, 16, 200)

    def test_unsigned_sd_exceeds_signed_sd(self):
        for L, B, n in ((8, 16, 200), (4, 64, 500), (16, 4, 100)):
            assert unsigned_power_sd(CH15.P, L, B, n) >= \
                signed_power_sd(CH15.P, L, B, n)

    def test_sampling_distribution_of_signed_average(self):
        # spread over regenerations matches the analytic sd within 15%
        code = code_with_n(8, 16, 200)
        values = [average_power_signed(generate_dictionary(code, CH15, s))
                  for s in range(1000)]
        empirical = float(np.std(values))
        assert empirical == pytest.approx(
            signed_power_sd(CH15.P, 8, 16, 200), rel=0.15)


class TestWorstCasePower:
    def test_degenerate_limit_is_signal_power(self):
        # epsilon -> 1 removes the log term; rate -> 0 removes the rest
        tiny_rate = CodeSpec(L=3, B=4, rate=1e-12)
        assert worst_case_power_bound(CH15, tiny_rate, 1.0) == pytest.approx(
            CH15.P, rel=1e-5)

    def test_exceeds_signal_power_for_positive_rate(self):
        code = code_with_n(3, 4, 60)
        assert worst_case_power_bound(CH15, code, 0.02) > CH15.P

    def test_large_n_limit_drops_epsilon_correction(self):
        from sparclab.exponents import inverse_chi_square_exponent
        code = CodeSpec(L=100, B=2 ** 13, rate=0.5)
        got = worst_case_power_bound(CH15, code, 0.5)
        approx = CH15.P * (1 + inverse_chi_square_exponent(0.5))
        assert got == pytest.approx(approx, rel=1e-2)

    def test_exhaustive_codeword_max_within_bound(self):
        # 50 seeded dictionaries; at eps = 0.02 at most one may violate
        code = code_with_n(3, 4, 60)
        bound = worst_case_power_bound(CH15, code, 0.02)
        violations = 0
        for seed in range(50):
            d = generate_dictionary(code, CH15, 100 + seed)
            worst = max(
                normalized_power(synthesize(d, SparseCoefficients.unsigned(t)))
                for t in itertools.product(range(4), repeat=3))
            violations += worst > bound
        assert violations <= 1


class TestColumnGeometry:
    def test_single_column_reports_vacuous_inner_product(self):
        from sparclab.codec import Dictionary
        d = Dictionary(entries=np.ones((4, 1)), L=1, B=1, entry_variance=1.0)
        g = column_geometry(d, 0.5)
        assert isinstance(g, ColumnGeometry)
        assert g.max_abs_inner_product is None
        assert g.inner_product_ok

    def test_orthogonal_columns_trivially_pass(self):
        from sparclab.codec import Dictionary
        entries = np.eye(4)
        d = Dictionary(entries=entries, L=2, B=2, entry_variance=0.25)
        g = column_geometry(d, 0.1)
        assert g.max_abs_inner_product == 0.0
        assert g.inner_product_ok

    def test_coverage_over_200_seeds(self):
        # both envelopes at eps = 0.01; exact-binomial adjudication
        code = code_with_n(8, 16, 500)
        viol_power = viol_ip = 0
        for seed in range(200):
            d = generate_dictionary(code, CH15, 1000 + seed)
            g = column_geometry(d, 0.01)
            viol_power += not g.column_power_ok
            viol_ip += not g.inner_product_ok
        critical = coverage_critical_count(200, 0.01)
        assert viol_power <= critical
        assert viol_ip <= critical


class TestCodewordPowerStats:
    def test_single_section_has_zero_variance(self):
        code = code_with_n(1, 4, 16)
        d = generate_dictionary(code, CH15, 2)
        mean, var = codeword_power_stats(d, SparseCoefficients.unsigned([3]))
        assert var == 0.0
        assert mean == pytest.approx(normalized_power(d.section(0)[:, 3]), rel=1e-12)

    def test_exhaustive_sign_average_identity(self):
        # mean over all 2^L sign patterns equals the conditional mean exactly
        code = code_with_n(12, 4, 50)
        d = generate_dictionary(code, CH15, 3)
        S = SparseCoefficients.unsigned([1, 0, 3, 2, 1, 1, 0, 2, 3, 0, 1, 2])
        mean, var = codeword_power_stats(d, S)
        cols = d.entries[:, [i * 4 + j for i, j in enumerate(S.indices)]]
        signs = np.array(list(itertools.product([1, -1], repeat=12)))
        powers = np.mean((signs @ cols.T) ** 2, axis=1)
        assert abs(float(powers.mean()) - mean) <= 1e-10 * mean
        # the exhaustive variance also matches the closed form exactly
        assert float(powers.var()) == pytest.approx(var, rel=1e-10)

    def test_monte_carlo_sign_variance_within_ten_percent(self):
        code = code_with_n(12, 4, 50)
        d = generate_dictionary(code, CH15, 3)
        S = SparseCoefficients.unsigned([1, 0, 3, 2, 1, 1, 0, 2, 3, 0, 1, 2])
        _, var = codeword_power_stats(d, S)
        rng = np.random.default_rng(9)
        signs = rng.choice([-1, 1], size=(100000, 12))
        cols = d.entries[:, [i * 4 + j for i, j in enumerate(S.indices)]]
        powers = np.mean((signs @ cols.T) ** 2, axis=1)
        assert float(powers.var()) == pytest.approx(var, rel=0.10)

    def test_variance_chained_by_inner_product_envelope(self):
        # when the geometry check passes, the conditional variance is at
        # most 2 P^2 G^2 with G the inner-product deviation envelope
        code = code_with_n(8, 16, 500)
        d = generate_dictionary(code, CH15, 12)
        g = column_geometry(d, 0.01)
        assert g.inner_product_ok
        rng = np.random.default_rng(4)
        S = SparseCoefficients.unsigned(rng.integers(0, 16, 8))
        _, var = codeword_power_stats(d, S)
        L = 8
        assert var <= 2 * L * (L - 1) * g.inner_product_bound ** 2 + 1e-12
        envelope = g.inner_product_bound / d.entry_variance  # the G value
        assert var <= 2 * CH15.P ** 2 * envelope ** 2 + 1e-12

    def test_unsigned_exhaustive_message_average(self):
        # mean power over all B^L messages equals the two-term display
        code = code_with_n(2, 3, 40)
        d = generate_dictionary(code, CH15, 5)
        avg = np.mean([
            normalized_power(synthesize(d, SparseCoefficients.unsigned([a, b])))
            for a in range(3) for b in range(3)])
        assert float(avg) == pytest.approx(average_power_unsigned(d), rel=1e-12)


class TestPowerReport:
    def test_report_fields_and_flags(self):
        code = code_with_n(8, 16, 200)
        d = generate_dictionary(code, CH15, 0)
        rep = power_report(d, CH15, code, epsilon=0.01)
        assert rep.analytic_mean == CH15.P
        assert rep.avg_power_ok
        assert rep.column_power_ok
        assert rep.inner_product_ok
        assert not rep.signed
        assert rep.worst_case_bound > CH15.P

    def test_signed_report_uses_signed_statistics(self):
        code = code_with_n(8, 16, 200, signed=True)
        d = generate_dictionary(code, CH15, 0)
        rep = power_report(d, CH15, code, epsilon=0.01)
        assert rep.signed
        assert rep.avg_power == pytest.approx(average_power_signed(d), rel=1e-12)
        assert rep.analytic_sd == pytest.approx(
            signed_power_sd(CH15.P, 8, 16, d.n), rel=1e-12)

    def test_readme_simulate_inner_product_bound_pinned(self):
        # The README simulate config's report field.  It was 6.680675744151989
        # while inverse_deviation_exponent bisected on a math.log1p copy of the
        # exponent; the array form's np.log1p moved it by one ulp.
        code = CodeSpec(L=4, B=16, rate=0.6 * CH15.capacity)
        rep = power_report(generate_dictionary(code, CH15, 7), CH15, code)
        earlier = 6.680675744151989
        assert abs(rep.inner_product_bound - earlier) <= math.ulp(earlier)
        assert rep.inner_product_bound == pytest.approx(earlier, rel=1e-15)
