"""Monte Carlo driver: determinism, aggregation, curve CSVs."""

import concurrent.futures
import math
import os

import pytest

from sparclab import harness
from sparclab.bounds import BoundQuery, mistake_tail_bound
from sparclab.geometry import ChannelSpec, CodeSpec, capacity, combinatorial_surplus
from sparclab.harness import (
    ExperimentConfig,
    _wilson_upper,
    bounds_table,
    emit_curves,
    fig3_rows,
    format_value,
    ppv_rows,
    rows_to_csv,
    run_monte_carlo,
    simulate_csv,
)

from oracles import wilson_upper_bisect

C15 = capacity(15.0)


def mini_config(**kw) -> ExperimentConfig:
    base = dict(snr=15.0, L=3, B=8, rate=0.6 * C15, master_seed=11, trials=40,
                ell0_list=(1, 2, 3))
    base.update(kw)
    return ExperimentConfig(**base)


class TestExperimentConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            mini_config(trials=0)
        with pytest.raises(ValueError):
            mini_config(workers=0)
        with pytest.raises(ValueError):
            mini_config(ell0_list=(0,))

    @pytest.mark.parametrize("L, B", [(9, 8), (3, 6)])
    def test_infeasible_outer_code_rejected_at_construction(self, L, B):
        # RS over GF(8) has length at most 7; B = 6 is not a field size
        with pytest.raises(ValueError):
            mini_config(L=L, B=B, rs_distance=3, ell0_list=(1,))

    @pytest.mark.parametrize("bad", [{"snr": -1.0}, {"t": -0.5}, {"rate": 0.0},
                                     {"B": 1}])
    def test_bad_parameter_rejected_at_construction(self, bad):
        # a bad parameter must fail before any trial runs, not inside a
        # worker thread or after the trials
        with pytest.raises(ValueError):
            mini_config(workers=2, **bad)

    def test_derived_objects(self):
        cfg = mini_config()
        assert cfg.channel.snr == 15.0
        assert cfg.code.L == 3
        assert cfg.rs_spec() is None

    def test_rs_spec_derivation(self):
        cfg = mini_config(B=4, rs_distance=3)
        rs = cfg.rs_spec()
        assert rs.field.q == 4
        assert rs.n_out == 3
        assert rs.d_RS == 3
        assert rs.t_RS == 1


class TestRunMonteCarlo:
    def test_noiseless_config_never_errs(self):
        rep = run_monte_carlo(mini_config(noiseless=True, trials=25))
        assert all(t.mistakes == 0 for t in rep.trials)
        assert all(t.block_ok for t in rep.trials)
        assert all(t.section_error_rate == 0.0 for t in rep.trials)

    def test_deterministic_across_worker_counts(self):
        rep1 = run_monte_carlo(mini_config(workers=1))
        rep8 = run_monte_carlo(mini_config(workers=8))
        assert simulate_csv(rep1) == simulate_csv(rep8)
        assert rep1.tails == rep8.tails

    @pytest.mark.parametrize("workers, trials, cpus, started", [
        (3, 2, 4, 2),       # bounded by the trial count
        (3, 5, 2, 2),       # bounded by the processor count
        (2, 5, 4, 2),       # the configured count
        (3, 1, 4, None),    # one trial runs inline, with no pool
        (2, 3, None, None), # unknown processor count: one inline worker
    ])
    def test_pool_size_bounded(self, monkeypatch, workers, trials, cpus, started):
        sizes = []

        class Recording(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Recording)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        cfg = mini_config(workers=workers, trials=trials)
        rep = run_monte_carlo(cfg)
        assert sizes == ([] if started is None else [started])
        assert simulate_csv(rep) == simulate_csv(run_monte_carlo(
            mini_config(workers=1, trials=trials)))

    def test_trial_streams_independent_of_trial_count(self):
        # adding trials never changes earlier trials
        short = run_monte_carlo(mini_config(trials=10))
        long = run_monte_carlo(mini_config(trials=20))
        assert short.trials == long.trials[:10]

    def test_analytic_column_matches_direct_invocation(self, monkeypatch):
        # one tail bound per run, from the smallest ell0, in any list order
        calls = []

        def counted(ell0, q):
            calls.append(ell0)
            return mistake_tail_bound(ell0, q)

        monkeypatch.setattr(harness, "mistake_tail_bound", counted)
        for kw in (dict(), dict(trials=2, ell0_list=(3, 1, 2, 1)),
                   dict(trials=2, L=5, B=4, t=0.05, rate=0.9 * C15, ell0_list=(5, 2, 4)),
                   dict(trials=2, L=6, B=4, snr=2.0, rate=0.3 * capacity(2.0),
                        ell0_list=(6, 3))):
            cfg = mini_config(**kw)
            calls.clear()
            rep = run_monte_carlo(cfg)
            assert calls == [min(cfg.ell0_list)]
            assert [tc.ell0 for tc in rep.tails] == list(cfg.ell0_list)
            q = BoundQuery(channel=cfg.channel, code=cfg.code, t=cfg.t)
            for tc in rep.tails:
                assert tc.analytic == mistake_tail_bound(tc.ell0, q).total

    def test_empty_ell0_list_has_no_tails(self):
        assert run_monte_carlo(mini_config(trials=2, ell0_list=())).tails == ()

    def test_one_sided_validity_small_run(self):
        cfg = mini_config(trials=200)
        rep = run_monte_carlo(cfg)
        for tc in rep.tails:
            assert tc.empirical <= tc.analytic + (tc.ci_upper - tc.empirical)

    def test_enumeration_cap_checked_before_launch(self):
        cfg = ExperimentConfig(snr=15.0, L=12, B=64, rate=1.0, trials=5,
                               enumeration_cap=1000)
        with pytest.raises(ValueError, match="cap"):
            run_monte_carlo(cfg)

    def test_rs_composition_path(self):
        # quiet channel, distance-3 outer code over GF(4): blocks survive
        cfg = ExperimentConfig(snr=200.0, L=3, B=4,
                               rate=0.5 * capacity(200.0),
                               rs_distance=3, master_seed=5, trials=30,
                               ell0_list=(1,))
        rep = run_monte_carlo(cfg)
        assert sum(t.block_ok for t in rep.trials) >= 28
        one_mistake = [t for t in rep.trials if t.mistakes == 1]
        assert all(t.block_ok for t in one_mistake)

    def test_power_report_attached(self):
        rep = run_monte_carlo(mini_config(trials=5))
        assert rep.power.analytic_mean == 15.0


class TestWilsonUpper:
    Z99 = 2.5758293035489004

    def test_zero_successes_closed_form(self):
        z = 2.576
        assert _wilson_upper(0, 100, z) == pytest.approx(z * z / (100 + z * z), rel=1e-15)

    @pytest.mark.parametrize("k, n", [(0, 1), (0, 200), (1, 200), (3, 10), (5, 10),
                                      (37, 100), (99, 100), (100, 100)])
    def test_matches_score_test_bisection(self, k, n):
        got = _wilson_upper(k, n)
        assert got == pytest.approx(wilson_upper_bisect(k, n, self.Z99), abs=1e-12)
        assert k / n <= got <= 1.0

    def test_rejects_no_trials(self):
        with pytest.raises(ValueError):
            _wilson_upper(0, 0)


class TestCsvFormatting:
    def test_scientific_below_threshold(self):
        assert format_value(1.5e-5) == "1.500000e-05"
        assert format_value(-3.2e-7) == "-3.200000e-07"

    def test_plain_decimal_above_threshold(self):
        assert format_value(0.25) == "0.25"
        assert format_value(1234.5) == "1234.5"

    def test_zero_int_bool(self):
        assert format_value(0.0) == "0"
        assert format_value(7) == "7"
        assert format_value(True) == "1"
        assert format_value(False) == "0"

    def test_rows_to_csv_shape(self):
        text = rows_to_csv(["a", "b"], [[1, 2.5], [3, 1e-6]])
        lines = text.strip().split("\n")
        assert lines[0] == "a,b"
        assert lines[1] == "1,2.5"
        assert lines[2] == "3,1.000000e-06"


class TestSimulateCsv:
    def test_pinned_schema(self):
        rep = run_monte_carlo(mini_config(trials=3))
        lines = simulate_csv(rep).strip().split("\n")
        assert lines[0] == "trial,seed,mistakes,section_error_rate,block_ok"
        assert len(lines) == 4


class TestBoundsTable:
    def test_parameter_echo_and_columns(self):
        header, rows = bounds_table(ChannelSpec.from_snr(15.0),
                                    CodeSpec(L=10, B=16, rate=0.5 * C15))
        assert header[:5] == ["v", "L", "B", "rate_bits", "t"]
        assert len(rows) == 10
        assert all(row[0] == 15.0 and row[1] == 10 and row[2] == 16
                   for row in rows)


class TestEmitCurves:
    def test_fig2_pinned_schema_and_values(self):
        csv = emit_curves("fig2")
        lines = csv.strip().split("\n")
        assert lines[0] == ("alpha,ell,neg_ln_lemma2_main,neg_ln_lemma2_star,"
                            "neg_ln_lemma1,d_n_alpha")
        assert len(lines) == 101
        # spot-check the surplus column against the geometry module
        code = CodeSpec(L=100, B=2 ** 13, rate=0.7 * C15)
        row50 = lines[50].split(",")
        assert float(row50[0]) == 0.5
        assert float(row50[5]) == pytest.approx(
            combinatorial_surplus(50, code, 15.0), rel=1e-6)

    def test_fig1_pinned_schema(self):
        csv = emit_curves("fig1", v=20.0, L_values=(20,), rate_points=20)
        lines = csv.strip().split("\n")
        assert lines[0] == "v,L,B,a,n,R_inner_bits,alpha0,R_comp_bits,ppv_bits,tail_bound"
        assert len(lines) == 2
        row = lines[1].split(",")
        assert row[0] == "20" and row[1] == "20"

    def test_fig1_empty_sweep_gives_header_only(self):
        csv = emit_curves("fig1", v=20.0, L_values=())
        assert csv == "v,L,B,a,n,R_inner_bits,alpha0,R_comp_bits,ppv_bits,tail_bound\n"

    def test_fig3_orderings(self):
        # the three-curve ordering holds at the figure's L = 64; smaller L
        # can push the target curve above the finite curve
        _, rows = fig3_rows(v_values=(15.0,), L=64)
        (v, L, a_limit, a_finite, alpha0, eps, frac, a_target), = rows
        assert a_finite >= a_limit
        assert a_target <= a_finite
        _, small_rows = fig3_rows(v_values=(10.0, 20.0), L=16)
        for row in small_rows:
            assert row[3] >= row[2]

    def test_ppv_rows(self):
        header, rows = ppv_rows(20.0, 1e-3, n_values=(100.0, 1000.0))
        assert header == ["v", "n", "epsilon", "capacity_bits", "ppv_bits"]
        assert rows[0][4] < rows[1][4] < rows[0][3]

    def test_rows_sorted_by_sweep_variable(self):
        csv = emit_curves("ppv", v=20.0, n_values=(100.0, 200.0, 400.0))
        ns = [float(line.split(",")[1]) for line in csv.strip().split("\n")[1:]]
        assert ns == sorted(ns)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown curve kind"):
            emit_curves("fig9")
