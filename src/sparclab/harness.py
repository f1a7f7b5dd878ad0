"""Seeded Monte Carlo experiment driver and CSV curve generation.

Per-trial randomness comes from a counter-based split of the master seed:
trial i draws from SeedSequence((master_seed, i)), spawned into separate
dictionary / message / noise streams.  Trials are therefore independent of
scheduling, and aggregation folds results in trial-index order, so reports
are byte-identical for any worker count.
"""

from __future__ import annotations

import concurrent.futures
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    BoundQuery,
    TailBound,
    achievable_rate,
    min_section_size_rate_for_target,
    mistake_tail_bound,
    normal_approximation_rate,
)
from .codec import (
    DEFAULT_ENUMERATION_CAP,
    awgn_channel,
    count_mistakes,
    decode_exhaustive,
    encode,
    generate_dictionary,
    synthesize,
)
from .diagnostics import PowerReport, power_report
from .geometry import (
    ChannelSpec,
    CodeSpec,
    capacity,
    combinatorial_surplus,
    section_size_rate_finite,
    section_size_rate_limit,
)
from .rs import Field, RSSpec, compose_decode, compose_encode

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one Monte Carlo experiment.

    t (nats) is the slack of the analytic tails the trials are compared
    with (see BoundQuery); the trials decode exactly, which every t >= 0
    covers.
    """

    snr: float
    L: int
    B: int
    rate: float                       # nats
    signed: bool = False
    rs_distance: int | None = None    # outer-code minimum distance, if any
    t: float = 0.0
    master_seed: int = 0
    trials: int = 1
    ell0_list: tuple[int, ...] = (1,)
    workers: int = 1
    noiseless: bool = False           # zero channel noise; bounds keep the nominal snr
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"need at least one trial, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"need at least one worker, got {self.workers}")
        if any(not 1 <= e <= self.L for e in self.ell0_list):
            raise ValueError("ell0 values must lie in [1, L]")
        if not (self.t >= 0 and math.isfinite(self.t)):
            raise ValueError(f"threshold must be nonnegative and finite, got {self.t}")
        # a bad channel, code or outer code fails here, not in a worker
        _ = self.channel, self.code, self.rs_spec()

    @property
    def channel(self) -> ChannelSpec:
        return ChannelSpec.from_snr(self.snr)

    @property
    def code(self) -> CodeSpec:
        return CodeSpec(L=self.L, B=self.B, rate=self.rate, signed=self.signed)

    def rs_spec(self) -> RSSpec | None:
        if self.rs_distance is None:
            return None
        if self.B & (self.B - 1) or self.B < 4:
            raise ValueError("outer code needs a power-of-two section size >= 4")
        m = self.B.bit_length() - 1
        return RSSpec(Field(m), self.L, self.L - self.rs_distance + 1)


@dataclass(frozen=True)
class TrialResult:
    trial: int
    seed: int
    mistakes: int
    section_error_rate: float
    block_ok: bool


@dataclass(frozen=True)
class TailComparison:
    ell0: int
    empirical: float
    ci_upper: float       # 99% Wilson upper bound on the empirical rate
    analytic: float


@dataclass(frozen=True)
class MCReport:
    config: ExperimentConfig
    trials: tuple[TrialResult, ...]
    tails: tuple[TailComparison, ...]
    power: PowerReport


def _trial_streams(master_seed: int, index: int):
    ss = np.random.SeedSequence((master_seed, index))
    record = int(ss.generate_state(1, np.uint64)[0])
    dict_ss, msg_ss, noise_ss = ss.spawn(3)
    return record, dict_ss, msg_ss, noise_ss


def _run_trial(config: ExperimentConfig, index: int) -> TrialResult:
    record, dict_ss, msg_ss, noise_ss = _trial_streams(config.master_seed, index)
    code = config.code
    channel = config.channel
    rs = config.rs_spec()

    dic = generate_dictionary(code, channel, dict_ss)
    msg_rng = np.random.Generator(np.random.PCG64(msg_ss))
    if rs is None:
        bits = "".join(str(b) for b in msg_rng.integers(0, 2, code.input_bits))
        beta = encode(bits, code)
    else:
        bits = "".join(str(b) for b in
                       msg_rng.integers(0, 2, rs.K_out * rs.field.m))
        beta = compose_encode(bits, code, rs)

    sigma2 = 0.0 if config.noiseless else channel.sigma2
    y = awgn_channel(synthesize(dic, beta), sigma2, noise_ss)
    result = decode_exhaustive(dic, y, code, cap=config.enumeration_cap)
    mistakes = count_mistakes(result.coefficients, beta)

    if rs is None:
        block_ok = mistakes == 0
    else:
        out_bits, ok = compose_decode(result.coefficients, rs)
        block_ok = ok and out_bits == bits

    return TrialResult(trial=index, seed=record, mistakes=mistakes,
                       section_error_rate=mistakes / code.L, block_ok=block_ok)


def run_monte_carlo(config: ExperimentConfig) -> MCReport:
    """Run the configured trials and compare empirical tails to the bounds.

    The enumeration-cap feasibility check runs before any trial.  Trials
    run on min(workers, trials, cpu count) threads.  The power report is
    computed on the trial-0 dictionary stream.
    """
    total = config.code.candidate_count()
    if total > config.enumeration_cap:
        raise ValueError(
            f"configuration enumerates {total} candidates, over the cap "
            f"{config.enumeration_cap}; refusing to launch")

    indices = range(config.trials)
    workers = min(config.workers, config.trials, os.cpu_count() or 1)
    if workers == 1:
        trials = [_run_trial(config, i) for i in indices]
    else:
        with concurrent.futures.ThreadPoolExecutor(workers) as pool:
            futures = {i: pool.submit(_run_trial, config, i) for i in indices}
            trials = [futures[i].result() for i in indices]

    # one tail bound from the smallest ell0 serves every ell0
    tails = []
    if config.ell0_list:
        q = BoundQuery(channel=config.channel, code=config.code, t=config.t)
        tail = mistake_tail_bound(min(config.ell0_list), q)
    for ell0 in config.ell0_list:
        hits = sum(1 for tr in trials if tr.mistakes >= ell0)
        empirical = hits / config.trials
        tails.append(TailComparison(
            ell0=ell0,
            empirical=empirical,
            ci_upper=_wilson_upper(hits, config.trials),
            analytic=tail.total_from(ell0),
        ))

    _, dict_ss, _, _ = _trial_streams(config.master_seed, 0)
    dic0 = generate_dictionary(config.code, config.channel, dict_ss)
    power = power_report(dic0, config.channel, config.code)

    return MCReport(config=config, trials=tuple(trials), tails=tuple(tails),
                    power=power)


def _wilson_upper(successes: int, trials: int, z: float = 2.5758293035489004) -> float:
    """Upper Wilson score bound; default z is the two-sided 99% quantile."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials
                                   + z * z / (4 * trials * trials))
    return min(1.0, center + half)


def format_value(x) -> str:
    """CSV cell formatting: plain decimals, scientific below 1e-4."""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if x == 0.0:
        return "0"
    if abs(x) < 1e-4:
        return f"{x:.6e}"
    return f"{x:.10g}"


def rows_to_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(format_value(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def simulate_csv(report: MCReport) -> str:
    header = ["trial", "seed", "mistakes", "section_error_rate", "block_ok"]
    rows = [[t.trial, t.seed, t.mistakes, t.section_error_rate, t.block_ok]
            for t in report.trials]
    return rows_to_csv(header, rows)


def bounds_table(channel: ChannelSpec, code: CodeSpec, t: float = 0.0):
    """Per-mistake-count bound table rows (full parameter echo per row)."""
    q = BoundQuery(channel=channel, code=code, t=t)
    return tail_table(q, mistake_tail_bound(1, q))


def tail_table(q: BoundQuery, tail: TailBound):
    """bounds_table's header and rows, one per count of a tail bound of q."""
    header = ["v", "L", "B", "rate_bits", "t", "ell", "alpha",
              "union_bound", "split_bound", "chosen", "t_alpha_opt"]
    rows = [[q.channel.snr, q.code.L, q.code.B, q.code.rate / LN2, q.t, b.ell,
             b.alpha, b.union_prob, b.split_prob, b.chosen(), b.t_alpha_opt]
            for b in tail.per_ell]
    return header, rows


def fig1_rows(v: float = 20.0, epsilon: float = 1e-4,
              L_values=tuple(range(20, 101, 10)),
              rate_points: int = 200):
    """Achievable composite rate against the benchmark curve, per L."""
    a = section_size_rate_limit(v, capacity(v))
    header = ["v", "L", "B", "a", "n", "R_inner_bits", "alpha0",
              "R_comp_bits", "ppv_bits", "tail_bound"]
    rows = []
    Ls = sorted(L_values)
    for L, ar in zip(Ls, achievable_rate(v, Ls, a, epsilon, rate_points=rate_points)):
        if ar.R_inner > 0:
            n = ar.n_real
            ppv = normal_approximation_rate(v, n, epsilon) / LN2
        else:
            n = L * math.log(ar.B) / capacity(v)
            ppv = normal_approximation_rate(v, n, epsilon) / LN2
        a_eff = math.log(ar.B) / math.log(L)
        rows.append([v, L, ar.B, a_eff, n, ar.R_inner / LN2, ar.alpha0,
                     ar.R_comp / LN2, ppv, ar.tail_total])
    return header, rows


def fig2_rows(v: float = 15.0, L: int = 100, B: int = 2 ** 13,
              rate_fraction: float = 0.7, t: float = 0.0):
    """Exponent decomposition across mistake fractions."""
    channel = ChannelSpec.from_snr(v)
    code = CodeSpec(L=L, B=B, rate=rate_fraction * capacity(v))
    q = BoundQuery(channel=channel, code=code, t=t)
    header = ["alpha", "ell", "neg_ln_lemma2_main", "neg_ln_lemma2_star",
              "neg_ln_lemma1", "d_n_alpha"]
    per_ell = mistake_tail_bound(1, q).per_ell
    surplus = combinatorial_surplus(np.array([b.ell for b in per_ell]), code, v)
    rows = [[b.alpha, b.ell, -b.split_main_log, -b.split_star_log, -b.union_log, d]
            for b, d in zip(per_ell, surplus.tolist())]
    return header, rows


def fig3_rows(v_values=(2.0, 5.0, 10.0, 20.0, 50.0, 100.0), L: int = 64,
              rate_fraction_target: float = 0.8, alpha0: float = 0.1,
              epsilon: float = math.exp(-10)):
    """Section size rate curves: finite-L, large-L limit, and target-driven."""
    header = ["v", "L", "a_limit", "a_finite", "alpha0", "epsilon",
              "rate_fraction_target", "a_target"]
    vs = sorted(v_values)
    caps = np.array([capacity(v) for v in vs], dtype=np.float64)
    # the finite-L rates come first: they reject L < 3 before any bisection
    finite = [section_size_rate_finite(v, L, C) for v, C in zip(vs, caps.tolist())]
    targets = min_section_size_rate_for_target(
        np.array(vs, dtype=np.float64), L, rate_fraction_target * caps, alpha0, epsilon)
    rows = [[v, L, section_size_rate_limit(v, C), a_finite,
             alpha0, epsilon, rate_fraction_target, a_target]
            for v, C, a_finite, a_target in zip(vs, caps.tolist(), finite, targets.tolist())]
    return header, rows


def ppv_rows(v: float = 20.0, epsilon: float = 1e-4,
             n_values=(100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0)):
    """Benchmark normal-approximation rate across codelengths."""
    header = ["v", "n", "epsilon", "capacity_bits", "ppv_bits"]
    C = capacity(v)
    rows = [[v, n, epsilon, C / LN2, normal_approximation_rate(v, n, epsilon) / LN2]
            for n in sorted(n_values)]
    return header, rows


def emit_curves(kind: str, **params) -> str:
    """CSV for one of the supported curve families."""
    makers = {"fig1": fig1_rows, "fig2": fig2_rows, "fig3": fig3_rows,
              "ppv": ppv_rows}
    if kind not in makers:
        raise ValueError(f"unknown curve kind {kind!r}; choose from {sorted(makers)}")
    header, rows = makers[kind](**params)
    return rows_to_csv(header, rows)
