"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Criterion 2 includes an extreme-snr anchor (value within 1% of 1 at snr 1e6)
that the implemented limit formula cannot meet: the approach to 1 is
logarithmic and reaches 1% only near snr e^202.  That check is asserted as
stated and fails; everything else passes.
"""

import itertools
import math
import random
import time

import numpy as np

from sparclab.bounds import BoundQuery, mistake_tail_bound, min_section_size_rate_for_target
from sparclab.codec import (
    SparseCoefficients,
    awgn_channel,
    decode_exhaustive,
    encode,
    generate_dictionary,
    normalized_power,
    synthesize,
    to_bits,
)
from sparclab.diagnostics import average_power_unsigned, codeword_power_stats, column_geometry
from sparclab.exponents import capped_deviation_exponent, deviation_exponent
from sparclab.geometry import (
    ChannelSpec,
    CodeSpec,
    capacity,
    section_size_rate_finite,
    section_size_rate_limit,
    snr_branch_point,
)
from sparclab.harness import ExperimentConfig, run_monte_carlo
from sparclab.rs import Field, RSSpec, compose_decode, compose_encode, rs_decode, rs_encode

from oracles import brute_force_decode, coverage_critical_count, grid_max_exponent


def report(criterion: str, checks: list[tuple[str, bool]], elapsed: float) -> None:
    failing = [name for name, ok in checks if not ok]
    label = "PASS" if not failing else "FAIL"
    line = f"[acceptance] criterion {criterion}: {label} ({elapsed:.1f}s)"
    if failing:
        line += "  failing: " + ", ".join(failing)
    print(line, flush=True)
    assert not failing, f"criterion {criterion} failing checks: {failing}"


def test_criterion_1_exponent_oracle_equivalence():
    start = time.perf_counter()
    deltas = (0.01, 0.1, 0.5, 1.0, 2.0, 5.0)
    spreads = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)
    worst_full = worst_capped = 0.0
    for d, s in itertools.product(deltas, spreads):
        lam_hi = min(10.0, 1.0 / math.sqrt(s))
        worst_full = max(worst_full, abs(
            deviation_exponent(d, s) - grid_max_exponent(d, s, lam_hi)))
        worst_capped = max(worst_capped, abs(
            capped_deviation_exponent(d, s) - grid_max_exponent(d, s, 1.0)))
    elapsed = time.perf_counter() - start
    report("1 (exponent closed forms vs tilt-grid oracle)", [
        (f"unrestricted within 1e-6 (worst {worst_full:.2e})", worst_full <= 1e-6),
        (f"capped within 1e-6 (worst {worst_capped:.2e})", worst_capped <= 1e-6),
        (f"runtime < 10 s ({elapsed:.1f}s)", elapsed < 10.0),
    ], elapsed)


def test_criterion_2_section_size_rate_limit_anchors():
    start = time.perf_counter()
    a7 = section_size_rate_limit(7.0, capacity(7.0))
    a158 = section_size_rate_limit(15.8, capacity(15.8))
    vs = snr_branch_point()
    below = section_size_rate_limit(vs * (1 - 1e-13), capacity(vs))
    above = section_size_rate_limit(vs * (1 + 1e-13), capacity(vs))
    a_big = section_size_rate_limit(1e6, capacity(1e6))
    a_small = section_size_rate_limit(0.01, capacity(0.01))
    elapsed = time.perf_counter() - start
    report("2 (limit section size rate anchors)", [
        (f"value 5.0 +- 0.05 at snr 7 (got {a7:.4f})", abs(a7 - 5.0) <= 0.05),
        (f"value 3.00 +- 0.01 at snr 15.8 (got {a158:.4f})", abs(a158 - 3.0) <= 0.01),
        (f"branch continuity within 1e-9 (gap {abs(below - above):.2e})",
         abs(below - above) <= 1e-9),
        (f"within 1% of 1 at snr 1e6 (got {a_big:.5f})", abs(a_big - 1.0) <= 0.01),
        (f"within 10% of 16/v^2 at snr 0.01 (got {a_small:.0f})",
         abs(a_small - 16.0 / 0.01 ** 2) <= 0.10 * 16.0 / 0.01 ** 2),
    ], elapsed)


def test_criterion_3_tail_bound_anchor():
    start = time.perf_counter()
    C = capacity(15.0)
    q = BoundQuery(channel=ChannelSpec.from_snr(15.0),
                   code=CodeSpec(L=100, B=2 ** 13, rate=0.7 * C), t=0.0)
    total = mistake_tail_bound(10, q).total
    elapsed = time.perf_counter() - start
    report("3 (tail bound anchor 1.8e-12 within factor 3)", [
        (f"total in [6e-13, 5.4e-12] (got {total:.3e})",
         1.8e-12 / 3 <= total <= 1.8e-12 * 3),
        (f"runtime < 5 s ({elapsed:.1f}s)", elapsed < 5.0),
    ], elapsed)


def test_criterion_4_section_size_curve_ordering():
    start = time.perf_counter()
    checks = []
    for v in (2.0, 5.0, 10.0, 20.0, 50.0, 100.0):
        C = capacity(v)
        finite = section_size_rate_finite(v, 64, C)
        limit = section_size_rate_limit(v, C)
        target = min_section_size_rate_for_target(v, 64, 0.8 * C, 0.1,
                                                  math.exp(-10))
        checks.append((f"finite >= limit at v={v:g}", finite >= limit))
        checks.append((f"target <= finite at v={v:g}", target <= finite))
    elapsed = time.perf_counter() - start
    checks.append((f"runtime < 60 s ({elapsed:.1f}s)", elapsed < 60.0))
    report("4 (three-curve section size ordering, L=64)", checks, elapsed)


def test_criterion_5_codec_round_trip_and_oracle():
    start = time.perf_counter()
    ch = ChannelSpec.from_snr(15.0)
    checks = []

    code = CodeSpec(L=2, B=4, rate=1.0)
    d = generate_dictionary(code, ch, 501)
    ok = all(
        to_bits(decode_exhaustive(
            d, synthesize(d, encode(format(m, "04b"), code)), code
        ).coefficients, code) == format(m, "04b")
        for m in range(16))
    checks.append(("all 16 unsigned messages identity", ok))

    signed = CodeSpec(L=2, B=4, rate=1.0, signed=True)
    ds = generate_dictionary(signed, ch, 502)
    ok = all(
        to_bits(decode_exhaustive(
            ds, synthesize(ds, encode(format(m, "06b"), signed)), signed
        ).coefficients, signed) == format(m, "06b")
        for m in range(64))
    checks.append(("all 64 signed messages identity", ok))

    code38 = CodeSpec(L=3, B=8, rate=1.0)
    agree = 0
    for seed in range(50):
        d = generate_dictionary(code38, ch, 600 + seed)
        rng = np.random.default_rng(700 + seed)
        truth = SparseCoefficients.unsigned(rng.integers(0, 8, 3))
        y = awgn_channel(synthesize(d, truth), 2.0, 800 + seed)
        got = decode_exhaustive(d, y, code38)
        idx, _, rss = brute_force_decode(d.entries, y, 3, 8)
        agree += (list(got.coefficients.indices) == idx
                  and abs(got.residual_sq - rss) < 1e-12)
    checks.append((f"oracle equality on 50 noisy seeds (got {agree})", agree == 50))
    elapsed = time.perf_counter() - start
    report("5 (codec round trip and decoder oracle)", checks, elapsed)


def test_criterion_6_one_sided_bound_validity():
    start = time.perf_counter()
    C = capacity(15.0)
    cfg = ExperimentConfig(snr=15.0, L=4, B=16, rate=0.6 * C,
                           master_seed=20240, trials=2000,
                           ell0_list=(1, 2, 3, 4), workers=4)
    rep = run_monte_carlo(cfg)
    q = BoundQuery(channel=cfg.channel, code=cfg.code, t=0.0)
    checks = []
    for tc in rep.tails:
        slack = tc.ci_upper - tc.empirical
        checks.append((
            f"ell0={tc.ell0}: empirical {tc.empirical:.4f} <= bound "
            f"{tc.analytic:.4g} + CI {slack:.4f}",
            tc.empirical <= tc.analytic + slack))
        tighter = mistake_tail_bound(tc.ell0, q, policy="min").total
        checks.append((
            f"ell0={tc.ell0}: also below the min-policy bound {tighter:.4g}",
            tc.empirical <= tighter + slack))
    elapsed = time.perf_counter() - start
    checks.append((f"runtime < 600 s ({elapsed:.0f}s)", elapsed < 600.0))
    report("6 (empirical tails below analytic bounds, 2000 trials)", checks,
           elapsed)


def test_criterion_7_outer_code_contract():
    start = time.perf_counter()
    gf = Field(4)
    spec = RSSpec(gf, 15, 11)
    msg = (3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5)
    cw = rs_encode(msg, spec)
    rng = random.Random(12)

    singles = all(
        rs_decode([c ^ (val if p == pos else 0) for p, c in enumerate(cw)],
                  spec).message == msg
        for pos in range(15) for val in (1, 9, 15))
    doubles = True
    for p1, p2 in itertools.combinations(range(15), 2):
        rx = list(cw)
        rx[p1] ^= rng.randrange(1, 16)
        rx[p2] ^= rng.randrange(1, 16)
        res = rs_decode(rx, spec)
        doubles &= res.ok and res.message == msg

    short = RSSpec(gf, 12, 8)
    words = [rs_encode(tuple(rng.randrange(16) for _ in range(8)), short)
             for _ in range(200)]
    dist_ok = all(
        sum(x != y for x, y in zip(a, b)) >= short.d_RS
        for a, b in zip(words[:-1], words[1:]) if a != b)

    code = CodeSpec(L=15, B=16, rate=1.0)
    bits = "".join(rng.choice("01") for _ in range(44))
    beta = compose_encode(bits, code, spec)
    compose_ok = True
    for k in (1, 2):
        for positions in itertools.combinations(range(15), k):
            labels = list(beta.indices)
            for p in positions:
                labels[p] ^= rng.randrange(1, 16)
            out, ok = compose_decode(labels, spec)
            compose_ok &= ok and out == bits

    rate_ok = all(
        abs(RSSpec(gf, n, k).rate - (1 - (n - k + 1) / n + 1 / n)) <= 1e-15
        for n, k in ((15, 11), (15, 7), (12, 8)))
    elapsed = time.perf_counter() - start
    report("7 (outer-code correction, shortening, composition, rate)", [
        ("all single-error patterns corrected", singles),
        ("all double-error position patterns corrected", doubles),
        ("shortened pairwise distances >= 5", dist_ok),
        ("composition corrects up to t_RS section mistakes", compose_ok),
        ("outer rate identity exact", rate_ok),
    ], elapsed)


def test_criterion_8_power_identities_and_coverage():
    start = time.perf_counter()
    ch = ChannelSpec.from_snr(15.0)

    code12 = CodeSpec(L=12, B=4, rate=12 * math.log(4) / 50)
    d12 = generate_dictionary(code12, ch, 901)
    S = SparseCoefficients.unsigned([1, 0, 3, 2, 1, 1, 0, 2, 3, 0, 1, 2])
    mean, _ = codeword_power_stats(d12, S)
    cols = d12.entries[:, [i * 4 + j for i, j in enumerate(S.indices)]]
    signs = np.array(list(itertools.product([1, -1], repeat=12)))
    sign_avg = float(np.mean(np.mean((signs @ cols.T) ** 2, axis=1)))
    sign_identity = abs(sign_avg - mean) <= 1e-10 * mean

    code23 = CodeSpec(L=2, B=3, rate=2 * math.log(3) / 40)
    d23 = generate_dictionary(code23, ch, 902)
    msg_avg = float(np.mean([
        normalized_power(synthesize(d23, SparseCoefficients.unsigned([a, b])))
        for a in range(3) for b in range(3)]))
    unsigned_identity = abs(msg_avg - average_power_unsigned(d23)) \
        <= 1e-10 * msg_avg

    codeG = CodeSpec(L=8, B=16, rate=8 * math.log(16) / 500)
    viol_power = viol_ip = 0
    for seed in range(200):
        g = column_geometry(generate_dictionary(codeG, ch, 2000 + seed), 0.01)
        viol_power += not g.column_power_ok
        viol_ip += not g.inner_product_ok
    critical = coverage_critical_count(200, 0.01)
    elapsed = time.perf_counter() - start
    report("8 (power identities and concentration coverage)", [
        (f"exhaustive sign-average identity at L=12 (rel err "
         f"{abs(sign_avg - mean) / mean:.1e})", sign_identity),
        ("exhaustive unsigned message-average identity at L=2,B=3",
         unsigned_identity),
        (f"column-power violations {viol_power}/200 <= critical {critical}",
         viol_power <= critical),
        (f"inner-product violations {viol_ip}/200 <= critical {critical}",
         viol_ip <= critical),
    ], elapsed)


def test_criterion_9_simulation_determinism(tmp_path):
    start = time.perf_counter()
    from sparclab.cli import main
    outputs = []
    for workers in ("1", "8"):
        path = tmp_path / f"workers{workers}.csv"
        main(["simulate", "--snr", "15", "--L", "4", "--B", "16",
              "--rate-fraction", "0.6", "--trials", "100", "--seed", "31415",
              "--workers", workers, "--out", str(path)])
        outputs.append(path.read_bytes())
    elapsed = time.perf_counter() - start
    report("9 (byte-identical simulate CSV across worker counts)", [
        ("1 worker vs 8 workers byte-identical", outputs[0] == outputs[1]),
    ], elapsed)
