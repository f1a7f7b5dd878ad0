"""Layer names, computed counts and the per-layer metrics of one traced repeat.

Imported only after run.py has checked that sparclab comes from this tree.
"""

from __future__ import annotations

import itertools
import statistics

from sparclab.codec import _SUFFIX_BLOCK_TARGET as SUFFIX_BLOCK_TARGET
from sparclab.geometry import CodeSpec

from measure import interval_union, percentile
from spans import self_times, trial_segments

PACKAGE = "sparclab"
LAYERS = ("exponents", "geometry", "bounds", "normal", "codec", "rs",
          "diagnostics", "harness", "cli")
POOL_PARENT = "harness.run_monte_carlo"
# Layers whose calls inside a Monte Carlo trial belong to that trial.
TRIAL_LAYERS = ("codec", "normal", "rs")


def decode_counts(code: CodeSpec) -> dict:
    """Work of one exhaustive decode, computed from the CodeSpec alone.

    Follows the decoder's documented prefix/suffix split: the suffix table
    grows while base**(j+1) stays within codec's SUFFIX_BLOCK_TARGET rows.
    A table of S = base**j rows by n is built once, then each of the
    P = base**(L-j) prefix steps forms z = (y - shift) - table (S n flops),
    sums z*z per row (2 S n) and takes an argmin (S).  Bytes are those of the float64 arrays
    each step reads and writes.  Cache effects are ignored.
    """
    base = 2 * code.B if code.signed else code.B
    L, n = code.L, code.n_int
    j = 1
    while j < L and base ** (j + 1) <= SUFFIX_BLOCK_TARGET:
        j += 1
    S, P, prefix_sections = base ** j, base ** (L - j), L - j
    grown = [base ** k for k in range(2, j + 1)]
    build_flops = sum(grown) * n
    build_bytes = 8 * n * sum(rows + rows // base + base for rows in grown)
    step_flops = prefix_sections * n + n + 3 * S * n + S
    step_bytes = 8 * (3 * S * n + 2 * S + (prefix_sections + 2) * n)
    return {
        "candidates": base ** L,
        "decode_flops_computed": build_flops + P * step_flops,
        "decode_bytes_computed": build_bytes + P * step_bytes,
    }


def _decode_hook(args, kwargs, result):
    code = next(v for v in itertools.chain(args, kwargs.values()) if isinstance(v, CodeSpec))
    return decode_counts(code)


def _rs_decode_hook(args, kwargs, result):
    return {"decode_failed": int(not result.ok), "corrected_symbols": result.corrected_count}


HOOKS = {"codec.decode_exhaustive": _decode_hook, "rs.rs_decode": _rs_decode_hook}

# Every per-layer metric with its unit, in report order.
PER_LAYER = {
    "bounds.section_bound.p50_ms": "ms",
    "bounds.section_bound.p90_ms": "ms",
    "bounds.achievable_rate.mean_s": "s",
    "bounds.min_section_size_rate_for_target.mean_s": "s",
    "bounds.mistake_tail_bound.mean_s": "s",
    "bounds.calls": "count",
    "bounds.self_s": "s",
    "exponents.calls": "count",
    "exponents.self_s": "s",
    "geometry.calls": "count",
    "geometry.self_s": "s",
    "bounds.ref_max_rel_err": "ratio",
    "codec.decode_exhaustive.p50_ms": "ms",
    "codec.decode_exhaustive.p90_ms": "ms",
    "codec.candidates": "count",
    "codec.candidates_per_s": "1/s",
    "codec.decode_flops_computed": "flop",
    "codec.decode_bytes_computed": "byte",
    "codec.generate_dictionary.self_s": "s",
    "codec.awgn_channel.self_s": "s",
    "normal.calls": "count",
    "normal.self_s": "s",
    "codec.calls": "count",
    "codec.self_s": "s",
    "rs.compose_encode.p50_ms": "ms",
    "rs.compose_decode.p50_ms": "ms",
    "rs.compose_decode.p90_ms": "ms",
    "rs.calls": "count",
    "rs.self_s": "s",
    "rs.decode_failed": "count",
    "rs.corrected_symbols": "count",
    "harness.run_monte_carlo.wall_s": "s",
    "harness.serial_s": "s",
    "harness.worker_busy_ratio": "ratio",
    "harness.parallel_speedup": "ratio",
    "harness.calls": "count",
    "harness.self_s": "s",
    "diagnostics.calls": "count",
    "diagnostics.self_s": "s",
    "cli.startup_s": "s",
    "cli.overhead_s": "s",
    "trace.spans": "count",
    "trace.overhead_ratio": "ratio",
}

# Counts that depend only on the inputs; they must repeat exactly.
EXACT = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "flop", "byte"))


def _percentile_permille(metric: str) -> int | None:
    """1000 * p/100 for a metric named '<span>.p<p>_ms', else None."""
    last = metric.rpartition(".")[2]
    if last.startswith("p") and last.endswith("_ms") and last[1:-3].isdigit():
        return 10 * int(last[1:-3])
    return None


# Spans whose per-call timings are reported as percentiles.
PERCENTILE_SPANS = tuple(dict.fromkeys(
    m.rpartition(".")[0] for m in PER_LAYER if _percentile_permille(m)))

# Counts that hooks attach to spans, summed over the repeat.
HOOK_COUNTS = {"codec.candidates": "candidates",
               "codec.decode_flops_computed": "decode_flops_computed",
               "codec.decode_bytes_computed": "decode_bytes_computed",
               "rs.decode_failed": "decode_failed",
               "rs.corrected_symbols": "corrected_symbols"}


def traced_metrics(spans, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced repeat (those the spans can give).

    Generic names follow the spans: '<span>.p50_ms' is a per-call
    percentile, '<span>.mean_s' a mean duration, '<layer>.calls' a span
    count and '<layer or span>.self_s' summed self time.
    """
    own = self_times(spans)
    durations: dict[str, list[float]] = {}
    for s in spans:
        durations.setdefault(s.name, []).append(s.duration)

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        subject, _, last = metric.rpartition(".")
        permille = _percentile_permille(metric)
        if permille:
            out[metric] = 1e3 * percentile(durations.get(subject, []), permille)
        elif last == "mean_s":
            d = durations.get(subject)
            out[metric] = statistics.fmean(d) if d else 0.0
        elif last == "calls" and subject in LAYERS:
            out[metric] = sum(1 for s in spans if s.layer == subject)
        elif last == "self_s":
            out[metric] = sum(own[s.id] for s in spans if subject in (s.layer, s.name))
        elif metric in HOOK_COUNTS:
            out[metric] = sum(s.counts.get(HOOK_COUNTS[metric], 0) for s in spans)

    decode_s = sum(durations.get("codec.decode_exhaustive", []))
    out["codec.candidates_per_s"] = out["codec.candidates"] / decode_s if decode_s else 0.0

    runs = [s for s in spans if s.name == POOL_PARENT]
    wall = sum(s.duration for s in runs)
    busy = serial = 0.0
    for run in runs:
        segments = trial_segments(spans, run.id)
        busy += sum(end - start for start, end in segments)
        serial += run.duration - interval_union(segments, run.start, run.end)
    out["harness.run_monte_carlo.wall_s"] = wall / len(runs) if runs else 0.0
    out["harness.serial_s"] = serial
    out["harness.worker_busy_ratio"] = busy / (workers * wall) if wall else 0.0
    out["trace.spans"] = len(spans)
    return out


def sample_counts(spans) -> dict[str, int]:
    """Samples behind each percentile metric, for the report."""
    return {name: sum(1 for s in spans if s.name == name) for name in PERCENTILE_SPANS}
