"""Statistics and comparison helpers shared by the benchmark and its tests.

Nothing here imports sparclab, so the helpers can be tested on their own.
"""

from __future__ import annotations

import math
import resource

# Candidate percentiles in permille, so the rank arithmetic stays exact.
PERCENTILES_PERMILLE = (500, 900, 990, 999)


def _rank(permille: int, n: int) -> int:
    """Nearest rank (1-based) of a percentile among n samples."""
    return max(1, -(-permille * n // 1000))


def percentile(values, permille: int) -> float:
    """Nearest-rank percentile; 0.0 for an empty sample (the layer never ran)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[_rank(permille, len(ordered)) - 1]


def highest_supported_percentile(n: int, min_beyond: int = 10) -> int | None:
    """Highest candidate percentile (permille) with at least min_beyond samples above it.

    None when even the median has fewer than min_beyond samples beyond it.
    """
    best = None
    for permille in PERCENTILES_PERMILLE:
        if n - _rank(permille, n) >= min_beyond:
            best = permille
    return best


def cell_rel_err(got: str, ref: str) -> float:
    """Relative difference of two CSV cells; inf when they cannot agree.

    Numeric cells compare by |a - b| / max(|a|, |b|); other cells must match
    exactly.
    """
    if got == ref:
        return 0.0
    try:
        a, b = float(got), float(ref)
    except ValueError:
        return math.inf
    if math.isnan(a) or math.isnan(b):
        return math.inf
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def compare_csv(got: str, ref: str, rel_tol: float) -> tuple[int, float]:
    """Compare CSV text to a reference cell by cell.

    Returns (failed data rows, largest relative cell difference).  The header
    must match exactly; a missing, extra or reshaped row counts as failed.
    """
    got_lines = got.splitlines()
    ref_lines = ref.splitlines()
    if not got_lines or not ref_lines or got_lines[0] != ref_lines[0]:
        return max(len(ref_lines) - 1, 1), math.inf
    failed = abs(len(got_lines) - len(ref_lines))
    worst = math.inf if failed else 0.0
    for g, r in zip(got_lines[1:], ref_lines[1:]):
        gc, rc = g.split(","), r.split(",")
        if len(gc) != len(rc):
            failed += 1
            worst = math.inf
            continue
        row = max((cell_rel_err(a, b) for a, b in zip(gc, rc)), default=0.0)
        worst = max(worst, row)
        failed += row > rel_tol
    return failed, worst


def interval_union(intervals, lo: float = -math.inf, hi: float = math.inf) -> float:
    """Total length covered by the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux
