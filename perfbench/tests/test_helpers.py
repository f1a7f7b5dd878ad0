"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from measure import (  # noqa: E402
    compare_csv,
    highest_supported_percentile,
    interval_union,
    percentile,
)
from spans import Recorder, Span, instrumented, self_times, trial_segments  # noqa: E402

FAKE_SOURCE = '''
import concurrent.futures

def leaf(x):
    return x + 1

def inner(x):
    return leaf(x) * 2

def pool_run(xs):
    with concurrent.futures.ThreadPoolExecutor(2) as ex:
        return list(ex.map(inner, xs))

def seeded(seed):
    return leaf(0)

def fails():
    raise KeyError("boom")

def _private(x):
    return x
'''


@pytest.fixture
def fakepkg():
    """A package 'fakepkg' with one layer module 'work', aliased in the package."""
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    work = types.ModuleType("fakepkg.work")
    exec(FAKE_SOURCE, work.__dict__)
    pkg.inner_alias = work.inner
    pkg.work = work
    sys.modules.update({"fakepkg": pkg, "fakepkg.work": work})
    try:
        yield pkg, work
    finally:
        del sys.modules["fakepkg"], sys.modules["fakepkg.work"]


def span(id, start, end, thread=0, parent=None, trial=None, name="x.f"):
    return Span(id, name, name.split(".")[0], start, end, thread, parent, trial)


@pytest.mark.parametrize("n, expected", [
    (0, None), (19, None), (20, 500), (99, 500), (100, 900), (999, 900),
    (1000, 990), (9999, 990), (10000, 999), (10**6, 999),
])
def test_highest_percentile_has_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected


def test_percentile_is_nearest_rank():
    values = list(range(100, 0, -1))
    assert percentile(values, 500) == 50
    assert percentile(values, 900) == 90
    assert percentile([7.0], 900) == 7.0
    assert percentile([], 500) == 0.0


def test_interval_union_merges_and_clips():
    assert interval_union([(0, 2), (1, 3), (5, 6)]) == 4
    assert interval_union([(0, 2), (1, 3), (5, 6)], 1, 5.5) == 2.5
    assert interval_union([]) == 0.0


def test_self_time_subtracts_union_of_children_across_threads():
    spans = [
        span(0, 0.0, 10.0, thread=0),
        span(1, 1.0, 5.0, thread=1, parent=0),
        span(2, 3.0, 8.0, thread=2, parent=0),     # overlaps span 1 on another thread
        span(3, 2.0, 3.0, thread=1, parent=1),
        span(4, 9.0, 12.0, thread=2, parent=0),    # runs past its parent's end
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 7.0 - 1.0)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(5.0)
    assert own[3] == pytest.approx(1.0)


def test_trial_segments_group_consecutive_spans_per_thread():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 2.0, thread=1, parent=0, trial=(7, 0)),
        span(2, 2.0, 3.0, thread=1, parent=0, trial=(7, 0)),
        span(3, 3.0, 4.0, thread=1, parent=0, trial=(7, 1)),
        span(4, 1.5, 4.5, thread=2, parent=0, trial=(7, 2)),
        span(5, 5.0, 6.0, thread=1, parent=0),
        span(6, 2.0, 2.5, thread=1, parent=1, trial=(7, 0)),   # not a direct child
    ]
    assert sorted(trial_segments(spans, 0)) == [(1.0, 3.0), (1.5, 4.5), (3.0, 4.0)]


def test_compare_csv_within_tolerance():
    ref = "a,b\n1.0,x\n2.5e-12,y\n"
    assert compare_csv(ref, ref, 1e-6) == (0, 0.0)
    failed, err = compare_csv("a,b\n1.0000001,x\n2.5e-12,y\n", ref, 1e-6)
    assert failed == 0 and err == pytest.approx(1e-7, rel=1e-3)


def test_compare_csv_counts_rows_beyond_tolerance_or_reshaped():
    ref = "a,b\n1.0,x\n2.0,y\n3.0,z\n"
    assert compare_csv("a,b\n1.1,x\n2.0,y\n3.0,z\n", ref, 1e-6)[0] == 1
    assert compare_csv("a,b\n1.0,x\n2.0,q\n3.0,z\n", ref, 1e-6) == (1, math.inf)
    assert compare_csv("a,b\n1.0,x\n2.0,y\n", ref, 1e-6) == (1, math.inf)
    assert compare_csv("a,c\n1.0,x\n2.0,y\n3.0,z\n", ref, 1e-6) == (3, math.inf)
    assert compare_csv("a,b\n1.0,x\n2.0\n3.0,z\n", ref, 1e-6) == (1, math.inf)
    assert compare_csv("a,b\n0,x\n2.0,y\n3.0,z\n", "a,b\n0.0,x\n2.0,y\n3.0,z\n", 0.0)[0] == 0


def test_instrumented_restores_every_binding(fakepkg):
    pkg, work = fakepkg
    originals = {name: getattr(work, name) for name in ("leaf", "inner", "pool_run", "_private")}
    recorder = Recorder(pool_parent="work.pool_run")
    with pytest.raises(KeyError):
        with instrumented(recorder, "fakepkg", ["work"]):
            assert work.leaf is not originals["leaf"]
            assert pkg.inner_alias is not originals["inner"]
            assert work._private is originals["_private"]
            work.fails()
    for name, fn in originals.items():
        assert getattr(work, name) is fn
    assert pkg.inner_alias is originals["inner"]
    assert [s.name for s in recorder.spans] == ["work.fails"]
    assert recorder.spans[0].end >= recorder.spans[0].start


def test_instrumented_catches_calls_inside_the_module_and_on_pool_threads(fakepkg):
    pkg, work = fakepkg
    recorder = Recorder(pool_parent="work.pool_run")
    with instrumented(recorder, "fakepkg", ["work"]):
        assert work.pool_run([1, 2, 3]) == [4, 6, 8]
        pkg.inner_alias(0)
    by_name = {}
    for s in recorder.spans:
        by_name.setdefault(s.name, []).append(s)
    (run,) = by_name["work.pool_run"]
    pooled = [s for s in by_name["work.inner"] if s.thread != run.thread]
    assert len(pooled) == 3 and all(s.parent == run.id for s in pooled)
    assert len(by_name["work.leaf"]) == 4
    ids = {s.id: s for s in recorder.spans}
    assert all(ids[s.parent].name == "work.inner" for s in by_name["work.leaf"])
    own = self_times(recorder.spans)
    covered = interval_union([(s.start, s.end) for s in pooled], run.start, run.end)
    assert own[run.id] == pytest.approx(run.duration - covered)


def test_trial_id_comes_from_seed_sequence_entropy(fakepkg):
    _, work = fakepkg
    recorder = Recorder(pool_parent="work.pool_run", trial_layers=["work"])
    with instrumented(recorder, "fakepkg", ["work"]):
        work.seeded(np.random.SeedSequence((11, 4)).spawn(3)[0])
        work.leaf(1)
    trials = [(s.name, s.trial) for s in recorder.spans]
    assert trials == [("work.seeded", (11, 4)), ("work.leaf", (11, 4)), ("work.leaf", (11, 4))]


def test_trial_replay_agrees_with_the_decoder_and_flags_a_wrong_count():
    sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
    import dataclasses

    import workloads
    from sparclab import harness

    wl = workloads.make("mc_outer", 1000)     # a seed with no recorded reference
    wl.trials = 6
    report = harness.run_monte_carlo(wl.config(0, workers=1))
    assert [wl.replay(report.config, t.trial) for t in report.trials] == [
        (t.seed, {t.mistakes}) for t in report.trials]
    assert wl.check(0, workloads.Batch(6, harness.simulate_csv(report), report)) == 0

    wrong = list(report.trials)
    m = wrong[2].mistakes + 1
    wrong[2] = dataclasses.replace(wrong[2], mistakes=m, section_error_rate=m / 6)
    bad = dataclasses.replace(report, trials=tuple(wrong))
    assert wl.check(0, workloads.Batch(6, harness.simulate_csv(bad), bad)) == 1
