#!/usr/bin/env python3
"""sparclab benchmark: four workloads, end-to-end metrics and a traced per-layer pass.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (any directory works; paths are resolved from
this file).  The package is imported from this tree's src/, never from an
installed copy.  BENCHMARK.json lists bound_curves and mc_outer, which
between them run every layer; mc_uncoded and rs_blocks run by name too but
are left out of it so that the listed two get 50-second runs within the
time allowed for all runs.

--trace 0 runs batches with tracing off until they have taken S seconds and
reports the end-to-end metrics: ops_per_s, setup_s (median over fresh
processes, each timed from launch to the end of its warm-up op; they run
between batches, spread over the timed phase, so they see the same host load
as the batches) and peak_rss_mb.

ops_per_s is the lower quartile of the batches' rates (ops / seconds).  All
batches of a workload do the same work on fresh inputs, so any change to the
cost of an op moves every batch, and the quartile with them.  The quartile is
used rather than total ops over total seconds because shared hosts switch
between speed states (up to 2x apart) for seconds at a time; the share of a
run spent in each state varies, which moves the total from run to run, while
the lower quartile stays in the slowest common state.  The total is printed
too, as ops_per_s_total, for comparison.

--trace 1 replays a fixed set of batches untraced and traced, alternately,
and reports the per-layer metrics in layers.PER_LAYER; it also runs each
workload's README command through `python -m sparclab.cli` and checks its
bytes.  Both modes check every op outside the timed spans and
print, as the last stdout line, one JSON object with keys correct,
attempted, failed and metrics; fail_ratio is failed / attempted.  A traced
run also writes its spans and provenance to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
WORKLOADS = ("bound_curves", "mc_uncoded", "mc_outer", "rs_blocks")
SETUP_PROBES = 7
TRACE_REPEATS = 2
CLI_STARTUP_RUNS = 3
CHILD_TIMEOUT_S = 150


def import_sparclab():
    """Import sparclab from this tree's src/ or refuse to run."""
    if not (SRC / "sparclab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {SRC / 'sparclab'}")
    sys.path.insert(0, str(SRC))
    import sparclab

    where = Path(sparclab.__file__).resolve().parent
    if where != (SRC / "sparclab").resolve():
        raise SystemExit(f"perfbench: sparclab imported from {where}, not from {SRC}")
    return sparclab


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": str(SRC) + (os.pathsep + path if path else "")}


def provenance(args, sparclab, workers: int) -> dict:
    import numpy

    from workloads import nproc

    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", f"--git-dir={ROOT / '.git'}", f"--work-tree={ROOT}"]
        try:
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            dirty = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                        text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {"git_sha": sha, "git_dirty": dirty, "nproc": nproc(), "workers": workers,
            "python": platform.python_version(), "numpy": numpy.__version__, "blas": blas,
            "seed": args.seed, "argv": sys.argv, "sparclab_path": str(Path(sparclab.__file__).parent)}


class Tally:
    """Ops attempted and failed, ops finished, their seconds, and each batch's rate."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.ops = 0
        self.seconds = 0.0
        self.rates: list[float] = []
        self.correct = True

    def fail(self, ops: int, why: str) -> None:
        self.failed += ops
        self.correct = False
        print(f"perfbench: {why}", file=sys.stderr)


def run_batch(wl, b: int, inputs, tally: Tally, workers=None):
    """Time one batch and return (batch, seconds); batch is None if it raised."""
    tally.attempted += wl.ops_per_batch
    start = time.perf_counter()
    try:
        batch = wl.produce(inputs, workers)
    except Exception:
        tally.fail(wl.ops_per_batch, f"batch {b} raised\n{traceback.format_exc()}")
        return None, 0.0
    seconds = time.perf_counter() - start
    tally.ops += batch.ops
    tally.seconds += seconds
    tally.rates.append(batch.ops / seconds)
    return batch, seconds


def check_batch(wl, b: int, batch, tally: Tally) -> None:
    """Check a batch's ops and count those that fail."""
    if batch is None:
        return
    try:
        failed = wl.check(b, batch)
    except Exception:
        failed, why = wl.ops_per_batch, traceback.format_exc()
    else:
        why = "output disagrees with the reference"
    if failed:
        tally.fail(min(failed, wl.ops_per_batch), f"batch {b}: {failed} ops failed: {why}")


class SetupProbes:
    """Fresh processes doing the workload's set-up and warm-up, timed to "ready".

    A probe is reaped only by finish(), so the run can read its own peak
    RSS (which counts waited-for children) before the probes join it.
    """

    def __init__(self, args):
        self.cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                    "--seed", str(args.seed), "--setup-probe"]
        self.times: list[float] = []
        self.procs: list[subprocess.Popen] = []

    def probe(self) -> None:
        start = time.perf_counter()
        proc = subprocess.Popen(self.cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        self.procs.append(proc)
        line = proc.stdout.readline()
        self.times.append(time.perf_counter() - start)
        proc.stdout.read()          # end of file: the probe has exited
        if line.strip() != "ready":
            raise RuntimeError("set-up probe did not become ready")

    def finish(self) -> None:
        for proc in self.procs:
            proc.stdout.close()
            if proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
                raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")


def end_to_end(args, wl, tally: Tally) -> dict:
    from measure import peak_rss_mb

    probes = SetupProbes(args)
    b = 0
    try:
        while b == 0 or tally.seconds < args.seconds:
            batch, _ = run_batch(wl, b, wl.inputs(b), tally)
            if batch is None:
                break
            check_batch(wl, b, batch, tally)
            while len(probes.times) < SETUP_PROBES * min(1.0, tally.seconds / args.seconds):
                probes.probe()
            b += 1
        while len(probes.times) < SETUP_PROBES:
            probes.probe()
        rss = peak_rss_mb()   # before the probes are reaped: they are children too
    finally:
        probes.finish()
    rates = tally.rates or [0.0]
    q1, q2, q3 = statistics.quantiles(rates, n=4) if len(rates) > 1 else rates * 3
    total = tally.ops / tally.seconds if tally.seconds else 0.0
    print(f"batches = {len(tally.rates)} in {tally.seconds:.3f} s; ops_per_s_total = "
          f"{total:.6g} 1/s; per-batch ops_per_s quartiles = {q1:.6g}, {q2:.6g}, {q3:.6g}; "
          f"setup_s samples = {', '.join(f'{t:.4f}' for t in probes.times)}")
    print(f"batch rates = {json.dumps([round(r, 2) for r in tally.rates])}")
    return {"setup_s": (statistics.median(probes.times), "s"),
            "ops_per_s": (q1, "1/s"),
            "peak_rss_mb": (rss, "MB")}


def run_set(wl, inputs, tally: Tally, workers=None):
    """Run the fixed batch set once, unchecked; return (seconds, batches)."""
    seconds, batches = 0.0, []
    for b, batch_inputs in enumerate(inputs):
        batch, dt = run_batch(wl, b, batch_inputs, tally, workers)
        seconds += dt
        batches.append(batch)
    return seconds, batches


def cli_parity(wl, batch, tally: Tally) -> float:
    """Run the workload's README command in a subprocess and in-process; return the overhead."""
    from sparclab import cli

    argv, agrees = wl.cli_case(batch)
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sparclab.cli", *argv], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sub_s = time.perf_counter() - start
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    in_s = time.perf_counter() - start
    tally.attempted += 1
    if not (proc.returncode == code and proc.stdout == out.getvalue()
            and agrees(proc.stdout, proc.stderr)):
        tally.fail(1, f"CLI `{' '.join(argv)}` disagrees with the in-process output\n"
                      f"{proc.stderr}")
    return sub_s - in_s


def cli_startup() -> float:
    times = []
    for _ in range(CLI_STARTUP_RUNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "sparclab.cli", "--help"], cwd=ROOT,
                       env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S,
                       check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def traced(args, wl, tally: Tally, info: dict) -> dict:
    import layers
    from measure import highest_supported_percentile
    from spans import Recorder, instrumented, spans_to_json
    from workloads import MonteCarlo

    inputs = [wl.inputs(b) for b in range(wl.trace_batches)]
    plain_s, traced_s, repeats = [], [], []
    untraced = None

    def same_bytes(batches, label):
        for b, (a, t) in enumerate(zip(untraced, batches)):
            if a is None or t is None or a.text != t.text:
                tally.fail(wl.ops_per_batch, f"{label} batch {b} differs from the first one")

    for _ in range(TRACE_REPEATS):
        seconds, batches = run_set(wl, inputs, tally)
        plain_s.append(seconds)
        if untraced is None:
            untraced = batches
            for b, batch in enumerate(batches):
                check_batch(wl, b, batch, tally)
        else:
            same_bytes(batches, "untraced")
        recorder = Recorder(layers.POOL_PARENT, layers.TRIAL_LAYERS)
        with instrumented(recorder, layers.PACKAGE, layers.LAYERS, layers.HOOKS):
            seconds, batches = run_set(wl, inputs, tally)
        traced_s.append(seconds)
        repeats.append(layers.traced_metrics(recorder.spans, wl.workers))
        same_bytes(batches, "traced")

    metrics = {name: statistics.median(r[name] for r in repeats) for name in repeats[0]}
    for name in layers.EXACT:
        if name in metrics:
            values = [r[name] for r in repeats]
            if len(set(values)) != 1:
                tally.fail(0, f"count {name} did not repeat: {values}")
            metrics[name] = values[0]

    if wl.workers > 1:
        one_worker_s, batches = run_set(wl, inputs, tally, workers=1)
        same_bytes(batches, "one-worker")
        speedup = one_worker_s / statistics.median(plain_s)
    else:
        speedup = 1.0 if isinstance(wl, MonteCarlo) else 0.0
    metrics.update({
        "bounds.ref_max_rel_err": getattr(wl, "max_rel_err", 0.0),
        "harness.parallel_speedup": speedup,
        "cli.startup_s": cli_startup(),
        "cli.overhead_s": cli_parity(wl, untraced[0], tally),
        "trace.overhead_ratio": statistics.median(plain_s) / statistics.median(traced_s),
    })

    samples = layers.sample_counts(recorder.spans)
    supported = {name: highest_supported_percentile(n) for name, n in samples.items()}
    for name, n in samples.items():
        permille = supported[name]
        print(f"{name}: {n} samples per repeat; highest percentile with ten beyond: "
              f"{'none' if permille is None else f'p{permille / 10:g}'}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": info, "metrics": metrics, "samples": samples,
                   "supported_percentile_permille": supported,
                   "untraced_s": plain_s, "traced_s": traced_s,
                   "last_repeat": spans_to_json(recorder.spans)}, fh)
    print(f"spans written to {path.relative_to(ROOT)}")
    return {name: (metrics[name], unit) for name, unit in layers.PER_LAYER.items()}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=50.0, help="length of the timed phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    sparclab = import_sparclab()
    import workloads

    wl = workloads.make(args.workload, args.seed)
    wl.warmup()
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    tally = Tally()
    if args.trace:
        info = provenance(args, sparclab, wl.workers)
        print("provenance: " + json.dumps(info, sort_keys=True))
        metrics = traced(args, wl, tally, info)
    else:
        metrics = end_to_end(args, wl, tally)
        # After peak_rss_mb: the git children must not count as the workload's.
        print("provenance: " + json.dumps(provenance(args, sparclab, wl.workers), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"fail_ratio = {tally.failed / tally.attempted:.6g} ratio "
          f"({tally.failed} of {tally.attempted} ops failed)")
    print(json.dumps({
        "correct": tally.correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
