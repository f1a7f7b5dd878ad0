"""The benchmark's four workloads.

Each workload runs as a closed loop from one caller: the next batch starts
when the previous one returns.  A batch is a fixed amount of work made of
ops; the benchmark times batches and checks every op against a reference
recorded from the seed code (perfbench/reference) where one exists, and
against checks that hold for any seed: every Monte Carlo trial is rebuilt
from its documented seed split and searched again independently, and every
RS block within t_RS must recover its message exactly.

Workload choice (BENCHMARK.json lists the first two, with one-line reasons):
- bound_curves: only exponents, geometry and bounds do work; the split-bound
  optimiser runs through all four of its callers.
- mc_outer: the exhaustive decoder with narrow sections on a thread pool,
  plus the outer-code path on every trial.
- mc_uncoded: the plain single-threaded exhaustive decoder, wide sections.
- rs_blocks: the Reed-Solomon outer code alone, including decodes beyond t_RS.

Imported only after run.py has checked that sparclab comes from this tree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sparclab import bounds, codec, harness, rs
from sparclab.geometry import ChannelSpec, CodeSpec, capacity

from measure import compare_csv

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
CSV_REL_TOL = 1e-6   # CSV cells may differ by this share of their size
TIE_REL_TOL = 1e-9   # residuals this close (relative to |y|^2) count as a tie
SIMULATE_HEADER = "trial,seed,mistakes,section_error_rate,block_ok"
SEED_SPACE = 1 << 31


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@dataclass
class Batch:
    ops: int
    text: str          # compared byte for byte between traced and untraced runs
    detail: object = None


class Workload:
    """Shared by the workloads: the reference recorded for this workload, loaded on first use."""

    name: str
    _reference: dict | None = None

    @property
    def reference(self) -> dict:
        if self._reference is None:
            with open(REFERENCE_DIR / f"{self.name}.json", encoding="utf-8") as fh:
                self._reference = json.load(fh)
        return self._reference


class BoundCurves(Workload):
    """The README's analytic products, one thread; an op is one output row.

    One batch is one pass over: the bounds table at v=15, L=100, B=2^13,
    0.7C; the tail bound from ell0=10 (acceptance criterion 3); fig2 and fig3
    at their defaults (fig3 is criterion 4's inputs); fig1 at v=20,
    eps=1e-4 on a reduced L list and rate grid.  No randomness: the seed is
    ignored.
    """

    name = "bound_curves"
    workers = 1
    trace_batches = 1
    FIG1 = {"v": 20.0, "epsilon": 1e-4, "L_values": (10, 20), "rate_points": 16}
    TAIL_RANGE = (6e-13, 5.4e-12)   # criterion 3: 1.8e-12 within a factor 3

    def __init__(self, seed: int):
        v = 15.0
        self.channel = ChannelSpec.from_snr(v)
        self.code = CodeSpec(L=100, B=2 ** 13, rate=0.7 * capacity(v))
        self.query = bounds.BoundQuery(channel=self.channel, code=self.code)
        self.max_rel_err = 0.0

    @property
    def ops_per_batch(self) -> int:
        return sum(text.count("\n") - 1 for text in self.reference["products"].values())

    def warmup(self) -> None:
        bounds.section_bound(1, self.query)

    def inputs(self, b: int):
        return None

    def produce(self, inputs, workers=None) -> Batch:
        products = {
            "bounds": harness.rows_to_csv(*harness.bounds_table(self.channel, self.code)),
            "tail": f"ell0,total\n10,{bounds.mistake_tail_bound(10, self.query).total!r}\n",
            "fig2": harness.emit_curves("fig2"),
            "fig3": harness.emit_curves("fig3"),
            "fig1": harness.emit_curves("fig1", **self.FIG1),
        }
        return Batch(sum(t.count("\n") - 1 for t in products.values()),
                     "".join(products.values()), products)

    def check(self, b: int, batch: Batch) -> int:
        failed = 0
        for name, ref in self.reference["products"].items():
            got = batch.detail.get(name, "")
            rows, err = compare_csv(got, ref, CSV_REL_TOL)
            failed += rows
            self.max_rel_err = max(self.max_rel_err, err)
        lo, hi = self.TAIL_RANGE
        return failed + (not lo <= self.tail(batch) <= hi)

    @staticmethod
    def tail(batch: Batch) -> float:
        return float(batch.detail["tail"].splitlines()[1].split(",")[1])

    def cli_case(self, batch: Batch):
        """README `bounds` command on the same inputs; its CSV is the bounds table."""
        argv = ["bounds", "--snr", "15", "--L", "100", "--B", "8192",
                "--rate-fraction", "0.7", "--alpha0", "0.1"]
        line = f"ell0=10: {self.tail(batch):.6e}"
        return argv, lambda stdout, stderr: stdout == batch.detail["bounds"] and line in stderr


class MonteCarlo(Workload):
    """Seeded `run_monte_carlo` batches; an op is one trial.

    Batch b runs `trials` trials at master seed seed * 2^16 + b, so every
    batch has fresh dictionaries, messages and noise.
    """

    trials = 100
    trace_batches = 3

    def __init__(self, name: str, seed: int, *, snr: float, L: int, B: int,
                 rate_fraction: float, ell0_list: tuple[int, ...],
                 rs_distance: int | None, workers: int):
        if workers > nproc():
            raise ValueError(f"{workers} workers exceed the {nproc()} available processors")
        self.name = name
        self.seed = seed
        self.workers = workers
        self.rate_fraction = rate_fraction
        self.base = harness.ExperimentConfig(
            snr=snr, L=L, B=B, rate=rate_fraction * capacity(snr),
            rs_distance=rs_distance, ell0_list=ell0_list, workers=workers)
        spec = self.base.rs_spec()
        self.t_rs = None if spec is None else spec.t_RS
        self.ops_per_batch = self.trials

    def master_seed(self, b: int) -> int:
        return (self.seed % SEED_SPACE) * (1 << 16) + b

    def config(self, b: int, trials: int | None = None, workers: int | None = None):
        return dataclasses.replace(self.base, master_seed=self.master_seed(b),
                                   trials=trials or self.trials,
                                   workers=workers or self.workers)

    def warmup(self) -> None:
        harness.run_monte_carlo(self.config(0, trials=1, workers=1))

    def inputs(self, b: int):
        return b

    def produce(self, b: int, workers=None) -> Batch:
        report = harness.run_monte_carlo(self.config(b, workers=workers))
        return Batch(len(report.trials), harness.simulate_csv(report), report)

    def reference_batch(self, b: int) -> dict | None:
        batches = self.reference["seeds"].get(str(self.seed), [])
        return batches[b] if b < len(batches) else None

    @staticmethod
    def summary(batch: Batch) -> dict:
        trials = batch.detail.trials
        return {"sha256": hashlib.sha256(batch.text.encode()).hexdigest()[:16],
                "mistakes": "".join(str(t.mistakes) for t in trials),
                "block_ok": "".join(str(int(t.block_ok)) for t in trials)}

    def replay(self, cfg, i: int) -> tuple[int, set[int]]:
        """Rebuild trial i and search it again, independently of the decoder.

        Follows the harness's documented seed split: SeedSequence((master
        seed, i)) gives the recorded seed and spawns the dictionary, message
        and noise streams.  The search is exhaustive in meet-in-the-middle
        form: |y - a - b|^2 = |y - a|^2 + |b|^2 - 2 (y - a).b over the
        partial codewords a of the first L // 2 sections and b of the rest,
        with candidates in the decoder's lexicographic order.  Returns the
        recorded seed and the mistake counts of every least-squares solution
        (one, unless residuals tie to within TIE_REL_TOL).
        """
        ss = np.random.SeedSequence((cfg.master_seed, i))
        record = int(ss.generate_state(1, np.uint64)[0])
        dict_ss, msg_ss, noise_ss = ss.spawn(3)
        code, channel, spec = cfg.code, cfg.channel, cfg.rs_spec()
        dic = codec.generate_dictionary(code, channel, dict_ss)
        rng = np.random.Generator(np.random.PCG64(msg_ss))
        if spec is None:
            bits = "".join(str(x) for x in rng.integers(0, 2, code.input_bits))
            truth = codec.encode(bits, code)
        else:
            bits = "".join(str(x) for x in rng.integers(0, 2, spec.K_out * spec.field.m))
            truth = rs.compose_encode(bits, code, spec)
        y = codec.awgn_channel(codec.synthesize(dic, truth), channel.sigma2, noise_ss)

        cols = dic.entries.T.reshape(code.L, code.B, dic.n)
        atoms = np.concatenate([cols, -cols], axis=1) if code.signed else cols

        def partial_codewords(sections):
            table = np.zeros((1, dic.n))
            for sec in sections:
                table = (table[:, None, :] + atoms[sec][None, :, :]).reshape(-1, dic.n)
            return table

        half = code.L // 2
        head = y - partial_codewords(range(half))
        tail = partial_codewords(range(half, code.L))
        rss = head @ tail.T
        rss *= -2.0
        rss += np.einsum("ij,ij->i", head, head)[:, None]
        rss += np.einsum("ij,ij->i", tail, tail)[None, :]
        best = np.flatnonzero(rss.ravel() <= rss.min() + TIE_REL_TOL * float(y @ y))
        points = np.stack(np.unravel_index(best, (atoms.shape[1],) * code.L), axis=1)
        sent = [j + code.B if sign < 0 else j for j, sign in zip(truth.indices, truth.signs)]
        return record, {int(m) for m in (points != sent).sum(axis=1)}

    def check(self, b: int, batch: Batch) -> int:
        report = batch.detail
        trials = report.trials
        bad = set()
        ref = self.reference_batch(b)
        if ref is not None:
            got = self.summary(batch)
            for key in ("mistakes", "block_ok"):
                bad.update(i for i, (x, y) in enumerate(zip(got[key], ref[key])) if x != y)
            if got["sha256"] != ref["sha256"] and not bad:
                return self.trials          # same trials, different CSV bytes
        cfg = self.config(b)
        expected = [SIMULATE_HEADER] + [
            f"{t.trial},{t.seed},{t.mistakes},{t.mistakes / cfg.L!r},{int(t.block_ok)}"
            for t in trials]
        if compare_csv(batch.text, "\n".join(expected) + "\n", CSV_REL_TOL)[0]:
            return self.trials              # the CSV does not render the trials
        for i, t in enumerate(trials):
            record, mistakes = self.replay(cfg, t.trial)
            if self.t_rs is None:
                ok = t.block_ok == (t.mistakes == 0)
            else:
                ok = t.mistakes > self.t_rs or t.block_ok
            if not (ok and t.trial == i and t.seed == record and t.mistakes in mistakes):
                bad.add(i)
        for tail in report.tails:
            slack = tail.ci_upper - tail.empirical
            if not tail.empirical <= tail.analytic + slack:
                return self.trials
        return len(bad) + max(0, self.trials - len(trials))

    def cli_case(self, batch: Batch):
        """README `simulate` command on batch 0's inputs; its CSV must match."""
        cfg = self.config(0)
        argv = ["simulate", "--snr", repr(cfg.snr), "--L", str(cfg.L), "--B", str(cfg.B),
                "--rate-fraction", repr(self.rate_fraction), "--trials", str(cfg.trials),
                "--seed", str(cfg.master_seed), "--workers", str(cfg.workers),
                "--ell0-list", ",".join(map(str, cfg.ell0_list))]
        if cfg.rs_distance is not None:
            argv += ["--rs-distance", str(cfg.rs_distance)]
        return argv, lambda stdout, stderr: stdout == batch.text


class RSBlocks(Workload):
    """RS(255,223) over GF(256) composed with L=255 sections of B=256 labels.

    An op is one encode-corrupt-decode round trip with no inner decoding.
    Block i gets i mod (t_RS + 3) injected section errors, so the last two
    error counts of each cycle are beyond t_RS.  Block inputs are drawn
    exactly as `sparclab compose-demo --seed <block seed> --errors <count>`
    draws them, so the CLI can replay any block.
    """

    name = "rs_blocks"
    workers = 1
    L, B, DISTANCE = 255, 256, 33

    def __init__(self, seed: int):
        self.seed = seed
        self.m = self.B.bit_length() - 1
        self.spec = rs.RSSpec(rs.Field(self.m), self.L, self.L - self.DISTANCE + 1)
        self.code = CodeSpec(L=self.L, B=self.B, rate=1.0)
        self.cycle = self.spec.t_RS + 3
        self.ops_per_batch = self.cycle
        self.trace_batches = 6      # 114 blocks: enough for a supported p90

    def block_seed(self, i: int) -> int:
        return (self.seed % SEED_SPACE) * (1 << 20) + i

    def block_inputs(self, i: int):
        rng = np.random.Generator(np.random.PCG64(self.block_seed(i)))
        bits = "".join(str(b) for b in rng.integers(0, 2, self.spec.K_out * self.m))
        errors = i % self.cycle
        positions = rng.choice(self.L, size=min(errors, self.L), replace=False)
        flips = [int(rng.integers(1, self.B)) for _ in positions]
        return i, errors, bits, [int(p) for p in positions], flips

    def inputs(self, b: int):
        return [self.block_inputs(i) for i in range(b * self.cycle, (b + 1) * self.cycle)]

    def round_trip(self, bits, positions, flips):
        labels = list(rs.compose_encode(bits, self.code, self.spec).indices)
        for p, f in zip(positions, flips):
            labels[p] ^= f
        out_bits, ok = rs.compose_decode(labels, self.spec)
        return ok, out_bits == bits, out_bits

    def warmup(self) -> None:
        _, _, bits, positions, flips = self.block_inputs(0)
        self.round_trip(bits, positions, flips)

    def produce(self, blocks, workers=None) -> Batch:
        records = [(i, errors, *self.round_trip(bits, positions, flips))
                   for i, errors, bits, positions, flips in blocks]
        text = "".join(f"{i},{int(ok)},{int(rec)},{out}\n" for i, _, ok, rec, out in records)
        return Batch(len(records), text, records)

    @staticmethod
    def code_of(ok: bool, recovered: bool) -> str:
        return str(2 * int(ok) + int(recovered))

    def check(self, b: int, batch: Batch) -> int:
        ref = self.reference["seeds"].get(str(self.seed), "")
        failed = self.cycle - len(batch.detail)
        for i, errors, ok, recovered, _ in batch.detail:
            if i < len(ref) and ref[i] != self.code_of(ok, recovered):
                failed += 1
            elif errors <= self.spec.t_RS and not (ok and recovered):
                failed += 1
        return failed

    def cli_case(self, batch: Batch):
        """README `compose-demo` replaying one block within t_RS."""
        i, errors, ok, recovered, _ = batch.detail[5]
        argv = ["compose-demo", "--L", str(self.L), "--B", str(self.B),
                "--rs-distance", str(self.DISTANCE), "--errors", str(errors),
                "--seed", str(self.block_seed(i))]
        line = f"outer decoder ok={ok}, message recovered={recovered}"
        return argv, lambda stdout, stderr: line in stdout.splitlines()


def make(name: str, seed: int):
    if name == "bound_curves":
        return BoundCurves(seed)
    if name == "mc_uncoded":
        return MonteCarlo(name, seed, snr=15.0, L=4, B=16, rate_fraction=0.6,
                          ell0_list=(1, 2, 3, 4), rs_distance=None, workers=1)
    if name == "mc_outer":
        return MonteCarlo(name, seed, snr=15.0, L=6, B=8, rate_fraction=0.8,
                          ell0_list=(1, 2, 3), rs_distance=3, workers=min(2, nproc()))
    if name == "rs_blocks":
        return RSBlocks(seed)
    raise ValueError(f"unknown workload {name!r}")
