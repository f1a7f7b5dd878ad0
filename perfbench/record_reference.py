#!/usr/bin/env python3
"""Record the reference outputs that perfbench/run.py checks against.

    python3 perfbench/record_reference.py --workload NAME [--seeds 12]

Run once, at the commit whose outputs define correctness; a later commit
must reproduce them.  bound_curves has no seed: its whole pass is stored.
For the seeded workloads, seeds 0 .. seeds-1 are stored for the first
batches a run reaches.  Every batch, recorded or not, also passes the checks
that hold for any seed (see workloads.py).
"""

from __future__ import annotations

import argparse
import json

import run

BATCHES = {"mc_uncoded": 20, "mc_outer": 36, "rs_blocks": 80}


def record(name: str, seeds: int) -> dict:
    import workloads

    if name == "bound_curves":
        batch = workloads.make(name, 0).produce(None)
        return {"rel_tol": workloads.CSV_REL_TOL, "products": batch.detail}
    out = {}
    for seed in range(seeds):
        wl = workloads.make(name, seed)
        batches = [wl.produce(wl.inputs(b)) for b in range(BATCHES[name])]
        if name == "rs_blocks":
            out[str(seed)] = "".join(wl.code_of(ok, rec) for batch in batches
                                     for _, _, ok, rec, _ in batch.detail)
        else:
            out[str(seed)] = [wl.summary(batch) for batch in batches]
        print(f"{name}: seed {seed} recorded", flush=True)
    return {"batches": BATCHES[name], "seeds": out}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=run.WORKLOADS)
    p.add_argument("--seeds", type=int, default=12)
    args = p.parse_args()
    run.import_sparclab()
    data = record(args.workload, args.seeds)
    path = run.HERE / "reference" / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
