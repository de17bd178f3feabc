#!/usr/bin/env python3
"""Record the reference output digests in perfbench/digests.json.

    python3 perfbench/record_digests.py --seeds 0-31 [--workload NAME ...]

For each workload and seed this sets up, runs one pass, checks every output
as a benchmark run does, and stores the digest of the outputs only when all
checks pass.  The analysis, queries and combine jobs do not depend on the
seed (it orders the queries and combine jobs only), so each of them gets one
digest under "*", recorded once the first and the last seed agree on it.  Re-record only when a change to the program is meant
to change verdicts or first countermodels.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads as W  # noqa: E402

SEED_INDEPENDENT = {"analysis", "queries", "combine"}


def digest_of(name: str, seed: int) -> str:
    probe = run.SpeedProbe()
    w, _, _ = run.timed_setup(name, seed, probe)
    try:
        runner = run.Runner(w, probe, sample_between_jobs=True)
        runner.run_pass(w.jobs(), full_check=True)
    finally:
        w.close()
    if runner.failed:
        raise SystemExit(f"{name} seed {seed}: {runner.problems[:3]}")
    return runner.digest()


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-31", help="range FIRST-LAST")
    ap.add_argument("--workload", action="append", choices=sorted(W.WORKLOADS))
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    path = os.path.join(HERE, "digests.json")
    with open(path, encoding="utf-8") as fh:
        table = json.load(fh)
    for name in args.workload or sorted(W.WORKLOADS):
        if name in SEED_INDEPENDENT:
            digest = digest_of(name, first)
            if digest_of(name, last) != digest:
                raise SystemExit(f"{name}: seeds {first} and {last} give different digests")
            table[name] = {"*": digest}
        else:
            entry = table.setdefault(name, {})
            for seed in range(first, last + 1):
                entry[str(seed)] = digest_of(name, seed)
        print(name, "recorded", flush=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
