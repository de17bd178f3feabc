#!/usr/bin/env python3
"""Run the benchmark on a parent revision and a change, in alternated pairs.

    python3 scripts/bench_pairs.py --workload queries --seeds 1-6 --seconds 15
    python3 scripts/bench_pairs.py --workload cli --seeds 1-4 --json out.json

Run from inside the repository.  The change is the uncommitted tree (made
with ``git stash create``; stage new files first, as untracked ones are not
in it) or, on a clean tree, ``HEAD``; the parent is ``HEAD`` or ``HEAD^``
respectively.  Pair k
runs ``perfbench/run.py`` once on each side with the k-th seed, the parent
first in odd pairs and the change first in even ones, every run in a fresh
``git archive`` copy of its revision with ``PYTHONDONTWRITEBYTECODE=1``; the
copy is removed after the run.

For each workload and metric it prints the medians, the parent's range and
quartiles, the change in percent, in how many pairs the change read lower,
and whether every run was ``correct`` with ``failed`` 0.  ``--json`` writes
the same as JSON, with every run's value.

Each end-to-end metric also gets a verdict against its ``bound`` in
``BENCHMARK.json`` (a fraction of the parent's median; lower is better):
``worse`` when the change's median is above the parent's by more than the
bound; ``unresolved`` when the parent's own range is wider than the bound
and not every change run reads better than every parent run, since such a
spread can hide a regression; ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def git(*args: str) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True).stdout.strip()


def revisions() -> tuple[str, str]:
    """The parent and change commits, as the module docstring says."""
    change = git("stash", "create") or git("rev-parse", "HEAD")
    return git("rev-parse", f"{change}^"), change


def export(rev: str, where: str) -> str:
    """A fresh copy of the tree of rev, in a new directory under where."""
    dest = tempfile.mkdtemp(prefix=f"bench-{rev[:10]}-", dir=where)
    data = subprocess.run(["git", "archive", "--format=tar", rev], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return dest


def run_once(rev: str, workload: str, seed: int, seconds: float, trace: int, where: str) -> dict:
    """The last stdout line of one benchmark run on a fresh copy of rev."""
    dest = export(rev, where)
    try:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=dest, env=env, capture_output=True, text=True,
        )
    finally:
        shutil.rmtree(dest, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": (proc.stderr.strip().splitlines() or ["no output"])[-1]}
    return json.loads(lines[-1])


def end_to_end_bounds() -> dict[str, float]:
    """Each end-to-end metric's bound, read from ``BENCHMARK.json``."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}


def verdict(old: list[float], new: list[float], bound: float) -> str:
    """``worse``, ``unresolved`` or ``within bound`` (see the module docstring)."""
    old_median = statistics.median(old)
    if statistics.median(new) > old_median * (1 + bound):
        return "worse"
    if max(old) - min(old) > old_median * bound and not max(new) < min(old):
        return "unresolved"
    return "within bound"


def summarize(pairs: list[tuple[dict, dict]], bounds: dict[str, float] | None = None) -> dict:
    """Per metric, the parent's and the change's runs and how they compare,
    from (parent result, change result) pairs of ``perfbench/run.py``; a
    metric with a bound in ``bounds`` also gets its verdict."""
    results = [r for pair in pairs for r in pair]
    out = {"all_runs_correct_with_0_failed": all(r["correct"] and r["failed"] == 0 for r in results),
           "metrics": {}}
    names = [k for k in pairs[0][0]["metrics"] if all(k in r["metrics"] for r in results)] if pairs else []
    for name in names:
        old = [p["metrics"][name]["value"] for p, _ in pairs]
        new = [c["metrics"][name]["value"] for _, c in pairs]
        old_median, new_median = statistics.median(old), statistics.median(new)
        quartiles = statistics.quantiles(old, n=4, method="inclusive") if len(old) > 1 else old * 3
        out["metrics"][name] = {
            "unit": pairs[0][0]["metrics"][name]["unit"],
            "parent_runs": old,
            "change_runs": new,
            "parent_median": old_median,
            "change_median": new_median,
            "parent_quartiles": [quartiles[0], quartiles[-1]],
            "parent_range_pct": round(100 * (max(old) - min(old)) / old_median, 1) if old_median else None,
            "change_pct": round(100 * (new_median - old_median) / old_median, 1) if old_median else None,
            "change_lower_in": f"{sum(c < p for p, c in zip(old, new))} of {len(pairs)}",
        }
        if bounds and name in bounds:
            out["metrics"][name]["verdict"] = verdict(old, new, bounds[name])
    return out


def report(workload: str, summary: dict) -> list[str]:
    lines = [f"{workload}: every run correct with failed 0: "
             f"{'yes' if summary['all_runs_correct_with_0_failed'] else 'NO'}",
             f"  {'metric (medians)':34} {'parent':>12} {'change':>12} {'p.range':>7} {'change':>8}"
             f"  {'lower in':8}  verdict"]
    for name, s in summary["metrics"].items():
        range_pct = "-" if s["parent_range_pct"] is None else f"{s['parent_range_pct']:.1f}%"
        change_pct = "-" if s["change_pct"] is None else f"{s['change_pct']:+.1f}%"
        lines.append(f"  {name:34} {s['parent_median']:>12.6g} {s['change_median']:>12.6g} "
                     f"{range_pct:>7} {change_pct:>8}  {s['change_lower_in']:8}  {s.get('verdict', '')}"
                     .rstrip())
    return lines


def seed_list(text: str) -> list[int]:
    """``1-6`` or ``1,3,5`` (or a mix) as a list of seeds."""
    out = []
    for part in text.split(","):
        first, _, last = part.partition("-")
        out += range(int(first), int(last or first) + 1)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", required=True,
                    help="a benchmark workload; repeat for several")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-4"),
                    help="one pair per seed, e.g. 1-6 (default 1-4)")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write the summaries to this file")
    args = ap.parse_args(argv)

    bounds = end_to_end_bounds()
    parent, change = revisions()
    print(f"parent {parent[:12]}, change {change[:12]}", flush=True)
    summaries = {}
    where = tempfile.mkdtemp(prefix="bench-pairs-")
    try:
        for workload in args.workload:
            pairs = []
            for k, seed in enumerate(args.seeds):
                sides = [(parent, "parent"), (change, "change")]
                if k % 2:  # pair k + 1 is even: the change runs first
                    sides.reverse()
                got = {side: run_once(rev, workload, seed, args.seconds, args.trace, where)
                       for rev, side in sides}
                pairs.append((got["parent"], got["change"]))
                for side in ("parent", "change"):
                    if "error" in got[side]:
                        print(f"  {workload} seed {seed} {side}: {got[side]['error']}", flush=True)
                print(f"  {workload} pair {k + 1} of {len(args.seeds)} (seed {seed}) done", flush=True)
            summaries[workload] = summarize(pairs, bounds)
            print("\n".join(report(workload, summaries[workload])), flush=True)
    finally:
        shutil.rmtree(where, ignore_errors=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"parent": parent, "change": change, "seeds": args.seeds,
                       "seconds": args.seconds, "trace": args.trace, "workloads": summaries},
                      fh, indent=1)
            fh.write("\n")
    return 0 if all(s["all_runs_correct_with_0_failed"] for s in summaries.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
