#!/usr/bin/env python3
"""Benchmark of the pnmatrix library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process and one client: jobs run one
after another (closed loop); the ``cli`` workload runs one subprocess at a
time.  A run sets up its inputs from the seed, then repeats the workload's
fixed job list (a pass) on fresh matrix objects: one untimed warm-up pass,
then timed passes until at least ``--seconds`` of them are done.  Every
output of the warm-up pass is checked by independent procedures, and every
later pass must give the same outputs.  Times are in reference seconds: wall
time scaled by the machine's speed during the run, as ``speed.py`` measures
it.  The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  Lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads as W  # noqa: E402  (does not import pnmatrix)
from speed import REFERENCE_S, SpeedProbe  # noqa: E402
from tracer import Tracer  # noqa: E402

#: job runs needed to report the 90th percentile (ten samples above it)
P90_MIN_SAMPLES = 100
#: set-ups per run (the run's own plus fresh processes); setup_s is their median
SETUP_SAMPLES = 5
PROBE_REPEATS = 5


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs passes, times each job, and checks and digests their outputs.

    Each job's time is scaled to reference seconds by the speed samples taken
    around it, and a pass's time is the sum of its jobs'; ``raw_pass_times``
    and ``groups`` keep wall time.
    """

    def __init__(self, workload, probe: SpeedProbe, sample_between_jobs: bool):
        self.w = workload
        self.probe = probe
        self.sample_between_jobs = sample_between_jobs
        self.reference: dict[str, str] = {}  # job key -> output hash of the first pass
        self.warmed = False
        self.attempted = self.failed = 0
        self.problems: list[str] = []
        self.pass_times: list[float] = []
        self.raw_pass_times: list[float] = []
        self.by_job: dict[str, list[float]] = defaultdict(list)  # job key -> its latencies
        self.groups: dict[str, list[float]] = defaultdict(list)

    def run_pass(self, jobs, full_check: bool, tracer=None, timed: bool = True) -> float:
        gc.collect()
        probe, clock = self.probe, self.probe.clock
        results = []
        probe.neighbours()
        for job in jobs:
            start = probe.mark()
            t0 = clock()
            try:
                out, err = job.fn(), None
            except Exception as e:  # a failing job is counted, not fatal
                out, err = None, f"{type(e).__name__}: {e}"
            dt = clock() - t0
            results.append((job, out, err, dt, start, probe.mark()))
            if self.sample_between_jobs:
                probe.sample()
        probe.neighbours()
        wall = scaled = 0.0
        if tracer is not None:
            tracer.phase = tracer.untimed
        for job, out, err, dt, start, end in results:
            self.attempted += 1
            wall += dt
            scaled += dt * probe.scale(start, end)
            if timed:
                self.by_job[job.key].append(dt * probe.scale(start, end))
                self.groups[job.group].append(dt)
            problems = [err] if err else []
            if not problems:
                digest = sha(self.w.describe(job, out))
                if self.reference.setdefault(job.key, digest) != digest:
                    problems.append("output differs from the first pass")
                if full_check:
                    problems += self.w.check(job, out)
            if problems:
                self.failed += 1
                self.problems.append(f"{job.key}: {'; '.join(problems)}")
        if tracer is not None:
            tracer.phase = tracer.run
        if timed:
            self.pass_times.append(scaled)
            self.raw_pass_times.append(wall)
        return wall

    def measure(self, make_jobs, seconds: float, tracer=None, after_warmup=None):
        """Passes until their wall time reaches ``seconds``; returns the passes'
        times in reference seconds.

        The runner's first pass is a warm-up that is checked in full and not
        timed: a first pass ran up to half slower on some jobs, and with three
        or four timed passes that moved job_p50_ms by 10% from run to run.  A
        traced measurement also checks its first timed pass in full, so that
        the checks' spans are recorded."""
        if not self.warmed:
            self.run_pass(self._fresh_jobs(make_jobs, tracer), full_check=True,
                          tracer=tracer, timed=False)
            self.warmed = True
            if after_warmup is not None:
                after_warmup()
        first = len(self.pass_times)
        elapsed = 0.0
        while len(self.pass_times) == first or elapsed < seconds:
            jobs = self._fresh_jobs(make_jobs, tracer)
            full_check = tracer is not None and len(self.pass_times) == first
            elapsed += self.run_pass(jobs, full_check=full_check, tracer=tracer)
        return self.pass_times[first:]

    @staticmethod
    def _fresh_jobs(make_jobs, tracer):
        if tracer is not None:
            tracer.phase = tracer.untimed
        W.clear_library_caches()
        jobs = make_jobs()
        if tracer is not None:
            tracer.phase = tracer.run
        return jobs

    def digest(self) -> str:
        return sha("\n".join(f"{k}\t{v}" for k, v in sorted(self.reference.items())))


def timed_setup(name: str, seed: int, probe: SpeedProbe):
    """Builds the workload's inputs; returns it, its set-up time in reference
    seconds and in wall seconds."""
    probe.neighbours()
    start = probe.mark()
    probe.start()
    try:
        t0 = probe.clock()
        w = W.WORKLOADS[name]()
        w.setup(seed)
        wall = probe.clock() - t0
    finally:
        probe.stop()
    end = probe.mark()
    probe.neighbours()
    return w, wall * probe.scale(start, end), wall


def setup_probe(name: str, seed: int) -> float:
    """Set-up time in reference seconds in a fresh interpreter (imports
    included), interpreter start excluded."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, cwd=W.ROOT, timeout=170, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def wall_ms(argv, env=None) -> float:
    start = perf_counter()
    subprocess.run(argv, check=True, capture_output=True, env=env, cwd=W.ROOT, timeout=60)
    return (perf_counter() - start) * 1000


def start_costs() -> tuple[float, float]:
    """Median interpreter start and median `import pnmatrix` on top of it, in ms."""
    env = dict(os.environ, PYTHONPATH=os.path.join(W.ROOT, "src"))
    bare = statistics.median(wall_ms([sys.executable, "-c", "pass"]) for _ in range(PROBE_REPEATS))
    imp = statistics.median(wall_ms([sys.executable, "-c", "import pnmatrix"], env)
                            for _ in range(PROBE_REPEATS))
    return bare, imp - bare


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def reference_digest(name: str, seed: int):
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        table = json.load(fh).get(name, {})
    return table.get("*", table.get(str(seed)))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only time the set-up and print its seconds (used by the run itself)")
    args = ap.parse_args(argv)

    load = os.getloadavg()
    probe = SpeedProbe()
    w, setup_main, setup_wall = timed_setup(args.workload, args.seed, probe)
    if args.setup_probe:
        w.close()
        print(f"{setup_main!r}")
        return 0
    # child processes do the work of a cli job: sample between jobs, no timer
    runner = Runner(w, probe, sample_between_jobs=isinstance(w, W.Cli) and not args.trace)
    try:
        if not runner.sample_between_jobs:
            probe.start()
        if args.trace:
            metrics, notes = traced_run(w, runner, args.seconds)
        else:
            metrics, notes = plain_run(w, runner, args, setup_main)
    finally:
        probe.stop()
        w.close()

    expected = reference_digest(args.workload, args.seed)
    digest = runner.digest()
    if expected is not None and expected != digest:
        runner.failed += len(runner.reference)
        runner.problems.append(f"digest {digest[:16]} differs from the reference {expected[:16]}")
    ref_state = "no reference for this seed" if expected is None else (
        "matches the reference" if expected == digest else "DIFFERS from the reference")

    lines = [
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        f"seconds={args.seconds:g}",
        f"machine: cpus={os.cpu_count()} python={platform.python_version()} "
        f"loadavg_at_start={load[0]:.2f},{load[1]:.2f},{load[2]:.2f}",
        speed_note(probe, setup_wall),
    ]
    lines += [f"  {name:32} {value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  {'fail_ratio':32} {runner.failed / max(runner.attempted, 1):>14.6g} ratio "
                 f"({runner.failed} of {runner.attempted} jobs)")
    lines += notes
    lines.append(f"digest {digest[:16]}: {ref_state}")
    lines += [f"FAILED {p}" for p in runner.problems[:20]]
    lines.append("kept out of timing:")
    lines += [f"  {case}: {why}" for case, why in W.EXCLUDED]
    print("\n".join(lines))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def plain_run(w, runner, args, setup_main):
    children = args.workload == "cli"
    rss = []
    times = runner.measure(w.jobs, args.seconds,
                           after_warmup=lambda: rss.append(peak_rss_mb(children)))
    runner.probe.stop()  # its ticks would compete with the set-up probes
    # set-up probes run last so their processes do not count in the children's peak RSS
    setups = [setup_main] + [setup_probe(args.workload, args.seed)
                             for _ in range(SETUP_SAMPLES - 1)]
    # a job's latency is its median over the passes, so that noise cannot swap
    # neighbouring jobs of a small job list around the median
    per_job = [statistics.median(t) * 1000 for t in runner.by_job.values()]
    lat = sorted(x * 1000 for t in runner.by_job.values() for x in t)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(times), "s"),
        "job_p50_ms": (statistics.median(per_job), "ms"),
        "peak_rss_mb": (rss[0], "MB"),
    }
    # reported, not gated: on combine it falls between job kinds and moved 47% by seed
    p90 = (f"{statistics.quantiles(lat, n=10)[8]:>14.6g} ms" if len(lat) >= P90_MIN_SAMPLES
           else f"{'-':>14} ms")
    notes = [
        f"  {'job_p90_ms':32} {p90} (over all {len(lat)} job runs, reported from "
        f"{P90_MIN_SAMPLES}; not gated)",
        f"  {'wall run_s':32} {statistics.median(runner.raw_pass_times):>14.6g} s "
        f"(wall time, not scaled; not gated)",
        f"samples: {len(setups)} set-ups; {len(times)} passes of {len(per_job)} jobs; "
        f"job_p50_ms is the median over the jobs of each job's median over the passes; "
        f"peak RSS is taken after the untimed warm-up pass"]
    notes += group_notes(runner)
    return metrics, notes


def traced_run(w, runner, seconds):
    half = seconds / 2
    if isinstance(w, W.Cli):
        # in-process run_cli: each fixture load gets a fresh object, as a new process would
        cli_io = W.P.cli_io
        original = cli_io.builtin
        cli_io.builtin = lambda name: W.fresh(original(name))
        make_jobs = w.in_process_jobs
    else:
        make_jobs = w.jobs
    tracer = Tracer(clock=runner.probe.clock)
    try:
        base = runner.measure(make_jobs, half)
        tracer.install()
        try:
            traced = runner.measure(make_jobs, half, tracer=tracer)
        finally:
            tracer.uninstall()
    finally:
        if isinstance(w, W.Cli):
            cli_io.builtin = original
    metrics = tracer.metrics(passes=len(traced), checked_passes=1)
    runner.probe.stop()
    bare, imp = start_costs()
    metrics["cli_io.proc_start_ms"] = (bare, "ms")
    metrics["cli_io.import_ms"] = (imp, "ms")
    metrics["cli_io.run_cli_s"] = (statistics.median(base) if isinstance(w, W.Cli) else 0.0, "s")
    metrics["trace_overhead_ratio"] = (statistics.median(traced) / statistics.median(base), "ratio")
    notes = [f"samples: {len(base)} untraced and {len(traced)} traced passes; layer figures "
             f"are per traced pass, times are self times (span minus child spans)"]
    notes += group_notes(runner)
    return metrics, notes


def speed_note(probe, setup_wall):
    k = sorted(probe.samples)
    return (f"speed probe: {len(k)} samples, kernel median {statistics.median(k) * 1000:.3f} ms "
            f"(quartiles {k[len(k) // 4] * 1000:.3f}, {k[3 * len(k) // 4] * 1000:.3f}; "
            f"reference {REFERENCE_S * 1000:g} ms); wall set-up {setup_wall:.4f} s")


def group_notes(runner):
    out = ["median wall seconds per job group (all passes):"]
    for group, times in sorted(runner.groups.items()):
        out.append(f"  {group:40} {statistics.median(times):.4f} s  (n={len(times)})")
    return out


if __name__ == "__main__":
    sys.exit(main())
