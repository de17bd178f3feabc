"""The summary of ``scripts/bench_pairs.py``, on canned benchmark results."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(correct=True, failed=0, **metrics):
    """A last line of ``perfbench/run.py``, with the given metric values."""
    return {
        "correct": correct,
        "attempted": 10,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": "ms"} for name, v in metrics.items()},
    }


def test_medians_range_change_and_pairs_lower():
    pairs = [
        (result(job_p50_ms=4.0), result(job_p50_ms=3.0)),
        (result(job_p50_ms=6.0), result(job_p50_ms=7.0)),
        (result(job_p50_ms=5.0), result(job_p50_ms=4.0)),
    ]
    summary = bench_pairs.summarize(pairs)
    assert summary["all_runs_correct_with_0_failed"]
    assert summary["metrics"] == {
        "job_p50_ms": {
            "unit": "ms",
            "parent_runs": [4.0, 6.0, 5.0],
            "change_runs": [3.0, 7.0, 4.0],
            "parent_median": 5.0,
            "change_median": 4.0,
            "parent_quartiles": [4.5, 5.5],
            "parent_range_pct": 40.0,
            "change_pct": -20.0,
            "change_lower_in": "2 of 3",
        }
    }


def test_an_incorrect_or_failing_run_on_either_side_is_reported():
    ok = result(run_s=1.0)
    assert bench_pairs.summarize([(ok, ok)])["all_runs_correct_with_0_failed"]
    for bad in (result(correct=False, run_s=1.0), result(failed=1, run_s=1.0)):
        assert not bench_pairs.summarize([(ok, bad)])["all_runs_correct_with_0_failed"]
        assert not bench_pairs.summarize([(bad, ok)])["all_runs_correct_with_0_failed"]


def test_a_metric_some_run_lacks_is_left_out_and_zero_medians_give_no_percent():
    pairs = [
        (result(run_s=0.0, setup_s=1.0), result(run_s=0.0)),
        (result(run_s=0.0, setup_s=1.0), result(run_s=0.0, setup_s=1.0)),
    ]
    metrics = bench_pairs.summarize(pairs)["metrics"]
    assert list(metrics) == ["run_s"]
    assert metrics["run_s"]["change_pct"] is None
    assert metrics["run_s"]["parent_range_pct"] is None
    assert metrics["run_s"]["change_lower_in"] == "0 of 2"


def test_one_pair_and_the_report():
    summary = bench_pairs.summarize([(result(run_s=2.0), result(run_s=1.5))])
    assert summary["metrics"]["run_s"]["parent_quartiles"] == [2.0, 2.0]
    lines = bench_pairs.report("queries", summary)
    assert lines[0] == "queries: every run correct with failed 0: yes"
    assert lines[2].split() == ["run_s", "2", "1.5", "0.0%", "-25.0%", "1", "of", "1"]


def test_seed_lists():
    assert bench_pairs.seed_list("1-3,7") == [1, 2, 3, 7]
    assert bench_pairs.seed_list("5") == [5]


def verdicts(parent_runs, change_runs, bound=0.25):
    pairs = [(result(run_s=p), result(run_s=c)) for p, c in zip(parent_runs, change_runs)]
    return bench_pairs.summarize(pairs, {"run_s": bound})["metrics"]["run_s"]["verdict"]


def test_verdicts_against_the_bound():
    # the change's median 1.3 is 30% above the parent's 1.0
    assert verdicts([1.0, 1.0, 1.0], [1.3, 1.3, 1.3]) == "worse"
    assert verdicts([1.0, 1.0, 1.0], [1.2, 1.2, 1.3]) == "within bound"
    # the parent spans 0.8 to 1.1, 30% of its median: wider than the bound
    assert verdicts([0.8, 1.0, 1.1], [0.9, 1.0, 1.0]) == "unresolved"
    # unless every change run reads better than every parent run
    assert verdicts([0.8, 1.0, 1.1], [0.7, 0.75, 0.79]) == "within bound"
    assert verdicts([0.8, 1.0, 1.1], [0.7, 0.75, 0.8]) == "unresolved"
    # a median past the bound is worse whatever the spread
    assert verdicts([0.8, 1.0, 1.1], [1.3, 1.3, 1.3]) == "worse"
    assert verdicts([0.8, 1.0, 1.1], [1.3, 1.3, 1.3], bound=0.4) == "within bound"


def test_only_metrics_with_a_bound_get_a_verdict_column():
    pairs = [(result(run_s=1.0, dfs_nodes=10), result(run_s=1.3, dfs_nodes=9))]
    summary = bench_pairs.summarize(pairs, {"run_s": 0.25, "setup_s": 0.25})
    assert summary["metrics"]["run_s"]["verdict"] == "worse"
    assert "verdict" not in summary["metrics"]["dfs_nodes"]
    lines = bench_pairs.report("cli", summary)
    assert lines[1].split()[-1] == "verdict"
    assert lines[2].split() == ["run_s", "1", "1.3", "0.0%", "+30.0%", "0", "of", "1", "worse"]
    assert lines[3].split() == ["dfs_nodes", "10", "9", "0.0%", "-10.0%", "1", "of", "1"]


def test_the_bounds_are_read_from_the_benchmark():
    bounds = bench_pairs.end_to_end_bounds()
    assert set(bounds) == {"setup_s", "run_s", "job_p50_ms", "peak_rss_mb"}
    assert all(0 < b < 1 for b in bounds.values())
