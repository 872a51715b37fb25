"""The summary of tools/bench_pairs.py on synthetic runs."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import bench_pairs  # noqa: E402


def _runs(parent_p50, change_p50, failed=0):
    """One parent and one change run per seed, at the given p50 latencies;
    every other metric is equal within a pair, the items rate inverse."""
    runs = []
    for seed, (p, c) in enumerate(zip(parent_p50, change_p50), start=100):
        for tree, p50 in (("parent", p), ("change", c)):
            runs.append({
                "workload": "check-table", "seed": seed, "tree": tree,
                "failed": failed if tree == "change" else 0, "attempted": 36,
                "latency_p50_s": p50, "items_per_s": 1.0 / p50, "peak_rss_mb": 20.0,
            })
    return runs


def _line(lines, name):
    return next(line for line in lines if line.startswith(name))


def test_claim_met_on_nine_wins_and_a_gap_above_the_parent_iqr():
    parent = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]
    change = [p - 1.0 for p in parent[:9]] + [12.0]
    lines, held = bench_pairs.summarize(_runs(parent, change), "latency_p50_s")
    assert held
    assert lines[0] == "10 pairs"
    assert "change wins 9/10" in _line(lines, "latency_p50_s")
    # higher is better for the rate: the same nine pairs
    assert "change wins 9/10" in _line(lines, "items_per_s")
    # equal in every pair: a tie is no side's win
    assert "change wins 0/10" in _line(lines, "peak_rss_mb")
    # the parent's inclusive quartiles are 10.45 and 11.35: IQR 0.9, gap 1.0
    claim = _line(lines, "claim latency_p50_s")
    assert "9/10 wins (need 9)" in claim and claim.endswith(": MET")
    assert "parent 10.9 [10.45, 11.35]" in _line(lines, "latency_p50_s")


def test_claim_not_met_on_eight_wins():
    parent = [10.0 + 0.2 * i for i in range(10)]
    change = [p - 1.0 for p in parent[:8]] + [12.0, 12.0]
    lines, held = bench_pairs.summarize(_runs(parent, change), "latency_p50_s")
    assert not held
    assert _line(lines, "claim latency_p50_s").endswith("NOT MET")


def test_claim_not_met_on_a_gap_inside_the_parent_iqr():
    # ten wins, each by less than the spread of the parent's runs
    parent = [10.0 + 0.2 * i for i in range(10)]
    change = [p - 0.1 for p in parent]
    lines, held = bench_pairs.summarize(_runs(parent, change), "latency_p50_s")
    assert not held
    claim = _line(lines, "claim latency_p50_s")
    assert "10/10 wins" in claim and claim.endswith("NOT MET")


def test_failed_requests_and_unpaired_runs():
    runs = _runs([10.0, 11.0], [9.0, 10.0], failed=2)
    # a run without its partner is left out of the pairs
    runs.append({**runs[0], "seed": 7})
    lines, held = bench_pairs.summarize(runs)
    assert held and lines[0] == "2 pairs"
    assert _line(lines, "failed requests, parent") == "failed requests, parent: 0 in 0 runs"
    assert _line(lines, "failed requests, change") == "failed requests, change: 4 in 2 runs"
    _, held = bench_pairs.summarize(runs, "setup_s")
    assert not held


def test_bounds_are_read_from_the_benchmark():
    assert bench_pairs.BOUNDS == {
        "setup_s": 0.25, "latency_p50_s": 0.25, "latency_tail_s": 0.25, "items_per_s": 0.25,
        "peak_rss_mb": 0.1, "accuracy_digits": 0.05, "success_rate": 0.01,
    }
    assert [name for name, lower in bench_pairs.LOWER_IS_BETTER.items() if not lower] == [
        "items_per_s", "accuracy_digits", "success_rate"
    ]


def test_unclaimed_metrics_within_their_bounds():
    # p50 5% worse, the rate 5% lower, the RSS equal: every spread is 2%
    parent = [10.0 + 0.05 * i for i in range(10)]
    lines, held = bench_pairs.summarize(_runs(parent, [1.05 * p for p in parent]))
    assert held
    assert _line(lines, "bound latency_p50_s").endswith(": within bound")
    assert "+5.00% worse" in _line(lines, "bound latency_p50_s")
    assert _line(lines, "bound items_per_s").endswith(": within bound")
    assert _line(lines, "bound peak_rss_mb") == (
        "bound peak_rss_mb: +0.00% worse, parent IQR 0.00%, bound 10%: within bound"
    )


def test_unclaimed_metric_worse_than_its_bound_fails():
    # p50 30% worse against a 25% bound, though the claim on the rate is
    # judged apart: the run fails on the bound alone
    parent = [10.0 + 0.05 * i for i in range(10)]
    lines, held = bench_pairs.summarize(_runs(parent, [1.3 * p for p in parent]))
    assert not held
    assert _line(lines, "bound latency_p50_s").endswith(": WORSE")
    assert _line(lines, "bound items_per_s").endswith(": within bound")  # 23% lower
    # the claimed metric takes the claim's verdict, not the bound's
    lines, held = bench_pairs.summarize(_runs(parent, [1.3 * p for p in parent]), "latency_p50_s")
    assert not held
    assert not any(line.startswith("bound latency_p50_s") for line in lines)


def test_unclaimed_metric_unresolved_when_the_parent_spreads_past_its_bound():
    # the parent's p50 spreads 8.0-13.7, an IQR of 2.85 against a median of
    # 10.85 (26%): a change 1% worse cannot be told from it
    parent = [8.0 + 0.6 * i + (0.3 if i % 2 else 0.0) for i in range(10)]
    lines, held = bench_pairs.summarize(_runs(parent, [1.01 * p for p in parent]))
    assert held
    assert _line(lines, "bound latency_p50_s").endswith(": unresolved")
    # unless every change run beats every parent run
    lines, held = bench_pairs.summarize(_runs(parent, [p - 7.0 for p in parent]))
    assert held
    assert _line(lines, "bound latency_p50_s").endswith(": within bound")
