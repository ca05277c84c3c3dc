"""The paired A/B summary of ``scripts/ab_bench.py`` on canned run results.

The script is loaded read-only; no benchmark process is started.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

AB_BENCH = Path(__file__).resolve().parent.parent / "scripts" / "ab_bench.py"


def load_ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", AB_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [
    {"name": "solve_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "pass_frac", "unit": "ratio", "better": "higher", "bound": 0.01},
]


def result(solve_s, pass_frac=1.0, correct=True):
    return {
        "correct": correct,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "solve_s": {"value": solve_s, "unit": "s"},
            "pass_frac": {"value": pass_frac, "unit": "ratio"},
        },
    }


def test_summary_medians_wins_and_iqr():
    ab = load_ab_bench()
    base = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 2.0, 3.5, 3.0, 4.0]  # wins pairs 0, 3 and 4; pair 1 is a tie
    frac = [(1.0, 1.0), (1.0, 0.9), (0.9, 1.0), (1.0, 1.0), (1.0, 1.0)]
    pairs = [
        ({"w": result(b, fb)}, {"w": result(c, fc)})
        for b, c, (fb, fc) in zip(base, change, frac)
    ]
    rows = {r["metric"]: r for r in ab.summarize(pairs, METRICS)}
    solve = rows["solve_s"]
    assert (solve["workload"], solve["unit"], solve["pairs"]) == ("w", "s", 5)
    assert (solve["base"], solve["change"], solve["wins"]) == (3.0, 3.0, 3)
    assert solve["worse_by"] == 0.0
    assert solve["base_iqr"] == pytest.approx(3.0)  # quartiles 1.5 and 4.5
    # higher is better: the change wins where its pass fraction is larger
    frac_row = rows["pass_frac"]
    assert (frac_row["wins"], frac_row["base"], frac_row["change"]) == (1, 1.0, 1.0)
    # a single pair has no interquartile range
    assert math.isnan(ab.summarize(pairs[:1], METRICS)[0]["base_iqr"])


def test_worse_by_is_signed_by_direction():
    ab = load_ab_bench()
    pairs = [({"w": result(2.0, 1.0)}, {"w": result(3.0, 0.5)})]
    rows = {r["metric"]: r for r in ab.summarize(pairs, METRICS)}
    assert rows["solve_s"]["worse_by"] == pytest.approx(0.5)
    assert rows["pass_frac"]["worse_by"] == pytest.approx(0.5)
    assert rows["solve_s"]["wins"] == rows["pass_frac"]["wins"] == 0


def test_failed_runs_are_reported():
    ab = load_ab_bench()
    good = json.dumps(result(1.0))
    assert ab.parse_run(0, "table\n" + good + "\n", "w") == {"w": result(1.0)}
    everything = json.dumps({"correct": True, "workloads": {"a": result(1.0), "b": result(2.0)}})
    assert set(ab.parse_run(0, everything, "all")) == {"a", "b"}
    assert ab.parse_run(1, good, "w") == "exit code 1"
    assert ab.parse_run(0, "", "w") == "last stdout line is not JSON"
    assert ab.parse_run(0, good + "\nTraceback", "w") == "last stdout line is not JSON"
    assert "correct: false" in ab.parse_run(0, json.dumps(result(1.0, correct=False)), "w")
    mixed = {"correct": False, "workloads": {"a": result(1.0), "b": result(2.0, correct=False)}}
    assert ab.parse_run(0, json.dumps(mixed), "all") == "correct: false (b)"
