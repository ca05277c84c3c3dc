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


def test_gain_needs_nine_of_ten_wins_beyond_the_base_iqr():
    ab = load_ab_bench()
    base = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0, 1.02, 0.98, 1.01, 0.99]

    def row(change):
        pairs = [({"w": result(b)}, {"w": result(c)}) for b, c in zip(base, change)]
        return ab.summarize(pairs, METRICS[:1])[0]

    # nine wins and a median 0.3 below the base's (IQR about 0.05)
    clear = [b - 0.3 for b in base[:9]] + [base[9] + 0.1]
    assert (row(clear)["wins"], row(clear)["gain"]) == (9, True)
    # eight wins are too few, however large the gap
    eight = [b - 0.3 for b in base[:8]] + [b + 0.1 for b in base[8:]]
    assert (row(eight)["wins"], row(eight)["gain"]) == (8, False)
    # ten wins by less than the base's spread are noise
    small = [b - 0.001 for b in base]
    assert row(small)["wins"] == 10 and row(small)["base_iqr"] > 0.001
    assert not row(small)["gain"]
    # a change that is worse is no gain
    assert not row([b + 0.3 for b in base])["gain"]
    # a single pair has no IQR and so no gain
    assert not ab.summarize([({"w": result(2.0)}, {"w": result(1.0)})], METRICS)[0]["gain"]


def test_pair_diffs_are_change_minus_base():
    ab = load_ab_bench()
    base = {"a": result(2.0, 1.0), "b": result(1.0, 0.5)}
    change = {"a": result(1.5, 1.0), "b": result(1.25, 1.0)}
    assert ab.pair_diffs(base, change, METRICS) == [
        "a: solve_s=-0.5 pass_frac=+0",
        "b: solve_s=+0.25 pass_frac=+0.5",
    ]


def test_seed_is_passed_to_both_sides():
    ab = load_ab_bench()
    tree = Path("/some/tree")
    cmd = ab.side_command(tree, "nf-kkt", 3)
    assert cmd[1:] == [str(tree / "perfbench" / "run.py"), "--workload", "nf-kkt", "--seed", "3"]
    # without --seed run.py picks its default seed
    assert "--seed" not in ab.side_command(tree, "all")


def test_several_seeds_are_taken_in_turn():
    ab = load_ab_bench()
    tree = Path("/some/tree")
    seeds = [0, 3, 7]
    got = [ab.pair_seed(seeds, pair) for pair in range(7)]
    assert got == [0, 3, 7, 0, 3, 7, 0]
    # both sides of a pair run at its seed
    for side_tree in (tree, Path("/other/tree")):
        assert ab.side_command(side_tree, "nf-kkt", ab.pair_seed(seeds, 4))[-2:] == ["--seed", "3"]
    # one seed is every pair's seed; none leaves run.py's default
    assert {ab.pair_seed([5], pair) for pair in range(3)} == {5}
    assert ab.pair_seed(None, 2) is None
    assert "--seed" not in ab.side_command(tree, "all", ab.pair_seed(None, 2))


def test_pair_lines_name_the_seed():
    ab = load_ab_bench()
    runs = {"a": result(1.25), "b": result(0.5)}
    assert ab.side_line(ab.pair_label(4, 7), "change", runs) == (
        "pair 4 seed 7 change: solve_s a=1.2500 b=0.5000"
    )
    assert ab.pair_label(0, None) == "pair 0 seed default"


def test_seed_option_takes_several_values(tmp_path, capsys):
    ab = load_ab_bench()
    # a base tree without perfbench/run.py is rejected after parsing; the
    # parse accepts several seeds and starts no process
    with pytest.raises(SystemExit):
        ab.main(["--base", str(tmp_path), "--seed", "0", "3", "7"])
    assert "perfbench/run.py not found" in capsys.readouterr().err
