#!/usr/bin/env python3
"""Paired A/B runs of the benchmark: a base checkout against this one.

Usage (from the repository root):

    mkdir ../base && git archive HEAD~1 | tar -x -C ../base
    python3 scripts/ab_bench.py --base ../base --workload all --pairs 10 [--seed N ...]

A pair runs ``perfbench/run.py --workload W [--seed N]`` once from the base
tree and once from this tree, each in its own process and one process at a
time; the side that goes first alternates from pair to pair. With several
seeds (``--seed 3 5 7``) the pairs take them in turn, both sides of a pair
at the same seed; without ``--seed`` run.py's default seed is used. Each
pair's lines name its seed. After each pair the change - base difference
of every end-to-end metric is printed.
For every end-to-end metric of this tree's BENCHMARK.json and every
workload, the summary gives the median of each side, the change's worse-by
fraction of the base median against the metric's bound, the number of pairs
the change won (ties count for neither), the interquartile range of the
base's runs and the gain flag: the change won at least 9 of every 10 pairs
and its median is better than the base's by more than that range.

A run that exits non-zero, whose last stdout line is not JSON or that
reports ``correct: false`` is printed with its side, pair, workload, exit
code and the last 20 lines of its stderr, and the script exits with status
1 without a summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STDERR_LINES = 20
GAIN_WIN_FRACTION = 0.9


def end_to_end_metrics():
    """The ``end_to_end`` entries of BENCHMARK.json: name, unit, better, bound."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)["end_to_end"]


def parse_run(returncode, stdout, workload):
    """{workload: result} of one run.py process, or a str saying why it failed."""
    if returncode != 0:
        return f"exit code {returncode}"
    lines = stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return "last stdout line is not JSON"
    results = last["workloads"] if workload == "all" else {workload: last}
    wrong = [name for name, res in results.items() if not res["correct"]]
    if wrong:
        return f"correct: false ({', '.join(wrong)})"
    return results


def _iqr(values):
    if len(values) < 2:
        return float("nan")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarize(pairs, metrics):
    """One row per (workload, metric) over paired runs.

    ``pairs`` holds one (base, change) tuple per pair, each side a
    {workload: run.py result} dict; ``metrics`` are BENCHMARK.json's
    ``end_to_end`` entries. ``worse_by`` is the change's median worse than
    the base's, as a fraction of the base's (negative when better).
    """
    rows = []
    for workload in pairs[0][0]:
        for m in metrics:
            name = m["name"]
            base = [b[workload]["metrics"][name]["value"] for b, _ in pairs]
            change = [c[workload]["metrics"][name]["value"] for _, c in pairs]
            sign = 1.0 if m["better"] == "lower" else -1.0
            base_med, change_med = statistics.median(base), statistics.median(change)
            wins = sum(sign * (c - b) < 0.0 for b, c in zip(base, change))
            base_iqr = _iqr(base)
            rows.append(
                {
                    "workload": workload,
                    "metric": name,
                    "unit": m["unit"],
                    "base": base_med,
                    "change": change_med,
                    "worse_by": sign * (change_med - base_med) / abs(base_med)
                    if base_med
                    else float("nan"),
                    "bound": m["bound"],
                    "wins": wins,
                    "pairs": len(pairs),
                    "base_iqr": base_iqr,
                    "gain": wins >= GAIN_WIN_FRACTION * len(pairs)
                    and sign * (base_med - change_med) > base_iqr,
                }
            )
    return rows


def pair_diffs(base, change, metrics):
    """One line per workload: each end-to-end metric's change - base in one pair."""
    lines = []
    for workload, b in base.items():
        c = change[workload]["metrics"]
        diffs = (f"{m['name']}={c[m['name']]['value'] - b['metrics'][m['name']]['value']:+.4g}"
                 for m in metrics)
        lines.append(f"{workload}: {' '.join(diffs)}")
    return lines


def print_summary(rows):
    print(
        f"{'workload':11s} {'metric':12s} {'unit':6s} {'base':>10s} {'change':>10s} "
        f"{'worse_by':>9s} {'bound':>6s} {'wins':>6s} {'base_iqr':>10s} {'gain':>4s}"
    )
    for r in rows:
        flag = "  OVER BOUND" if r["worse_by"] > r["bound"] else ""
        print(
            f"{r['workload']:11s} {r['metric']:12s} {r['unit']:6s} {r['base']:10.4g} "
            f"{r['change']:10.4g} {r['worse_by']:+9.3f} {r['bound']:6.2f} "
            f"{r['wins']:>3d}/{r['pairs']:<2d} {r['base_iqr']:10.4g} "
            f"{'yes' if r['gain'] else 'no':>4s}{flag}"
        )


def pair_seed(seeds, pair):
    """The workload seed of both sides of pair ``pair``: ``seeds`` in turn, or None."""
    return seeds[pair % len(seeds)] if seeds else None


def pair_label(pair, seed):
    """The prefix of each line printed for one pair."""
    return f"pair {pair} seed {'default' if seed is None else seed}"


def side_line(label, side, results):
    """The per-workload ``solve_s`` of one side's run, as printed after the run."""
    solve_s = " ".join(
        f"{name}={res['metrics']['solve_s']['value']:.4f}" for name, res in results.items()
    )
    return f"{label} {side}: solve_s {solve_s}"


def side_command(tree, workload, seed=None):
    """The run.py command line of one side; without a seed run.py's default is used."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload]
    return cmd if seed is None else [*cmd, "--seed", str(seed)]


def run_side(tree, workload, seed=None):
    cmd = side_command(tree, workload, seed)
    return subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    ap.add_argument("--workload", default="all", help="a workload of run.py, or all")
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument(
        "--seed", type=int, nargs="+", default=None,
        help="workload seeds, taken in turn from pair to pair by both sides",
    )
    args = ap.parse_args(argv)
    base = args.base.resolve()
    if not (base / "perfbench" / "run.py").is_file():
        ap.error(f"perfbench/run.py not found under {base}")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")

    trees = {"base": base, "change": ROOT}
    metrics = end_to_end_metrics()
    pairs = []
    for pair in range(args.pairs):
        order = ("base", "change") if pair % 2 == 0 else ("change", "base")
        seed = pair_seed(args.seed, pair)
        label = pair_label(pair, seed)
        results = {}
        for side in order:
            proc = run_side(trees[side], args.workload, seed)
            parsed = parse_run(proc.returncode, proc.stdout, args.workload)
            if isinstance(parsed, str):
                print(
                    f"FAILED RUN side={side} pair={pair} seed={seed} workload={args.workload} "
                    f"exit={proc.returncode}: {parsed}"
                )
                print("\n".join(proc.stderr.splitlines()[-STDERR_LINES:]))
                return 1
            results[side] = parsed
            print(side_line(label, side, parsed), flush=True)
        pairs.append((results["base"], results["change"]))
        for line in pair_diffs(results["base"], results["change"], metrics):
            print(f"{label} change-base {line}", flush=True)
    print_summary(summarize(pairs, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
