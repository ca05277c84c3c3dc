#!/usr/bin/env python3
"""natcone benchmark: seeded workloads through build_instance -> solve -> check.

Usage (from the repository root):

    python3 perfbench/run.py --workload ef-psd --seed 0 --trace 0
    python3 perfbench/run.py                 # every workload, each in its own process

One run builds and solves every cell of the workload once untimed (warm-up,
which also solves the natural-form twin of each extended cell), then repeats
timed passes until ``--seconds`` (default: ``run_seconds`` of BENCHMARK.json)
are used up. A pass builds and solves every cell once. Every solve is
checked outside the timed region: status ``co``, an OPTIMAL certificate from
``classify_certificate`` on the natural-form problem (extended points are
mapped back first), and for extended cells an objective within 1e-5 of the
natural-form twin. Exceptions count as failed solves.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over passes). ``solve_s`` and ``setup_s`` are pass wall times
divided by the host slowdown that ``calibrate.HostSpeed`` samples during the
same pass, i.e. seconds on the reference host; the raw median wall time is
printed as ``solve_wall_s``. With ``--trace 1`` timed passes alternate between
untraced and traced, every traced cell must reproduce the warm-up's
iteration count and objective, the last line reports the per-layer split of
the traced passes and the tracing overhead, and the spans of the last
traced pass are written to ``.perfbench_out/``. Per-layer times are wall
times; the ``trace.*`` solve times, like ``solve_s``, are scaled by the host
slowdown, so that their difference estimates the tracing overhead. The program is imported from ``src/`` beside this directory; without
it the benchmark exits with status 1 and no result.
"""

from __future__ import annotations

import os

# Pin BLAS/OpenMP threads before numpy is imported: with the default
# threading, small dense solves on few cores measure the scheduler.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

from calibrate import HostSpeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

if not (SRC / "natcone" / "__init__.py").is_file():
    sys.exit(f"natcone sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

from natcone import (  # noqa: E402
    AmbiguousCertificateError,
    CertificateKind,
    SolveOptions,
    classify_certificate,
    map_back,
    objective_rel_diff,
    solve,
)
from natcone.bench import STATUS_CODES, InstanceSpec, build_instance  # noqa: E402

import spans  # noqa: E402

DEFAULT_SEED = 0
CHECK_TOL = 1e-5


def run_seconds():
    """Measuring time of one workload run, as BENCHMARK.json fixes it."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)["run_seconds"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if args.seconds is None:
        args.seconds = run_seconds()
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def environment():
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
    }


def _plain_call(_name, fn, *args):
    return fn(*args)


class Bench:
    """One workload in one process: warm-up, passes and the correctness check."""

    def __init__(self, workload, seed, tracer=None):
        self.specs = [InstanceSpec(*cell) for cell in workload.instances(seed)]
        self.options = SolveOptions()
        self.tracer = tracer
        self.speed = HostSpeed()
        # natural-form spec -> (problem, objective, solve seconds, check error)
        self.twins = {}
        self.reference = {}
        self.errors_shown = 0

    def _solve_cell(self, spec, solve_id, call):
        """Timed build and solve of one cell; (record, problem, mapping, result)."""
        if self.tracer:
            self.tracer.solve_id = solve_id
        rec = {"setup_s": 0.0, "solve_s": 0.0, "iters": 0, "obj": None, "error": None}
        try:
            t0 = time.perf_counter()
            problem, mapping = call("bench.build_instance", build_instance, spec)
            t1 = time.perf_counter()
            res = call("solver.solve", solve, problem, self.options)
            t2 = time.perf_counter()
        except Exception as exc:  # a failed solve is counted, never fatal
            self._fail(rec, exc)
            return rec, None, None, None
        rec.update(setup_s=t1 - t0, solve_s=t2 - t1, iters=res.iterations, obj=res.primal_obj)
        self.speed.sample(t2 - t0)
        return rec, problem, mapping, res

    def _fail(self, rec, exc):
        rec["error"] = f"{type(exc).__name__}: {exc}"
        if self.errors_shown < 3:
            traceback.print_exc(file=sys.stderr)
            self.errors_shown += 1

    def _twin(self, spec):
        key = replace(spec, form="nf")
        if key not in self.twins:
            problem, _ = build_instance(key)
            t0 = time.perf_counter()
            res = solve(problem, self.options)
            secs = time.perf_counter() - t0
            self.twins[key] = (problem, res.primal_obj, secs, _check(res, problem))
        return self.twins[key]

    def _check_cell(self, spec, rec, problem, mapping, res):
        if rec["error"] is not None:
            return
        try:
            if mapping is None:
                rec["error"] = _check(res, problem)
                self.twins.setdefault(spec, (problem, res.primal_obj, rec["solve_s"], rec["error"]))
                return
            nf_problem, nf_obj, _, twin_error = self._twin(spec)
            if twin_error:
                rec["error"] = f"nf twin failed: {twin_error}"
            else:
                rec["error"] = _check(res, nf_problem, mapping, nf_obj)
        except Exception as exc:
            self._fail(rec, exc)

    def run_pass(self, pass_id, trace=False):
        """Build and solve every cell once, then check every solve untimed."""
        gc.collect()
        if trace:
            self.tracer.reset_counters()
        call = self.tracer.call if trace else _plain_call
        self.speed.reset()
        with self.tracer.installed() if trace else nullcontext():
            solved = [
                self._solve_cell(spec, pass_id * len(self.specs) + i, call)
                for i, spec in enumerate(self.specs)
            ]
        for spec, (rec, problem, mapping, res) in zip(self.specs, solved):
            self._check_cell(spec, rec, problem, mapping, res)
        results = [rec for rec, *_ in solved]
        slowdown = self.speed.slowdown()
        setup_wall_s = sum(r["setup_s"] for r in results)
        solve_wall_s = sum(r["solve_s"] for r in results)
        p = {
            "results": results,
            "slowdown": slowdown,
            "setup_wall_s": setup_wall_s,
            "solve_wall_s": solve_wall_s,
            "setup_s": setup_wall_s / slowdown,
            "solve_s": solve_wall_s / slowdown,
            "iters": sum(r["iters"] for r in results),
            "failed": sum(r["error"] is not None for r in results),
            "traced": trace,
        }
        if trace:
            p["layers"] = self.tracer.layers(p["iters"])
        return p

    def warm_up(self):
        """Untimed pass: fills lazy caches, solves twins, records references."""
        p = self.run_pass(-1)
        self.reference = {
            spec: (r["iters"], r["obj"]) for spec, r in zip(self.specs, p["results"])
        }
        return p

    def mismatches(self, p):
        """Cells whose iteration count or objective differs from the warm-up's."""
        return [
            spec
            for spec, r in zip(self.specs, p["results"])
            if (r["iters"], r["obj"]) != self.reference[spec]
        ]


def _check(res, nf_problem, mapping=None, nf_obj=None):
    """None if the solve passes the correctness check, else the reason.

    ``mapping`` and ``nf_obj`` are given for extended forms: the point is
    mapped back to ``nf_problem`` and the objective compared with ``nf_obj``.
    """
    code = STATUS_CODES[res.status]
    if code != "co":
        return f"status {code}"
    point = res.point if mapping is None else map_back(mapping, res)
    try:
        cert = classify_certificate(nf_problem, point, tol=CHECK_TOL)
    except AmbiguousCertificateError as exc:
        return f"certificate: {exc}"
    if cert.kind is not CertificateKind.OPTIMAL:
        return f"certificate {cert.kind.value}"
    if mapping is not None:
        gap = objective_rel_diff(nf_obj, res.primal_obj)
        if not gap < CHECK_TOL:
            return f"objective differs from the nf twin by {gap:.3e}"
    return None


def highest_percentile(n):
    """Highest whole percentile with at least ten of n samples beyond it, or None."""
    if n <= 10:
        return None
    return (100 * (n - 10)) // n


def cell_label(spec):
    parts = [spec.family, f"k={spec.k}"]
    if spec.m is not None:
        parts.append(f"m={spec.m}")
    if spec.variant:
        parts.append(spec.variant)
    parts.append(f"seed={spec.seed}")
    return " ".join(parts)


def print_cell_table(bench, passes):
    """Per-cell wall solve time, iterations and ef/nf time ratio (informational)."""
    median_s = {
        spec: statistics.median(p["results"][i]["solve_s"] for p in passes)
        for i, spec in enumerate(bench.specs)
    }
    print(f"{'cell':34s} {'form':7s} {'wall_s':>9s} {'iters':>6s} {'ef/nf':>7s}")
    for i, spec in enumerate(bench.specs):
        rec = passes[0]["results"][i]
        ratio = ""
        if spec.form != "nf":
            nf = replace(spec, form="nf")
            nf_s = median_s[nf] if nf in median_s else bench.twins.get(nf, (0, 0, 0))[2]
            ratio = f"{median_s[spec] / nf_s:.2f}" if nf_s else ""
        status = "" if rec["error"] is None else f"  FAIL {rec['error']}"
        print(
            f"{cell_label(spec):34s} {spec.form:7s} {median_s[spec]:9.4f} "
            f"{rec['iters']:6d} {ratio:>7s}{status}"
        )


def run_workload(args):
    workload = WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    bench = Bench(workload, args.seed, tracer)
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(
        f"workload {workload.name}, seed {args.seed} (default {DEFAULT_SEED}), "
        f"{len(bench.specs)} solves per pass: {workload.why}"
    )

    warm = bench.warm_up()
    passes = []
    min_passes = 2 if tracer else 1
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(bench.run_pass(len(passes), trace=bool(tracer) and len(passes) % 2 == 1))
        now = time.perf_counter()
        # stop before a pass that would run past the measuring time
        if len(passes) >= min_passes and (now - t_start) + (now - t0) > args.seconds:
            break

    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    print_cell_table(bench, plain)

    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = warm["failed"] == 0 and failed == 0
    for p in traced:
        for spec in bench.mismatches(p):
            correct = False
            print(f"TRACE MISMATCH {cell_label(spec)} {spec.form}: iterations or objective changed")

    solve_times = [p["solve_s"] for p in plain]
    solve_s = statistics.median(solve_times)
    iters = statistics.median(p["iters"] for p in plain)
    setup_s = statistics.median(p["setup_s"] for p in plain)
    wall_s = statistics.median(p["solve_wall_s"] for p in plain)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    pct = highest_percentile(len(solve_times))
    pct_text = (
        f"p{pct} {statistics.quantiles(solve_times, n=100)[pct - 1]:.4f} s"
        if pct
        else "no percentile has ten passes beyond it"
    )
    print(f"solve_s      {solve_s:.4f} s      median of {len(solve_times)} passes; {pct_text}")
    print("solve_s of each pass: " + " ".join(f"{t:.4f}" for t in solve_times))
    print(
        f"solve_wall_s {wall_s:.4f} s      median wall time; host slowdown of each pass: "
        + " ".join(f"{p['slowdown']:.3f}" for p in plain)
    )
    print(f"iters        {iters:.0f} count   per pass")
    print(f"setup_s      {setup_s:.4f} s      median of {len(plain)} passes")
    print(
        f"fail_frac    {failed / attempted:.4f} ratio  "
        f"{failed} of {attempted} timed solves failed ({warm['failed']} in warm-up)"
    )
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")

    if not tracer:
        metrics = {
            "solve_s": (solve_s, "s"),
            "iters": (iters, "count"),
            "setup_s": (setup_s, "s"),
            "pass_frac": (1.0 - failed / attempted, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        layers = {
            key: statistics.median(p["layers"][key] for p in traced)
            for key in traced[0]["layers"]
        }
        traced_s = statistics.median(p["solve_s"] for p in traced)
        layers.update(
            {
                "trace.solve_s": traced_s,
                "trace.untraced_solve_s": solve_s,
                "trace.overhead_s": traced_s - solve_s,
                "trace.spans": len(tracer.spans),
            }
        )
        OUT_DIR.mkdir(exist_ok=True)
        span_file = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.dump(span_file)
        print(f"trace overhead {traced_s - solve_s:.4f} s per pass; spans written to {span_file}")
        metrics = {key: (value, spans.unit(key)) for key, value in layers.items()}
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": v, "unit": u} for key, (v, u) in metrics.items()},
    }


def run_all(args):
    """Every workload in its own fresh process, so peak memory is per workload."""
    summary = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        print(f"== {name}")
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with status {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
    print("== summary")
    for name, res in summary.items():
        row = "  ".join(f"{k}={m['value']:.4g} {m['unit']}" for k, m in res["metrics"].items())
        fail_frac = res["failed"] / res["attempted"]
        print(f"{name:11s} correct={res['correct']}  fail_frac={fail_frac:.4g} ratio  {row}")
    print(json.dumps({"correct": all(r["correct"] for r in summary.values()), "workloads": summary}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
