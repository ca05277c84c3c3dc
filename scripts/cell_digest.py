#!/usr/bin/env python3
"""Print one digest line per benchmark cell, for bitwise comparison of two trees.

Usage (from the repository root):

    python3 scripts/cell_digest.py --seeds 0 1 > change.txt
    python3 scripts/cell_digest.py --seeds 0 1 --src ../parent/src > parent.txt
    diff parent.txt change.txt

Every cell of every workload in ``perfbench/workloads.py`` is built and
solved once at each workload seed, with default options and one BLAS thread.
A line holds the workload, the cell, the status, the iteration count,
``repr(primal_obj)`` and a SHA-256 of the returned x, y, z and s. Two trees
whose lines are identical took the same path to the same bits.
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench/run.py: results must not depend on threading
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def digest(point):
    h = hashlib.sha256()
    for v in (point.x, point.y, point.z, point.s):
        h.update(v.tobytes())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0])
    ap.add_argument("--src", type=Path, default=ROOT / "src", help="natcone sources to solve with")
    args = ap.parse_args(argv)
    if not (args.src / "natcone" / "__init__.py").is_file():
        ap.error(f"natcone sources not found under {args.src}")
    sys.path.insert(0, str(args.src))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    from natcone.bench import InstanceSpec, build_instance
    from natcone.solver import solve

    for seed in args.seeds:
        for name, workload in WORKLOADS.items():
            for cell in workload.instances(seed):
                problem, _ = build_instance(InstanceSpec(*cell))
                res = solve(problem)
                label = " ".join(str(v) for v in cell)
                print(
                    f"{name} {label}: {res.status.value} {res.iterations} "
                    f"{res.primal_obj!r} {digest(res.point)}",
                    flush=True,
                )


if __name__ == "__main__":
    main()
