"""Command-line benchmark runner.

Example:

    natcone-bench portfolio --k 16 --form nf --seed 3 --out results.csv
    natcone-bench expdesign --k 5 --variant log --form ef-exp
    natcone-bench polymin --m 2 --k 3 --form ef-exp --tol 1e-7
"""

from __future__ import annotations

import argparse
import sys

from .bench import CSV_HEADER, FAMILIES, InstanceSpec, record_row, run_matrix, write_csv
from .solver import SolveOptions


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="natcone-bench",
        description="Generate one benchmark instance, solve it, and print a CSV record.",
    )
    ap.add_argument(
        "family",
        choices=list(FAMILIES) + ["expdesign-rt", "expdesign-log"],
        help="benchmark family",
    )
    ap.add_argument("--k", type=int, required=True, help="primary size parameter")
    ap.add_argument("--m", type=int, default=None, help="secondary size parameter")
    ap.add_argument("--variant", choices=["rt", "log"], default=None)
    ap.add_argument("--form", choices=["nf", "ef-exp", "ef-sec"], default="nf")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol", type=float, default=1e-7, help="feasibility and gap tolerance")
    ap.add_argument("--time-limit", type=float, default=1800.0, help="seconds per solve")
    ap.add_argument("--max-iters", type=int, default=500)
    ap.add_argument("--out", default=None, help="write records to this CSV file")
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        spec = InstanceSpec(
            family=args.family,
            k=args.k,
            m=args.m,
            variant=args.variant,
            seed=args.seed,
            form=args.form,
        )
    except ValueError as exc:
        ap.error(str(exc))
    options = SolveOptions(
        tol=args.tol,
        max_iters=args.max_iters,
        time_limit=args.time_limit,
    )
    records = run_matrix([spec], options)
    print(CSV_HEADER)
    for rec in records:
        print(record_row(rec))
    if args.out:
        write_csv(records, args.out)
    return 0 if records and records[0].status == "co" else 1


if __name__ == "__main__":
    sys.exit(main())
