"""Seeded benchmark instance generators, a run matrix, and CSV output.

Five problem families are generated in their exotic-cone natural form:
portfolio rebalancing (max-norm and l1-norm blocks), matrix completion
(spectral-norm and geometric-mean blocks), multi-response regression
(nuclear-norm and Euclidean-norm blocks), D-optimal experiment design
(root-determinant or perspective-logdet blocks), and polynomial minimization
(a weighted SOS moment block). Each instance can also be built in an extended
form over standard cones via the bridge layer.

Random data is drawn from one splittable stream keyed by (family, sizes,
seed), with one substream per data block, so regenerating one block cannot
shift the others. Scale-free entries are standard normal; positive entries
are uniform on (0.1, 1.1).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import bridges, interp
from .cones import (
    EpiNorm2,
    EpiNormInf,
    EpiNormInfDual,
    EpiNormSpectral,
    EpiNormSpectralDual,
    HypoGeomean,
    HypoPerLogDet,
    HypoRootDet,
    WsosDual,
)
from .model import ConicProblem, objective_rel_diff
from .solver import SolveOptions, SolveStatus, solve
from .sym import sdim, svec

__all__ = [
    "InstanceSpec",
    "RunRecord",
    "gen_portfolio",
    "gen_matcompletion",
    "gen_matregression",
    "gen_expdesign",
    "gen_polymin",
    "build_instance",
    "run_matrix",
    "write_csv",
    "CSV_HEADER",
    "STATUS_CODES",
    "EF_FORM_OPTIONS",
]

FAMILIES = ("portfolio", "matcompletion", "matregression", "expdesign", "polymin")
FORMS = ("nf", "ef-exp", "ef-sec")

_FAMILY_CODE = {name: i + 1 for i, name in enumerate(FAMILIES)}
_VARIANT_CODE = {None: 0, "rt": 1, "log": 2}

STATUS_CODES = {
    SolveStatus.OPTIMAL: "co",
    SolveStatus.TIME_LIMIT: "tl",
    SolveStatus.SLOW_PROGRESS: "sp",
    SolveStatus.NUMERICAL_ERROR: "er",
    SolveStatus.ITERATION_LIMIT: "il",
    SolveStatus.PRIMAL_INFEASIBLE: "pi",
    SolveStatus.DUAL_INFEASIBLE: "di",
}

# The l1-norm block uses the equality-free slack rewrite in benchmark runs;
# its variable/equality footprint is what the family size formulas count.
EF_FORM_OPTIONS = {
    "ef-exp": bridges.EFOptions(geomean_mode="exp", linf_dual_mode="slack"),
    "ef-sec": bridges.EFOptions(geomean_mode="sec", linf_dual_mode="slack"),
}

CSV_HEADER = (
    "family,k,m,variant,form,seed,nu,n,p,q,status,converged,"
    "iterations,solve_seconds,primal_obj,eps,eps_tilde"
)


def _streams(family, k, m, variant, seed, count):
    root = np.random.SeedSequence(
        [int(seed), _FAMILY_CODE[family], int(k), int(m or 0), _VARIANT_CODE[variant]]
    )
    return [np.random.default_rng(ss) for ss in root.spawn(count)]


@dataclass(frozen=True)
class InstanceSpec:
    """One benchmark cell: family, sizes, seed and formulation."""

    family: str
    k: int
    m: int | None = None
    variant: str | None = None
    seed: int = 0
    form: str = "nf"

    def __post_init__(self):
        fam = self.family
        if fam in ("expdesign-rt", "expdesign-log"):
            object.__setattr__(self, "family", "expdesign")
            object.__setattr__(self, "variant", fam.split("-")[1])
            fam = "expdesign"
        if fam not in FAMILIES:
            raise ValueError(f"unknown family {fam!r}")
        if self.form not in FORMS:
            raise ValueError(f"unknown form {self.form!r}")
        if fam == "expdesign" and self.variant not in ("rt", "log"):
            raise ValueError("expdesign requires variant 'rt' or 'log'")
        if fam in ("matcompletion", "matregression", "polymin") and self.m is None:
            raise ValueError(f"{fam} requires m")


@dataclass
class RunRecord:
    instance: InstanceSpec
    nu: float
    n: int
    p: int
    q: int
    status: str
    converged: bool
    iterations: int
    solve_seconds: float
    primal_obj: float
    eps: float
    eps_tilde: float = float("nan")


def gen_portfolio(k: int, seed: int = 0) -> ConicProblem:
    """Risk-constrained portfolio rebalancing (k even, k >= 4)."""
    if k < 4 or k % 2:
        raise ValueError("k must be even and >= 4")
    l = k // 2
    rng_g, rng_sigma, rng_f = _streams("portfolio", k, None, None, seed, 3)
    g = rng_g.uniform(0.1, 1.1, size=k)
    sigma_half = rng_sigma.standard_normal((k, k))
    F = rng_f.standard_normal((l, k))
    gamma = float(np.sum(np.abs(sigma_half @ np.ones(k)))) / k
    A = np.vstack([np.ones((1, k)), F])
    b = np.zeros(1 + l)
    G = np.zeros((2 * k + 2, k))
    h = np.zeros(2 * k + 2)
    h[0] = 1.0
    G[1 : k + 1] = -np.eye(k)
    h[k + 1] = gamma
    G[k + 2 :] = -sigma_half
    return ConicProblem(-g, A, b, G, h, [EpiNormInf(k), EpiNormInfDual(k)])


def gen_matcompletion(k: int, m: int, seed: int = 0) -> ConicProblem:
    """Spectral-norm matrix completion with a geometric-mean side constraint."""
    if k < 2 or m < 1:
        raise ValueError("need k >= 2 and m >= 1")
    l = m * k
    rng_pat, rng_val = _streams("matcompletion", k, m, None, seed, 2)
    # Resample on degenerate patterns: no unknown entries at all, or a fully
    # unknown row/column. (Fully known columns are unavoidable at these
    # shapes: a height-k column is all-known with probability 0.8^k.)
    for _ in range(1000):
        known = rng_pat.random((k, l)) < 0.8
        if known.all():
            continue
        if (~known).all(axis=1).any() or (~known).all(axis=0).any():
            continue
        break
    else:
        raise RuntimeError("could not draw a usable sparsity pattern")
    vals = rng_val.standard_normal(int(known.sum()))
    n = 1 + k * l
    ki, kj = np.nonzero(known)  # row-major scan of the pattern
    p = ki.size
    A = np.zeros((p, n))
    A[np.arange(p), 1 + ki + k * kj] = 1.0
    b = vals
    ui, uj = np.nonzero(~known)
    d_unk = ui.size
    G = np.zeros((n + 1 + d_unk, n))
    h = np.zeros(n + 1 + d_unk)
    G[:n] = -np.eye(n)
    h[n] = 1.0
    G[n + 1 + np.arange(d_unk), 1 + ui + k * uj] = -1.0
    c = np.zeros(n)
    c[0] = 1.0
    return ConicProblem(c, A, b, G, h, [EpiNormSpectral(k, l), HypoGeomean(d_unk)])


def gen_matregression(k: int, m: int, seed: int = 0) -> ConicProblem:
    """Multi-response regression with nuclear-norm loss and l2 regularization."""
    if m < 1 or k < m:
        raise ValueError("need k >= m >= 1")
    l = m
    gamma = 0.1
    rng_x, rng_y = _streams("matregression", k, m, None, seed, 2)
    X = rng_x.standard_normal((l, k))
    Y = rng_y.standard_normal((m, k))
    n = 2 + m * l
    c = np.zeros(n)
    c[0] = 1.0
    c[1] = gamma
    q1 = 1 + m * k
    q2 = 1 + m * l
    G = np.zeros((q1 + q2, n))
    h = np.zeros(q1 + q2)
    G[0, 0] = -1.0
    h[1:q1] = Y.ravel(order="F")
    # (F X)_{i,j} depends on row i of F and column j of X
    for jcol in range(k):
        for irow in range(m):
            row = 1 + irow + m * jcol
            G[row, 2 + irow + m * np.arange(l)] = X[:, jcol]
    G[q1, 1] = -1.0
    G[q1 + 1 :, 2:] = -np.eye(m * l)
    return ConicProblem(
        c, np.zeros((0, n)), np.zeros(0), G, h, [EpiNormSpectralDual(m, k), EpiNorm2(m * l)]
    )


def gen_expdesign(k: int, variant: str = "rt", seed: int = 0) -> ConicProblem:
    """D-optimal experiment design; 'rt' and 'log' objectives share optima."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if variant not in ("rt", "log"):
        raise ValueError("variant must be 'rt' or 'log'")
    m = 2 * k
    j_total = 2 * k
    l = 5
    # the variant is not part of the stream key: both objectives see the
    # same menu F and therefore share their optimal trial allocations
    (rng_f,) = _streams("expdesign", k, None, None, seed, 1)
    F = rng_f.standard_normal((k, m))
    n = 1 + m
    c = np.zeros(n)
    c[0] = -1.0
    A = np.zeros((1, n))
    A[0, 1:] = 1.0
    b = np.array([float(j_total)])
    q1 = 1 + m
    sd = sdim(k)
    extra = 1 if variant == "log" else 0
    G = np.zeros((q1 + 1 + extra + sd, n))
    h = np.zeros(q1 + 1 + extra + sd)
    h[0] = l / 2.0
    h[1:q1] = -l / 2.0
    G[1:q1, 1:] = -np.eye(m)
    G[q1, 0] = -1.0
    if variant == "log":
        h[q1 + 1] = 1.0
    base = q1 + 1 + extra
    for a in range(m):
        G[base:, 1 + a] = -svec(np.outer(F[:, a], F[:, a]), sym_tol=np.inf)
    det_cone = HypoPerLogDet(k) if variant == "log" else HypoRootDet(k)
    return ConicProblem(c, A, b, G, h, [EpiNormInf(m), det_cone])


def gen_polymin(m: int, k: int, seed: int = 0, max_points: int = 5000) -> ConicProblem:
    """Lower bound of a random degree-2k polynomial over the unit box."""
    ip = interp.build_interp(m, k, max_points=max_points)
    (rng_f,) = _streams("polymin", k, m, None, seed, 1)
    fbar = rng_f.standard_normal(ip.U)
    A = np.ones((1, ip.U))
    b = np.ones(1)
    G = -np.eye(ip.U)
    h = np.zeros(ip.U)
    return ConicProblem(fbar, A, b, G, h, [WsosDual(ip.P)])


def _generate(spec: InstanceSpec) -> ConicProblem:
    f = spec.family
    if f == "portfolio":
        return gen_portfolio(spec.k, spec.seed)
    if f == "matcompletion":
        return gen_matcompletion(spec.k, spec.m, spec.seed)
    if f == "matregression":
        return gen_matregression(spec.k, spec.m, spec.seed)
    if f == "expdesign":
        return gen_expdesign(spec.k, spec.variant, spec.seed)
    if f == "polymin":
        return gen_polymin(spec.m, spec.k, spec.seed)
    raise ValueError(f"unknown family {f!r}")


def build_instance(spec: InstanceSpec):
    """Build the natural form and, per spec.form, its extended form.

    Returns (problem, mapping); mapping is None for the natural form.
    """
    nf = _generate(spec)
    if spec.form == "nf":
        return nf, None
    ef, mapping = bridges.extend(nf, EF_FORM_OPTIONS[spec.form])
    return ef, mapping


def run_matrix(specs, options: SolveOptions | None = None):
    """Solve every cell and collect records; pairs each converged extended
    run with its natural-form twin to report the objective relative gap."""
    options = options or SolveOptions()
    records = []
    for spec in specs:
        t0 = time.perf_counter()
        try:
            problem, _ = build_instance(spec)
        except Exception:
            records.append(
                RunRecord(spec, float("nan"), 0, 0, 0, "er", False, 0,
                          time.perf_counter() - t0, float("nan"), float("nan"))
            )
            continue
        res = solve(problem, options)
        records.append(
            RunRecord(
                instance=spec,
                nu=problem.nu,
                n=problem.n,
                p=problem.p,
                q=problem.q,
                status=STATUS_CODES[res.status],
                converged=bool(np.isfinite(res.eps) and res.eps < 1e-5),
                iterations=res.iterations,
                solve_seconds=res.solve_seconds,
                primal_obj=res.primal_obj,
                eps=res.eps,
            )
        )
    by_key = {}
    for rec in records:
        s = rec.instance
        key = (s.family, s.k, s.m, s.variant, s.seed)
        by_key.setdefault(key, {})[s.form] = rec
    for group in by_key.values():
        nf = group.get("nf")
        if nf is None or not nf.converged:
            continue
        for form, rec in group.items():
            if form != "nf" and rec.converged:
                rec.eps_tilde = objective_rel_diff(nf.primal_obj, rec.primal_obj)
    return records


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return "" if not np.isfinite(v) else f"{v:.10g}"
    return str(v)


def record_row(rec: RunRecord) -> str:
    s = rec.instance
    cells = [
        s.family,
        s.k,
        "" if s.m is None else s.m,
        "" if s.variant is None else s.variant,
        s.form,
        s.seed,
        _fmt(rec.nu),
        rec.n,
        rec.p,
        rec.q,
        rec.status,
        rec.converged,
        rec.iterations,
        _fmt(rec.solve_seconds),
        _fmt(rec.primal_obj),
        _fmt(rec.eps),
        _fmt(rec.eps_tilde),
    ]
    return ",".join(_fmt(cvar) if not isinstance(cvar, str) else cvar for cvar in cells)


def write_csv(records, path) -> None:
    lines = [
        "# natcone benchmark results",
        "# random data: positive entries ~ U(0.1, 1.1), scale-free entries ~ N(0, 1)",
        CSV_HEADER,
    ]
    lines += [record_row(rec) for rec in records]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
