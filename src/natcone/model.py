"""Conic standard form, residual checks and certificate classification.

Problems are stated over x in R^n as

    minimize    c'x
    subject to  b - A x = 0            (p equality rows)
                h - G x in K           (q cone rows)

where K is a Cartesian product of blocks from ``natcone.cones``. The dual,
over (y, z), maximizes -b'y - h'z subject to c + A'y + G'z = 0 and z in K*.
A conic certificate is one of: a complementary solution (optimality), a dual
improving ray (primal infeasibility), or a primal improving ray (dual
infeasibility).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum

import numpy as np
import scipy.sparse as sp

from . import cones as _cones
from .sym import sdim, smat, svec  # noqa: F401  (re-exported)

__all__ = [
    "ConicProblem",
    "PrimalDualPoint",
    "Certificate",
    "CertificateKind",
    "ValidationError",
    "AmbiguousCertificateError",
    "sdim",
    "svec",
    "smat",
    "validate",
    "residual_terms",
    "residual_eps",
    "objective_rel_diff",
    "classify_certificate",
    "problem_to_json",
    "problem_from_json",
]


class ValidationError(ValueError):
    """Problem data violates the conic-form invariants."""


class AmbiguousCertificateError(RuntimeError):
    """Point matches no certificate branch at the given tolerance."""


def _as_dense(M, what: str) -> np.ndarray:
    """Accept dense arrays, scipy sparse matrices, or coordinate triplets."""
    if sp.issparse(M):
        return np.asarray(M.todense(), dtype=float)
    if isinstance(M, dict):
        rows, cols, vals = M["rows"], M["cols"], M["vals"]
        shape = tuple(M["shape"])
        out = np.zeros(shape)
        np.add.at(out, (np.asarray(rows, dtype=int), np.asarray(cols, dtype=int)), vals)
        return out
    if isinstance(M, tuple) and len(M) == 4:
        return _as_dense({"rows": M[0], "cols": M[1], "vals": M[2], "shape": M[3]}, what)
    out = np.array(M, dtype=float)
    if out.ndim != 2:
        raise ValidationError(f"{what} must be a matrix, got ndim={out.ndim}")
    return out


def _inf_norm(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


class ConicProblem:
    """Immutable conic problem data (c, A, b, G, h, cones).

    A and G may be given dense, as scipy sparse matrices, or as coordinate
    triplets ``{"rows", "cols", "vals", "shape"}``; they are stored dense.
    """

    def __init__(self, c, A, b, G, h, cones):
        self.c = np.asarray(c, dtype=float).ravel()
        self.b = np.asarray(b, dtype=float).ravel()
        self.h = np.asarray(h, dtype=float).ravel()
        self.A = _as_dense(A, "A")
        self.G = _as_dense(G, "G")
        self.cones = tuple(cones)
        validate(self)
        for arr in (self.c, self.b, self.h, self.A, self.G):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.c.size

    @property
    def p(self) -> int:
        return self.b.size

    @property
    def q(self) -> int:
        return self.h.size

    @property
    def nu(self) -> float:
        return float(sum(K.nu for K in self.cones))

    def cone_slices(self):
        out = []
        off = 0
        for K in self.cones:
            out.append(slice(off, off + K.dim))
            off += K.dim
        return out

    def __repr__(self):
        return f"ConicProblem(n={self.n}, p={self.p}, q={self.q}, cones={len(self.cones)})"


def validate(problem: ConicProblem) -> None:
    """Check the conic-form invariants; raises ValidationError on failure."""
    n, p, q = problem.n, problem.p, problem.q
    if problem.A.shape != (p, n):
        raise ValidationError(f"A has shape {problem.A.shape}, expected {(p, n)}")
    if problem.G.shape != (q, n):
        raise ValidationError(f"G has shape {problem.G.shape}, expected {(q, n)}")
    if q > 0 and not problem.cones:
        raise ValidationError("empty cone list but q > 0")
    total = sum(K.dim for K in problem.cones)
    if total != q:
        raise ValidationError(f"cone dimensions sum to {total}, expected q={q}")
    for name in ("c", "b", "h", "A", "G"):
        if not np.all(np.isfinite(getattr(problem, name))):
            raise ValidationError(f"non-finite entries in {name}")


@dataclass
class PrimalDualPoint:
    """A primal-dual point (x, y, z, s); s pairs with the cone rows, z with K*."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    s: np.ndarray

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float).ravel()
        self.y = np.asarray(self.y, dtype=float).ravel()
        self.z = np.asarray(self.z, dtype=float).ravel()
        self.s = np.asarray(self.s, dtype=float).ravel()


class CertificateKind(Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"


@dataclass
class Certificate:
    kind: CertificateKind
    point: PrimalDualPoint
    residual: float


def residual_terms(problem: ConicProblem, x, y, z, s):
    """The four scaled residual terms (t1, t2, t3, t4) at a point.

    They are dual equality, primal equality, primal cone rows, and the
    duality gap, each normalized by 1 plus the magnitude of its data.
    """
    c, b, h = problem.c, problem.b, problem.h
    A, G = problem.A, problem.G
    t1 = _inf_norm(A.T @ y + G.T @ z + c) / (1.0 + _inf_norm(c))
    t2 = _inf_norm(-A @ x + b) / (1.0 + _inf_norm(b))
    t3 = _inf_norm(-G @ x + h - s) / (1.0 + _inf_norm(h))
    gap = float(b @ y + h @ z)
    t4 = abs(float(c @ x) + gap) / (1.0 + abs(gap))
    return t1, t2, t3, t4


def residual_eps(problem: ConicProblem, point: PrimalDualPoint) -> float:
    """Normalized convergence residual: max of the four ``residual_terms``.

    Returns +inf if any term fails to be finite.
    """
    eps = max(residual_terms(problem, point.x, point.y, point.z, point.s))
    return eps if np.isfinite(eps) else float("inf")


def objective_rel_diff(g1: float, g2: float) -> float:
    """Relative difference |g1 - g2| / (1 + max(|g1|, |g2|)) of two objectives."""
    if not (np.isfinite(g1) and np.isfinite(g2)):
        raise ValueError("objective values must be finite")
    return abs(g1 - g2) / (1.0 + max(abs(g1), abs(g2)))


def _point_in_cones(problem, v, tol, dual):
    for K, sl in zip(problem.cones, problem.cone_slices()):
        ok = K.in_dual_closure(v[sl], tol) if dual else K.in_closure(v[sl], tol)
        if not ok:
            return False
    return True


def classify_certificate(
    problem: ConicProblem, point: PrimalDualPoint, tol: float = 1e-5
) -> Certificate:
    """Classify a point as an optimality or infeasibility certificate.

    Improving rays are rescaled so the strict inequality they violate equals
    one before the tolerance tests, which keeps acceptance scale-free. Raises
    AmbiguousCertificateError when no branch passes.
    """
    eps = residual_eps(problem, point)
    if (
        eps < tol
        and _point_in_cones(problem, point.s, tol, dual=False)
        and _point_in_cones(problem, point.z, tol, dual=True)
    ):
        return Certificate(CertificateKind.OPTIMAL, point, eps)

    obj = float(problem.c @ point.x)
    if obj < 0.0:
        x = point.x / (-obj)
        ray_s = -problem.G @ x
        viol = max(
            _inf_norm(problem.A @ x),
            0.0 if _point_in_cones(problem, ray_s, tol, dual=False) else np.inf,
        )
        if viol <= tol:
            scaled = PrimalDualPoint(x, point.y, point.z, ray_s)
            return Certificate(CertificateKind.DUAL_INFEASIBLE, scaled, viol)

    gap = -float(problem.b @ point.y) - float(problem.h @ point.z)
    if gap > 0.0:
        y = point.y / gap
        z = point.z / gap
        viol = max(
            _inf_norm(problem.A.T @ y + problem.G.T @ z),
            0.0 if _point_in_cones(problem, z, tol, dual=True) else np.inf,
        )
        if viol <= tol:
            scaled = PrimalDualPoint(point.x, y, z, point.s)
            return Certificate(CertificateKind.PRIMAL_INFEASIBLE, scaled, viol)

    raise AmbiguousCertificateError(
        f"no certificate branch passes at tol={tol} (eps={eps:.3e})"
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _matrix_payload(M: np.ndarray) -> dict:
    nnz = int(np.count_nonzero(M))
    if M.size and nnz / M.size < 0.25:
        rows, cols = np.nonzero(M)
        return {
            "triplets": {
                "rows": rows.tolist(),
                "cols": cols.tolist(),
                "vals": M[rows, cols].tolist(),
                "shape": list(M.shape),
            }
        }
    return {"dense": M.tolist()}


def _matrix_from_payload(payload: dict) -> np.ndarray:
    if "dense" in payload:
        return np.array(payload["dense"], dtype=float)
    return _as_dense(payload["triplets"], "matrix")


def problem_to_json(problem: ConicProblem) -> str:
    doc = {
        "n": problem.n,
        "p": problem.p,
        "q": problem.q,
        "c": problem.c.tolist(),
        "b": problem.b.tolist(),
        "h": problem.h.tolist(),
        "A": _matrix_payload(problem.A),
        "G": _matrix_payload(problem.G),
        "cones": [{"kind": K.tag, **K.params()} for K in problem.cones],
    }
    return json.dumps(doc)


def problem_from_json(text: str) -> ConicProblem:
    doc = json.loads(text)
    cones = [_cones.make_cone(entry.pop("kind"), **entry) for entry in doc["cones"]]
    return ConicProblem(
        doc["c"],
        _matrix_from_payload(doc["A"]),
        doc["b"],
        _matrix_from_payload(doc["G"]),
        doc["h"],
        cones,
    )
