"""Homogeneous self-dual embedding primal-dual interior-point method.

The embedding augments the conic problem with scaling variables (tau, kappa)
so that a single solve yields either an approximate complementary solution or
an improving ray. The iteration alternates prediction steps (drive residuals
and complementarity toward zero) with centering steps (return toward the
central path at the current complementarity level mu), in the style of
barrier methods that need only interior-point, feasibility, gradient and
Hessian oracles for each cone block.

A block's barrier lives on s, or on z for a cone that carries its dual
cone's barrier. ``_sides`` is the one place that swap is stated: the initial
point, the domain test, the oracles, the complementarity rows and the
proximity measure all read a block's two sides through it. ``_KKTSystem``
eliminates the dz of every block: a dual-barrier block enters through
products with the inverse of its Hessian, which ``_inv_hess_prod`` takes from
the cone's closed form or else from a Cholesky of the Hessian, so the
direction system is n x n. A product-form block, whose cone has closed-form
Hessian products (``hess_prod`` and ``inv_hess_prod``: the max-norm and
spectral-norm families and their duals), is served by those products alone:
``_Oracles`` holds no dense Hessian for it, but the factor its products at
that iterate share, and ``_hess_prod`` applies H in the Schur assembly of a
primal-barrier block and in the residuals of the refinement step. The line
search orders each block's membership tests by cost.

``solve`` iterates on the result of a chain of setup transforms:
``_eliminate`` removes the equality rows with one QR of A' (x = x0 + Q2 w),
then ``_stacked`` groups each run of adjacent equal blocks of a stackable cone
into one block (``cones._Run``) whose oracles evaluate the whole run at once.
Stacking keeps the rows in order, so it changes only the number of oracle
calls, and the neighbourhood test still checks each original block's
complementarity product. The direction layer (``compute_directions``,
``_KKTSystem`` and ``line_search``) sees only this reduced, stacked problem,
which has no equality rows. The ``lift`` that ``_eliminate`` returns maps
each iterate back to the original problem, where termination is judged and
the returned point is built.
"""

from __future__ import annotations

import copy
import functools
import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import ClassVar

import numpy as np
import scipy.linalg as sla

from .cones import NotInteriorError, _stack_runs
from .model import ConicProblem, PrimalDualPoint, _inf_norm, residual_eps, residual_terms

__all__ = [
    "SolveOptions",
    "SolveResult",
    "SolveStatus",
    "HSDEIterate",
    "Direction",
    "solve",
    "hsde_init",
    "hsde_residuals",
    "compute_directions",
    "line_search",
    "check_termination",
    "mu_of",
]


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    PRIMAL_INFEASIBLE = "primal_infeasible"
    DUAL_INFEASIBLE = "dual_infeasible"
    SLOW_PROGRESS = "slow_progress"
    ITERATION_LIMIT = "iteration_limit"
    TIME_LIMIT = "time_limit"
    NUMERICAL_ERROR = "numerical_error"


@dataclass
class SolveOptions:
    """Stopping rules of one solve.

    ``tol`` bounds the scaled feasibility residuals, the relative gap and
    the improving-ray residuals; ``max_iters`` caps the outer iterations and
    ``time_limit`` the wall time in seconds. The stepper's settings are
    fixed class constants, the same for every solve, so that every
    formulation of a problem is solved by the same method.
    """

    tol: float = 1e-7
    max_iters: int = 500
    time_limit: float = 1800.0

    neighborhood_beta: ClassVar[float] = 0.1
    step_backtrack: ClassVar[float] = 0.8
    max_backtracks: ClassVar[int] = 40
    min_step: ClassVar[float] = 1e-10
    centering_tol: ClassVar[float] = 0.25
    max_center_steps: ClassVar[int] = 20
    slow_progress_window: ClassVar[int] = 20
    slow_progress_factor: ClassVar[float] = 0.999

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if not math.isfinite(self.tol):
            raise ValueError("tol must be finite")
        if not isinstance(self.max_iters, numbers.Integral):
            raise ValueError("max_iters must be an integer")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if not self.time_limit >= 0.0:
            raise ValueError("time_limit must be >= 0")


@dataclass
class HSDEIterate:
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    tau: float
    s: np.ndarray
    kappa: float


@dataclass
class Direction:
    dx: np.ndarray
    dy: np.ndarray
    dz: np.ndarray
    dtau: float
    ds: np.ndarray
    dkappa: float


@dataclass
class SolveResult:
    status: SolveStatus
    point: PrimalDualPoint
    tau: float
    kappa: float
    primal_obj: float
    dual_obj: float
    iterations: int
    solve_seconds: float
    eps: float = float("nan")
    mu_history: list = field(default_factory=list)


def mu_of(problem: ConicProblem, it: HSDEIterate) -> float:
    return (float(it.s @ it.z) + it.tau * it.kappa) / (problem.nu + 1.0)


def _sides(K, s_b, z_b):
    """A block's (barrier side, other side): z_b first where K carries the dual barrier."""
    return (z_b, s_b) if K.uses_dual_barrier else (s_b, z_b)


def hsde_init(problem: ConicProblem) -> HSDEIterate:
    """Initial embedding iterate: unit scaling, cone initial points, exact centering.

    Blocks with a primal barrier get s from the cone's initial point and
    z = -grad f(s); dual-barrier blocks get z from the initial point and
    s = -grad f*(z). Either way s'z = nu per block, so mu starts at one.
    """
    s = np.empty(problem.q)
    z = np.empty(problem.q)
    for K, sl in zip(problem.cones, problem.cone_slices()):
        pt = K.initial_point()
        barrier_side, other = _sides(K, s[sl], z[sl])
        barrier_side[:] = pt
        other[:] = -K.grad(pt)
    return HSDEIterate(
        x=np.zeros(problem.n), y=np.zeros(problem.p), z=z, tau=1.0, s=s, kappa=1.0
    )


def _model_rows(problem: ConicProblem, x, y, z, tau, s, kappa):
    """The homogeneous model's four linear rows at (x, y, z, tau, s, kappa)."""
    c, b, h, A, G = problem.c, problem.b, problem.h, problem.A, problem.G
    return (
        A.T @ y + G.T @ z + c * tau,
        -A @ x + b * tau,
        -G @ x + h * tau - s,
        -float(c @ x) - float(b @ y) - float(h @ z) - kappa,
    )


def hsde_residuals(problem: ConicProblem, it: HSDEIterate):
    """Residuals of the homogeneous model rows (zero at an exact solution)."""
    return _model_rows(problem, it.x, it.y, it.z, it.tau, it.s, it.kappa)


# diagonal regularization added to the n x n direction system; keeps it
# nonsingular when G is rank-deficient
_STATIC_REG = 1e-10

# |diag R| of the QR of A' at or below this fraction of its largest entry
# marks a dependent equality row
_RANK_TOL = 1e-10

# mu at or below which an iterate is numerically on the boundary: the line
# search rejects it and centering stops there (mu starts at 1, and any
# tolerable terminal mu is far above this floor)
_MU_FLOOR = 1e-14


class _KKTError(RuntimeError):
    pass


def _check_domain(problem: ConicProblem, it: HSDEIterate):
    for K, sl in zip(problem.cones, problem.cone_slices()):
        if not K.barrier_domain_ok(_sides(K, it.s[sl], it.z[sl])[0]):
            raise _KKTError("iterate left the barrier domain")


class _Oracles:
    """Barrier gradients and Hessians of every block at one iterate.

    ``solve`` evaluates them once per iterate and hands the same object to
    the proximity check and to the direction computed at that iterate. A
    product-form block, one whose cone has closed-form Hessian products
    (``K._factor`` is not None: the max-norm and spectral-norm families and
    their duals), gets no dense Hessian: ``hesses`` holds None for it, and
    ``factors`` holds what its products at this point share, such as the SVD
    of a spectral block's W. The oracles do not test the barrier domain: the
    line search's interiority test on each block's barrier side is that test
    for every iterate it accepts, so ``solve`` tests only its initial
    iterate. An oracle that still fails raises _KKTError.
    """

    def __init__(self, problem: ConicProblem, it: HSDEIterate):
        self.problem = problem
        self.slices = problem.cone_slices()
        self.points = []  # each block's barrier side
        self.grads = []
        self.factors = []
        self.hesses = []
        try:
            for K, sl in zip(problem.cones, self.slices):
                pt = _sides(K, it.s[sl], it.z[sl])[0]
                f = K._factor(pt)
                self.points.append(pt)
                self.grads.append(K.grad(pt))
                self.factors.append(f)
                self.hesses.append(K.hess(pt) if f is None else None)
        except (NotInteriorError, np.linalg.LinAlgError) as exc:
            raise _KKTError("barrier oracle failed") from exc


def _hess_prod(K, pt, H, f, V):
    """H V for one block: the cone's closed form where ``_Oracles`` holds no dense H."""
    return K.hess_prod(pt, V, f) if H is None else H @ V


def _scaled_hess_prod(K, pt, H, f, mu, V):
    """mu H V for one block, through ``_hess_prod``."""
    return mu * _hess_prod(K, pt, H, f, V)


def _inv_hess_prod(K, pt, H, f, V):
    """H^-1 V for one block: the cone's closed form (given its factor f), else a Cholesky of H.

    Near convergence H has condition about 1/mu^2, where Cholesky can report
    numerical indefiniteness; H is then inverted through its
    eigendecomposition with a relative eigenvalue floor. A Hessian without a
    finite positive eigenvalue gives NaN.
    """
    X = K.inv_hess_prod(pt, V, f)
    if X is not None:
        return X
    Hs = 0.5 * (H + H.T)
    try:
        return sla.cho_solve(sla.cho_factor(Hs, check_finite=False), V, check_finite=False)
    except sla.LinAlgError:
        w, Q = np.linalg.eigh(Hs)
        if not np.all(np.isfinite(w)) or w.max() <= 0.0:
            return np.full(np.shape(V), np.nan)
        w = np.maximum(w, 1e-16 * w.max())
        return ((Q / w) @ Q.T) @ V


def _scaled_inv_hess_prod(K, pt, H, f, mu, V):
    """(mu H)^-1 V for one block, through ``_inv_hess_prod``."""
    return _inv_hess_prod(K, pt, H, f, V) / mu


def _complementarity_rhs(problem, it, oracles, mu, target):
    """Right-hand side of the linearized complementarity rows per block."""
    r5 = np.empty(problem.q)
    for K, sl, g in zip(problem.cones, oracles.slices, oracles.grads):
        other = _sides(K, it.s[sl], it.z[sl])[1]
        r5[sl] = -other if target == "predict" else -other - mu * g
    r6 = -it.tau * it.kappa if target == "predict" else mu - it.tau * it.kappa
    return r5, r6


class _KKTSystem:
    """Reduced solve of the linearized embedding equations.

    Eliminates ds (via the cone rows), dkappa (via the tau/kappa row) and the
    dz of every block, dz_b = p_b + M_b (G_b dx - h_b dtau): a primal-barrier
    block has M_b = mu H(s_b), a dual-barrier block M_b = (mu H*(z_b))^-1.
    A dense primal-barrier block multiplies by the matrix mu H. Every other
    block is a map: ``_scaled_hess_prod`` for a product-form primal-barrier
    block, ``_scaled_inv_hess_prod`` for a dual-barrier one. A map is applied
    to the columns [G_b, h_b] once per call, which gives dz_b from the kept
    columns, and to p_b's right-hand side once per solve; no dense Hessian of
    a product-form block is read. What
    remains is the n x n Schur system S = sum_b G_b' M_b G_b, statically
    regularized, LU-factored once per call and solved for two right-hand
    sides to resolve the scalar dtau equation. It takes only problems without
    equality rows, as ``_eliminate`` leaves them, so the direction's dy is
    empty.
    """

    def __init__(self, problem: ConicProblem, it: HSDEIterate, oracles: _Oracles, mu: float):
        self.problem = problem
        self.it = it
        self.mu = mu
        self.oracles = oracles
        n = problem.n
        G, h, c = problem.G, problem.h, problem.c

        # S is assembled in place, column-major so that the LU overwrites it
        S = np.zeros((n, n), order="F")
        GMh = np.zeros(n)
        hMh = 0.0
        # per block (slice, M_b, M_b [G_b, h_b], dual barrier): M_b is the
        # matrix mu H of a dense primal-barrier block, with no columns kept, or
        # the map v -> mu H v or v -> (mu H)^-1 v of any other block
        self.blocks = []
        for K, sl, pt, H, f in zip(
            problem.cones, oracles.slices, oracles.points, oracles.hesses, oracles.factors
        ):
            dual = K.uses_dual_barrier
            if dual or H is None:
                prod = _scaled_inv_hess_prod if dual else _scaled_hess_prod
                Mb = functools.partial(prod, K, pt, H, f, mu)
                MGh = Mb(np.column_stack((G[sl], h[sl])))
                MG, Mhb = MGh[:, :n], MGh[:, n]
            else:
                Mb, MGh = mu * H, None
                MG, Mhb = Mb @ G[sl], Mb @ h[sl]
            self.blocks.append((sl, Mb, MGh, dual))
            S += G[sl].T @ MG
            GMh += G[sl].T @ Mhb
            hMh += float(h[sl] @ Mhb)
        i = np.arange(n)
        S[i, i] += _STATIC_REG
        # no library finiteness checks: a non-finite S or right-hand side
        # shows up as a non-finite w2 or direction, which is tested once
        try:
            self.lu = sla.lu_factor(S, overwrite_a=True, check_finite=False)
        except sla.LinAlgError as exc:
            raise _KKTError("KKT factorization failed") from exc

        # second solve: coefficient of dtau in the reduced system
        self.w2 = w2 = sla.lu_solve(self.lu, -(c - GMh), check_finite=False)
        if not np.isfinite(w2).all():
            raise _KKTError("singular KKT system")
        # the dtau row's data and denominator are the same for every solve
        self.cp = c + GMh
        self.denom = -float(self.cp @ w2) + hMh + it.kappa / it.tau
        if not np.isfinite(self.denom) or abs(self.denom) < 1e-300:
            raise _KKTError("singular reduced system")

    def solve(self, r1, r3, r4, r5, r6) -> Direction:
        pr = self.problem
        n = pr.n
        it = self.it
        # p_b: r5_b + M_b r3_b for a primal-barrier block, M_b (r3_b + r5_b) for a dual one
        u1 = r1.copy()
        hp = 0.0
        ps = []
        for sl, Mb, MGh, dual in self.blocks:
            if dual:
                p = Mb(r3[sl] + r5[sl])
            else:
                p = r5[sl] + (Mb @ r3[sl] if MGh is None else Mb(r3[sl]))
            ps.append(p)
            u1 -= pr.G[sl].T @ p
            hp += float(pr.h[sl] @ p)
        w1 = sla.lu_solve(self.lu, u1, check_finite=False)
        u4 = r4 + hp + r6 / it.tau
        dtau = (u4 + float(self.cp @ w1)) / self.denom
        dx = w1 + dtau * self.w2
        Gdx = pr.G @ dx
        ds = -Gdx + pr.h * dtau - r3
        dz = np.empty(pr.q)
        for (sl, Mb, MGh, _), p in zip(self.blocks, ps):
            if MGh is None:
                dz[sl] = r5[sl] + Mb @ (Gdx[sl] - pr.h[sl] * dtau + r3[sl])
            else:
                dz[sl] = p + MGh[:, :n] @ dx - MGh[:, n] * dtau
        dkappa = (r6 - it.kappa * dtau) / it.tau
        if not (
            np.isfinite(dx).all()
            and np.isfinite(dz).all()
            and np.isfinite(ds).all()
            and math.isfinite(dtau)
            and math.isfinite(dkappa)
        ):
            raise _KKTError("non-finite direction")
        return Direction(dx, np.zeros(0), dz, dtau, ds, dkappa)

    def equation_residuals(self, d: Direction, r1, r3, r4, r5, r6):
        """Residuals of the full linearized system at a candidate direction."""
        pr = self.problem
        it = self.it
        row1, _, row3, row4 = _model_rows(pr, d.dx, d.dy, d.dz, d.dtau, d.ds, d.dkappa)
        e1, e3, e4 = r1 - row1, r3 - row3, r4 - row4
        e5 = np.empty(pr.q)
        orc = self.oracles
        for K, sl, pt, H, f in zip(pr.cones, orc.slices, orc.points, orc.hesses, orc.factors):
            d_barrier, d_other = _sides(K, d.ds[sl], d.dz[sl])
            e5[sl] = r5[sl] - (self.mu * _hess_prod(K, pt, H, f, d_barrier) + d_other)
        e6 = r6 - (it.kappa * d.dtau + it.tau * d.dkappa)
        return e1, e3, e4, e5, e6

    def solve_refined(self, r1, r3, r4, r5, r6) -> Direction:
        d = self.solve(r1, r3, r4, r5, r6)
        dc = self.solve(*self.equation_residuals(d, r1, r3, r4, r5, r6))
        d.dx += dc.dx
        d.dz += dc.dz
        d.dtau += dc.dtau
        d.ds += dc.ds
        d.dkappa += dc.dkappa
        return d


def compute_directions(
    problem: ConicProblem, it: HSDEIterate, target: str, oracles: _Oracles | None = None
) -> Direction:
    """Newton direction on the homogeneous model for the given target.

    ``target='predict'`` drives residuals and complementarity toward zero;
    ``target='center'`` holds the residuals and drives the complementarity
    rows to their mu-centered values. ``oracles`` are the barrier oracles
    at ``it``; when they are not given, ``it`` is tested for the barrier
    domain and they are evaluated here. ``problem`` has no equality rows, as
    ``_eliminate`` leaves it; one with rows raises ValueError.
    """
    if target not in ("predict", "center"):
        raise ValueError(f"unknown target {target!r}")
    if problem.p:
        raise ValueError("compute_directions takes a problem without equality rows")
    if oracles is None:
        _check_domain(problem, it)
        oracles = _Oracles(problem, it)
    mu = mu_of(problem, it)
    kkt = _KKTSystem(problem, it, oracles, mu)
    r5, r6 = _complementarity_rhs(problem, it, oracles, mu, target)
    if target == "predict":
        e_x, _, e_z, e_tau = hsde_residuals(problem, it)
        r1, r3, r4 = -e_x, -e_z, -e_tau
    else:
        r1, r3, r4 = np.zeros(problem.n), np.zeros(problem.q), 0.0
    return kkt.solve_refined(r1, r3, r4, r5, r6)


def _step(it: HSDEIterate, d: Direction, alpha: float) -> HSDEIterate:
    return HSDEIterate(
        x=it.x + alpha * d.dx,
        y=it.y + alpha * d.dy,
        z=it.z + alpha * d.dz,
        tau=it.tau + alpha * d.dtau,
        s=it.s + alpha * d.ds,
        kappa=it.kappa + alpha * d.dkappa,
    )


def _trial_ok(problem, trial, enforce_neighborhood):
    """Strict interiority of every block, then the neighbourhood test.

    A stacked run of blocks is tested for interiority at once, but its
    ``_products`` give one s_b'z_b/nu_b per original block, so the
    neighbourhood test is the same as on the ungrouped problem.
    """
    if trial.tau <= 0.0 or trial.kappa <= 0.0:
        return False
    prods = []
    for K, sl in zip(problem.cones, problem.cone_slices()):
        s_b, z_b = trial.s[sl], trial.z[sl]
        if K.uses_dual_barrier:
            if not K.in_dual_interior(z_b):
                return False
            if K.cheap_primal_test and not K.in_interior(s_b):
                return False
        else:
            if not K.in_interior(s_b):
                return False
            if K.cheap_dual_test and not K.in_dual_interior(z_b):
                return False
        prods.extend(K._products(s_b, z_b))
    if enforce_neighborhood:
        mu = mu_of(problem, trial)
        # reject steps that land numerically on the boundary
        if mu <= _MU_FLOOR:
            return False
        beta = SolveOptions.neighborhood_beta
        lo, hi = beta * mu, mu / beta
        prods.append(trial.tau * trial.kappa)
        if any(p < lo or p > hi for p in prods):
            return False
    return True


def line_search(
    problem: ConicProblem,
    it: HSDEIterate,
    direction: Direction,
    *,
    enforce_neighborhood: bool = True,
) -> float:
    """Backtracking step size keeping every block strictly interior.

    Starts at one and shrinks by ``SolveOptions.step_backtrack``. Interiority is tested on
    the barrier side of each block plus the opposite side whenever that test
    is cheap; with ``enforce_neighborhood`` the blockwise complementarity
    products s_b'z_b/nu_b (and tau*kappa) must stay within [beta, 1/beta]
    times the global mu. A stacked run of equal blocks is tested for
    interiority as one block, but its products stay one per original block.
    Returns 0.0 when no acceptable step exists.
    """
    alpha = 1.0
    for _ in range(SolveOptions.max_backtracks):
        trial = _step(it, direction, alpha)
        if _trial_ok(problem, trial, enforce_neighborhood):
            return alpha
        alpha *= SolveOptions.step_backtrack
        if alpha < SolveOptions.min_step:
            break
    return 0.0


def _proximity(problem, it, oracles, mu):
    """Scaled distance to the mu-center, measured in the local Hessian norms.

    A block's term psi' H^-1 psi comes from the cone's closed form where it
    has one (nonneg, second-order, PSD and perspective-log blocks and runs of
    them); every other block takes psi' ``_inv_hess_prod``(psi), which a
    product-form block (max-norm, spectral-norm and their duals) takes in
    closed form from its factor.
    """
    total = (it.tau * it.kappa - mu) ** 2
    for K, sl, pt, g, H, f in zip(
        problem.cones, oracles.slices, oracles.points, oracles.grads, oracles.hesses,
        oracles.factors,
    ):
        psi = _sides(K, it.s[sl], it.z[sl])[1] + mu * g
        quad = K.inv_hess_quad(pt, psi) if f is None else None
        total += float(psi @ _inv_hess_prod(K, pt, H, f, psi)) if quad is None else quad
    # near convergence the block Hessians are so ill-conditioned that
    # psi' H^-1 psi can round below zero or be NaN; treat that as far from
    # the center
    if not total >= 0.0:
        return float("inf")
    return float(np.sqrt(total)) / mu


def _scaled_point(it: HSDEIterate, scale: float) -> PrimalDualPoint:
    return PrimalDualPoint(it.x / scale, it.y / scale, it.z / scale, it.s / scale)


def check_termination(
    problem: ConicProblem, it: HSDEIterate, options: SolveOptions
) -> SolveStatus | None:
    """Terminal status at the current iterate, or None to continue.

    Optimality requires the four scaled residual terms within tolerance and
    tau bounded away from zero. Infeasibility requires the corresponding
    improving-ray conditions after normalizing the violated inequality to one.
    """
    c, b, h, A, G = problem.c, problem.b, problem.h, problem.A, problem.G
    if it.tau > 1e-6 * max(1.0, it.kappa):
        t1, t2, t3, t4 = residual_terms(
            problem, it.x / it.tau, it.y / it.tau, it.z / it.tau, it.s / it.tau
        )
        if max(t1, t2, t3) <= options.tol and t4 <= options.tol:
            return SolveStatus.OPTIMAL

    ray_gap = -float(b @ it.y) - float(h @ it.z)
    if ray_gap > 0.0:
        if _inf_norm(A.T @ (it.y / ray_gap) + G.T @ (it.z / ray_gap)) <= options.tol:
            return SolveStatus.PRIMAL_INFEASIBLE
    ray_obj = -float(c @ it.x)
    if ray_obj > 0.0:
        xr = it.x / ray_obj
        if (
            _inf_norm(A @ xr) <= options.tol
            and _inf_norm(G @ xr + it.s / ray_obj) <= options.tol
        ):
            return SolveStatus.DUAL_INFEASIBLE
    return None


def _finish(problem, it, status, iters, t0, mu_hist):
    elapsed = time.perf_counter() - t0
    tau = it.tau
    tau_pos = max(tau, 1e-300)  # tau may have reached zero unless optimal
    if status == SolveStatus.OPTIMAL:
        point = _scaled_point(it, tau)
    elif status == SolveStatus.PRIMAL_INFEASIBLE:
        ray_gap = -float(problem.b @ it.y) - float(problem.h @ it.z)
        point = PrimalDualPoint(it.x / tau_pos, it.y / ray_gap, it.z / ray_gap, it.s / tau_pos)
    elif status == SolveStatus.DUAL_INFEASIBLE:
        ray_obj = -float(problem.c @ it.x)
        point = PrimalDualPoint(it.x / ray_obj, it.y / tau_pos, it.z / tau_pos, it.s / ray_obj)
    else:
        point = _scaled_point(it, tau_pos)
    primal = float(problem.c @ point.x)
    dual = -float(problem.b @ point.y) - float(problem.h @ point.z)
    if status in (SolveStatus.PRIMAL_INFEASIBLE, SolveStatus.DUAL_INFEASIBLE):
        primal = dual = float("nan")
    eps = residual_eps(problem, point)
    return SolveResult(
        status=status,
        point=point,
        tau=tau,
        kappa=it.kappa,
        primal_obj=primal,
        dual_obj=dual,
        iterations=iters,
        solve_seconds=elapsed,
        eps=eps,
        mu_history=mu_hist,
    )


def _stacked(problem: ConicProblem) -> ConicProblem:
    """``problem`` with each run of equal stackable blocks as one block.

    The data arrays are shared and the rows keep their order, so iterates,
    residuals and the returned point mean the same on either problem.
    """
    blocks = _stack_runs(problem.cones)
    if len(blocks) == len(problem.cones):
        return problem
    stacked = copy.copy(problem)
    stacked.cones = blocks
    return stacked


class _InconsistentRows(Exception):
    """b is not in the range of A; ``ray`` is an iterate certifying it."""

    def __init__(self, ray: HSDEIterate):
        super().__init__("inconsistent equality rows")
        self.ray = ray


def _eliminate(problem: ConicProblem, tol: float):
    """``problem`` without its equality rows, and the map back to its iterates.

    One column-pivoted QR, A' P = [Q1 Q2] [R1 R12; 0 R22], gives the rank r
    of A (the |diag R| above ``_RANK_TOL`` times the largest), a solution
    x0 = Q1 R1^-T b[P[:r]] of A x = b and a basis Q2 of the null space of A.
    With x = x0 + Q2 w the problem becomes (Q2'c, no rows, G Q2, h - G x0,
    the same cones). ``lift`` maps an iterate (w, z, tau, s, kappa) of that
    problem to one of the original: x = tau x0 + Q2 w, y = Y (tau c + G'z)
    with Y = -P R1^-1 Q1', and the same z, tau, s and kappa. Its A row is
    zero, its other three model rows are the reduced ones (the first mapped
    by Q2), and its mu is the same. Without equality rows the problem is
    returned unchanged.

    Raises _InconsistentRows when the least-squares residual r of A x = b
    has ``|r|_inf / (1 + |b|_inf) > tol``; its ray has y = -r/|r|^2 and
    z = 0, so -b'y = 1 and A'y = 0.
    """
    if problem.p == 0:
        return problem, lambda it: it
    A, b, c, G, h = problem.A, problem.b, problem.c, problem.G, problem.h
    p, n = A.shape
    Q, R, piv = sla.qr(A.T, pivoting=True, check_finite=False)
    d = np.abs(np.diag(R))
    r = int(np.count_nonzero(d > _RANK_TOL * d[0])) if d.size else 0
    if r < p:
        # b's part outside range(A) = P range([R1 R12]'), projected out twice
        U = np.linalg.qr(R[:r].T)[0]
        res = b[piv]
        for _ in range(2):
            res = res - U @ (U.T @ res)
        if _inf_norm(res) > tol * (1.0 + _inf_norm(b)):
            y = np.empty(p)
            y[piv] = -res / float(res @ res)
            q = problem.q
            raise _InconsistentRows(
                HSDEIterate(x=np.zeros(n), y=y, z=np.zeros(q), tau=0.0, s=np.zeros(q), kappa=1.0)
            )
    Q1, Q2, R1, rows = Q[:, :r], Q[:, r:], R[:r, :r], piv[:r]
    x0 = Q1 @ sla.solve_triangular(R1, b[rows], trans="T", check_finite=False)
    Y = np.zeros((p, n))
    Y[rows] = -sla.solve_triangular(R1, Q1.T, check_finite=False)
    Yc = Y @ c
    reduced = ConicProblem(Q2.T @ c, np.zeros((0, n - r)), [], G @ Q2, h - G @ x0, problem.cones)

    def lift(it: HSDEIterate) -> HSDEIterate:
        return HSDEIterate(
            x=it.tau * x0 + Q2 @ it.x,
            y=it.tau * Yc + Y @ (G.T @ it.z),
            z=it.z,
            tau=it.tau,
            s=it.s,
            kappa=it.kappa,
        )

    return reduced, lift


def solve(problem: ConicProblem, options: SolveOptions | None = None) -> SolveResult:
    """Solve the conic problem via the homogeneous self-dual embedding.

    The setup chain runs once: ``_eliminate`` removes the equality rows,
    ``_stacked`` groups runs of equal blocks, and the iteration runs on the
    result. Each iteration takes one prediction step followed by centering
    steps until the iterate is close enough to the central path. Termination
    is judged on the original problem at the lifted iterate, and the returned
    point is the lifted iterate scaled back to problem space (divided by tau
    for complementary solutions; improving rays are normalized so the
    violated inequality equals one). Inconsistent equality rows end the
    solve at setup with a primal infeasibility certificate.
    """
    options = options or SolveOptions()
    t0 = time.perf_counter()
    try:
        reduced, lift = _eliminate(problem, options.tol)
    except _InconsistentRows as exc:
        return _finish(problem, exc.ray, SolveStatus.PRIMAL_INFEASIBLE, 0, t0, [])
    reduced = _stacked(reduced)
    it = hsde_init(reduced)
    mu_hist = [mu_of(reduced, it)]

    def terminal(it):
        return check_termination(problem, lift(it), options)

    def finish(it, status, iters):
        return _finish(problem, lift(it), status, iters, t0, mu_hist)

    stall_count = 0
    oracles = None  # barrier oracles at ``it`` once evaluated, else None
    checked = False  # ``it`` already passed check_termination without a status

    for outer in range(1, options.max_iters + 1):
        if not checked:
            status = terminal(it)
            if status is not None:
                return finish(it, status, outer - 1)
        if time.perf_counter() - t0 > options.time_limit:
            return finish(it, SolveStatus.TIME_LIMIT, outer - 1)

        try:
            if oracles is None:
                # every later iterate passed the line search's domain test
                if outer == 1:
                    _check_domain(reduced, it)
                oracles = _Oracles(reduced, it)
            d = compute_directions(reduced, it, "predict", oracles)
            alpha = line_search(reduced, it, d, enforce_neighborhood=True)
            if alpha <= 0.0:
                return finish(it, SolveStatus.NUMERICAL_ERROR, outer - 1)
            it, oracles = _step(it, d, alpha), None
            status = terminal(it)
            if status is not None:
                return finish(it, status, outer)
            checked = True

            for _ in range(SolveOptions.max_center_steps):
                oracles = _Oracles(reduced, it)
                mu = mu_of(reduced, it)
                if mu <= _MU_FLOOR:
                    break
                if _proximity(reduced, it, oracles, mu) <= SolveOptions.centering_tol:
                    break
                dc = compute_directions(reduced, it, "center", oracles)
                ac = line_search(reduced, it, dc, enforce_neighborhood=False)
                if ac <= 0.0:
                    break
                it, oracles, checked = _step(it, dc, ac), None, False
        except _KKTError:
            return finish(it, SolveStatus.NUMERICAL_ERROR, outer)

        mu_now = mu_of(reduced, it)
        if mu_now > SolveOptions.slow_progress_factor * mu_hist[-1]:
            stall_count += 1
        else:
            stall_count = 0
        mu_hist.append(mu_now)
        if stall_count >= SolveOptions.slow_progress_window:
            return finish(it, SolveStatus.SLOW_PROGRESS, outer)

    status = None if checked else terminal(it)
    if status is None:
        status = SolveStatus.ITERATION_LIMIT
    return finish(it, status, options.max_iters)
