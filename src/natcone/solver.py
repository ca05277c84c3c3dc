"""Homogeneous self-dual embedding primal-dual interior-point method.

The embedding augments the conic problem with scaling variables (tau, kappa)
so that a single solve yields either an approximate complementary solution or
an improving ray. The iteration alternates prediction steps (drive residuals
and complementarity toward zero) with centering steps (return toward the
central path at the current complementarity level mu), in the style of
barrier methods that need only interior-point, feasibility, gradient and
Hessian oracles for each cone block.

Cone blocks whose barrier lives on the dual side enter the linearized system
with the Hessian applied to the dual direction; that is the only place the
``uses_dual_barrier`` flag changes behavior.

``solve`` iterates on the problem with each run of adjacent equal blocks of a
stackable cone grouped into one block (``cones._Run``) whose oracles evaluate
the whole run at once. Rows keep their order, so only the number of oracle
calls changes; the neighbourhood test still checks each original block's
complementarity product.
"""

from __future__ import annotations

import copy
import math
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
        if K.uses_dual_barrier:
            z[sl] = pt
            s[sl] = -K.grad(pt)
        else:
            s[sl] = pt
            z[sl] = -K.grad(pt)
    return HSDEIterate(
        x=np.zeros(problem.n), y=np.zeros(problem.p), z=z, tau=1.0, s=s, kappa=1.0
    )


def hsde_residuals(problem: ConicProblem, it: HSDEIterate):
    """Residuals of the homogeneous model rows (zero at an exact solution)."""
    c, b, h, A, G = problem.c, problem.b, problem.h, problem.A, problem.G
    e_x = A.T @ it.y + G.T @ it.z + c * it.tau
    e_y = -A @ it.x + b * it.tau
    e_z = -G @ it.x + h * it.tau - it.s
    e_tau = -float(c @ it.x) - float(b @ it.y) - float(h @ it.z) - it.kappa
    return e_x, e_y, e_z, e_tau


# diagonal regularization of the quasi-definite system; survives
# rank-deficient A or G without a presolve pass
_STATIC_REG = 1e-10

# mu at or below which an iterate is numerically on the boundary: the line
# search rejects it and centering stops there (mu starts at 1, and any
# tolerable terminal mu is far above this floor)
_MU_FLOOR = 1e-14


class _KKTError(RuntimeError):
    pass


def _barrier_point(K, sl, it):
    """The block of ``it`` on which the block's barrier is evaluated."""
    return it.z[sl] if K.uses_dual_barrier else it.s[sl]


def _check_domain(problem: ConicProblem, it: HSDEIterate):
    for K, sl in zip(problem.cones, problem.cone_slices()):
        if not K.barrier_domain_ok(_barrier_point(K, sl, it)):
            raise _KKTError("iterate left the barrier domain")


class _Oracles:
    """Barrier gradients and Hessians of every block at one iterate.

    ``solve`` evaluates them once per iterate and hands the same object to
    the proximity check and to the direction computed at that iterate. They
    do not test the barrier domain: the line search's interiority test on
    each block's barrier side is that test for every iterate it accepts, so
    ``solve`` tests only its initial iterate. An oracle that still fails
    raises _KKTError.
    """

    def __init__(self, problem: ConicProblem, it: HSDEIterate):
        self.problem = problem
        self.slices = problem.cone_slices()
        self.grads = []
        self.hesses = []
        try:
            for K, sl in zip(problem.cones, self.slices):
                pt = _barrier_point(K, sl, it)
                self.grads.append(K.grad(pt))
                self.hesses.append(K.hess(pt))
        except (NotInteriorError, np.linalg.LinAlgError) as exc:
            raise _KKTError("barrier oracle failed") from exc


def _complementarity_rhs(problem, it, oracles, mu, target):
    """Right-hand side of the linearized complementarity rows per block."""
    r5 = np.empty(problem.q)
    for K, sl, g in zip(problem.cones, oracles.slices, oracles.grads):
        primary = it.s[sl] if K.uses_dual_barrier else it.z[sl]
        r5[sl] = -primary if target == "predict" else -primary - mu * g
    r6 = -it.tau * it.kappa if target == "predict" else mu - it.tau * it.kappa
    return r5, r6


class _KKTSystem:
    """Reduced solve of the linearized embedding equations.

    Eliminates ds (via the cone rows) and dkappa (via the tau/kappa row).
    Blocks with a primal barrier also eliminate dz through mu*H(s), leaving
    those rows inside the Schur term G' (mu H) G; blocks carrying the dual
    barrier keep dz as explicit unknowns so that mu*H*(z) enters the system
    as a matrix block and is never inverted (near convergence H* has
    condition about 1/mu^2, which an explicit inverse cannot survive).
    The assembled symmetric quasi-definite system in (dx, dy, dz_dual) is
    statically regularized, LU-factored once per call, and solved for two
    right-hand sides to resolve the scalar dtau equation.
    """

    def __init__(self, problem: ConicProblem, it: HSDEIterate, oracles: _Oracles, mu: float):
        self.problem = problem
        self.it = it
        self.mu = mu
        self.oracles = oracles
        n, p = problem.n, problem.p
        G, h, c, b, A = problem.G, problem.h, problem.c, problem.b, problem.A

        self.primal = [
            (K, sl, H)
            for K, sl, H in zip(problem.cones, oracles.slices, oracles.hesses)
            if not K.uses_dual_barrier
        ]
        self.dual = [
            (K, sl, H)
            for K, sl, H in zip(problem.cones, oracles.slices, oracles.hesses)
            if K.uses_dual_barrier
        ]
        self.dual_rows = np.concatenate(
            [np.arange(sl.start, sl.stop) for _, sl, _ in self.dual]
        ) if self.dual else np.zeros(0, dtype=int)
        qd = self.dual_rows.size
        self.qd = qd
        GD = G[self.dual_rows]
        self.hD = h[self.dual_rows]

        # K2 is assembled in place, column-major so that the LU overwrites it
        dim = n + p + qd
        K2 = np.zeros((dim, dim), order="F")
        reg = _STATIC_REG
        # Schur contribution and tau-column pieces from primal-barrier blocks
        S = K2[:n, :n]
        GMh = np.zeros(n)
        hMh = 0.0
        self.Mprimal = []
        for K, sl, H in self.primal:
            Mb = mu * H
            self.Mprimal.append(Mb)
            MG = Mb @ G[sl]
            S += G[sl].T @ MG
            Mhb = Mb @ h[sl]
            GMh += G[sl].T @ Mhb
            hMh += float(h[sl] @ Mhb)

        K2[:n, n : n + p] = A.T
        K2[n : n + p, :n] = A
        if qd:
            K2[:n, n + p :] = GD.T
            K2[n + p :, :n] = GD
            off = n + p
            for K, sl, H in self.dual:
                blk = K2[off : off + H.shape[0], off : off + H.shape[0]]
                np.add(H, H.T, out=blk)
                blk *= -0.5 * mu
                off += H.shape[0]
        # static regularization: +reg on the dx diagonal, -reg on the dy and dz ones
        i = np.arange(dim)
        K2[i[:n], i[:n]] += reg
        K2[i[n:], i[n:]] -= reg
        # no library finiteness checks: a non-finite K2 or right-hand side
        # shows up as a non-finite w2 or direction, which is tested once
        try:
            self.lu = sla.lu_factor(K2, overwrite_a=True, check_finite=False)
        except sla.LinAlgError as exc:
            raise _KKTError("KKT factorization failed") from exc

        # second solve: coefficient of dtau in the reduced system
        rhs2 = np.concatenate((-(c - GMh), b, self.hD))
        self.w2 = w2 = sla.lu_solve(self.lu, rhs2, check_finite=False)
        if not np.isfinite(w2).all():
            raise _KKTError("singular KKT system")
        # the dtau row's data and denominator are the same for every solve
        self.cp = c + GMh
        self.denom = (
            -float(self.cp @ w2[:n])
            - float(b @ w2[n : n + p])
            - float(self.hD @ w2[n + p :])
            + hMh
            + it.kappa / it.tau
        )
        if not np.isfinite(self.denom) or abs(self.denom) < 1e-300:
            raise _KKTError("singular reduced system")

    def solve(self, r1, r2, r3, r4, r5, r6) -> Direction:
        pr = self.problem
        n, p, qd = pr.n, pr.p, self.qd
        it = self.it
        # primal-block pieces: dz_b = r5_b + M_b (G dx - h dtau + r3)_b
        u1 = r1.copy()
        hRM = 0.0
        for (K, sl, H), Mb in zip(self.primal, self.Mprimal):
            RMr3 = r5[sl] + Mb @ r3[sl]
            u1 -= pr.G[sl].T @ RMr3
            hRM += float(pr.h[sl] @ RMr3)
        rhsD = -(r3[self.dual_rows] + r5[self.dual_rows]) if qd else np.zeros(0)
        w1 = sla.lu_solve(self.lu, np.concatenate((u1, -r2, rhsD)), check_finite=False)
        u4 = r4 + hRM + r6 / it.tau
        dtau = (
            u4
            + float(self.cp @ w1[:n])
            + float(pr.b @ w1[n : n + p])
            + float(self.hD @ w1[n + p :])
        ) / self.denom
        sol = w1 + dtau * self.w2
        dx = sol[:n]
        dy = sol[n : n + p]
        Gdx = pr.G @ dx
        ds = -Gdx + pr.h * dtau - r3
        dz = np.empty(pr.q)
        for (K, sl, H), Mb in zip(self.primal, self.Mprimal):
            dz[sl] = r5[sl] + Mb @ (Gdx[sl] - pr.h[sl] * dtau + r3[sl])
        if qd:
            dz[self.dual_rows] = sol[n + p :]
        dkappa = (r6 - it.kappa * dtau) / it.tau
        # sol holds dx, dy and the dual-barrier rows of dz
        if not (
            np.isfinite(sol).all()
            and np.isfinite(dz).all()
            and np.isfinite(ds).all()
            and math.isfinite(dtau)
            and math.isfinite(dkappa)
        ):
            raise _KKTError("non-finite direction")
        return Direction(dx, dy, dz, dtau, ds, dkappa)

    def equation_residuals(self, d: Direction, r1, r2, r3, r4, r5, r6):
        """Residuals of the full linearized system at a candidate direction."""
        pr = self.problem
        it = self.it
        e1 = r1 - (pr.A.T @ d.dy + pr.G.T @ d.dz + pr.c * d.dtau)
        e2 = r2 - (-pr.A @ d.dx + pr.b * d.dtau)
        e3 = r3 - (-pr.G @ d.dx + pr.h * d.dtau - d.ds)
        e4 = r4 - (
            -float(pr.c @ d.dx) - float(pr.b @ d.dy) - float(pr.h @ d.dz) - d.dkappa
        )
        e5 = np.empty(pr.q)
        for K, sl, H in zip(pr.cones, self.oracles.slices, self.oracles.hesses):
            if K.uses_dual_barrier:
                e5[sl] = r5[sl] - (self.mu * (H @ d.dz[sl]) + d.ds[sl])
            else:
                e5[sl] = r5[sl] - (self.mu * (H @ d.ds[sl]) + d.dz[sl])
        e6 = r6 - (it.kappa * d.dtau + it.tau * d.dkappa)
        return e1, e2, e3, e4, e5, e6

    def solve_refined(self, r1, r2, r3, r4, r5, r6) -> Direction:
        d = self.solve(r1, r2, r3, r4, r5, r6)
        e1, e2, e3, e4, e5, e6 = self.equation_residuals(d, r1, r2, r3, r4, r5, r6)
        dc = self.solve(e1, e2, e3, e4, e5, e6)
        d.dx += dc.dx
        d.dy += dc.dy
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
    domain and they are evaluated here.
    """
    if target not in ("predict", "center"):
        raise ValueError(f"unknown target {target!r}")
    if oracles is None:
        _check_domain(problem, it)
        oracles = _Oracles(problem, it)
    mu = mu_of(problem, it)
    kkt = _KKTSystem(problem, it, oracles, mu)
    r5, r6 = _complementarity_rhs(problem, it, oracles, mu, target)
    if target == "predict":
        e_x, e_y, e_z, e_tau = hsde_residuals(problem, it)
        r1, r2, r3, r4 = -e_x, -e_y, -e_z, -e_tau
    else:
        r1 = np.zeros(problem.n)
        r2 = np.zeros(problem.p)
        r3 = np.zeros(problem.q)
        r4 = 0.0
    return kkt.solve_refined(r1, r2, r3, r4, r5, r6)


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
    has one (nonneg, second-order, max-norm, PSD and perspective-log blocks,
    and runs of them); every other block factors its Hessian.
    """
    total = (it.tau * it.kappa - mu) ** 2
    for K, sl, g, H in zip(problem.cones, oracles.slices, oracles.grads, oracles.hesses):
        psi = (it.s[sl] if K.uses_dual_barrier else it.z[sl]) + mu * g
        quad = K.inv_hess_quad(_barrier_point(K, sl, it), psi)
        if quad is not None:
            total += quad
            continue
        Hs = 0.5 * (H + H.T)
        try:
            cho = sla.cho_factor(Hs, check_finite=False)
            total += float(psi @ sla.cho_solve(cho, psi, check_finite=False))
        except sla.LinAlgError:
            # Hessian condition nears 1/mu^2 close to convergence, where
            # Cholesky can report numerical indefiniteness: invert through
            # the eigendecomposition with a relative eigenvalue floor
            w, V = np.linalg.eigh(Hs)
            if not np.all(np.isfinite(w)) or w.max() <= 0.0:
                return float("inf")
            w = np.maximum(w, 1e-16 * w.max())
            total += float(psi @ (((V / w) @ V.T) @ psi))
    # near convergence the block Hessians are so ill-conditioned that
    # psi' H^-1 psi can round below zero; treat that as far from the center
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


def solve(problem: ConicProblem, options: SolveOptions | None = None) -> SolveResult:
    """Solve the conic problem via the homogeneous self-dual embedding.

    Each iteration takes one prediction step followed by centering steps
    until the iterate is close enough to the central path. The returned point
    is scaled back to problem space (divided by tau for complementary
    solutions; improving rays are normalized so the violated inequality
    equals one).
    """
    options = options or SolveOptions()
    t0 = time.perf_counter()
    problem = _stacked(problem)
    it = hsde_init(problem)
    mu_hist = [mu_of(problem, it)]
    stall_count = 0
    oracles = None  # barrier oracles at ``it`` once evaluated, else None
    checked = False  # ``it`` already passed check_termination without a status

    for outer in range(1, options.max_iters + 1):
        if not checked:
            status = check_termination(problem, it, options)
            if status is not None:
                return _finish(problem, it, status, outer - 1, t0, mu_hist)
        if time.perf_counter() - t0 > options.time_limit:
            return _finish(problem, it, SolveStatus.TIME_LIMIT, outer - 1, t0, mu_hist)

        try:
            if oracles is None:
                # every later iterate passed the line search's domain test
                if outer == 1:
                    _check_domain(problem, it)
                oracles = _Oracles(problem, it)
            d = compute_directions(problem, it, "predict", oracles)
            alpha = line_search(problem, it, d, enforce_neighborhood=True)
            if alpha <= 0.0:
                return _finish(
                    problem, it, SolveStatus.NUMERICAL_ERROR, outer - 1, t0, mu_hist
                )
            it, oracles = _step(it, d, alpha), None
            status = check_termination(problem, it, options)
            if status is not None:
                return _finish(problem, it, status, outer, t0, mu_hist)
            checked = True

            for _ in range(SolveOptions.max_center_steps):
                oracles = _Oracles(problem, it)
                mu = mu_of(problem, it)
                if mu <= _MU_FLOOR:
                    break
                if _proximity(problem, it, oracles, mu) <= SolveOptions.centering_tol:
                    break
                dc = compute_directions(problem, it, "center", oracles)
                ac = line_search(problem, it, dc, enforce_neighborhood=False)
                if ac <= 0.0:
                    break
                it, oracles, checked = _step(it, dc, ac), None, False
        except _KKTError:
            return _finish(problem, it, SolveStatus.NUMERICAL_ERROR, outer, t0, mu_hist)

        mu_now = mu_of(problem, it)
        if mu_now > SolveOptions.slow_progress_factor * mu_hist[-1]:
            stall_count += 1
        else:
            stall_count = 0
        mu_hist.append(mu_now)
        if stall_count >= SolveOptions.slow_progress_window:
            return _finish(problem, it, SolveStatus.SLOW_PROGRESS, outer, t0, mu_hist)

    status = None if checked else check_termination(problem, it, options)
    if status is None:
        status = SolveStatus.ITERATION_LIMIT
    return _finish(problem, it, status, options.max_iters, t0, mu_hist)
