import warnings

import numpy as np
import pytest

from conftest import sample_barrier_point
from natcone import cones as C
from natcone import solver
from natcone.bench import InstanceSpec, build_instance
from natcone.model import ConicProblem, classify_certificate, CertificateKind, residual_eps
from natcone.solver import (
    Direction,
    HSDEIterate,
    SolveOptions,
    SolveStatus,
    check_termination,
    compute_directions,
    hsde_init,
    hsde_residuals,
    line_search,
    mu_of,
    solve,
)


def lp_bounded():
    # min -x s.t. 1 - x >= 0
    return ConicProblem([-1.0], np.zeros((0, 1)), [], [[1.0]], [1.0], [C.Nonneg(1)])


def lp_infeasible():
    # x >= 1 and -x >= 0
    return ConicProblem([0.0], np.zeros((0, 1)), [], [[-1.0], [1.0]], [-1.0, 0.0], [C.Nonneg(2)])


def soc_instance():
    # min u s.t. (u, 3, 4) in the Euclidean-norm cone
    return ConicProblem(
        [1.0], np.zeros((0, 1)), [], [[-1.0], [0.0], [0.0]], [0.0, 3.0, 4.0], [C.EpiNorm2(2)]
    )


def geomean_instance():
    # max u s.t. (u, 2, 8) in the geometric-mean cone
    return ConicProblem(
        [-1.0], np.zeros((0, 1)), [], [[-1.0], [0.0], [0.0]], [0.0, 2.0, 8.0], [C.HypoGeomean(2)]
    )


def random_feasible(kinds, seed, n=3, p=1):
    """Primal-dual strictly feasible multi-block instance."""
    rng = np.random.default_rng(seed)
    s0, z0 = [], []
    for K in kinds:
        if K.uses_dual_barrier:
            zb = sample_barrier_point(K, rng)
            s0.append(-K.grad(zb))
        else:
            sb = sample_barrier_point(K, rng)
            zb = -K.grad(sb)
            s0.append(sb)
        z0.append(zb)
    s0, z0 = np.concatenate(s0), np.concatenate(z0)
    q = s0.size
    G = rng.standard_normal((q, n))
    x0 = rng.standard_normal(n)
    h = G @ x0 + s0
    A = rng.standard_normal((p, n))
    b = A @ x0
    y0 = rng.standard_normal(p)
    c = -A.T @ y0 - G.T @ z0
    return ConicProblem(c, A, b, G, h, kinds)


class TestHsdeInit:
    def test_single_nonneg(self):
        prob = ConicProblem([1.0], np.zeros((0, 1)), [], [[-1.0]], [0.0], [C.Nonneg(1)])
        it = hsde_init(prob)
        assert it.s[0] == 1.0 and it.z[0] == 1.0
        assert mu_of(prob, it) == pytest.approx(1.0)

    def test_epinorm2_gradient_pairing(self):
        prob = soc_instance()
        it = hsde_init(prob)
        np.testing.assert_allclose(it.s, [1.0, 0.0, 0.0])
        np.testing.assert_allclose(it.z, [2.0, 0.0, 0.0])
        assert it.s @ it.z == pytest.approx(2.0)

    def test_product_cone_mu_one(self):
        prob = random_feasible([C.Nonneg(2), C.HypoPerLog(2)], seed=0)
        it = hsde_init(prob)
        assert mu_of(prob, it) == pytest.approx(1.0)
        assert it.tau == 1.0 and it.kappa == 1.0
        assert np.all(it.x == 0.0) and np.all(it.y == 0.0)

    def test_dual_barrier_block_sides(self):
        prob = random_feasible([C.EpiNormInfDual(3)], seed=1)
        it = hsde_init(prob)
        K = prob.cones[0]
        assert K.in_dual_interior(it.z)
        assert K.in_interior(it.s)


class TestComputeDirections:
    def test_centering_direction_zero_at_init(self):
        prob = random_feasible([C.Nonneg(2), C.EpiNorm2(2)], seed=2)
        d = compute_directions(prob, hsde_init(prob), "center")
        assert max(np.max(np.abs(v), initial=0.0) for v in vars(d).values()) <= 1e-10

    def test_predictor_reduces_mu(self):
        prob = lp_bounded()
        it = hsde_init(prob)
        d = compute_directions(prob, it, "predict")
        a = line_search(prob, it, d)
        assert a > 0.0
        stepped = HSDEIterate(
            it.x + a * d.dx, it.y + a * d.dy, it.z + a * d.dz,
            it.tau + a * d.dtau, it.s + a * d.ds, it.kappa + a * d.dkappa,
        )
        assert mu_of(prob, stepped) < mu_of(prob, it)

    @pytest.mark.parametrize("target", ["predict", "center"])
    def test_direction_satisfies_linearized_equations(self, target):
        kinds = [C.Nonneg(2), C.EpiNormInfDual(3), C.HypoPerLog(2)]
        prob = random_feasible(kinds, seed=3)
        it = hsde_init(prob)
        # walk a step off the central path so the test point is generic
        d0 = compute_directions(prob, it, "predict")
        a = line_search(prob, it, d0)
        it = HSDEIterate(
            it.x + a * d0.dx, it.y + a * d0.dy, it.z + a * d0.dz,
            it.tau + a * d0.dtau, it.s + a * d0.ds, it.kappa + a * d0.dkappa,
        )
        mu = mu_of(prob, it)
        d = compute_directions(prob, it, target)
        e_x, e_y, e_z, e_tau = hsde_residuals(prob, it)
        if target == "predict":
            r1, r2, r3, r4 = -e_x, -e_y, -e_z, -e_tau
        else:
            r1, r2, r3, r4 = np.zeros(prob.n), np.zeros(prob.p), np.zeros(prob.q), 0.0
        A, G, c, b, h = prob.A, prob.G, prob.c, prob.b, prob.h
        assert np.max(np.abs(A.T @ d.dy + G.T @ d.dz + c * d.dtau - r1)) <= 1e-12
        assert np.max(np.abs(-A @ d.dx + b * d.dtau - r2)) <= 1e-12
        assert np.max(np.abs(-G @ d.dx + h * d.dtau - d.ds - r3)) <= 1e-12
        lhs4 = -c @ d.dx - b @ d.dy - h @ d.dz - d.dkappa
        assert abs(lhs4 - r4) <= 1e-12
        # complementarity rows per block
        for K, sl in zip(prob.cones, prob.cone_slices()):
            if K.uses_dual_barrier:
                H = K.hess(it.z[sl])
                rhs = -it.s[sl] if target == "predict" else -it.s[sl] - mu * K.grad(it.z[sl])
                got = mu * (H @ d.dz[sl]) + d.ds[sl]
            else:
                H = K.hess(it.s[sl])
                rhs = -it.z[sl] if target == "predict" else -it.z[sl] - mu * K.grad(it.s[sl])
                got = mu * (H @ d.ds[sl]) + d.dz[sl]
            assert np.max(np.abs(got - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))
        r6 = -it.tau * it.kappa if target == "predict" else mu - it.tau * it.kappa
        assert abs(it.kappa * d.dtau + it.tau * d.dkappa - r6) <= 1e-12

    def test_unknown_target_rejected(self):
        prob = lp_bounded()
        with pytest.raises(ValueError):
            compute_directions(prob, hsde_init(prob), "sideways")


class TestLineSearch:
    def test_zero_direction_full_step(self):
        prob = lp_bounded()
        it = hsde_init(prob)
        zero = Direction(np.zeros(1), np.zeros(0), np.zeros(1), 0.0, np.zeros(1), 0.0)
        assert line_search(prob, it, zero) == 1.0

    def test_outward_direction_backtracks(self):
        prob = lp_bounded()
        it = hsde_init(prob)
        it.s[0] = 0.05  #   near the boundary
        out = Direction(np.zeros(1), np.zeros(0), np.zeros(1), 0.0, np.array([-1.0]), 0.0)
        a = line_search(prob, it, out, enforce_neighborhood=False)
        assert 0.0 < a < 1.0
        assert it.s[0] + a * -1.0 > 0.0

    def test_hopeless_direction_fails(self):
        prob = lp_bounded()
        it = hsde_init(prob)
        it.s[0] = 1e-12
        out = Direction(np.zeros(1), np.zeros(0), np.zeros(1), 0.0, np.array([-1e6]), 0.0)
        assert line_search(prob, it, out, enforce_neighborhood=False) == 0.0

    def test_accepted_steps_stay_interior(self):
        kinds = [C.EpiNormInf(3), C.HypoGeomean(3)]
        for seed in range(5):
            prob = random_feasible(kinds, seed=seed)
            it = hsde_init(prob)
            for _ in range(6):
                d = compute_directions(prob, it, "predict")
                a = line_search(prob, it, d)
                if a == 0.0:
                    break
                it = HSDEIterate(
                    it.x + a * d.dx, it.y + a * d.dy, it.z + a * d.dz,
                    it.tau + a * d.dtau, it.s + a * d.ds, it.kappa + a * d.dkappa,
                )
                for K, sl in zip(prob.cones, prob.cone_slices()):
                    assert K.in_interior(it.s[sl])
                    assert K.in_dual_interior(it.z[sl])
                assert it.tau > 0.0 and it.kappa > 0.0


class TestCheckTermination:
    def test_fresh_init_is_none(self):
        prob = random_feasible([C.Nonneg(3)], seed=4)
        assert check_termination(prob, hsde_init(prob), SolveOptions()) is None

    def test_converged_lp_detected(self):
        prob = lp_bounded()
        it = HSDEIterate(np.array([1.0]), np.zeros(0), np.array([1.0]), 1.0,
                         np.array([1e-9]), 1e-9)
        assert check_termination(prob, it, SolveOptions()) is SolveStatus.OPTIMAL


class TestSolve:
    def test_bounded_lp(self):
        res = solve(lp_bounded())
        assert res.status is SolveStatus.OPTIMAL
        assert res.point.x[0] == pytest.approx(1.0, abs=1e-6)
        assert res.eps <= 1e-5 and res.iterations < 50

    def test_soc_norm(self):
        res = solve(soc_instance())
        assert res.status is SolveStatus.OPTIMAL
        assert res.primal_obj == pytest.approx(5.0, abs=1e-5)

    def test_geomean(self):
        res = solve(geomean_instance())
        assert res.status is SolveStatus.OPTIMAL
        assert -res.primal_obj == pytest.approx(4.0, abs=1e-5)

    def test_infeasible_lp_certificate(self):
        res = solve(lp_infeasible())
        assert res.status is SolveStatus.PRIMAL_INFEASIBLE
        cert = classify_certificate(lp_infeasible(), res.point)
        assert cert.kind is CertificateKind.PRIMAL_INFEASIBLE

    def test_unbounded_gives_dual_infeasibility_ray(self):
        # min -x s.t. x >= 0 is unbounded below
        prob = ConicProblem([-1.0], np.zeros((0, 1)), [], [[-1.0]], [0.0], [C.Nonneg(1)])
        res = solve(prob)
        assert res.status is SolveStatus.DUAL_INFEASIBLE
        cert = classify_certificate(prob, res.point)
        assert cert.kind is CertificateKind.DUAL_INFEASIBLE

    def test_optimal_implies_small_residual(self):
        for seed in range(4):
            prob = random_feasible([C.EpiNorm2(3), C.HypoPerLog(2)], seed=seed)
            res = solve(prob)
            assert res.status is SolveStatus.OPTIMAL
            assert residual_eps(prob, res.point) <= 1e-5
            assert res.iterations <= SolveOptions().max_iters

    def test_mixed_dual_barrier_instance(self):
        prob = random_feasible([C.EpiNormSpectralDual(2, 3), C.Nonneg(2)], seed=7)
        res = solve(prob)
        assert res.status is SolveStatus.OPTIMAL
        assert res.eps <= 1e-6

    def test_determinism(self):
        prob = random_feasible([C.EpiNormInf(3), C.HypoGeomean(3)], seed=9)
        r1 = solve(prob)
        r2 = solve(prob)
        assert r1.iterations == r2.iterations
        np.testing.assert_array_equal(r1.point.x, r2.point.x)
        np.testing.assert_array_equal(np.array(r1.mu_history), np.array(r2.mu_history))

    def test_scale_invariance_of_status(self):
        base = random_feasible([C.EpiNorm2(3), C.Nonneg(2)], seed=11)
        res = solve(base)
        scaled_c = ConicProblem(10 * base.c, base.A, base.b, base.G, base.h, base.cones)
        scaled_bh = ConicProblem(base.c, base.A, 10 * base.b, base.G, 10 * base.h, base.cones)
        assert solve(scaled_c).status is res.status
        assert solve(scaled_bh).status is res.status
        assert solve(scaled_c).primal_obj == pytest.approx(10 * res.primal_obj, rel=1e-5)

    def test_iteration_limit(self):
        res = solve(lp_bounded(), SolveOptions(max_iters=1))
        assert res.iterations <= 1
        assert res.status in (SolveStatus.ITERATION_LIMIT, SolveStatus.OPTIMAL)

    def test_time_limit(self):
        res = solve(random_feasible([C.EpiNorm2(3)], seed=1), SolveOptions(time_limit=0.0))
        assert res.status is SolveStatus.TIME_LIMIT

    def test_slow_progress_trigger(self, monkeypatch):
        # a stall counter tuned to trip immediately: mu cannot shrink 100x per round
        monkeypatch.setattr(SolveOptions, "slow_progress_factor", 1e-2)
        monkeypatch.setattr(SolveOptions, "slow_progress_window", 2)
        res = solve(random_feasible([C.EpiNorm2(3)], seed=2))
        assert res.status is SolveStatus.SLOW_PROGRESS

    def test_ill_conditioned_proximity_is_silent(self):
        # near mu = 1e-9 a PSD block's Hessian has condition ~1e19 and the
        # proximity sum can round below zero; that must read as "not centered"
        # without a sqrt-of-negative warning or a change of path
        prob, _ = build_instance(InstanceSpec("expdesign", 8, None, "rt", 3, "ef-exp"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(prob)
        assert res.status is SolveStatus.OPTIMAL
        assert res.iterations == 18

    def test_options_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(tol=0.0)
        with pytest.raises(ValueError):
            SolveOptions(max_iters=0)
        with pytest.raises(ValueError):
            SolveOptions(time_limit=-1.0)
        with pytest.raises(ValueError):
            SolveOptions(time_limit=float("nan"))
        # the stepper's settings are constants, not per-solve options
        with pytest.raises(TypeError):
            SolveOptions(neighborhood_beta=0.2)
        # boundary values that stay legal
        SolveOptions(time_limit=0.0)

    def test_one_oracle_evaluation_per_iterate(self, monkeypatch):
        keys = []

        class Recording(solver._Oracles):
            def __init__(self, problem, it):
                keys.append((it.s.tobytes(), it.z.tobytes(), it.tau, it.kappa))
                super().__init__(problem, it)

        monkeypatch.setattr(solver, "_Oracles", Recording)
        prob, _ = build_instance(InstanceSpec("expdesign", 3, None, "rt", 0, "ef-exp"))
        res = solve(prob)
        assert res.status is SolveStatus.OPTIMAL
        assert keys and len(set(keys)) == len(keys)

        # directions from given oracles equal those evaluated inside
        it = hsde_init(prob)
        d0 = compute_directions(prob, it, "predict")
        it = solver._step(it, d0, line_search(prob, it, d0))
        for target in ("predict", "center"):
            a = compute_directions(prob, it, target)
            b = compute_directions(prob, it, target, solver._Oracles(prob, it))
            for u, v in zip(vars(a).values(), vars(b).values()):
                assert np.array_equal(u, v), target

    def test_one_termination_check_per_iterate(self, monkeypatch):
        # an iterate the centering loop did not move is not checked again
        keys = []
        orig = solver.check_termination

        def recording(problem, it, options):
            keys.append((it.x.tobytes(), it.s.tobytes(), it.z.tobytes(), it.tau, it.kappa))
            return orig(problem, it, options)

        monkeypatch.setattr(solver, "check_termination", recording)
        prob, _ = build_instance(InstanceSpec("expdesign", 3, None, "rt", 0, "ef-exp"))
        res = solve(prob)
        assert res.status is SolveStatus.OPTIMAL
        assert keys and len(set(keys)) == len(keys)

    def test_one_domain_test_per_block(self, monkeypatch):
        # the line search's interiority test covers every accepted iterate,
        # so only the initial iterate's blocks are tested for the domain
        calls = []
        orig = C.Cone.barrier_domain_ok

        def counting(K, pt):
            calls.append(id(K))
            return orig(K, pt)

        monkeypatch.setattr(C.Cone, "barrier_domain_ok", counting)
        prob, _ = build_instance(InstanceSpec("expdesign", 3, None, "rt", 0, "ef-exp"))
        res = solve(prob)
        assert res.status is SolveStatus.OPTIMAL
        assert len(calls) <= len(prob.cones)
        assert len(set(calls)) == len(calls)

    def test_directions_reject_iterate_outside_domain(self):
        prob, _ = build_instance(InstanceSpec("expdesign", 3, None, "rt", 0, "ef-exp"))
        it = hsde_init(prob)
        K, sl = prob.cones[0], prob.cone_slices()[0]
        side = it.z if K.uses_dual_barrier else it.s
        side[sl] = -side[sl]
        with pytest.raises(solver._KKTError):
            compute_directions(prob, it, "predict")

    @pytest.mark.parametrize(
        "method, fault, at",
        [
            pytest.param("hess", np.linalg.LinAlgError, 3, id="LinAlgError"),
            pytest.param("hess", C.NotInteriorError, 3, id="NotInteriorError"),
            pytest.param("hess", "nan", 3, id="hess-nan"),
            pytest.param("grad", "nan", 4, id="grad-nan-4"),
            pytest.param("grad", "nan", 11, id="grad-nan-11"),
        ],
    )
    def test_oracle_failure_is_numerical_error(self, method, fault, at):
        # an oracle that raises or returns NaN ends the solve with a status
        class Flaky(C.EpiNorm2):
            calls = 0

        def flaky(K, s):
            Flaky.calls += 1
            out = getattr(C.EpiNorm2, method)(K, s)
            if Flaky.calls == at:
                if fault != "nan":
                    raise fault("oracle failed")
                out[..., -1] = np.nan
            return out

        setattr(Flaky, method, flaky)
        res = solve(random_feasible([Flaky(3)], seed=4))
        assert Flaky.calls == at
        assert res.status is SolveStatus.NUMERICAL_ERROR


@pytest.mark.parametrize(
    "cell",
    [
        ("expdesign", 3, None, "rt", 0, "ef-exp"),
        ("expdesign", 3, None, "rt", 0, "ef-sec"),
        ("expdesign", 8, None, "rt", 0, "ef-exp"),
        ("expdesign", 8, None, "rt", 0, "ef-sec"),
        ("matcompletion", 3, 5, None, 0, "ef-exp"),
    ],
    ids=lambda cell: "-".join(str(v) for v in cell if v is not None),
)
def test_stacked_runs_keep_the_path(cell, monkeypatch):
    # grouping runs of equal blocks changes how often oracles are called,
    # not the iterates: same status and iterations as block by block
    prob, _ = build_instance(InstanceSpec(*cell))
    assert len(C._stack_runs(prob.cones)) < len(prob.cones)
    stacked = solve(prob)
    monkeypatch.setattr(solver, "_stack_runs", tuple)
    blockwise = solve(prob)
    assert stacked.status is blockwise.status is SolveStatus.OPTIMAL
    assert stacked.iterations == blockwise.iterations
    assert stacked.primal_obj == pytest.approx(blockwise.primal_obj, rel=1e-9, abs=1e-9)


def degenerate_lp(A, b, n=2, q=2):
    # min x1 + 2 x2 s.t. A x = b and, unless q == 0, (x1, x2) >= 0
    c = np.zeros(n)
    c[:2] = 1.0, 2.0
    cones = [C.Nonneg(2)] if q else []
    return ConicProblem(c, np.reshape(A, (-1, n)), b, -np.eye(q, n), np.zeros(q), cones)


@pytest.mark.parametrize(
    "prob, status, obj",
    [
        pytest.param(degenerate_lp([[1, 1]], [1]), "optimal", 1.0, id="single-row"),
        pytest.param(degenerate_lp([[1, 1], [1, 1]], [1, 1]), "optimal", 1.0, id="duplicate-row"),
        pytest.param(
            degenerate_lp([[1, 1], [2, 2]], [1, 2]), "optimal", 1.0, id="scaled-duplicate-row"
        ),
        pytest.param(
            degenerate_lp([[1, 1], [1, 1]], [1, 2]),
            "primal_infeasible",
            None,
            id="inconsistent-duplicate-row",
        ),
        pytest.param(degenerate_lp([[1, 1, 0]], [1], n=3), "optimal", 1.0, id="zero-column"),
        pytest.param(degenerate_lp([], []), "optimal", 0.0, id="p0"),
        pytest.param(degenerate_lp([[1, 1], [1, -1]], [1, 0], q=0), "optimal", 1.5, id="q0"),
    ],
)
def test_degenerate_lp_ends_with_a_certificate(prob, status, obj):
    # rank-deficient, inconsistent or missing rows: no exception or numpy
    # warning, and the certificate of the returned status holds
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve(prob)
    assert res.status.value == status
    assert classify_certificate(prob, res.point).kind.value == status
    if obj is not None:
        assert res.primal_obj == pytest.approx(obj, abs=1e-6)
