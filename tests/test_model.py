import numpy as np
import pytest

from natcone import cones as C
from natcone.model import (
    AmbiguousCertificateError,
    CertificateKind,
    ConicProblem,
    PrimalDualPoint,
    ValidationError,
    classify_certificate,
    objective_rel_diff,
    problem_from_json,
    problem_to_json,
    residual_eps,
    sdim,
    smat,
    svec,
    validate,
)
from natcone.sym import _SQRT2, _svec_indices, svec_kron


def lp_min_x_geq_1():
    # min x  s.t.  x - 1 >= 0
    return ConicProblem([1.0], np.zeros((0, 1)), [], [[-1.0]], [-1.0], [C.Nonneg(1)])


class TestSdim:
    @pytest.mark.parametrize("d,expected", [(3, 6), (1, 1), (4, 10)])
    def test_values(self, d, expected):
        assert sdim(d) == expected

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sdim(0)


class TestSvecSmat:
    def test_identity_2(self):
        np.testing.assert_allclose(svec(np.eye(2)), [1.0, 0.0, 1.0])

    def test_order_and_scaling_3(self):
        S = np.arange(1, 10, dtype=float).reshape(3, 3)
        S = 0.5 * (S + S.T)
        r2 = np.sqrt(2.0)
        expected = [S[0, 0], r2 * S[0, 1], S[1, 1], r2 * S[0, 2], r2 * S[1, 2], S[2, 2]]
        np.testing.assert_allclose(svec(S), expected)

    def test_trace_preservation_random(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            d = rng.integers(1, 9)
            S = rng.standard_normal((d, d))
            S = S + S.T
            Z = rng.standard_normal((d, d))
            Z = Z + Z.T
            tr = np.trace(S @ Z)
            assert abs(svec(S) @ svec(Z) - tr) <= 1e-10 * (1 + abs(tr))

    def test_smat_examples(self):
        np.testing.assert_allclose(smat([1.0, 0.0, 1.0]), np.eye(2))
        np.testing.assert_allclose(
            smat([2.0, np.sqrt(2.0), 3.0]), [[2.0, 1.0], [1.0, 3.0]]
        )

    def test_roundtrip_length_10(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal(10)
        np.testing.assert_allclose(svec(smat(w)), w, atol=1e-15)

    def test_svec_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            svec(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_smat_rejects_bad_length(self):
        with pytest.raises(ValueError):
            smat(np.ones(5))

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_svec_kron_is_congruence(self, d):
        rng = np.random.default_rng(3 + d)
        R = rng.standard_normal((d, d))
        S = R + R.T
        for _ in range(5):
            D = rng.standard_normal((d, d))
            D = D + D.T
            want = svec(S @ D @ S, sym_tol=np.inf)
            got = svec_kron(S) @ svec(D)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 18, 40])
    def test_svec_kron_matches_four_gather_reference(self, d):
        def reference(S):
            rows, cols = _svec_indices(S.shape[0])
            w = np.where(rows < cols, _SQRT2, 1.0)
            r, c = rows[:, None], cols[:, None]
            K = 0.5 * (S[r, rows] * S[c, cols] + S[r, cols] * S[c, rows])
            return K * np.outer(w, w)

        rng = np.random.default_rng(70 + d)
        R = rng.standard_normal((d, d))
        S = R + R.T
        assert np.array_equal(svec_kron(S), reference(S))

    def test_svec_indices_are_read_only(self):
        rows, cols = _svec_indices(4)
        assert _svec_indices(4)[0] is rows
        for a in (rows, cols):
            with pytest.raises(ValueError):
                a[0] = 1

    @pytest.mark.parametrize("d", range(1, 9))
    def test_smat_matches_scatter_reference(self, d):
        def reference(w):
            rows, cols = _svec_indices(d)
            vals = w.copy()
            vals[rows < cols] /= _SQRT2
            M = np.zeros((d, d))
            M[rows, cols] = vals
            M[cols, rows] = vals
            return M

        rng = np.random.default_rng(80 + d)
        for w in (rng.standard_normal(sdim(d)), np.arange(sdim(d), dtype=float) - 1.5):
            assert np.array_equal(smat(w), reference(w))


class TestValidate:
    def test_consistent_lp(self):
        prob = ConicProblem(
            [1.0, 2.0], [[1.0, 1.0]], [1.0], np.eye(3, 2), np.ones(3), [C.Nonneg(3)]
        )
        validate(prob)
        assert (prob.n, prob.p, prob.q) == (2, 1, 3)

    def test_cone_dim_mismatch(self):
        with pytest.raises(ValidationError, match="cone dimensions"):
            ConicProblem([1.0], np.zeros((0, 1)), [], np.eye(3, 1), np.ones(3), [C.Nonneg(2)])

    def test_nan_in_h(self):
        with pytest.raises(ValidationError, match="non-finite"):
            ConicProblem([1.0], np.zeros((0, 1)), [], [[1.0]], [np.nan], [C.Nonneg(1)])

    def test_empty_cone_list(self):
        with pytest.raises(ValidationError, match="empty cone list"):
            ConicProblem([1.0], np.zeros((0, 1)), [], [[1.0]], [1.0], [])

    def test_accepts_triplets_and_immutable(self):
        A = {"rows": [0], "cols": [1], "vals": [3.0], "shape": (1, 2)}
        prob = ConicProblem([1.0, 0.0], A, [1.5], np.eye(2), np.ones(2), [C.Nonneg(2)])
        np.testing.assert_allclose(prob.A, [[0.0, 3.0]])
        with pytest.raises(ValueError):
            prob.c[0] = 2.0

    def test_accepts_scipy_sparse(self):
        import scipy.sparse as sp

        G = sp.coo_matrix(np.eye(2))
        prob = ConicProblem([1.0, 0.0], np.zeros((0, 2)), [], G, np.ones(2), [C.Nonneg(2)])
        np.testing.assert_allclose(prob.G, np.eye(2))


class TestResidualEps:
    def test_exact_optimum_is_zero(self):
        prob = lp_min_x_geq_1()
        pt = PrimalDualPoint([1.0], [], [1.0], [0.0])
        assert residual_eps(prob, pt) <= 1e-14

    def test_perturbed_hand_value(self):
        # x -> 1 + 1e-3: cone-row term |x - 1|/(1+|h|) and gap term
        # |c'x + h'z|/(1+|h'z|) both evaluate to 5e-4
        prob = lp_min_x_geq_1()
        pt = PrimalDualPoint([1.0 + 1e-3], [], [1.0], [0.0])
        assert residual_eps(prob, pt) == pytest.approx(5e-4, rel=1e-12)

    def test_nonfinite_gives_inf(self):
        prob = lp_min_x_geq_1()
        pt = PrimalDualPoint([np.inf], [], [1.0], [0.0])
        assert residual_eps(prob, pt) == np.inf


class TestObjectiveRelDiff:
    def test_equal(self):
        assert objective_rel_diff(5.0, 5.0) == 0.0

    def test_formula(self):
        assert objective_rel_diff(0.0, 1.0) == pytest.approx(0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            objective_rel_diff(np.nan, 1.0)


class TestClassifyCertificate:
    def test_optimal_lp(self):
        prob = lp_min_x_geq_1()
        cert = classify_certificate(prob, PrimalDualPoint([1.0], [], [1.0], [0.0]))
        assert cert.kind is CertificateKind.OPTIMAL
        assert cert.residual <= 1e-14

    def test_dual_infeasible_ray(self):
        # min -x with x - 0 >= 0: improving ray x = 1
        prob = ConicProblem([-1.0], np.zeros((0, 1)), [], [[-1.0]], [0.0], [C.Nonneg(1)])
        pt = PrimalDualPoint([2.0], [], [0.0], [2.0])
        cert = classify_certificate(prob, pt)
        assert cert.kind is CertificateKind.DUAL_INFEASIBLE
        # normalized so c'x = -1
        assert prob.c @ cert.point.x == pytest.approx(-1.0)

    def test_primal_infeasible_hand_ray(self):
        # {x >= 1 and -x >= 0} has the dual ray z = (1, 1)
        prob = ConicProblem(
            [0.0], np.zeros((0, 1)), [], [[-1.0], [1.0]], [-1.0, 0.0], [C.Nonneg(2)]
        )
        pt = PrimalDualPoint([0.0], [], [2.0, 2.0], [0.0, 0.0])
        cert = classify_certificate(prob, pt)
        assert cert.kind is CertificateKind.PRIMAL_INFEASIBLE
        gap = -prob.b @ cert.point.y - prob.h @ cert.point.z
        assert gap == pytest.approx(1.0)

    def test_ambiguous_raises(self):
        prob = lp_min_x_geq_1()
        with pytest.raises(AmbiguousCertificateError):
            classify_certificate(prob, PrimalDualPoint([5.0], [], [3.0], [7.0]))

    def test_single_kind_for_same_point(self):
        prob = lp_min_x_geq_1()
        pt = PrimalDualPoint([1.0], [], [1.0], [0.0])
        kinds = {classify_certificate(prob, pt).kind for _ in range(3)}
        assert kinds == {CertificateKind.OPTIMAL}


class TestSerialization:
    def test_roundtrip_lp(self):
        prob = ConicProblem(
            [1.0, 2.0], [[1.0, 1.0]], [1.0], np.eye(3, 2), np.ones(3), [C.Nonneg(3)]
        )
        back = problem_from_json(problem_to_json(prob))
        np.testing.assert_array_equal(back.A, prob.A)
        np.testing.assert_array_equal(back.G, prob.G)
        assert back.cones == prob.cones

    def test_roundtrip_mixed_cones(self):
        from natcone.interp import build_interp

        ip = build_interp(1, 1)
        cones = [C.EpiNormSpectral(2, 3), C.WsosDual(ip.P), C.HypoPerLog(2)]
        q = sum(K.dim for K in cones)
        rng = np.random.default_rng(3)
        prob = ConicProblem(
            rng.standard_normal(2),
            rng.standard_normal((1, 2)),
            [0.5],
            rng.standard_normal((q, 2)),
            rng.standard_normal(q),
            cones,
        )
        back = problem_from_json(problem_to_json(prob))
        np.testing.assert_allclose(back.G, prob.G)
        assert [K.tag for K in back.cones] == [K.tag for K in prob.cones]
        np.testing.assert_allclose(back.cones[1].Ps[0], prob.cones[1].Ps[0])
