import warnings
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import boundary_point, sample_barrier_point, small_catalog
from natcone import cones as C
from natcone.cones import NotInteriorError, make_cone
from natcone.interp import build_interp
from natcone.sym import sdim, smat, svec


class TestMakeCone:
    def test_epinorminf_dims(self):
        K = make_cone("epinorminf", d=5)
        assert (K.dim, K.nu) == (6, 6.0)

    def test_spectral_dims(self):
        K = make_cone("epinormspectral", r=2, s=3)
        assert (K.dim, K.nu) == (7, 3.0)

    def test_wsosdual_nu_is_column_sum(self):
        ip = build_interp(1, 3)
        K = make_cone("wsosdual", Ps=ip.P)
        assert K.nu == ip.L + ip.Lt
        assert K.dim == ip.U

    def test_catalog_dims(self):
        from natcone.sym import sdim

        assert make_cone("hyporootdet", d=4).dim == 1 + sdim(4)
        assert make_cone("hyporootdet", d=4).nu == 5.0
        assert make_cone("hypoperlog", d=3).dim == 5
        assert make_cone("hypoperlog", d=3).nu == 5.0
        assert make_cone("hypoperlogdet", d=3).dim == 2 + sdim(3)
        assert make_cone("hypoperlogdet", d=3).nu == 5.0
        assert make_cone("epipersquare", d=4).nu == 2.0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            make_cone("epinormspectral", r=3, s=2)
        with pytest.raises(ValueError):
            make_cone("wsosdual", Ps=[])
        with pytest.raises(ValueError):
            make_cone("wsos", Ps=[np.ones((2, 3))])
        with pytest.raises(ValueError):
            make_cone("nonneg", d=0)
        with pytest.raises(ValueError):
            make_cone("mystery")

    def test_dual_flags(self):
        flagged = {"epinorminfdual", "epinormspectraldual", "wsos"}
        for K in small_catalog():
            assert K.uses_dual_barrier == (K.tag in flagged)


class TestMembership:
    def test_epinorminf_examples(self):
        K = C.EpiNormInf(2)
        assert K.in_interior([1.0, 0.5, -0.5])
        assert not K.in_interior([1.0, 1.0, 0.0])  # boundary

    def test_hyporootdet_example(self):
        K = C.HypoRootDet(2)
        assert K.in_interior(np.concatenate(([0.5], svec(np.eye(2)))))

    def test_hypoperlog_examples(self):
        K = C.HypoPerLog(2)
        assert K.in_interior([-3.0, 1.0, 1.0, 1.0])
        assert not K.in_interior([0.1, 1.0, 1.0, 1.0])

    def test_dual_membership_examples(self):
        assert C.Nonneg(1).in_dual_interior([1.0])
        assert C.EpiNormInf(2).in_dual_interior([1.0, 0.4, 0.4])
        assert not C.EpiNormInf(2).in_dual_interior([1.0, 0.8, 0.4])

    def test_initial_points_interior(self):
        for K in small_catalog():
            assert K.in_interior(K.initial_point()), K.tag

    def test_initial_point_values(self):
        np.testing.assert_allclose(C.Nonneg(3).initial_point(), [1.0, 1.0, 1.0])
        np.testing.assert_allclose(C.EpiNorm2(2).initial_point(), [1.0, 0.0, 0.0])

    def test_boundary_points_excluded(self):
        rng = np.random.default_rng(5)
        for K in small_catalog(include_wsos=False):
            pt = boundary_point(K, rng)
            if K.uses_dual_barrier:
                assert not K.in_dual_interior(pt), K.tag
            else:
                assert not K.in_interior(pt), K.tag

    def test_wrong_length_rejected(self):
        assert not C.Nonneg(3).in_interior(np.ones(2))

    @pytest.mark.parametrize("K", small_catalog(), ids=lambda K: K.tag)
    def test_wrong_length_and_nan_points_rejected(self, K):
        # the wsos tests return False here without starting their auxiliary solve
        for pt in (np.ones(K.dim + 1), np.full(K.dim, np.nan)):
            assert K.in_interior(pt) is False
            assert K.in_dual_interior(pt) is False


class TestGradExamples:
    def test_nonneg(self):
        np.testing.assert_allclose(C.Nonneg(1).grad(np.array([2.0])), [-0.5])

    def test_epinorm2_at_unit(self):
        K = C.EpiNorm2(2)
        g = K.grad(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(g, [-2.0, 0.0, 0.0])
        assert np.array([1.0, 0.0, 0.0]) @ g == pytest.approx(-K.nu)

    @pytest.mark.parametrize("d", [2, 4, 7])
    def test_epinorminf_axis_gradient(self, d):
        K = C.EpiNormInf(d)
        s = np.zeros(d + 1)
        s[0] = 1.0
        assert K.grad(s)[0] == pytest.approx(-(d + 1))

    def test_not_interior_raises(self):
        with pytest.raises(NotInteriorError):
            C.Nonneg(2).barrier([1.0, -1.0])
        with pytest.raises(NotInteriorError):
            C.EpiNorm2(2).barrier([1.0, 2.0, 0.0])

    @pytest.mark.parametrize("K", small_catalog(), ids=lambda K: K.tag)
    def test_barrier_outside_domain_raises(self, K):
        # one guard for every cone: no math-domain ValueError, NaN or warning
        pts = [np.zeros(K.dim), -K.initial_point(), np.ones(K.dim + 1), np.full(K.dim, np.nan)]
        pts.append(boundary_point(K, np.random.default_rng(21)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for pt in pts:
                with pytest.raises(NotInteriorError):
                    K.barrier(pt)


class TestHessExamples:
    def test_nonneg(self):
        np.testing.assert_allclose(C.Nonneg(1).hess(np.array([2.0])), [[0.25]])

    def test_possemidef_at_identity(self):
        K = C.PosSemidef(2)
        np.testing.assert_allclose(K.hess(svec(np.eye(2))), np.eye(3), atol=1e-12)

    def test_homogeneity_identity_all_cones(self):
        rng = np.random.default_rng(6)
        for K in small_catalog():
            pt = sample_barrier_point(K, rng)
            g = K.grad(pt)
            H = K.hess(pt)
            resid = np.linalg.norm(H @ pt + g)
            assert resid <= 1e-8 * max(1.0, np.linalg.norm(g)), K.tag


class TestOracleProperties:
    """Logarithmic homogeneity, scaling, and two-sided membership checks."""

    @pytest.mark.parametrize("K", small_catalog(), ids=lambda K: K.tag)
    def test_homogeneity_100_points(self, K):
        rng = np.random.default_rng(hash(K.tag) % 2**32)
        for _ in range(100):
            pt = sample_barrier_point(K, rng)
            g = K.grad(pt)
            H = K.hess(pt)
            assert abs(pt @ g + K.nu) <= 1e-7 * K.nu
            assert np.max(np.abs(H @ pt + g)) <= 1e-7 * max(1.0, np.max(np.abs(g)))

    @pytest.mark.parametrize("K", small_catalog(), ids=lambda K: K.tag)
    def test_scaling_identity(self, K):
        rng = np.random.default_rng(11)
        pt = sample_barrier_point(K, rng)
        f0 = K.barrier(pt)
        for t in (0.5, 2.0, 10.0):
            want = f0 - K.nu * np.log(t)
            assert abs(K.barrier(t * pt) - want) <= 1e-8 * max(1.0, abs(want))

    @pytest.mark.parametrize("K", small_catalog(), ids=lambda K: K.tag)
    def test_finite_difference_consistency(self, K):
        rng = np.random.default_rng(12)
        for _ in range(20):
            pt = sample_barrier_point(K, rng)
            g = K.grad(pt)
            H = K.hess(pt)
            step = 1e-6 * (1.0 + np.max(np.abs(pt)))
            gfd = np.empty_like(g)
            Hfd = np.empty_like(H)
            for i in range(K.dim):
                e = np.zeros(K.dim)
                e[i] = step
                gfd[i] = (K.barrier(pt + e) - K.barrier(pt - e)) / (2 * step)
                Hfd[:, i] = (K.grad(pt + e) - K.grad(pt - e)) / (2 * step)
            gs = max(1.0, np.max(np.abs(g)))
            assert np.max(np.abs(gfd - g)) <= 1e-5 * gs, K.tag
            assert np.max(np.abs(Hfd - H)) <= 1e-4 * max(1.0, np.max(np.abs(H))), K.tag

    @pytest.mark.parametrize("K", small_catalog(), ids=lambda K: K.tag)
    def test_hessian_positive_definite(self, K):
        rng = np.random.default_rng(13)
        for _ in range(20):
            pt = sample_barrier_point(K, rng)
            H = K.hess(pt)
            assert np.linalg.eigvalsh(0.5 * (H + H.T)).min() > 0.0, K.tag

    @pytest.mark.parametrize("K", small_catalog(), ids=lambda K: K.tag)
    def test_negative_gradient_in_dual(self, K):
        # -grad f(s) lies in the interior of the dual of the barrier's cone
        rng = np.random.default_rng(14)
        for _ in range(10):
            pt = sample_barrier_point(K, rng)
            g = K.grad(pt)
            if K.uses_dual_barrier:
                assert K.in_interior(-g), K.tag
            else:
                assert K.in_dual_interior(-g), K.tag


def _loop_w_block(K, pt):
    """Matrix block of the Hessian, one column per svec basis direction E_k.

    Column k is svec of the derivative of the matrix part of the gradient
    along E_k, written with the chain rule as the direct reference for the
    closed-form Hessians.
    """
    d = K.d
    W = smat(pt[K.dim - sdim(d):])
    Wi = np.linalg.inv(W)
    Wi = 0.5 * (Wi + Wi.T)
    logdet = np.linalg.slogdet(W)[1]
    cols = []
    for k in range(sdim(d)):
        E = smat(np.eye(sdim(d))[k])
        t = np.trace(Wi @ E)
        WEW = Wi @ E @ Wi
        if K.tag == "possemidef":
            col = WEW
        elif K.tag == "hyporootdet":
            u, R = pt[0], np.exp(logdet / d)
            phi = R - u
            dR = R * t / d
            dalpha = dR / (d * phi) - R * dR / (d * phi**2)
            col = -dalpha * Wi + (R / (d * phi) + 1.0) * WEW
        else:
            u, v = pt[0], pt[1]
            xi = v * (logdet - d * np.log(v)) - u
            col = (v * v * t / xi**2) * Wi + (v / xi + 1.0) * WEW
        cols.append(svec(col, sym_tol=np.inf))
    return np.column_stack(cols)


class TestPsdHessianReference:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("kind", [C.PosSemidef, C.HypoRootDet, C.HypoPerLogDet])
    def test_matrix_block_matches_column_loop(self, kind, d):
        K = kind(d)
        rng = np.random.default_rng(40 + d)
        for _ in range(3):
            pt = sample_barrier_point(K, rng)
            H = K.hess(pt)
            off = K.dim - sdim(d)
            want = _loop_w_block(K, pt)
            assert np.array_equal(H, H.T)
            assert np.max(np.abs(H[off:, off:] - want)) <= 1e-12 * np.max(np.abs(want))


SPECTRAL_SHAPES = [(1, 1), (1, 3), (2, 2), (2, 3), (3, 5)]


def near_boundary_point(K, rng, eps):
    """A max-norm or spectral-norm barrier point with u = (1 + eps) times the norm of w."""
    pt = sample_barrier_point(K, rng)
    if K.tag in ("epinorminf", "epinorminfdual"):
        norm = np.max(np.abs(pt[1:]))
    else:
        norm = np.linalg.svd(K._mat(pt[1:]), compute_uv=False)[0]
    pt[0] = norm * (1.0 + eps)
    return pt


def _exact_arrow(pt):
    """(u, w, r, a, b, D) of the max-norm barrier's arrow Hessian at pt, in exact rationals."""
    u, w = Fraction(pt[0]), [Fraction(x) for x in pt[1:]]
    r = [u * u - x * x for x in w]
    a = sum(-2 / ri + 4 * u * u / ri**2 for ri in r) - (len(w) - 1) / u**2
    b = [-4 * u * x / ri**2 for x, ri in zip(w, r)]
    D = [2 / ri + 4 * x * x / ri**2 for x, ri in zip(w, r)]
    return u, w, r, a, b, D


def _exact_arrow_quad(pt, v):
    """v' H^-1 v for the max-norm barrier's arrow Hessian, in exact rational arithmetic."""
    _, _, _, a, b, D = _exact_arrow(pt)
    v = [Fraction(x) for x in v]
    schur = a - sum(bi * bi / Di for bi, Di in zip(b, D))
    lead = v[0] - sum(bi * vi / Di for bi, vi, Di in zip(b, v[1:], D))
    return sum(vi * vi / Di for vi, Di in zip(v[1:], D)) + lead * lead / schur


class TestInverseHessianQuad:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize(
        "kind",
        [
            C.Nonneg,
            C.PosSemidef,
            C.EpiNorm2,
            C.EpiPerSquare,
            C.EpiNormInf,
            C.EpiNormInfDual,
            C.HypoPerLog,
        ],
    )
    def test_closed_form_matches_dense_solve(self, kind, d):
        K = kind(d)
        rng = np.random.default_rng(60 + d)
        for _ in range(3):
            pt = sample_barrier_point(K, rng)
            v = rng.standard_normal(K.dim)
            want = v @ np.linalg.solve(K.hess(pt), v)
            assert abs(K.inv_hess_quad(pt, v) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("kind", [C.EpiNormSpectral, C.EpiNormSpectralDual])
    @pytest.mark.parametrize("r, s", SPECTRAL_SHAPES)
    def test_spectral_closed_form_matches_dense_solve(self, kind, r, s):
        K = kind(r, s)
        rng = np.random.default_rng(70 + r * s)
        for _ in range(3):
            pt = sample_barrier_point(K, rng)
            v = rng.standard_normal(K.dim)
            want = v @ np.linalg.solve(K.hess(pt), v)
            assert abs(K.inv_hess_quad(pt, v) - want) <= 1e-10 * abs(want)

    @pytest.mark.parametrize("d", [2, 8])
    def test_max_norm_quad_is_exact_near_the_boundary(self, d):
        # u = max|w_i| (1 + eps): the quad agrees with an exact rational
        # evaluation of the arrow form at the same float inputs, down to
        # eps = 1e-10, where a - b'D^-1 b computed in floats cancels entirely
        K = C.EpiNormInf(d)
        rng = np.random.default_rng(80 + d)
        for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            for _ in range(2):
                pt = near_boundary_point(K, rng, eps)
                v = rng.standard_normal(K.dim)
                want = float(_exact_arrow_quad(pt, v))
                assert abs(K.inv_hess_quad(pt, v) - want) <= 1e-12 * want, eps

    def test_psd_outside_domain_is_inf(self):
        K = C.PosSemidef(2)
        assert K.inv_hess_quad(svec(-np.eye(2)), np.ones(3)) == np.inf

    def test_other_cones_have_no_closed_form(self):
        K = C.HypoGeomean(2)
        assert K.inv_hess_quad(K.initial_point(), np.ones(3)) is None


class TestInverseHessianProd:
    @pytest.mark.parametrize(
        "K",
        [kind(d) for kind in (C.EpiNormInf, C.EpiNormInfDual) for d in (1, 2, 3, 5, 8)]
        + [kind(r, s) for kind in (C.EpiNormSpectral, C.EpiNormSpectralDual)
           for r, s in SPECTRAL_SHAPES],
        ids=repr,
    )
    def test_closed_form_matches_dense_solve(self, K):
        rng = np.random.default_rng(90 + K.dim)
        for _ in range(3):
            pt = sample_barrier_point(K, rng)
            H = K.hess(pt)
            for V in (rng.standard_normal(K.dim), rng.standard_normal((K.dim, 4))):
                X = K.inv_hess_prod(pt, V)
                want = np.linalg.solve(H, V)
                assert X.shape == V.shape
                assert np.max(np.abs(X - want)) <= 1e-10 * np.max(np.abs(want))
            # a point 1e-6 from the boundary: a backward-stable solve
            pt = near_boundary_point(K, rng, 1e-6)
            H = K.hess(pt)
            for V in (rng.standard_normal(K.dim), rng.standard_normal((K.dim, 4))):
                X = K.inv_hess_prod(pt, V)
                res = np.linalg.norm(H @ X - V)
                assert res <= 1e-14 * (np.linalg.norm(H) * np.linalg.norm(X) + np.linalg.norm(V))

    def test_other_cones_have_no_closed_form(self):
        for K in (C.HypoGeomean(2), C.Wsos(build_interp(1, 2).P)):
            assert K.inv_hess_prod(K.initial_point(), np.ones(K.dim)) is None


PRODUCT_FORM_CONES = [
    kind(d) for kind in (C.EpiNormInf, C.EpiNormInfDual) for d in (1, 2, 3, 5, 8)
] + [
    kind(r, s)
    for kind in (C.EpiNormSpectral, C.EpiNormSpectralDual)
    for r, s in SPECTRAL_SHAPES + [(15, 30)]
]


class TestHessianProd:
    @pytest.mark.parametrize("K", PRODUCT_FORM_CONES, ids=repr)
    def test_closed_form_matches_dense_hessian(self, K):
        rng = np.random.default_rng(100 + K.dim)
        for _ in range(3):
            pt = sample_barrier_point(K, rng)
            H = K.hess(pt)
            for V in (rng.standard_normal(K.dim), rng.standard_normal((K.dim, 4))):
                X = K.hess_prod(pt, V)
                want = H @ V
                assert X.shape == V.shape
                assert np.max(np.abs(X - want)) <= 1e-12 * np.max(np.abs(want))
                # the inverse product undoes it
                back = K.inv_hess_prod(pt, X)
                assert np.max(np.abs(back - V)) <= 1e-10 * np.max(np.abs(V))
                # a factor computed once serves both products with the same bits
                f = K._factor(pt)
                assert np.array_equal(K.hess_prod(pt, V, f), X)
                assert np.array_equal(K.inv_hess_prod(pt, X, f), back)

    def test_other_cones_have_no_closed_form(self):
        kinds = {type(K) for K in PRODUCT_FORM_CONES}
        others = [K for K in small_catalog() if type(K) not in kinds]
        others.append(C._Run(C.Nonneg(2), 3))
        assert len(others) == len(small_catalog()) - 4 + 1
        for K in others:
            pt = K.initial_point()
            assert K._factor(pt) is None, K
            assert K.hess_prod(pt, np.ones(K.dim)) is None, K


class TestMaxNormNearTheBoundary:
    # u = max|w_i| (1 + eps): grad and hess_prod agree with an exact rational
    # evaluation at the same float inputs; u^2 - w^2 formed in floats loses
    # about log10(1/eps) digits of both

    @staticmethod
    def points(d):
        K = C.EpiNormInf(d)
        rng = np.random.default_rng(110 + d)
        for eps in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
            for _ in range(2):
                yield K, eps, near_boundary_point(K, rng, eps), rng.standard_normal(K.dim)

    @pytest.mark.parametrize("d", [2, 8])
    def test_grad_is_exact(self, d):
        for K, eps, pt, _ in self.points(d):
            u, w, r, _, _, _ = _exact_arrow(pt)
            g = [-2 * u * sum(1 / ri for ri in r) + (d - 1) / u]
            g += [2 * x / ri for x, ri in zip(w, r)]
            want = np.array([float(x) for x in g])
            assert np.all(np.abs(K.grad(pt) - want) <= 1e-12 * np.abs(want)), eps

    @pytest.mark.parametrize("d", [2, 8])
    def test_hess_prod_is_exact(self, d):
        for K, eps, pt, v in self.points(d):
            _, _, _, a, b, D = _exact_arrow(pt)
            vq = [Fraction(x) for x in v]
            Hv = [a * vq[0] + sum(bi * vi for bi, vi in zip(b, vq[1:]))]
            Hv += [bi * vq[0] + Di * vi for bi, Di, vi in zip(b, D, vq[1:])]
            want = np.array([float(x) for x in Hv])
            got = K.hess_prod(pt, v)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), eps


STACKABLE = [C.Nonneg, C.EpiNorm2, C.EpiPerSquare, C.HypoPerLog]
PLACES = ["interior", "boundary", "exterior", "zero", "negated"]


def _member_point(K, rng, place):
    if place == "interior":
        return sample_barrier_point(K, rng)
    if place == "boundary":
        return boundary_point(K, rng)
    if place == "exterior":
        return rng.standard_normal(K.dim)
    if place == "zero":
        return np.zeros(K.dim)
    return -sample_barrier_point(K, rng)


class TestStackedRuns:
    """A run of equal blocks evaluated as one stacked block matches its members."""

    @pytest.mark.parametrize("kind", STACKABLE, ids=lambda kind: kind.tag)
    @settings(max_examples=30, deadline=None)
    @given(
        d=st.integers(1, 3),
        places=st.lists(st.sampled_from(PLACES), min_size=2, max_size=5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_membership_is_all_of_members(self, kind, d, places, seed):
        K = kind(d)
        rng = np.random.default_rng(seed)
        pts = [_member_point(K, rng, place) for place in places]
        run, flat = C._Run(K, len(pts)), np.concatenate(pts)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run.in_interior(flat) == all(K.in_interior(p) for p in pts)
            assert run.in_dual_interior(flat) == all(K.in_dual_interior(p) for p in pts)
            for margins, member in ((run.primal_margins, K.primal_margins),
                                    (run.dual_margins, K.dual_margins)):
                want = np.stack([member(p) for p in pts])
                assert np.array_equal(margins(flat), want)

    @pytest.mark.parametrize("kind", STACKABLE, ids=lambda kind: kind.tag)
    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 3), r=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    def test_oracles_match_members(self, kind, d, r, seed):
        K, run = kind(d), C._Run(kind(d), r)
        rng = np.random.default_rng(seed)
        pts = [sample_barrier_point(K, rng) for _ in range(r)]
        vs = [rng.standard_normal(K.dim) for _ in range(r)]
        zs = [-K.grad(p) for p in pts]
        flat, v, z = np.concatenate(pts), np.concatenate(vs), np.concatenate(zs)
        assert np.array_equal(run.grad(flat), np.concatenate([K.grad(p) for p in pts]))
        assert np.array_equal(run.hess(flat), sla.block_diag(*[K.hess(p) for p in pts]))
        assert run._products(flat, z) == [K._products(p, w)[0] for p, w in zip(pts, zs)]
        assert run.barrier(flat) == pytest.approx(sum(K.barrier(p) for p in pts), rel=1e-14)
        # every stackable cone has a closed form, which the run sums
        want = sum(K.inv_hess_quad(p, w) for p, w in zip(pts, vs))
        assert abs(run.inv_hess_quad(flat, v) - want) <= 1e-14 * abs(want)

    def test_only_runs_of_stackable_blocks_are_grouped(self):
        blocks = [C.Nonneg(1), C.Nonneg(1), C.Nonneg(2), C.PosSemidef(2), C.PosSemidef(2)]
        blocks += [C.HypoPerLog(1)] * 3 + [C.EpiNorm2(1), C.EpiPerSquare(1)]
        runs = C._stack_runs(blocks)
        assert [type(K).__name__ for K in runs] == [
            "_Run", "Nonneg", "PosSemidef", "PosSemidef", "_Run", "EpiNorm2", "EpiPerSquare"
        ]
        assert (runs[0].r, runs[4].r, runs[4].tag, runs[4].nu) == (2, 3, "hypoperlog", 9.0)
        assert all(K is blocks[i] for K, i in zip(runs[1:4], (2, 3, 4)))


class TestWsosSpecifics:
    def test_wsosdual_pivot_threshold_boundary(self):
        ip = build_interp(1, 2)
        K = C.WsosDual(ip.P)
        w = np.ones(K.d)
        assert K.in_interior(w)
        assert not K.in_interior(np.zeros(K.d))

    def test_wsos_membership_via_auxiliary_solve(self):
        ip = build_interp(2, 1)
        K = C.Wsos(ip.P)
        assert K.in_interior(K.initial_point())
        assert not K.in_interior(-K.initial_point())


@pytest.mark.parametrize(
    "parent, K",
    [
        pytest.param(C.EpiNormInf(3), C.EpiNormInfDual(3), id="epinorminfdual"),
        pytest.param(
            C.EpiNormSpectral(2, 3), C.EpiNormSpectralDual(2, 3), id="epinormspectraldual"
        ),
        pytest.param(C.WsosDual(build_interp(2, 1).P), C.Wsos(build_interp(2, 1).P), id="wsos"),
    ],
)
def test_parent_with_sides_swapped(parent, K):
    # a dual-barrier cone is its parent with the primal and dual sides swapped;
    # for wsos, some barrier-domain draws are moment vectors that are not SOS,
    # so a primal test left unswapped would disagree on them
    assert K.uses_dual_barrier and not parent.uses_dual_barrier
    assert (K.dim, K.nu) == (parent.dim, parent.nu)
    assert (K.cheap_primal_test, K.cheap_dual_test) == (
        parent.cheap_dual_test, parent.cheap_primal_test
    )
    rng = np.random.default_rng(0)
    for _ in range(40):
        pt = sample_barrier_point(K, rng)
        np.testing.assert_array_equal(K.primal_margins(pt), parent.dual_margins(pt))
        np.testing.assert_array_equal(K.dual_margins(pt), parent.primal_margins(pt))
        assert K.in_interior(pt) == parent.in_dual_interior(pt)
        assert K.in_dual_interior(pt) == parent.in_interior(pt)
        assert np.array_equal(K.grad(pt), parent.grad(pt))
        assert np.array_equal(K.hess(pt), parent.hess(pt))
        assert K.barrier(pt) == parent.barrier(pt)
