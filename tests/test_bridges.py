import math

import numpy as np
import pytest

from conftest import sample_barrier_point
from natcone import cones as C
from natcone.bridges import EFOptions, ef_cone_dims, extend, map_back
from natcone.interp import build_interp
from natcone.model import ConicProblem, PrimalDualPoint, residual_eps
from natcone.solver import SolveStatus, solve
from natcone.sym import sdim, svec, svec_index

EXP = EFOptions(geomean_mode="exp", linf_dual_mode="split")
SEC = EFOptions(geomean_mode="sec", linf_dual_mode="split")
SLACK = EFOptions(geomean_mode="exp", linf_dual_mode="slack")


def one_block_problem(K, seed=0):
    rng = np.random.default_rng(seed)
    n = 2
    return ConicProblem(
        rng.standard_normal(n),
        np.zeros((0, n)),
        [],
        rng.standard_normal((K.dim, n)),
        rng.standard_normal(K.dim),
        [K],
    )


def sweep_catalog():
    out = []
    for d in range(1, 9):
        out += [C.EpiNormInf(d), C.EpiNormInfDual(d), C.HypoGeomean(d),
                C.HypoRootDet(d), C.HypoPerLog(d), C.HypoPerLogDet(d)]
    for r in range(2, 9):
        for s in range(r, 9):
            out += [C.EpiNormSpectral(r, s), C.EpiNormSpectralDual(r, s)]
    for m, k in ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3)):
        P = build_interp(m, k).P
        out += [C.Wsos(P), C.WsosDual(P)]
    return out


class TestDimensionLaw:
    @pytest.mark.parametrize("opts", [EXP, SEC, SLACK], ids=["exp", "sec", "slack"])
    def test_extend_matches_ef_cone_dims(self, opts):
        for K in sweep_catalog():
            prob = one_block_problem(K)
            ef, _ = extend(prob, opts)
            qb, nub, nb, pb = ef_cone_dims(K, opts)
            assert (ef.q, ef.nu, ef.n - prob.n, ef.p - prob.p) == (qb, nub, nb, pb), K

    def test_spot_values(self):
        assert ef_cone_dims(C.EpiNormInfDual(3), EXP) == (7, 7.0, 6, 3)
        assert ef_cone_dims(C.EpiNormInfDual(3), SLACK) == (7, 7.0, 3, 0)
        assert ef_cone_dims(C.HypoPerLog(3), EXP) == (10, 10.0, 3, 0)
        # side 1: PSD(2) pairing rows, then one theta row and one exponential triple
        assert ef_cone_dims(C.HypoPerLogDet(1), EXP) == (7, 6.0, 2, 0)
        ip = build_interp(1, 2)
        tl = [P.shape[1] for P in ip.P]
        assert ef_cone_dims(C.Wsos(ip.P), EXP) == (
            sum(sdim(t) for t in tl),
            float(sum(tl)),
            sum(sdim(t) for t in tl),
            ip.U,
        )

    def test_standard_cones_pass_through(self):
        for K in (C.Nonneg(3), C.EpiNorm2(2), C.EpiPerSquare(2), C.PosSemidef(2), C.HypoPerLog(1)):
            assert ef_cone_dims(K, EXP) == (K.dim, K.nu, 0, 0)

    def test_sec_padding_counts(self):
        # d=5 pads to 8 leaves: 7 tower nodes, 22 rows, nu 15
        assert ef_cone_dims(C.HypoGeomean(5), SEC) == (22, 15.0, 7, 0)
        assert ef_cone_dims(C.HypoGeomean(4), SEC) == (10, 7.0, 3, 0)


class TestIdempotence:
    def test_standard_problem_unchanged(self):
        prob = ConicProblem(
            [1.0, 1.0],
            [[1.0, 0.0]],
            [1.0],
            np.eye(4, 2),
            np.ones(4),
            [C.Nonneg(1), C.EpiNorm2(2)],
        )
        ef, mapping = extend(prob, EXP)
        assert ef is prob
        assert mapping.ef_q == prob.q and mapping.ef_n == prob.n

    def test_mapping_identity_roundtrip(self):
        prob = ConicProblem(
            [1.0, 1.0], np.zeros((0, 2)), [], np.eye(3, 2), np.ones(3), [C.EpiNorm2(2)]
        )
        ef, mapping = extend(prob, EXP)
        pt = PrimalDualPoint([1.0, 2.0], [], [1.0, 0.1, 0.2], [0.5, 0.0, 0.1])
        back = map_back(mapping, pt)
        np.testing.assert_allclose(back.z, pt.z)
        np.testing.assert_allclose(back.s, pt.s)


def _ef_witness(K, s, opts):
    """Auxiliary-variable values making the rewritten rows feasible at s."""
    tag = K.tag
    if tag == "epinorminf" or tag in ("epinormspectral", "wsosdual"):
        return np.zeros(0)
    if tag == "epinorminfdual":
        w = s[1:]
        if opts.linf_dual_mode == "split":
            return np.concatenate((np.maximum(w, 0.0), np.maximum(-w, 0.0)))
        return np.abs(w)
    if tag == "epinormspectraldual":
        W = s[1:].reshape((K.r, K.s), order="F")
        U, sig, Vt = np.linalg.svd(W)
        Th = (U * sig) @ U.T
        Lam = (Vt.T[:, : K.r] * sig) @ Vt[: K.r]
        return np.concatenate((svec(Th, sym_tol=np.inf), svec(Lam, sym_tol=np.inf)))

    def geo_witness(u, w):
        d = w.size
        if d == 1:
            return np.zeros(0)
        geo = float(np.exp(np.mean(np.log(w))))
        if opts.geomean_mode == "exp":
            t = min(geo, max(u, geo / 2.0))
            lam = t * np.log(w / t)
            return np.concatenate(([t - u], lam))
        pad = 1 << max(1, (d - 1).bit_length())
        leaves = list(w) + [geo] * (pad - d)
        vals = []
        level = leaves
        while len(level) > 1:
            nxt = [math.sqrt(level[j] * level[j + 1]) for j in range(0, len(level), 2)]
            vals += nxt
            level = nxt
        return np.array(vals)

    def perlog_witness(u, v, w):
        return v * np.log(w / v)

    def paired_triangle(W):
        L = np.linalg.cholesky(W)
        Th = L @ np.diag(np.diag(L))
        out = np.empty(sdim(W.shape[0]))
        for j in range(W.shape[0]):
            for i in range(j, W.shape[0]):
                out[svec_index(j, i)] = Th[i, j]
        return out

    from natcone.sym import smat

    if tag == "hypogeomean":
        return geo_witness(s[0], s[1:])
    if tag == "hypoperlog":
        return perlog_witness(s[0], s[1], s[2:])
    if tag == "hyporootdet":
        W = smat(s[1:])
        tri = paired_triangle(W)
        diag = np.array([tri[svec_index(i, i)] for i in range(K.d)])
        return np.concatenate((tri, geo_witness(s[0], diag)))
    if tag == "hypoperlogdet":
        W = smat(s[2:])
        tri = paired_triangle(W)
        diag = np.array([tri[svec_index(i, i)] for i in range(K.d)])
        return np.concatenate((tri, perlog_witness(s[0], s[1], diag)))
    raise ValueError(tag)


class TestFeasibilityPreservation:
    @pytest.mark.parametrize("opts", [EXP, SEC, SLACK], ids=["exp", "sec", "slack"])
    def test_interior_point_extends_to_feasible_ef_point(self, opts):
        rng = np.random.default_rng(21)
        kinds = [
            C.EpiNormInf(4), C.EpiNormInfDual(4), C.EpiNormSpectral(2, 3),
            C.EpiNormSpectralDual(2, 3), C.HypoGeomean(5), C.HypoRootDet(3),
            C.HypoPerLog(3), C.HypoPerLogDet(3), C.WsosDual(build_interp(1, 2).P),
        ]
        for K in kinds:
            # identity data: block value equals x, so the witness is explicit
            prob = ConicProblem(
                np.zeros(K.dim), np.zeros((0, K.dim)), [],
                -np.eye(K.dim), np.zeros(K.dim), [K],
            )
            ef, mapping = extend(prob, opts)
            s = sample_barrier_point(K, rng)
            if K.uses_dual_barrier and K.tag != "epinorminfdual":
                s = K.grad(s) * -1.0  # interior point of the cone itself
            if K.tag == "epinorminfdual":
                w = rng.uniform(-0.5, 0.5, K.d)
                s = np.concatenate(([np.sum(np.abs(w)) + 0.3], w))
            aux = _ef_witness(K, s, opts)
            xeq = np.concatenate((s, aux))
            rows = ef.h - ef.G @ xeq
            for blk, sl in zip(ef.cones, ef.cone_slices()):
                assert blk.in_closure(rows[sl], 1e-9), (K.tag, blk.tag)
            if ef.p:
                np.testing.assert_allclose(ef.A @ xeq, ef.b, atol=1e-9)
            # and the recovered block value matches s
            back_s = map_back(mapping, PrimalDualPoint(xeq, np.zeros(ef.p), np.zeros(ef.q), rows)).s
            np.testing.assert_allclose(back_s, s, atol=1e-8)

    def test_wsos_roundtrip_with_known_certificate(self):
        ip = build_interp(1, 2)
        K = C.Wsos(ip.P)
        rng = np.random.default_rng(22)
        prob = ConicProblem(
            np.zeros(K.dim), np.zeros((0, K.dim)), [],
            -np.eye(K.dim), np.zeros(K.dim), [K],
        )
        ef, mapping = extend(prob, EXP)
        aux = []
        w = np.zeros(K.d)
        for P in K.Ps:
            R = rng.standard_normal((P.shape[1], P.shape[1]))
            Th = R @ R.T + 0.1 * np.eye(P.shape[1])
            aux.append(svec(Th))
            w += np.einsum("ij,jk,ik->i", P, Th, P)
        xeq = np.concatenate([w] + aux)
        rows = ef.h - ef.G @ xeq
        np.testing.assert_allclose(ef.A @ xeq, ef.b, atol=1e-10)
        for blk, sl in zip(ef.cones, ef.cone_slices()):
            assert blk.in_closure(rows[sl], 1e-9)
        back_s = map_back(mapping, PrimalDualPoint(xeq, np.zeros(ef.p), np.zeros(ef.q), rows)).s
        np.testing.assert_allclose(back_s, w, atol=1e-8)


class TestRecoverContracts:
    @pytest.mark.parametrize("opts", [EXP, SEC, SLACK], ids=["exp", "sec", "slack"])
    def test_roundtrip_recovers_block_value(self, opts):
        rng = np.random.default_rng(40)
        standard = [C.Nonneg(3), C.EpiNorm2(2), C.EpiPerSquare(2), C.PosSemidef(2), C.HypoPerLog(1)]
        for K in sweep_catalog() + standard:
            prob = one_block_problem(K)
            ef, mapping = extend(prob, opts)
            x = rng.standard_normal(prob.n)
            xe = np.concatenate((x, rng.standard_normal(ef.n - prob.n)))
            if ef.p:  # move the auxiliaries onto the block's equality rows
                xe[prob.n :] += np.linalg.lstsq(ef.A[:, prob.n :], ef.b - ef.A @ xe, rcond=None)[0]
                np.testing.assert_allclose(ef.A @ xe, ef.b, atol=1e-10)
            back = map_back(mapping, PrimalDualPoint(xe, np.zeros(ef.p), np.zeros(ef.q), ef.h - ef.G @ xe))
            np.testing.assert_allclose(back.s, prob.h - prob.G @ x, rtol=0, atol=1e-10, err_msg=repr(K))

    def test_epinorminf_halfsum_recovery(self):
        # s = x, so the ef rows of x are the rows the rewrite sends s to
        K = C.EpiNormInf(3)
        prob = ConicProblem(np.zeros(K.dim), np.zeros((0, K.dim)), [], -np.eye(K.dim), np.zeros(K.dim), [K])
        ef, mapping = extend(prob, EXP)
        assert ef.n == prob.n and ef.p == 0
        for seed in range(200):
            pt = sample_barrier_point(K, np.random.default_rng(seed))
            rows = ef.h - ef.G @ pt
            assert ef.cones[0].in_interior(rows), seed
            s = map_back(mapping, PrimalDualPoint(pt, [], np.zeros(ef.q), rows)).s
            np.testing.assert_allclose(s, pt, rtol=0, atol=1e-12, err_msg=str(seed))
            assert K.in_interior(s), seed

    def test_options_validation(self):
        with pytest.raises(ValueError):
            EFOptions(geomean_mode="pow")
        with pytest.raises(ValueError):
            EFOptions(linf_dual_mode="dual")

    def test_unsupported_cone_rejected(self):
        class Odd(C.Cone):
            tag = "odd"

            def __init__(self):
                self.dim, self.nu = 2, 2.0

        prob = ConicProblem([0.0], np.zeros((0, 1)), [], np.zeros((2, 1)), np.ones(2), [Odd()])
        with pytest.raises(ValueError, match="no extended formulation"):
            extend(prob, EXP)


class TestMapBackSolve:
    @pytest.mark.parametrize("opts", [EXP, SEC, SLACK], ids=["exp", "sec", "slack"])
    def test_mapped_back_residual_small(self, opts):
        rng = np.random.default_rng(30)
        for K in (C.EpiNormInf(3), C.EpiNormInfDual(3), C.HypoGeomean(3), C.HypoRootDet(2)):
            # primal-dual strictly feasible instance around (s0, z0)
            if K.uses_dual_barrier:
                z0 = sample_barrier_point(K, rng)
                s0 = -K.grad(z0)
            else:
                s0 = sample_barrier_point(K, rng)
                z0 = -K.grad(s0)
            n = 2
            G = rng.standard_normal((K.dim, n))
            h = G @ rng.standard_normal(n) + s0
            c = -G.T @ z0
            prob = ConicProblem(c, np.zeros((0, n)), [], G, h, [K])
            nf = solve(prob)
            ef, mapping = extend(prob, opts)
            efres = solve(ef)
            assert nf.status is SolveStatus.OPTIMAL and efres.status is SolveStatus.OPTIMAL
            back = map_back(mapping, efres)
            assert residual_eps(prob, back) <= 1e-4
            assert abs(ef.c @ efres.point.x - prob.c @ back.x) <= 1e-12 * (1 + abs(nf.primal_obj))
