"""Rewrites of exotic-cone constraints into standard-cone extended forms.

``extend`` replaces every exotic cone block of a problem with an equivalent
formulation over the standard cones (nonnegative, second-order, rotated
second-order, PSD, exponential = 3-dimensional perspective-log), possibly
introducing auxiliary variables and equality rows. ``map_back`` converts a
solution of the extended problem into the original space, including the dual
block values, which are pulled back through the transposed row maps.

Two rewrites of the geometric-mean cone are available: a tower of 3-dim
rotated second-order cones ("sec") and a set of exponential-cone triples
("exp"). The l1-norm epigraph likewise has two LP rewrites: a split into
positive/negative parts tied by equality rows ("split"), and an
absolute-value slack form without equalities ("slack").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import cones as C
from .model import ConicProblem, PrimalDualPoint
from .sym import sdim, svec, svec_index

_SQRT2 = math.sqrt(2.0)

__all__ = ["EFOptions", "EFMapping", "BlockMap", "extend", "ef_cone_dims", "map_back"]

_STANDARD_TAGS = {"nonneg", "epinorm2", "epipersquare", "possemidef"}


@dataclass(frozen=True)
class EFOptions:
    """Rewrite choices: geometric-mean mode ('exp' or 'sec') and l1 mode."""

    geomean_mode: str = "exp"
    linf_dual_mode: str = "split"

    def __post_init__(self):
        if self.geomean_mode not in ("exp", "sec"):
            raise ValueError(f"unknown geomean_mode {self.geomean_mode!r}")
        if self.linf_dual_mode not in ("split", "slack"):
            raise ValueError(f"unknown linf_dual_mode {self.linf_dual_mode!r}")


@dataclass
class BlockMap:
    """Correspondence of one original cone block to its rewritten rows."""

    tag: str
    nf_rows: slice
    ef_rows: slice
    aux: slice
    eq_rows: slice
    T: sp.csr_matrix  # ef cone rows as a map of the block value
    Te: sp.csr_matrix  # added equality rows as a map of the block value
    recover: object  # (ef_row_values, aux_values) -> block value


@dataclass
class EFMapping:
    nf_n: int
    nf_p: int
    nf_q: int
    ef_n: int
    ef_p: int
    ef_q: int
    blocks: list = field(default_factory=list)


class _Builder:
    """Collects rewritten rows for one block.

    Row terms reference either a component of the original block value
    (("s", j)) or a local auxiliary variable (("aux", a)).
    """

    def __init__(self, qb):
        self.qb = qb
        self.naux = 0
        self.cones = []
        self.cone_terms = []  # (row, kind, idx, coeff)
        self.nrows = 0
        self.eq_terms = []
        self.neq = 0

    def new_aux(self, count):
        ids = list(range(self.naux, self.naux + count))
        self.naux += count
        return ids

    def add_rows(self, cone, rows):
        start = self.nrows
        for r, terms in enumerate(rows):
            for (kind, idx), coeff in terms:
                self.cone_terms.append((start + r, kind, idx, coeff))
        self.nrows += len(rows)
        self.cones.append(cone)
        return start

    def add_eq(self, terms):
        for (kind, idx), coeff in terms:
            self.eq_terms.append((self.neq, kind, idx, coeff))
        self.neq += 1

    def matrices(self):
        def build(entries, nrows):
            ts = [(r, i, c) for (r, k, i, c) in entries if k == "s"]
            ta = [(r, i, c) for (r, k, i, c) in entries if k == "aux"]
            T = sp.coo_matrix(
                ([c for _, _, c in ts], ([r for r, _, _ in ts], [i for _, i, _ in ts])),
                shape=(nrows, self.qb),
            ).tocsr()
            A = sp.coo_matrix(
                ([c for _, _, c in ta], ([r for r, _, _ in ta], [i for _, i, _ in ta])),
                shape=(nrows, self.naux),
            ).tocsr()
            return T, A
        T, Caux = build(self.cone_terms, self.nrows)
        Te, Ce = build(self.eq_terms, self.neq)
        return T, Caux, Te, Ce


def _s(j, c=1.0):
    return (("s", j), c)


def _a(i, c=1.0):
    return (("aux", i), c)


# ---------------------------------------------------------------------------
# per-kind emitters
# ---------------------------------------------------------------------------


def _emit_geomean(bld, u_ref, w_refs, mode):
    """Rewrite u <= geomean(w); returns a (rows, aux) -> (u, w) reader."""
    d = len(w_refs)
    if d == 1:
        start = bld.add_rows(C.Nonneg(2), [[(w_refs[0], 1.0), (u_ref, -1.0)], [(w_refs[0], 1.0)]])

        def recover(rows, aux):
            return rows[start + 1] - rows[start], np.array([rows[start + 1]])

        return recover

    if mode == "exp":
        ids = bld.new_aux(1 + d)
        theta, lams = ids[0], ids[1:]
        bld.add_rows(C.Nonneg(1), [[_a(theta)]])
        bld.add_rows(C.Nonneg(1), [[_a(l) for l in lams]])
        starts = []
        for i in range(d):
            starts.append(
                bld.add_rows(
                    C.HypoPerLog(1), [[_a(lams[i])], [(u_ref, 1.0), _a(theta)], [(w_refs[i], 1.0)]]
                )
            )

        def recover(rows, aux):
            u = rows[starts[0] + 1] - aux[theta]
            w = np.array([rows[st + 2] for st in starts])
            return u, w

        return recover

    # sec: binary tower of 3-dim rotated second-order cones, padded to a
    # power of two with the tower root variable
    pad = 1 << max(1, (d - 1).bit_length())
    node_ids = bld.new_aux(pad - 1)
    root = node_ids[-1]
    leaves = list(w_refs) + [("aux", root)] * (pad - d)
    level = [[(ref, 1.0)] for ref in leaves]
    nxt_id = 0
    leaf_start = bld.nrows
    while len(level) > 1:
        nxt = []
        for j in range(0, len(level), 2):
            node = node_ids[nxt_id]
            nxt_id += 1
            bld.add_rows(C.EpiPerSquare(1), [level[j], level[j + 1], [_a(node, _SQRT2)]])
            nxt.append([_a(node)])
        level = nxt
    last = bld.add_rows(C.Nonneg(1), [[_a(root), (u_ref, -1.0)]])

    def recover(rows, aux):
        u = aux[root] - rows[last]
        w = np.array([rows[leaf_start + 3 * (i // 2) + (i % 2)] for i in range(d)])
        return u, w

    return recover


def _emit_perlog(bld, u_ref, v_ref, w_refs):
    """Rewrite u <= sum_i v log(w_i / v); returns a (rows, aux) -> (u, v, w) reader."""
    d = len(w_refs)
    thetas = bld.new_aux(d)
    first = bld.add_rows(C.Nonneg(1), [[_a(t) for t in thetas] + [(u_ref, -1.0)]])
    starts = []
    for i in range(d):
        starts.append(
            bld.add_rows(C.HypoPerLog(1), [[_a(thetas[i])], [(v_ref, 1.0)], [(w_refs[i], 1.0)]])
        )

    def recover(rows, aux):
        u = sum(aux[t] for t in thetas) - rows[first]
        v = rows[starts[0] + 1]
        w = np.array([rows[st + 2] for st in starts])
        return u, v, w

    return recover


def _emit_psd_pairing(bld, m, w_base_fn, theta_ids):
    """PSD rows of [[W, Th], [Th', Diag(diag Th)]] with W from the block value.

    ``w_base_fn(k)`` gives the block component holding svec(W)[k]. Th is an
    auxiliary LOWER-TRIANGULAR matrix (sdim(m) free entries, packed so entry
    (i, j), i >= j, sits at theta_ids[svec_index(j, i)]); triangularity makes
    det(W) >= prod(diag Th) whenever the pairing is feasible, so the hypograph
    constraint on diag(Th) is exact rather than a relaxation.
    """
    side = 2 * m
    rows = []
    for jj in range(side):
        for ii in range(jj + 1):
            if jj < m:  # upper-left: W
                rows.append([(w_base_fn(svec_index(ii, jj)), 1.0)])
            elif ii < m:  # cross block: Th entries, zero above the diagonal
                i, jp = ii, jj - m
                if i >= jp:
                    rows.append([_a(theta_ids[svec_index(jp, i)], _SQRT2)])
                else:
                    rows.append([])
            else:  # lower-right: Diag(diag Th)
                i, jp = ii - m, jj - m
                if i == jp:
                    rows.append([_a(theta_ids[svec_index(i, i)])])
                else:
                    rows.append([])
    start = bld.add_rows(C.PosSemidef(side), rows)
    return start


def _rewrite_block(K, opts):
    """Build the rewrite of one cone block; returns (builder, recover)."""
    bld = _Builder(K.dim)
    tag = K.tag

    if tag in _STANDARD_TAGS or (tag == "hypoperlog" and K.d == 1):
        bld.add_rows(type(K)(**K.params()), [[_s(j)] for j in range(K.dim)])

        def recover(rows, aux):
            return rows

        return bld, recover

    if tag == "epinorminf":
        d = K.d
        rows = [[_s(0), _s(1 + i, -1.0)] for i in range(d)]
        rows += [[_s(0), _s(1 + i, 1.0)] for i in range(d)]
        bld.add_rows(C.Nonneg(2 * d), rows)

        def recover(rows, aux):
            lo, hi = rows[:d], rows[d : 2 * d]
            return np.concatenate(([float(np.mean(lo + hi)) / 2.0], (hi - lo) / 2.0))

        return bld, recover

    if tag == "epinorminfdual":
        d = K.d
        if opts.linf_dual_mode == "split":
            ids = bld.new_aux(2 * d)
            th, lam = ids[:d], ids[d:]
            for i in range(d):
                bld.add_eq([_s(1 + i), _a(th[i], -1.0), _a(lam[i], 1.0)])
            bld.add_rows(C.Nonneg(d), [[_a(t)] for t in th])
            bld.add_rows(C.Nonneg(d), [[_a(l)] for l in lam])
            bld.add_rows(C.Nonneg(1), [[_s(0)] + [_a(i, -1.0) for i in ids]])

            def recover(rows, aux):
                w = aux[:d] - aux[d:]
                return np.concatenate(([rows[2 * d] + float(np.sum(aux))], w))

            return bld, recover

        ys = bld.new_aux(d)
        bld.add_rows(C.Nonneg(d), [[_a(ys[i]), _s(1 + i, -1.0)] for i in range(d)])
        bld.add_rows(C.Nonneg(d), [[_a(ys[i]), _s(1 + i, 1.0)] for i in range(d)])
        bld.add_rows(C.Nonneg(1), [[_s(0)] + [_a(y, -1.0) for y in ys]])

        def recover(rows, aux):
            w = (rows[d : 2 * d] - rows[:d]) / 2.0
            return np.concatenate(([rows[2 * d] + float(np.sum(aux))], w))

        return bld, recover

    if tag == "epinormspectral":
        r, s = K.r, K.s
        side = r + s
        rows = []
        diag_rows = []
        for jj in range(side):
            for ii in range(jj + 1):
                if ii == jj:
                    diag_rows.append(len(rows))
                    rows.append([_s(0)])
                elif ii < r <= jj:
                    rows.append([_s(1 + (jj - r) * r + ii, _SQRT2)])
                else:
                    rows.append([])
        bld.add_rows(C.PosSemidef(side), rows)

        def recover(rws, aux):
            u = float(np.mean([rws[k] for k in diag_rows]))
            W = np.empty((r, s))
            for j in range(s):
                for i in range(r):
                    W[i, j] = rws[svec_index(i, r + j)] / _SQRT2
            return np.concatenate(([u], W.ravel(order="F")))

        return bld, recover

    if tag == "epinormspectraldual":
        r, s = K.r, K.s
        side = r + s
        th = bld.new_aux(sdim(r))
        lam = bld.new_aux(sdim(s))
        rows = []
        for jj in range(side):
            for ii in range(jj + 1):
                if jj < r:
                    rows.append([_a(th[svec_index(ii, jj)])])
                elif ii < r:
                    rows.append([_s(1 + (jj - r) * r + ii, _SQRT2)])
                else:
                    rows.append([_a(lam[svec_index(ii - r, jj - r)])])
        bld.add_rows(C.PosSemidef(side), rows)
        th_diag = [th[svec_index(i, i)] for i in range(r)]
        lam_diag = [lam[svec_index(i, i)] for i in range(s)]
        last = bld.add_rows(
            C.Nonneg(1),
            [[_s(0)] + [_a(t, -0.5) for t in th_diag] + [_a(l, -0.5) for l in lam_diag]],
        )

        def recover(rws, aux):
            W = np.empty((r, s))
            for j in range(s):
                for i in range(r):
                    W[i, j] = rws[svec_index(i, r + j)] / _SQRT2
            tr = sum(aux[t] for t in th_diag) + sum(aux[l] for l in lam_diag)
            return np.concatenate(([rws[last] + tr / 2.0], W.ravel(order="F")))

        return bld, recover

    if tag == "hypogeomean":
        rec = _emit_geomean(bld, ("s", 0), [("s", 1 + i) for i in range(K.d)], opts.geomean_mode)

        def recover(rows, aux):
            u, w = rec(rows, aux)
            return np.concatenate(([u], w))

        return bld, recover

    if tag == "hyporootdet":
        m = K.d
        th = bld.new_aux(sdim(m))
        psd_start = _emit_psd_pairing(bld, m, lambda k: ("s", 1 + k), th)
        diag_refs = [("aux", th[svec_index(i, i)]) for i in range(m)]
        rec = _emit_geomean(bld, ("s", 0), diag_refs, opts.geomean_mode)

        def recover(rows, aux):
            u, _ = rec(rows, aux)
            wv = np.array([rows[psd_start + svec_index(i, j)] for j in range(m) for i in range(j + 1)])
            return np.concatenate(([u], wv))

        return bld, recover

    if tag == "hypoperlog":
        rec = _emit_perlog(bld, ("s", 0), ("s", 1), [("s", 2 + i) for i in range(K.d)])

        def recover(rows, aux):
            u, v, w = rec(rows, aux)
            return np.concatenate(([u, v], w))

        return bld, recover

    if tag == "hypoperlogdet":
        m = K.d
        th = bld.new_aux(sdim(m))
        psd_start = _emit_psd_pairing(bld, m, lambda k: ("s", 2 + k), th)
        diag_refs = [("aux", th[svec_index(i, i)]) for i in range(m)]
        rec = _emit_perlog(bld, ("s", 0), ("s", 1), diag_refs)

        def recover(rows, aux):
            u, v, _ = rec(rows, aux)
            wv = np.array([rows[psd_start + svec_index(i, j)] for j in range(m) for i in range(j + 1)])
            return np.concatenate(([u, v], wv))

        return bld, recover

    if tag == "wsos":
        Ps = K.Ps
        U = K.d
        basis = [np.stack([svec(np.outer(P[u], P[u]), sym_tol=np.inf) for u in range(U)]) for P in Ps]
        offs = []
        for P, B in zip(Ps, basis):
            ids = bld.new_aux(sdim(P.shape[1]))
            offs.append(ids)
            bld.add_rows(C.PosSemidef(P.shape[1]), [[_a(i)] for i in ids])
        for u in range(U):
            terms = [_s(u)]
            for ids, B in zip(offs, basis):
                terms += [_a(ids[k], -B[u, k]) for k in range(len(ids)) if B[u, k] != 0.0]
            bld.add_eq(terms)

        def recover(rows, aux):
            w = np.zeros(U)
            for ids, B in zip(offs, basis):
                w += B @ aux[list(ids)]
            return w

        return bld, recover

    if tag == "wsosdual":
        Ps = K.Ps
        U = K.d
        for P in Ps:
            B = np.stack([svec(np.outer(P[u], P[u]), sym_tol=np.inf) for u in range(U)])
            rows = [
                [_s(u, B[u, k]) for u in range(U) if B[u, k] != 0.0]
                for k in range(sdim(P.shape[1]))
            ]
            bld.add_rows(C.PosSemidef(P.shape[1]), rows)

        def recover(rows, aux, _K=K):
            Bs = [
                np.stack([svec(np.outer(P[u], P[u]), sym_tol=np.inf) for u in range(U)])
                for P in _K.Ps
            ]
            Bstack = np.vstack([B.T for B in Bs])
            sol, *_ = np.linalg.lstsq(Bstack, rows, rcond=None)
            return sol

        return bld, recover

    raise ValueError(f"no extended formulation for cone kind {tag!r}")


def ef_cone_dims(K, options: EFOptions | None = None):
    """Added dimensions (q_bar, nu_bar, n_bar, p_bar) of the rewrite of one cone."""
    bld, _ = _rewrite_block(K, options or EFOptions())
    return (bld.nrows, float(sum(B.nu for B in bld.cones)), bld.naux, bld.neq)


def extend(problem: ConicProblem, options: EFOptions | None = None):
    """Rewrite all exotic cone blocks; returns (extended problem, mapping).

    A problem already posed over standard cones is returned unchanged (with an
    identity mapping).
    """
    opts = options or EFOptions()
    slices = problem.cone_slices()
    rewrites = [_rewrite_block(K, opts) for K in problem.cones]

    n, p = problem.n, problem.p
    total_aux = sum(b.naux for b, _ in rewrites)
    total_eq = sum(b.neq for b, _ in rewrites)
    total_rows = sum(b.nrows for b, _ in rewrites)
    if total_aux == 0 and total_eq == 0 and all(
        b.nrows == K.dim for (b, _), K in zip(rewrites, problem.cones)
    ):
        identity = all(K.tag in _STANDARD_TAGS or (K.tag == "hypoperlog" and K.d == 1)
                       for K in problem.cones)
        if identity:
            mapping = EFMapping(n, p, problem.q, n, p, problem.q)
            for K, sl, (bld, rec) in zip(problem.cones, slices, rewrites):
                T, _, Te, _ = bld.matrices()
                mapping.blocks.append(
                    BlockMap(K.tag, sl, sl, slice(n, n), slice(p, p), T, Te, rec)
                )
            return problem, mapping

    ef_n = n + total_aux
    ef_p = p + total_eq
    ef_q = total_rows
    c = np.concatenate((problem.c, np.zeros(total_aux)))
    A = np.zeros((ef_p, ef_n))
    A[:p, :n] = problem.A
    b = np.concatenate((problem.b, np.zeros(total_eq)))
    G = np.zeros((ef_q, ef_n))
    h = np.zeros(ef_q)
    cones = []
    mapping = EFMapping(n, p, problem.q, ef_n, ef_p, ef_q)

    aux_off = n
    eq_off = p
    row_off = 0
    for K, sl, (bld, rec) in zip(problem.cones, slices, rewrites):
        T, Caux, Te, Ce = bld.matrices()
        Gb, hb = problem.G[sl], problem.h[sl]
        nr, na, ne = bld.nrows, bld.naux, bld.neq
        G[row_off : row_off + nr, :n] = T @ Gb
        if na:
            G[row_off : row_off + nr, aux_off : aux_off + na] = -Caux.toarray()
        h[row_off : row_off + nr] = T @ hb
        if ne:
            A[eq_off : eq_off + ne, :n] = Te @ Gb
            if na:
                A[eq_off : eq_off + ne, aux_off : aux_off + na] = -Ce.toarray()
            b[eq_off : eq_off + ne] = Te @ hb
        cones.extend(bld.cones)
        mapping.blocks.append(
            BlockMap(
                K.tag,
                sl,
                slice(row_off, row_off + nr),
                slice(aux_off, aux_off + na),
                slice(eq_off, eq_off + ne),
                T,
                Te,
                rec,
            )
        )
        aux_off += na
        eq_off += ne
        row_off += nr

    ef = ConicProblem(c, A, b, G, h, cones)
    return ef, mapping


def map_back(mapping: EFMapping, ef_result) -> PrimalDualPoint:
    """Translate an extended-space solution back to the original space.

    Accepts a SolveResult or a PrimalDualPoint in the extended space. The
    primal block values are rebuilt from the rewritten rows and auxiliary
    variables; the dual blocks are pulled back through the transposed row
    maps, so the original-space dual equality and objective match the
    extended ones exactly.
    """
    pt = getattr(ef_result, "point", ef_result)
    xe, ye, ze, se = pt.x, pt.y, pt.z, pt.s
    if xe.size != mapping.ef_n or ye.size != mapping.ef_p or ze.size != mapping.ef_q:
        raise ValueError("extended point does not match the mapping dimensions")
    x = xe[: mapping.nf_n]
    y = ye[: mapping.nf_p]
    z = np.empty(mapping.nf_q)
    s = np.empty(mapping.nf_q)
    for blk in mapping.blocks:
        zb = blk.T.T @ ze[blk.ef_rows]
        if blk.eq_rows.stop > blk.eq_rows.start:
            zb = zb + blk.Te.T @ ye[blk.eq_rows]
        z[blk.nf_rows] = zb
        s[blk.nf_rows] = blk.recover(se[blk.ef_rows], xe[blk.aux])
    return PrimalDualPoint(x, y, z, s)
