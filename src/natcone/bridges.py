"""Rewrites of exotic-cone constraints into standard-cone extended forms.

``extend`` replaces every exotic cone block of a problem with an equivalent
formulation over the standard cones (nonnegative, second-order, rotated
second-order, PSD, exponential = 3-dimensional perspective-log), possibly
introducing auxiliary variables and equality rows. Each rewrite is stated
once, as its rows: cone rows ``T s + Caux aux`` and equality rows
``Te s + Ce aux = 0`` in the block value ``s`` and the block's auxiliaries.
``map_back`` inverts those same maps. ``[T; Te]`` has full column rank for
every rewrite, so a primal block value is the least-squares solution of
``[T; Te] s = [rows - Caux aux; -Ce aux]``, exact on consistent data; dual
block values are pulled back through the transposed maps.

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
from .sym import sdim, svec_index

_SQRT2 = math.sqrt(2.0)

__all__ = ["EFOptions", "EFMapping", "BlockMap", "extend", "ef_cone_dims", "map_back"]

_STANDARD_TAGS = {"nonneg", "epinorm2", "epipersquare", "possemidef"}


def _passes_through(K):
    """Whether block ``K`` is already a standard cone and is emitted unchanged."""
    return K.tag in _STANDARD_TAGS or (K.tag == "hypoperlog" and K.d == 1)


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
    Caux: sp.csr_matrix  # ef cone rows as a map of the block's auxiliaries
    Te: sp.csr_matrix  # added equality rows as a map of the block value
    Ce: sp.csr_matrix  # added equality rows as a map of the block's auxiliaries


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
    """Rewrite u <= geomean(w)."""
    d = len(w_refs)
    if d == 1:
        bld.add_rows(C.Nonneg(2), [[(w_refs[0], 1.0), (u_ref, -1.0)], [(w_refs[0], 1.0)]])
        return

    if mode == "exp":
        ids = bld.new_aux(1 + d)
        theta, lams = ids[0], ids[1:]
        bld.add_rows(C.Nonneg(1), [[_a(theta)]])
        bld.add_rows(C.Nonneg(1), [[_a(l) for l in lams]])
        for i in range(d):
            bld.add_rows(
                C.HypoPerLog(1), [[_a(lams[i])], [(u_ref, 1.0), _a(theta)], [(w_refs[i], 1.0)]]
            )
        return

    # sec: binary tower of 3-dim rotated second-order cones, padded to a
    # power of two with the tower root variable
    pad = 1 << max(1, (d - 1).bit_length())
    node_ids = bld.new_aux(pad - 1)
    root = node_ids[-1]
    leaves = list(w_refs) + [("aux", root)] * (pad - d)
    level = [[(ref, 1.0)] for ref in leaves]
    nxt_id = 0
    while len(level) > 1:
        nxt = []
        for j in range(0, len(level), 2):
            node = node_ids[nxt_id]
            nxt_id += 1
            bld.add_rows(C.EpiPerSquare(1), [level[j], level[j + 1], [_a(node, _SQRT2)]])
            nxt.append([_a(node)])
        level = nxt
    bld.add_rows(C.Nonneg(1), [[_a(root), (u_ref, -1.0)]])


def _emit_perlog(bld, u_ref, v_ref, w_refs):
    """Rewrite u <= sum_i v log(w_i / v)."""
    d = len(w_refs)
    thetas = bld.new_aux(d)
    bld.add_rows(C.Nonneg(1), [[_a(t) for t in thetas] + [(u_ref, -1.0)]])
    for i in range(d):
        bld.add_rows(C.HypoPerLog(1), [[_a(thetas[i])], [(v_ref, 1.0)], [(w_refs[i], 1.0)]])


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
    bld.add_rows(C.PosSemidef(side), rows)


def _rewrite_block(K, opts):
    """Build the rewrite of one cone block; returns its builder."""
    bld = _Builder(K.dim)
    tag = K.tag

    if _passes_through(K):
        bld.add_rows(type(K)(**K.params()), [[_s(j)] for j in range(K.dim)])
        return bld

    if tag == "epinorminf":
        d = K.d
        rows = [[_s(0), _s(1 + i, -1.0)] for i in range(d)]
        rows += [[_s(0), _s(1 + i, 1.0)] for i in range(d)]
        bld.add_rows(C.Nonneg(2 * d), rows)
        return bld

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
            return bld

        ys = bld.new_aux(d)
        bld.add_rows(C.Nonneg(d), [[_a(ys[i]), _s(1 + i, -1.0)] for i in range(d)])
        bld.add_rows(C.Nonneg(d), [[_a(ys[i]), _s(1 + i, 1.0)] for i in range(d)])
        bld.add_rows(C.Nonneg(1), [[_s(0)] + [_a(y, -1.0) for y in ys]])
        return bld

    if tag == "epinormspectral":
        r, s = K.r, K.s
        side = r + s
        rows = []
        for jj in range(side):
            for ii in range(jj + 1):
                if ii == jj:
                    rows.append([_s(0)])
                elif ii < r <= jj:
                    rows.append([_s(1 + (jj - r) * r + ii, _SQRT2)])
                else:
                    rows.append([])
        bld.add_rows(C.PosSemidef(side), rows)
        return bld

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
        bld.add_rows(
            C.Nonneg(1),
            [[_s(0)] + [_a(t, -0.5) for t in th_diag] + [_a(l, -0.5) for l in lam_diag]],
        )
        return bld

    if tag == "hypogeomean":
        _emit_geomean(bld, ("s", 0), [("s", 1 + i) for i in range(K.d)], opts.geomean_mode)
        return bld

    if tag == "hyporootdet":
        m = K.d
        th = bld.new_aux(sdim(m))
        _emit_psd_pairing(bld, m, lambda k: ("s", 1 + k), th)
        diag_refs = [("aux", th[svec_index(i, i)]) for i in range(m)]
        _emit_geomean(bld, ("s", 0), diag_refs, opts.geomean_mode)
        return bld

    if tag == "hypoperlog":
        _emit_perlog(bld, ("s", 0), ("s", 1), [("s", 2 + i) for i in range(K.d)])
        return bld

    if tag == "hypoperlogdet":
        m = K.d
        th = bld.new_aux(sdim(m))
        _emit_psd_pairing(bld, m, lambda k: ("s", 2 + k), th)
        diag_refs = [("aux", th[svec_index(i, i)]) for i in range(m)]
        _emit_perlog(bld, ("s", 0), ("s", 1), diag_refs)
        return bld

    if tag == "wsos":
        basis = [C.wsos_basis(P) for P in K.Ps]
        offs = []
        for P in K.Ps:
            ids = bld.new_aux(sdim(P.shape[1]))
            offs.append(ids)
            bld.add_rows(C.PosSemidef(P.shape[1]), [[_a(i)] for i in ids])
        for u in range(K.d):
            terms = [_s(u)]
            for ids, B in zip(offs, basis):
                terms += [_a(ids[k], -B[u, k]) for k in range(len(ids)) if B[u, k] != 0.0]
            bld.add_eq(terms)
        return bld

    if tag == "wsosdual":
        for P in K.Ps:
            B = C.wsos_basis(P)
            rows = [
                [_s(u, B[u, k]) for u in range(K.d) if B[u, k] != 0.0]
                for k in range(sdim(P.shape[1]))
            ]
            bld.add_rows(C.PosSemidef(P.shape[1]), rows)
        return bld

    raise ValueError(f"no extended formulation for cone kind {tag!r}")


def ef_cone_dims(K, options: EFOptions | None = None):
    """Added dimensions (q_bar, nu_bar, n_bar, p_bar) of the rewrite of one cone."""
    bld = _rewrite_block(K, options or EFOptions())
    return (bld.nrows, float(sum(B.nu for B in bld.cones)), bld.naux, bld.neq)


def extend(problem: ConicProblem, options: EFOptions | None = None):
    """Rewrite all exotic cone blocks; returns (extended problem, mapping).

    A problem already posed over standard cones is returned unchanged (with an
    identity mapping).
    """
    opts = options or EFOptions()
    builders = [_rewrite_block(K, opts) for K in problem.cones]
    n, p = problem.n, problem.p
    mapping = EFMapping(
        n,
        p,
        problem.q,
        n + sum(b.naux for b in builders),
        p + sum(b.neq for b in builders),
        sum(b.nrows for b in builders),
    )
    aux_off = n
    eq_off = p
    row_off = 0
    for K, sl, bld in zip(problem.cones, problem.cone_slices(), builders):
        nr, na, ne = bld.nrows, bld.naux, bld.neq
        mapping.blocks.append(
            BlockMap(
                K.tag,
                sl,
                slice(row_off, row_off + nr),
                slice(aux_off, aux_off + na),
                slice(eq_off, eq_off + ne),
                *bld.matrices(),
            )
        )
        aux_off += na
        eq_off += ne
        row_off += nr
    if all(_passes_through(K) for K in problem.cones):
        return problem, mapping

    c = np.concatenate((problem.c, np.zeros(mapping.ef_n - n)))
    A = np.zeros((mapping.ef_p, mapping.ef_n))
    A[:p, :n] = problem.A
    b = np.concatenate((problem.b, np.zeros(mapping.ef_p - p)))
    G = np.zeros((mapping.ef_q, mapping.ef_n))
    h = np.zeros(mapping.ef_q)
    for blk in mapping.blocks:
        Gb, hb = problem.G[blk.nf_rows], problem.h[blk.nf_rows]
        G[blk.ef_rows, :n] = blk.T @ Gb
        G[blk.ef_rows, blk.aux] = -blk.Caux.toarray()
        h[blk.ef_rows] = blk.T @ hb
        A[blk.eq_rows, :n] = blk.Te @ Gb
        A[blk.eq_rows, blk.aux] = -blk.Ce.toarray()
        b[blk.eq_rows] = blk.Te @ hb
    cones = [B for bld in builders for B in bld.cones]
    return ConicProblem(c, A, b, G, h, cones), mapping


def map_back(mapping: EFMapping, ef_result) -> PrimalDualPoint:
    """Translate an extended-space solution back to the original space.

    Accepts a SolveResult or a PrimalDualPoint in the extended space. Each
    primal block value is recovered by least squares from the rewrite's own
    row maps, ``[T; Te] s = [rows - Caux aux; -Ce aux]``; ``[T; Te]`` has full
    column rank for every rewrite, so this is exact on consistent data. The
    dual blocks are pulled back through the transposed row maps, so the
    original-space dual equality and objective match the extended ones exactly.
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
        aux = xe[blk.aux]
        M = sp.vstack([blk.T, blk.Te]).toarray()
        rhs = np.concatenate((se[blk.ef_rows] - blk.Caux @ aux, -(blk.Ce @ aux)))
        s[blk.nf_rows] = np.linalg.lstsq(M, rhs, rcond=None)[0]
    return PrimalDualPoint(x, y, z, s)
