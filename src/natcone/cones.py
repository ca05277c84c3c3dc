"""Cone catalog and barrier oracles.

Each cone block is a primitive proper cone of vectorized dimension ``dim``
carrying a logarithmically homogeneous self-concordant barrier with parameter
``nu``. The oracle set is: an initial interior point, strict membership tests
for the cone and its dual, and barrier gradient/Hessian evaluations.

For three cones (the l1-norm epigraph, the nuclear-norm epigraph and the
primal weighted sum-of-squares cone) no tractable barrier is known for the
cone itself, but one is known for its dual. Those cones set
``uses_dual_barrier`` and their ``barrier``/``grad``/``hess`` oracles evaluate
the dual cone's barrier; the solver applies them on the dual-variable side of
the block. Each subclasses its parent (for ``Wsos``, ``WsosDual``) with the
primal and dual membership sides swapped.

The catalog states each fact once:

- ``Cone`` holds the one shape/finiteness guard of both strict membership
  tests and the one tolerance test of both closure tests. A cone supplies
  margins, or overrides the private strict test where a factorization decides.
- The nine cones sized by one ``d`` share a validating constructor and
  ``params``; each states only its ``dim`` and ``nu``.
- ``EpiNorm2`` and ``EpiPerSquare`` share the barrier -log(s'Js); each states
  its own J s and r = s'Js.
- ``HypoRootDet`` and ``HypoPerLogDet`` are tested on the eigenvalues of W
  with the ``HypoGeomean`` and ``HypoPerLog`` margins.
- ``Cone.barrier`` holds the one barrier-domain guard; a cone states only the
  formula, ``_barrier``.
- ``EpiNormInf`` and ``EpiNormSpectral`` (and so their dual-barrier
  subclasses) share the max-norm arrow Hessian, ``_Arrow``: it states the
  arrow's pieces once and applies it and its closed-form inverse, all from
  one r_i = u^2 - w_i^2 that ``_arrow_r`` forms without cancellation. Their
  ``hess_prod`` and ``inv_hess_prod`` apply H and H^-1 without forming H;
  every product at one point can share its ``_factor`` (the arrow, and for
  the spectral norm also the SVD of W and the coefficients in its
  coordinates). ``Cone.inv_hess_quad`` derives v' H^-1 v from
  ``inv_hess_prod`` wherever a cone gives no own formula.
- ``Nonneg``, ``EpiNorm2``, ``EpiPerSquare`` and ``HypoPerLog`` write their
  margins and barrier oracles to broadcast over a leading stack axis; a single
  block is the unstacked case. ``_Run`` evaluates a run of equal blocks of
  these cones as one block.
"""

from __future__ import annotations

import math

import numpy as np

from .sym import sdim, smat, svec, svec_kron

__all__ = [
    "Cone",
    "Nonneg",
    "EpiNorm2",
    "EpiPerSquare",
    "PosSemidef",
    "EpiNormInf",
    "EpiNormInfDual",
    "EpiNormSpectral",
    "EpiNormSpectralDual",
    "HypoGeomean",
    "HypoRootDet",
    "HypoPerLog",
    "HypoPerLogDet",
    "Wsos",
    "WsosDual",
    "make_cone",
    "wsos_basis",
    "NotInteriorError",
]


class NotInteriorError(ValueError):
    """Barrier oracle evaluated at a point outside its domain."""


def _posdef_chol(M: np.ndarray, pivot_floor: float = 0.0):
    """Cholesky factor of M, or None if M is not (sufficiently) positive definite."""
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        return None
    if pivot_floor > 0.0:
        scale = 1.0 + float(M.diagonal().max()) if M.size else 1.0
        if L.diagonal().min() ** 2 < pivot_floor * scale:
            return None
    return L


def _logdet(M: np.ndarray) -> float:
    """log det M from its Cholesky factor; NotInteriorError if M is not positive definite."""
    L = _posdef_chol(M)
    if L is None:
        raise NotInteriorError("matrix not positive definite")
    return 2.0 * float(np.sum(np.log(np.diag(L))))


def _sym_inv(W: np.ndarray) -> np.ndarray:
    """Inverse of W, symmetrised."""
    Wi = np.linalg.inv(W)
    return 0.5 * (Wi + Wi.T)


def _dot(a, b):
    """a'b over the last axis, kept as an axis of length one.

    A matmul of 1 x n by n x 1 takes the BLAS dot of ``a @ b``, so a stack of
    points gets each point's bits.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _add_diag(H, v):
    """Add v to the diagonal of every matrix of the stack H, in place."""
    diag = np.einsum("...ii->...i", H)  # a writable view
    diag += v


def _positive(m: np.ndarray) -> bool:
    """Every margin finite and strictly positive (true when there are none)."""
    return bool(m.size == 0 or (np.isfinite(m).all() and m.min() > 0.0))


class Cone:
    """Base cone block. Subclasses fill in dim, nu and the oracle methods."""

    tag = ""
    uses_dual_barrier = False
    # Set to False where the corresponding strict membership test needs an
    # auxiliary optimization and is too slow for per-trial line-search checks.
    cheap_primal_test = True
    cheap_dual_test = True
    # True where margins, strict tests, grad, hess and a closed-form
    # inv_hess_quad also take a stack of points, shape (r, dim), so that a run
    # of equal blocks can be evaluated as one ``_Run``
    _stackable = False

    dim: int
    nu: float

    # -- serialization ----------------------------------------------------
    def params(self) -> dict:
        raise NotImplementedError

    def __repr__(self):
        ps = ", ".join(f"{k}={v}" for k, v in self.params().items() if not isinstance(v, list))
        return f"{type(self).__name__}({ps})"

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        a, b = self.params(), other.params()
        if a.keys() != b.keys():
            return False
        return all(np.array_equal(a[k], b[k]) for k in a)

    def __hash__(self):
        return hash((self.tag, self.dim))

    # -- membership -------------------------------------------------------
    def primal_margins(self, s: np.ndarray) -> np.ndarray:
        """Slack of each defining inequality; all strictly positive iff interior."""
        raise NotImplementedError

    def dual_margins(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def in_interior(self, s: np.ndarray) -> bool:
        return self._strict(s, self._primal_ok)

    def in_dual_interior(self, z: np.ndarray) -> bool:
        return self._strict(z, self._dual_ok)

    def in_closure(self, s: np.ndarray, tol: float) -> bool:
        return self._near(s, tol, self.primal_margins)

    def in_dual_closure(self, z: np.ndarray, tol: float) -> bool:
        return self._near(z, tol, self.dual_margins)

    def _strict(self, pt, test):
        """test(pt) on a finite point of shape (dim,); False on any other point."""
        pt = np.asarray(pt, dtype=float)
        if pt.shape != (self.dim,) or not np.isfinite(pt).all():
            return False
        return test(pt)

    # strict tests of a guarded point; a cone overrides one where a factorization decides
    def _primal_ok(self, s):
        return _positive(self.primal_margins(s))

    def _dual_ok(self, z):
        return _positive(self.dual_margins(z))

    def _near(self, pt, tol, margins):
        """Every margin >= -tol * (1 + max|pt|)."""
        pt = np.asarray(pt, dtype=float)
        m = margins(pt)
        return bool(m.size == 0 or np.min(m) >= -tol * (1.0 + float(np.max(np.abs(pt)))))

    # -- barrier oracles ----------------------------------------------------
    def initial_point(self) -> np.ndarray:
        raise NotImplementedError

    def barrier_domain_ok(self, pt: np.ndarray) -> bool:
        return self.in_dual_interior(pt) if self.uses_dual_barrier else self.in_interior(pt)

    def barrier(self, pt: np.ndarray) -> float:
        """Barrier value; NotInteriorError outside the barrier domain."""
        pt = np.asarray(pt, dtype=float)
        if not self.barrier_domain_ok(pt):
            raise NotInteriorError(f"point not interior to the barrier domain of {self!r}")
        return self._barrier(pt)

    def _barrier(self, pt):
        raise NotImplementedError

    def grad(self, pt: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, pt: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _factor(self, pt: np.ndarray):
        """What ``hess_prod`` and ``inv_hess_prod`` at pt share, or None where
        the cone has no closed-form products.

        The solver computes it once per block and iterate and passes it to
        every product at that point; a product not given it computes it.
        """
        return None

    def hess_prod(self, pt: np.ndarray, V: np.ndarray, factor=None) -> np.ndarray | None:
        """H(pt) V in closed form for V of shape (dim,) or (dim, k), or None
        where the cone has none.

        The solver asks a block with this form for no dense Hessian: it
        applies the product to the Schur columns of a primal-barrier block
        and in the residuals of the direction system. ``factor`` is
        ``_factor(pt)``, computed here when not given.
        """
        return None

    def inv_hess_prod(self, pt: np.ndarray, V: np.ndarray, factor=None) -> np.ndarray | None:
        """H(pt)^-1 V in closed form for V of shape (dim,) or (dim, k), or None
        where the cone has none.

        The solver applies it to the Schur columns of a dual-barrier block, so
        that no block's dz is kept as an unknown of the direction system.
        ``factor`` is ``_factor(pt)``, computed here when not given.
        """
        return None

    def inv_hess_quad(self, pt: np.ndarray, v: np.ndarray) -> float | None:
        """v' H(pt)^-1 v in closed form, or None where the cone has none.

        By default it is v' ``inv_hess_prod``(v). A closed form returns inf
        when it cannot factor the point.
        """
        x = self.inv_hess_prod(pt, v)
        return None if x is None else float(v @ x)

    def _products(self, s, z):
        """The complementarity product s'z/nu of each original block this block holds."""
        return [float(s @ z) / self.nu]


class _SizedByD(Cone):
    """A cone sized by one integer d >= 1; ``_dim_nu(d)`` gives its dim and nu."""

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = int(d)
        self.dim, self.nu = self._dim_nu(self.d)

    def params(self):
        return {"d": self.d}


# ---------------------------------------------------------------------------
# symmetric / standard cones
# ---------------------------------------------------------------------------


class Nonneg(_SizedByD):
    """Nonnegative orthant of dimension d; barrier -sum(log w), nu = d."""

    tag = "nonneg"
    _stackable = True

    def _dim_nu(self, d):
        return d, float(d)

    def primal_margins(self, s):
        return np.asarray(s, dtype=float)

    dual_margins = primal_margins

    def initial_point(self):
        return np.ones(self.d)

    def _barrier(self, w):
        return -float(np.sum(np.log(w)))

    def grad(self, w):
        return -1.0 / np.asarray(w, dtype=float)

    def hess(self, w):
        w = np.asarray(w, dtype=float)
        H = np.zeros(w.shape + w.shape[-1:])
        _add_diag(H, 1.0 / w**2)
        return H

    def inv_hess_quad(self, w, v):
        wv = np.asarray(w, dtype=float) * v
        return _dot(wv, wv)[..., 0]


class _LogQuadratic(_SizedByD):
    """Barrier -log(r), r = s'Js, nu = 2, for s = (lead, w) and J = J_lead (+) -I_d.

    A subclass states J s and r by its own formulas, and in ``_J_LEAD`` the
    (row, col) of each +1 entry of J_lead, whose other entries are 0.
    """

    _stackable = True

    def _barrier(self, s):
        return -float(np.sum(np.log(self._Js(s)[1])))

    def grad(self, s):
        Js, r = self._Js(s)
        return -2.0 * Js / r

    def hess(self, s):
        Js, r = self._Js(s)
        g = -2.0 * Js / r
        H = g[..., :, None] * g[..., None, :]
        c = 2.0 / r
        for i, j in self._J_LEAD:
            H[..., i, j] -= c[..., 0]
        k = self.dim - self.d
        _add_diag(H[..., k:, k:], c)
        return H

    def inv_hess_quad(self, s, v):
        # J is its own inverse, so H^-1 = s s' - (r/2) J
        r = self._Js(s)[1]
        return (_dot(s, v) ** 2 - 0.5 * r * self._Js(v)[1])[..., 0]


class EpiNorm2(_LogQuadratic):
    """Euclidean-norm epigraph {(u, w): u >= ||w||}; barrier -log(u^2 - ||w||^2)."""

    tag = "epinorm2"
    _J_LEAD = ((0, 0),)

    def _dim_nu(self, d):
        return 1 + d, 2.0

    def primal_margins(self, s):
        u, w = s[..., :1], s[..., 1:]
        return u - np.sqrt(_dot(w, w))

    dual_margins = primal_margins  # self-dual

    def initial_point(self):
        pt = np.zeros(self.dim)
        pt[0] = 1.0
        return pt

    def _Js(self, s):
        u, w = s[..., :1], s[..., 1:]
        Js = -s
        Js[..., :1] = u
        return Js, u * u - _dot(w, w)


class EpiPerSquare(_LogQuadratic):
    """Rotated second-order cone {(u, v, w): 2uv >= ||w||^2, u, v >= 0}."""

    tag = "epipersquare"
    _J_LEAD = ((0, 1), (1, 0))

    def _dim_nu(self, d):
        return 2 + d, 2.0

    def primal_margins(self, s):
        u, v, w = s[..., :1], s[..., 1:2], s[..., 2:]
        root = np.sqrt(2.0 * np.maximum(u, 0.0) * np.maximum(v, 0.0))
        return np.concatenate((u, v, root - np.sqrt(_dot(w, w))), axis=-1)

    dual_margins = primal_margins  # self-dual under this scaling

    def initial_point(self):
        pt = np.zeros(self.dim)
        pt[0] = pt[1] = 1.0
        return pt

    def _Js(self, s):
        u, v, w = s[..., :1], s[..., 1:2], s[..., 2:]
        Js = -s
        Js[..., :1], Js[..., 1:2] = v, u
        return Js, 2.0 * u * v - _dot(w, w)


class PosSemidef(_SizedByD):
    """Vectorized PSD cone of side d; barrier -logdet(W), nu = d."""

    tag = "possemidef"

    def _dim_nu(self, d):
        return sdim(d), float(d)

    def primal_margins(self, s):
        return np.linalg.eigvalsh(smat(s))

    dual_margins = primal_margins

    def _primal_ok(self, s):
        return _posdef_chol(smat(s), pivot_floor=1e-12) is not None

    _dual_ok = _primal_ok

    def initial_point(self):
        return svec(np.eye(self.d))

    def _barrier(self, s):
        return -_logdet(smat(s))

    def grad(self, s):
        return -svec(_sym_inv(smat(s)), sym_tol=np.inf)

    def hess(self, s):
        return svec_kron(_sym_inv(smat(s)))

    def inv_hess_quad(self, s, v):
        # H(s)^-1 maps svec(V) to svec(W V W), so with W = L L' the form is
        # tr(W V W V) = ||L' V L||_F^2
        L = _posdef_chol(smat(s))
        if L is None:
            return float("inf")
        M = L.T @ smat(v) @ L
        return float(np.sum(M * M))


# ---------------------------------------------------------------------------
# norm epigraph cones
# ---------------------------------------------------------------------------


def _arrow_r(u, w):
    """r_i = u^2 - w_i^2 formed as (u - |w_i|)(u + |w_i|), exact near the boundary."""
    aw = np.abs(w)
    return (u - aw) * (u + aw)


class _Arrow:
    """The Hessian of -sum_i log(u^2 - w_i^2) + (d-1) log u at (u, w), an arrow.

    H = [[a, b'], [b, Diag(D)]] with r = ``_arrow_r(u, w)``, p_i = u^2 + w_i^2,
    D_i = 2 p_i/r_i^2, b_i = -4 u w_i/r_i^2 and a = sum_i D_i - (d-1)/u^2; a
    sums positive terms with a smaller one subtracted. Its inverse has tail
    D_i^-1 = r_i^2/(2 p_i), coupling D^-1 b = -2 u w/p and corner Schur scalar
    a - b'D^-1 b = (sum_i r_i/p_i + 1)/u^2, whose terms are all positive. So
    nothing cancels near the boundary. ``prod`` and ``inv`` apply H and H^-1
    to V of shape (1 + d,) or (1 + d, k).
    """

    def __init__(self, u, w, r):
        uu = u * u
        p = uu + w * w
        rr = r * r
        self.D = 2.0 * p / rr
        self.b = (-4.0 * u) * w / rr
        self.a = float(np.sum(self.D)) - (w.size - 1) / uu
        self.t = (-2.0 * u) * w / p
        self.schur = (float(np.sum(r / p)) + 1.0) / uu
        self.D_inv = rr / (2.0 * p)

    def prod(self, V):
        X = np.empty(V.shape)
        X[0] = self.a * V[0] + self.b @ V[1:]
        X[1:] = (self.D * V[1:].T + np.multiply.outer(V[0], self.b)).T
        return X

    def inv(self, V):
        x0 = (V[0] - self.t @ V[1:]) / self.schur
        X = np.empty(V.shape)
        X[0] = x0
        X[1:] = (self.D_inv * V[1:].T - np.multiply.outer(x0, self.t)).T
        return X


class EpiNormInf(_SizedByD):
    """Max-norm epigraph {(u, w): u >= max|w_i|}; dual is the l1 epigraph.

    Barrier -sum_i log(u^2 - w_i^2) + (d-1) log u with nu = d + 1. Its
    Hessian is an arrow, and its ``_factor`` is that ``_Arrow``.
    """

    tag = "epinorminf"

    def _dim_nu(self, d):
        return 1 + d, float(d + 1)

    def primal_margins(self, s):
        u, w = s[0], s[1:]
        return np.array([u - np.max(np.abs(w))])

    def dual_margins(self, z):
        u, w = z[0], z[1:]
        return np.array([u - np.sum(np.abs(w))])

    def initial_point(self):
        pt = np.ones(self.dim)
        pt[0] = 2.0
        return pt

    def _barrier(self, s):
        u = s[0]
        return -float(np.sum(np.log(_arrow_r(u, s[1:])))) + (self.d - 1) * math.log(u)

    def grad(self, s):
        u, w = s[0], s[1:]
        r = _arrow_r(u, w)
        g = np.empty(self.dim)
        g[0] = -2.0 * u * np.sum(1.0 / r) + (self.d - 1) / u
        g[1:] = 2.0 * w / r
        return g

    def hess(self, s):
        A = self._factor(s)
        H = np.zeros((self.dim, self.dim))
        H[0, 0] = A.a
        H[0, 1:] = H[1:, 0] = A.b
        H[1:, 1:] = np.diag(A.D)
        return H

    def _factor(self, s):
        u, w = s[0], s[1:]
        return _Arrow(u, w, _arrow_r(u, w))

    def hess_prod(self, s, V, factor=None):
        A = self._factor(s) if factor is None else factor
        return A.prod(np.asarray(V, dtype=float))

    def inv_hess_prod(self, s, V, factor=None):
        A = self._factor(s) if factor is None else factor
        return A.inv(np.asarray(V, dtype=float))


class EpiNormInfDual(EpiNormInf):
    """l1-norm epigraph {(u, w): u >= sum|w_i|}; oracles use the max-norm barrier."""

    tag = "epinorminfdual"
    uses_dual_barrier = True
    primal_margins = EpiNormInf.dual_margins
    dual_margins = EpiNormInf.primal_margins

    def initial_point(self):
        pt = np.full(self.dim, 1.0 / self.d)
        pt[0] = 2.0
        return pt


class EpiNormSpectral(Cone):
    """Spectral-norm epigraph for r-by-s matrices (r <= s), W column-stacked.

    Barrier -logdet(u^2 I - W W') + (r-1) log u with nu = r + 1. The dual cone
    is the nuclear-norm epigraph.
    """

    tag = "epinormspectral"

    def __init__(self, r: int, s: int):
        if r < 1 or s < 1:
            raise ValueError("r and s must be >= 1")
        if r > s:
            raise ValueError("spectral cones require r <= s")
        self.r, self.s = int(r), int(s)
        self.dim = 1 + self.r * self.s
        self.nu = float(self.r + 1)

    def params(self):
        return {"r": self.r, "s": self.s}

    def _mat(self, w):
        return np.asarray(w, dtype=float).reshape((self.r, self.s), order="F")

    def primal_margins(self, s):
        u, W = s[0], self._mat(s[1:])
        sig = np.linalg.svd(W, compute_uv=False)
        return np.array([u - (sig[0] if sig.size else 0.0)])

    def dual_margins(self, z):
        u, W = z[0], self._mat(z[1:])
        sig = np.linalg.svd(W, compute_uv=False)
        return np.array([u - float(np.sum(sig))])

    def initial_point(self):
        W = np.zeros((self.r, self.s))
        W[: self.r, : self.r] = np.eye(self.r)
        return np.concatenate(([2.0], W.ravel(order="F")))

    def _core(self, pt):
        u, W = pt[0], self._mat(pt[1:])
        Z = u * u * np.eye(self.r) - W @ W.T
        return u, W, Z

    def _barrier(self, pt):
        u, W, Z = self._core(pt)
        return -_logdet(Z) + (self.r - 1) * math.log(u)

    def grad(self, pt):
        u, W, Z = self._core(pt)
        Zi = np.linalg.inv(Z)
        g = np.empty(self.dim)
        g[0] = -2.0 * u * np.trace(Zi) + (self.r - 1) / u
        g[1:] = (2.0 * Zi @ W).ravel(order="F")
        return g

    def hess(self, pt):
        u, W, Z = self._core(pt)
        r, s = self.r, self.s
        C = np.linalg.inv(Z)  # symmetric
        B = C @ W  # r x s
        C2 = C @ C
        D = W.T @ B  # s x s, = W' Z^-1 W
        n = r * s
        H = np.empty((self.dim, self.dim))
        H[0, 0] = -2.0 * np.trace(C) + 4.0 * u * u * np.trace(C2) - (self.r - 1) / u**2
        huw = (-4.0 * u) * (C2 @ W)
        H[0, 1:] = H[1:, 0] = huw.ravel(order="F")
        # column-stacked index (i, j) -> i + r*j matches kron(s-side, r-side)
        Hww = 2.0 * np.kron(D + np.eye(s), C)
        Hww += 2.0 * np.einsum("ib,aj->jiba", B, B).reshape(n, n)
        H[1:, 1:] = Hww
        return 0.5 * (H + H.T)

    def _factor(self, pt):
        """The full SVD W = U diag(sig) Q' and the coefficients of H and H^-1
        in its coordinates, E -> U'E Q.

        There the Hessian splits into the max-norm arrow on (u, E_ii), the
        2 x 2 block (2/(z_i z_j)) [[u^2, sig_i sig_j], [sig_i sig_j, u^2]] on
        each pair (E_ij, E_ji) with i < j <= r, and 2/z_i on each E_ij with
        j > r, where z_i = u^2 - sig_i^2. For H and for H^-1 the
        coefficients are the tail scale c, and C and S such that an
        off-diagonal entry maps to C_ij (u^2 E_ij + S_ij E_ji).
        """
        u = pt[0]
        U, sig, Qt = np.linalg.svd(self._mat(pt[1:]))
        z = _arrow_r(u, sig)
        ss = np.outer(sig, sig)
        zz = np.outer(z, z)
        # u^4 - (sig_i sig_j)^2 with u^2 - sig_i sig_j = (z_i + z_j + (sig_i - sig_j)^2)/2
        gap = sig[:, None] - sig[None, :]
        det = 0.5 * (z[:, None] + z[None, :] + gap * gap) * (u * u + ss)
        coefs = (
            (2.0 / z, (2.0 / zz)[:, :, None], ss[:, :, None]),
            (0.5 * z, (0.5 * zz / det)[:, :, None], -ss[:, :, None]),
        )
        return U, Qt, _Arrow(u, sig, z), coefs

    def _svd_apply(self, pt, V, factor, inverse):
        """H V, or H^-1 V if ``inverse``, in the SVD coordinates of W.

        The k right-hand sides are held as (s, r, k) arrays indexed [j, i, l],
        the layout of V's rows. The pair formula's diagonal is overwritten by
        the arrow.
        """
        r, s = self.r, self.s
        U, Qt, arrow, coefs = self._factor(pt) if factor is None else factor
        c, C, S = coefs[inverse]
        V2 = np.asarray(V, dtype=float).reshape(self.dim, -1)
        k = V2.shape[1]
        E = (Qt @ (U.T @ V2[1:].reshape(s, r, k)).reshape(s, r * k)).reshape(s, r, k)
        X = np.empty(E.shape)
        X[r:] = c[:, None] * E[r:]
        Er = E[:r]
        X[:r] = C * (pt[0] * pt[0] * Er + S * Er.transpose(1, 0, 2))
        i = np.arange(r)
        lead = (arrow.inv if inverse else arrow.prod)(np.vstack((V2[:1], E[i, i])))
        X[i, i] = lead[1:]
        out = np.empty((self.dim, k))
        out[0] = lead[0]
        out[1:] = (U @ (Qt.T @ X.reshape(s, r * k)).reshape(s, r, k)).reshape(r * s, k)
        return out.reshape(np.shape(V))

    def hess_prod(self, pt, V, factor=None):
        return self._svd_apply(pt, V, factor, False)

    def inv_hess_prod(self, pt, V, factor=None):
        return self._svd_apply(pt, V, factor, True)


class EpiNormSpectralDual(EpiNormSpectral):
    """Nuclear-norm epigraph; oracles use the spectral-norm barrier."""

    tag = "epinormspectraldual"
    uses_dual_barrier = True
    primal_margins = EpiNormSpectral.dual_margins
    dual_margins = EpiNormSpectral.primal_margins

    def initial_point(self):
        W = np.zeros((self.r, self.s))
        W[: self.r, : self.r] = np.eye(self.r)
        return np.concatenate(([2.0 * self.r], W.ravel(order="F")))


# ---------------------------------------------------------------------------
# hypograph cones
# ---------------------------------------------------------------------------


def _geomean(w):
    return float(np.exp(np.mean(np.log(w))))


def _geomean_if_positive(w):
    return _geomean(np.maximum(w, 1e-300)) if np.all(w > 0) else 0.0


# Margins of the vector hypographs; the matrix hypographs pass the eigenvalues of W as w.
def _geomean_margins(u, w):
    return np.concatenate((w, [_geomean_if_positive(w) - u]))


def _geomean_dual_margins(u, w):
    return np.concatenate(([-u], w, [u + w.size * _geomean_if_positive(w)]))


# The perspective-log margins take u and v with a trailing axis of length one
# and broadcast over the leading axes of a stack; the non-domain slot repeats
# the smallest of the sign margins there.
def _perlog_margins(u, v, w):
    ok = (v > 0.0) & np.all(w > 0.0, axis=-1, keepdims=True)
    lg = np.log(np.divide(w, v, out=np.ones_like(w), where=ok))
    xi = v * lg.sum(axis=-1, keepdims=True) - u
    lo = np.minimum(v, w.min(axis=-1, keepdims=True))
    return np.concatenate((v, w, np.where(ok, xi, lo)), axis=-1)


def _perlog_dual_margins(u, v, w):
    ok = (u < 0.0) & np.all(w > 0.0, axis=-1, keepdims=True)
    lg = np.log(np.divide(-w, u, out=np.ones_like(w), where=ok))
    slack = v - (u * (lg + 1.0)).sum(axis=-1, keepdims=True)
    lo = np.minimum(-u, w.min(axis=-1, keepdims=True))
    return np.concatenate((-u, w, np.where(ok, slack, lo)), axis=-1)


class HypoGeomean(_SizedByD):
    """Geometric-mean hypograph {(u, w >= 0): u <= prod(w_i)^(1/d)}.

    Barrier -log(geomean(w) - u) - sum_i log w_i with nu = d + 1.
    """

    tag = "hypogeomean"

    def _dim_nu(self, d):
        return 1 + d, float(d + 1)

    def primal_margins(self, s):
        return _geomean_margins(s[0], s[1:])

    def dual_margins(self, z):
        return _geomean_dual_margins(z[0], z[1:])

    def initial_point(self):
        pt = np.ones(self.dim)
        pt[0] = 0.5
        return pt

    def _core(self, pt):
        u, w = pt[0], pt[1:]
        geo = _geomean(w)
        return u, w, geo, geo - u

    def _barrier(self, pt):
        u, w, geo, phi = self._core(pt)
        return -math.log(phi) - float(np.sum(np.log(w)))

    def grad(self, pt):
        u, w, geo, phi = self._core(pt)
        a = geo / (self.d * w)
        g = np.empty(self.dim)
        g[0] = 1.0 / phi
        g[1:] = -a / phi - 1.0 / w
        return g

    def hess(self, pt):
        u, w, geo, phi = self._core(pt)
        d = self.d
        a = geo / (d * w)
        H = np.empty((self.dim, self.dim))
        H[0, 0] = 1.0 / phi**2
        H[0, 1:] = H[1:, 0] = -a / phi**2
        iw = 1.0 / w
        Hww = (-geo / (d * d * phi)) * np.outer(iw, iw) + np.outer(a, a) / phi**2
        Hww += np.diag(geo / (d * phi * w * w) + iw * iw)
        H[1:, 1:] = Hww
        return H


class HypoRootDet(_SizedByD):
    """Root-determinant hypograph {(u, svec(W)): W psd, u <= det(W)^(1/d)}.

    Barrier -log(det(W)^(1/d) - u) - logdet(W) with nu = d + 1.
    """

    tag = "hyporootdet"

    def _dim_nu(self, d):
        return 1 + sdim(d), float(d + 1)

    def primal_margins(self, s):
        return _geomean_margins(s[0], np.linalg.eigvalsh(smat(s[1:])))

    def dual_margins(self, z):
        return _geomean_dual_margins(z[0], np.linalg.eigvalsh(smat(z[1:])))

    def initial_point(self):
        return np.concatenate(([0.5], svec(np.eye(self.d))))

    def _core(self, pt):
        u, W = pt[0], smat(pt[1:])
        logdet = _logdet(W)
        R = math.exp(logdet / self.d)
        return u, W, logdet, R, R - u

    def _barrier(self, pt):
        u, W, logdet, R, phi = self._core(pt)
        return -math.log(phi) - logdet

    def grad(self, pt):
        u, W, logdet, R, phi = self._core(pt)
        Wi = _sym_inv(W)
        alpha = R / (self.d * phi)
        g = np.empty(self.dim)
        g[0] = 1.0 / phi
        g[1:] = -svec((alpha + 1.0) * Wi, sym_tol=np.inf)
        return g

    def hess(self, pt):
        u, W, logdet, R, phi = self._core(pt)
        d = self.d
        Wi = _sym_inv(W)
        alpha = R / (d * phi)
        H = np.empty((self.dim, self.dim))
        H[0, 0] = 1.0 / phi**2
        # du column: dR = 0, dphi = -du
        dalpha_du = R / (d * phi**2)
        sWi = svec(Wi, sym_tol=np.inf)
        H[1:, 0] = H[0, 1:] = -dalpha_du * sWi
        # dR = R tr(Wi dW)/d moves alpha by -R u tr(Wi dW)/(d phi)^2
        H[1:, 1:] = (alpha + 1.0) * svec_kron(Wi) + (R * u / (d * phi) ** 2) * np.outer(sWi, sWi)
        return H


class HypoPerLog(_SizedByD):
    """Perspective-log hypograph {(u, v > 0, w > 0): u <= sum_i v log(w_i / v)}.

    Barrier -log(v sum_i log(w_i/v) - u) - sum_i log w_i - log v, nu = d + 2.
    With d = 1 this is the exponential cone.
    """

    tag = "hypoperlog"
    _stackable = True

    def _dim_nu(self, d):
        return 2 + d, float(d + 2)

    def primal_margins(self, s):
        return _perlog_margins(s[..., :1], s[..., 1:2], s[..., 2:])

    def dual_margins(self, z):
        return _perlog_dual_margins(z[..., :1], z[..., 1:2], z[..., 2:])

    def initial_point(self):
        pt = np.ones(self.dim)
        pt[0] = -1.0
        return pt

    def _core(self, pt):
        u, v, w = pt[..., :1], pt[..., 1:2], pt[..., 2:]
        lg = np.log(w / v).sum(axis=-1, keepdims=True)
        sigma = lg - self.d  # d(xi)/dv
        xi = v * lg - u
        return u, v, w, sigma, xi

    def _barrier(self, pt):
        u, v, w, sigma, xi = self._core(pt)
        return -float(np.sum(np.log(xi)) + np.sum(np.log(w)) + np.sum(np.log(v)))

    def grad(self, pt):
        u, v, w, sigma, xi = self._core(pt)
        t = v / w
        return np.concatenate((1.0 / xi, -sigma / xi - 1.0 / v, -t / xi - 1.0 / w), axis=-1)

    def hess(self, pt):
        u, v, w, sigma, xi = self._core(pt)
        t = v / w
        xi2 = xi**2
        H = np.empty(pt.shape + pt.shape[-1:])
        H[..., 0, :] = np.concatenate((1.0 / xi2, -sigma / xi2, -t / xi2), axis=-1)
        H[..., 1, 1:] = np.concatenate(
            (self.d / (v * xi) + sigma**2 / xi2 + 1.0 / v**2, -1.0 / (w * xi) + sigma * t / xi2),
            axis=-1,
        )
        H[..., 2:, 2:] = t[..., :, None] * t[..., None, :] / xi2[..., None]
        _add_diag(H[..., 2:, 2:], v / (w * w * xi) + 1.0 / (w * w))
        H[..., 1:, 0] = H[..., 0, 1:]
        H[..., 2:, 1] = H[..., 1, 2:]
        return H

    def inv_hess_quad(self, pt, y):
        # Eliminating u leaves an arrow matrix on (v, w): diagonal
        # (v + xi)/(w_i^2 xi) on w, whose Schur scalar for v simplifies to
        # d/(v(v + xi)) + 1/v^2. Every term is positive, so nothing cancels.
        u, v, w, sigma, xi = self._core(pt)
        yu, yv, yw = y[..., :1], y[..., 1:2], y[..., 2:]
        vxi = v + xi
        wy = w * yw + v * yu
        lead = yv + sigma * yu + wy.sum(axis=-1, keepdims=True) / vxi
        schur = self.d / (v * vxi) + 1.0 / v**2
        return ((xi * yu) ** 2 + (xi / vxi) * _dot(wy, wy) + lead**2 / schur)[..., 0]


class HypoPerLogDet(_SizedByD):
    """Perspective-logdet hypograph {(u, v > 0, svec(W)): W pd, u <= v logdet(W/v)}.

    Barrier -log(v logdet(W/v) - u) - logdet(W) - log v with nu = d + 2.
    """

    tag = "hypoperlogdet"

    def _dim_nu(self, d):
        return 2 + sdim(d), float(d + 2)

    def primal_margins(self, s):
        return _perlog_margins(s[:1], s[1:2], np.linalg.eigvalsh(smat(s[2:])))

    def dual_margins(self, z):
        return _perlog_dual_margins(z[:1], z[1:2], np.linalg.eigvalsh(smat(z[2:])))

    def initial_point(self):
        return np.concatenate(([-1.0, 1.0], svec(np.eye(self.d))))

    def _core(self, pt):
        u, v, W = pt[0], pt[1], smat(pt[2:])
        logdet = _logdet(W)
        sigma = logdet - self.d * math.log(v) - self.d  # d(xi)/dv
        xi = v * (logdet - self.d * math.log(v)) - u
        return u, v, W, logdet, sigma, xi

    def _barrier(self, pt):
        u, v, W, logdet, sigma, xi = self._core(pt)
        return -math.log(xi) - logdet - math.log(v)

    def grad(self, pt):
        u, v, W, logdet, sigma, xi = self._core(pt)
        Wi = _sym_inv(W)
        g = np.empty(self.dim)
        g[0] = 1.0 / xi
        g[1] = -sigma / xi - 1.0 / v
        g[2:] = -svec((v / xi + 1.0) * Wi, sym_tol=np.inf)
        return g

    def hess(self, pt):
        u, v, W, logdet, sigma, xi = self._core(pt)
        d = self.d
        Wi = _sym_inv(W)
        sWi = svec(Wi, sym_tol=np.inf)
        H = np.empty((self.dim, self.dim))
        H[0, 0] = 1.0 / xi**2
        H[0, 1] = H[1, 0] = -sigma / xi**2
        H[0, 2:] = H[2:, 0] = -(v / xi**2) * sWi
        H[1, 1] = d / (v * xi) + sigma**2 / xi**2 + 1.0 / v**2
        # d(grad_v) along dW: dsigma = tr(Wi dW), dxi = v tr(Wi dW)
        H[1, 2:] = H[2:, 1] = (-1.0 / xi + sigma * v / xi**2) * sWi
        # d(grad_W) along dW: dxi = v tr(Wi dW)
        H[2:, 2:] = (v / xi + 1.0) * svec_kron(Wi) + (v / xi) ** 2 * np.outer(sWi, sWi)
        return H


# ---------------------------------------------------------------------------
# weighted sum-of-squares cones
# ---------------------------------------------------------------------------


def _check_ps(Ps):
    if len(Ps) == 0:
        raise ValueError("P collection must be nonempty")
    mats = [np.ascontiguousarray(np.asarray(P, dtype=float)) for P in Ps]
    d = mats[0].shape[0]
    for P in mats:
        if P.ndim != 2 or P.shape[0] != d:
            raise ValueError("all P_l must share the same row count")
        if P.shape[1] > P.shape[0]:
            raise ValueError("P_l cannot have more columns than rows")
        if P.shape[1] < 1:
            raise ValueError("P_l must have at least one column")
    return mats, d


class WsosDual(Cone):
    """Moment-side weighted SOS cone {w: P_l' Diag(w) P_l psd for all l}.

    Barrier -sum_l logdet(P_l' Diag(w) P_l) with nu = sum_l cols(P_l).
    """

    tag = "wsosdual"
    cheap_dual_test = False  # dual membership needs an auxiliary solve

    def __init__(self, Ps):
        self.Ps, self.d = _check_ps(Ps)
        self.dim = self.d
        self.nu = float(sum(P.shape[1] for P in self.Ps))

    def params(self):
        return {"Ps": [P.tolist() for P in self.Ps]}

    def _lams(self, w):
        return [(P * np.asarray(w, dtype=float)[:, None]).T @ P for P in self.Ps]

    def primal_margins(self, s):
        return np.concatenate([np.linalg.eigvalsh(L) for L in self._lams(s)])

    def _primal_ok(self, s):
        return all(_posdef_chol(L, pivot_floor=1e-12) is not None for L in self._lams(s))

    def dual_margins(self, z):
        return _wsos_primal_margins(self.Ps, z)

    def initial_point(self):
        return np.ones(self.d)

    def _barrier(self, w):
        total = 0.0
        for Lam in self._lams(w):
            total -= _logdet(Lam)
        return total

    def grad(self, w):
        g = np.zeros(self.d)
        for P, Lam in zip(self.Ps, self._lams(w)):
            X = np.linalg.solve(Lam, P.T)  # s_l x U
            g -= np.einsum("ij,ji->i", P, X)
        return g

    def hess(self, w):
        H = np.zeros((self.d, self.d))
        for P, Lam in zip(self.Ps, self._lams(w)):
            M = P @ np.linalg.solve(Lam, P.T)
            H += M * M
        return H


def wsos_basis(P):
    """Rows svec(p_u p_u') for the rows p_u of P: the linear map Th -> diag(P Th P')."""
    return np.stack([svec(np.outer(p, p), sym_tol=np.inf) for p in P])


def _wsos_primal_margins(Ps, w):
    """Largest t with w = sum_l diag(P_l Th_l P_l'), Th_l - t I psd, via an auxiliary solve."""
    from .model import ConicProblem  # deferred: avoids an import cycle
    from .solver import SolveOptions, solve

    w = np.asarray(w, dtype=float)
    U = Ps[0].shape[0]
    dims = [sdim(P.shape[1]) for P in Ps]
    n = 1 + sum(dims)
    A = np.zeros((U, n))
    off = 1
    for P, dd in zip(Ps, dims):
        A[:, off : off + dd] = wsos_basis(P)
        off += dd
    c = np.zeros(n)
    c[0] = -1.0  # maximize t
    G = np.zeros((sum(dims), n))
    h = np.zeros(sum(dims))
    roff = 0
    off = 1
    blocks = []
    for P, dd in zip(Ps, dims):
        side = P.shape[1]
        G[roff : roff + dd, off : off + dd] = -np.eye(dd)
        G[roff : roff + dd, 0] = svec(np.eye(side))
        blocks.append(PosSemidef(side))
        roff += dd
        off += dd
    prob = ConicProblem(c, A, w, G, h, blocks)
    res = solve(prob, SolveOptions(tol=1e-8, max_iters=200, time_limit=60.0))
    if res.status.value == "optimal":
        return np.array([-res.primal_obj])
    if res.status.value == "primal_infeasible":
        return np.array([-np.inf])
    return np.array([np.nan])


class Wsos(WsosDual):
    """Function-side weighted SOS cone {sum_l diag(P_l Th_l P_l'): Th_l psd}.

    No tractable barrier is known for this cone; oracles evaluate the
    moment-side barrier of its dual and the solver works on the dual side.
    """

    tag = "wsos"
    uses_dual_barrier = True
    primal_margins = WsosDual.dual_margins
    dual_margins = WsosDual.primal_margins
    # the strict tests swap too: the inherited _primal_ok would test the moment cone
    _primal_ok = Cone._primal_ok
    _dual_ok = WsosDual._primal_ok
    cheap_primal_test = False  # strict membership needs an auxiliary solve
    cheap_dual_test = True

    def initial_point(self):
        return np.sum([np.einsum("ij,ij->i", P, P) for P in self.Ps], axis=0)


# ---------------------------------------------------------------------------
# runs of equal blocks
# ---------------------------------------------------------------------------


class _Run(Cone):
    """r adjacent copies of one stackable cone K, evaluated as one block.

    Each oracle calls K's formula once on the (r, K.dim) stack of the block's
    rows, which keep their order. The Hessian is the dense block-diagonal
    matrix; ``inv_hess_quad`` is the sum of K's closed form over the members.
    ``_products`` keeps one s'z/nu per member, so the neighbourhood test stays
    per block.
    """

    def __init__(self, K: Cone, r: int):
        self.K, self.r = K, r
        self.tag = K.tag
        self.dim, self.nu = r * K.dim, r * K.nu

    def __repr__(self):
        return f"_Run({self.K!r}, r={self.r})"

    def _stack(self, pt):
        return pt.reshape(self.r, self.K.dim)

    def primal_margins(self, s):
        return self.K.primal_margins(self._stack(s))

    def dual_margins(self, z):
        return self.K.dual_margins(self._stack(z))

    def initial_point(self):
        return np.tile(self.K.initial_point(), self.r)

    def _barrier(self, pt):
        return self.K._barrier(self._stack(pt))

    def grad(self, pt):
        return self.K.grad(self._stack(pt)).ravel()

    def hess(self, pt):
        k, i = self.K.dim, np.arange(self.r)
        H = np.zeros((self.r, k, self.r, k))
        H[i, :, i, :] = self.K.hess(self._stack(pt))
        return H.reshape(self.dim, self.dim)

    def inv_hess_quad(self, pt, v):
        return float(np.sum(self.K.inv_hess_quad(self._stack(pt), self._stack(v))))

    def _products(self, s, z):
        return (_dot(self._stack(s), self._stack(z))[:, 0] / self.K.nu).tolist()


def _stack_runs(blocks) -> tuple:
    """``blocks`` with each run of two or more equal stackable blocks as one ``_Run``."""
    runs = []  # [block, count]
    for K in blocks:
        if runs and K._stackable and runs[-1][0] == K:
            runs[-1][1] += 1
        else:
            runs.append([K, 1])
    return tuple(_Run(K, n) if n > 1 else K for K, n in runs)


# ---------------------------------------------------------------------------
# factory
# ---------------------------------------------------------------------------

_REGISTRY = {
    cls.tag: cls
    for cls in (
        Nonneg,
        EpiNorm2,
        EpiPerSquare,
        PosSemidef,
        EpiNormInf,
        EpiNormInfDual,
        EpiNormSpectral,
        EpiNormSpectralDual,
        HypoGeomean,
        HypoRootDet,
        HypoPerLog,
        HypoPerLogDet,
        Wsos,
        WsosDual,
    )
}


def make_cone(tag: str, **params) -> Cone:
    """Build a cone block from its tag and parameters (see each class)."""
    try:
        cls = _REGISTRY[tag]
    except KeyError:
        raise ValueError(f"unknown cone tag {tag!r}") from None
    return cls(**params)

