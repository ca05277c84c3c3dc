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
the block.
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
    "barrier_grad",
    "barrier_hess",
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
        scale = 1.0 + float(np.max(np.diag(M))) if M.size else 1.0
        if np.min(np.diag(L)) ** 2 < pivot_floor * scale:
            return None
    return L


def _logdet_from_chol(L: np.ndarray) -> float:
    return 2.0 * float(np.sum(np.log(np.diag(L))))


class Cone:
    """Base cone block. Subclasses fill in dim, nu and the oracle methods."""

    tag = ""
    uses_dual_barrier = False
    # Set to False where the corresponding strict membership test needs an
    # auxiliary optimization and is too slow for per-trial line-search checks.
    cheap_primal_test = True
    cheap_dual_test = True

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
        s = np.asarray(s, dtype=float)
        if s.shape != (self.dim,) or not np.all(np.isfinite(s)):
            return False
        m = self.primal_margins(s)
        return bool(m.size == 0 or (np.all(np.isfinite(m)) and np.min(m) > 0.0))

    def in_dual_interior(self, z: np.ndarray) -> bool:
        z = np.asarray(z, dtype=float)
        if z.shape != (self.dim,) or not np.all(np.isfinite(z)):
            return False
        m = self.dual_margins(z)
        return bool(m.size == 0 or (np.all(np.isfinite(m)) and np.min(m) > 0.0))

    def in_closure(self, s: np.ndarray, tol: float) -> bool:
        s = np.asarray(s, dtype=float)
        m = self.primal_margins(s)
        return bool(m.size == 0 or np.min(m) >= -tol * (1.0 + float(np.max(np.abs(s)))))

    def in_dual_closure(self, z: np.ndarray, tol: float) -> bool:
        z = np.asarray(z, dtype=float)
        m = self.dual_margins(z)
        return bool(m.size == 0 or np.min(m) >= -tol * (1.0 + float(np.max(np.abs(z)))))

    # -- barrier oracles ----------------------------------------------------
    def initial_point(self) -> np.ndarray:
        raise NotImplementedError

    def barrier_domain_ok(self, pt: np.ndarray) -> bool:
        return self.in_dual_interior(pt) if self.uses_dual_barrier else self.in_interior(pt)

    def barrier(self, pt: np.ndarray) -> float:
        raise NotImplementedError

    def grad(self, pt: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def hess(self, pt: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inv_hess_quad(self, pt: np.ndarray, v: np.ndarray) -> float | None:
        """v' H(pt)^-1 v in closed form, or None where the cone has none.

        A closed form returns inf when it cannot factor the point.
        """
        return None


# ---------------------------------------------------------------------------
# symmetric / standard cones
# ---------------------------------------------------------------------------


class Nonneg(Cone):
    """Nonnegative orthant of dimension d; barrier -sum(log w), nu = d."""

    tag = "nonneg"

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = int(d)
        self.dim = self.d
        self.nu = float(self.d)

    def params(self):
        return {"d": self.d}

    def primal_margins(self, s):
        return np.asarray(s, dtype=float)

    dual_margins = primal_margins

    def initial_point(self):
        return np.ones(self.d)

    def barrier(self, w):
        return -float(np.sum(np.log(w)))

    def grad(self, w):
        return -1.0 / np.asarray(w, dtype=float)

    def hess(self, w):
        return np.diag(1.0 / np.asarray(w, dtype=float) ** 2)

    def inv_hess_quad(self, w, v):
        wv = np.asarray(w, dtype=float) * v
        return float(wv @ wv)


class EpiNorm2(Cone):
    """Euclidean-norm epigraph {(u, w): u >= ||w||}; barrier -log(u^2 - ||w||^2)."""

    tag = "epinorm2"

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = int(d)
        self.dim = 1 + self.d
        self.nu = 2.0

    def params(self):
        return {"d": self.d}

    def primal_margins(self, s):
        u, w = s[0], s[1:]
        return np.array([u - np.linalg.norm(w)])

    dual_margins = primal_margins  # self-dual

    def initial_point(self):
        pt = np.zeros(self.dim)
        pt[0] = 1.0
        return pt

    def _res(self, s):
        u, w = s[0], s[1:]
        return u, w, u * u - float(w @ w)

    def barrier(self, s):
        return -math.log(self._res(s)[2])

    def grad(self, s):
        u, w, r = self._res(s)
        g = np.empty(self.dim)
        g[0] = -2.0 * u / r
        g[1:] = 2.0 * w / r
        return g

    def hess(self, s):
        u, w, r = self._res(s)
        g = np.concatenate(([-2.0 * u], 2.0 * w)) / r
        H = np.outer(g, g)
        H[0, 0] -= 2.0 / r
        H[1:, 1:] += 2.0 / r * np.eye(self.d)
        return H


class EpiPerSquare(Cone):
    """Rotated second-order cone {(u, v, w): 2uv >= ||w||^2, u, v >= 0}."""

    tag = "epipersquare"

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = int(d)
        self.dim = 2 + self.d
        self.nu = 2.0

    def params(self):
        return {"d": self.d}

    def primal_margins(self, s):
        u, v, w = s[0], s[1], s[2:]
        nw = np.linalg.norm(w)
        root = math.sqrt(2.0 * max(u, 0.0) * max(v, 0.0))
        return np.array([u, v, root - nw])

    dual_margins = primal_margins  # self-dual under this scaling

    def initial_point(self):
        pt = np.zeros(self.dim)
        pt[0] = pt[1] = 1.0
        return pt

    def _res(self, s):
        u, v, w = s[0], s[1], s[2:]
        return u, v, w, 2.0 * u * v - float(w @ w)

    def barrier(self, s):
        return -math.log(self._res(s)[3])

    def grad(self, s):
        u, v, w, r = self._res(s)
        g = np.empty(self.dim)
        g[0] = -2.0 * v / r
        g[1] = -2.0 * u / r
        g[2:] = 2.0 * w / r
        return g

    def hess(self, s):
        u, v, w, r = self._res(s)
        g = np.concatenate(([-2.0 * v, -2.0 * u], 2.0 * w)) / r
        H = np.outer(g, g)
        H[0, 1] -= 2.0 / r
        H[1, 0] -= 2.0 / r
        H[2:, 2:] += 2.0 / r * np.eye(self.d)
        return H


class PosSemidef(Cone):
    """Vectorized PSD cone of side d; barrier -logdet(W), nu = d."""

    tag = "possemidef"

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = int(d)
        self.dim = sdim(self.d)
        self.nu = float(self.d)

    def params(self):
        return {"d": self.d}

    def primal_margins(self, s):
        return np.linalg.eigvalsh(smat(s))

    dual_margins = primal_margins

    def in_interior(self, s):
        s = np.asarray(s, dtype=float)
        if s.shape != (self.dim,) or not np.all(np.isfinite(s)):
            return False
        return _posdef_chol(smat(s), pivot_floor=1e-12) is not None

    in_dual_interior = in_interior

    def initial_point(self):
        return svec(np.eye(self.d))

    def barrier(self, s):
        L = _posdef_chol(smat(s))
        if L is None:
            raise NotInteriorError("matrix not positive definite")
        return -_logdet_from_chol(L)

    def grad(self, s):
        Wi = np.linalg.inv(smat(s))
        return -svec(0.5 * (Wi + Wi.T), sym_tol=np.inf)

    def hess(self, s):
        Wi = np.linalg.inv(smat(s))
        return svec_kron(0.5 * (Wi + Wi.T))

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


class EpiNormInf(Cone):
    """Max-norm epigraph {(u, w): u >= max|w_i|}; dual is the l1 epigraph.

    Barrier -sum_i log(u^2 - w_i^2) + (d-1) log u with nu = d + 1.
    """

    tag = "epinorminf"

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = int(d)
        self.dim = 1 + self.d
        self.nu = float(self.d + 1)

    def params(self):
        return {"d": self.d}

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

    def barrier(self, s):
        u, w = s[0], s[1:]
        return -float(np.sum(np.log(u * u - w * w))) + (self.d - 1) * math.log(u)

    def grad(self, s):
        u, w = s[0], s[1:]
        r = u * u - w * w
        g = np.empty(self.dim)
        g[0] = -2.0 * u * np.sum(1.0 / r) + (self.d - 1) / u
        g[1:] = 2.0 * w / r
        return g

    def hess(self, s):
        u, w = s[0], s[1:]
        r = u * u - w * w
        H = np.zeros((self.dim, self.dim))
        H[0, 0] = np.sum(-2.0 / r + 4.0 * u * u / r**2) - (self.d - 1) / u**2
        H[0, 1:] = H[1:, 0] = -4.0 * u * w / r**2
        H[1:, 1:] = np.diag(2.0 / r + 4.0 * w * w / r**2)
        return H


class EpiNormInfDual(EpiNormInf):
    """l1-norm epigraph {(u, w): u >= sum|w_i|}; oracles use the max-norm barrier."""

    tag = "epinorminfdual"
    uses_dual_barrier = True

    def primal_margins(self, s):
        u, w = s[0], s[1:]
        return np.array([u - np.sum(np.abs(w))])

    def dual_margins(self, z):
        u, w = z[0], z[1:]
        return np.array([u - np.max(np.abs(w))])

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

    def barrier(self, pt):
        u, W, Z = self._core(pt)
        L = _posdef_chol(Z)
        if L is None:
            raise NotInteriorError("point not in spectral cone interior")
        return -_logdet_from_chol(L) + (self.r - 1) * math.log(u)

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


class EpiNormSpectralDual(EpiNormSpectral):
    """Nuclear-norm epigraph; oracles use the spectral-norm barrier."""

    tag = "epinormspectraldual"
    uses_dual_barrier = True

    def primal_margins(self, s):
        u, W = s[0], self._mat(s[1:])
        sig = np.linalg.svd(W, compute_uv=False)
        return np.array([u - float(np.sum(sig))])

    def dual_margins(self, z):
        u, W = z[0], self._mat(z[1:])
        sig = np.linalg.svd(W, compute_uv=False)
        return np.array([u - (sig[0] if sig.size else 0.0)])

    def initial_point(self):
        W = np.zeros((self.r, self.s))
        W[: self.r, : self.r] = np.eye(self.r)
        return np.concatenate(([2.0 * self.r], W.ravel(order="F")))


# ---------------------------------------------------------------------------
# hypograph cones
# ---------------------------------------------------------------------------


def _geomean(w):
    return float(np.exp(np.mean(np.log(w))))


class HypoGeomean(Cone):
    """Geometric-mean hypograph {(u, w >= 0): u <= prod(w_i)^(1/d)}.

    Barrier -log(geomean(w) - u) - sum_i log w_i with nu = d + 1.
    """

    tag = "hypogeomean"

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = int(d)
        self.dim = 1 + self.d
        self.nu = float(self.d + 1)

    def params(self):
        return {"d": self.d}

    def primal_margins(self, s):
        u, w = s[0], s[1:]
        geo = _geomean(np.maximum(w, 1e-300)) if np.all(w > 0) else 0.0
        return np.concatenate((w, [geo - u]))

    def dual_margins(self, z):
        u, w = z[0], z[1:]
        geo = _geomean(np.maximum(w, 1e-300)) if np.all(w > 0) else 0.0
        return np.concatenate(([-u], w, [u + self.d * geo]))

    def initial_point(self):
        pt = np.ones(self.dim)
        pt[0] = 0.5
        return pt

    def _core(self, pt):
        u, w = pt[0], pt[1:]
        geo = _geomean(w)
        return u, w, geo, geo - u

    def barrier(self, pt):
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


class HypoRootDet(Cone):
    """Root-determinant hypograph {(u, svec(W)): W psd, u <= det(W)^(1/d)}.

    Barrier -log(det(W)^(1/d) - u) - logdet(W) with nu = d + 1.
    """

    tag = "hyporootdet"

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = int(d)
        self.dim = 1 + sdim(self.d)
        self.nu = float(self.d + 1)

    def params(self):
        return {"d": self.d}

    def _split(self, pt):
        return pt[0], smat(pt[1:])

    def primal_margins(self, s):
        u, W = self._split(s)
        eigs = np.linalg.eigvalsh(W)
        rd = float(np.exp(np.mean(np.log(np.maximum(eigs, 1e-300))))) if np.all(eigs > 0) else 0.0
        return np.concatenate((eigs, [rd - u]))

    def dual_margins(self, z):
        u, W = self._split(z)
        eigs = np.linalg.eigvalsh(W)
        rd = float(np.exp(np.mean(np.log(np.maximum(eigs, 1e-300))))) if np.all(eigs > 0) else 0.0
        return np.concatenate(([-u], eigs, [u + self.d * rd]))

    def initial_point(self):
        return np.concatenate(([0.5], svec(np.eye(self.d))))

    def _core(self, pt):
        u, W = self._split(pt)
        L = _posdef_chol(W)
        if L is None:
            raise NotInteriorError("matrix part not positive definite")
        logdet = _logdet_from_chol(L)
        R = math.exp(logdet / self.d)
        return u, W, logdet, R, R - u

    def barrier(self, pt):
        u, W, logdet, R, phi = self._core(pt)
        return -math.log(phi) - logdet

    def grad(self, pt):
        u, W, logdet, R, phi = self._core(pt)
        Wi = np.linalg.inv(W)
        Wi = 0.5 * (Wi + Wi.T)
        alpha = R / (self.d * phi)
        g = np.empty(self.dim)
        g[0] = 1.0 / phi
        g[1:] = -svec((alpha + 1.0) * Wi, sym_tol=np.inf)
        return g

    def hess(self, pt):
        u, W, logdet, R, phi = self._core(pt)
        d = self.d
        Wi = np.linalg.inv(W)
        Wi = 0.5 * (Wi + Wi.T)
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


class HypoPerLog(Cone):
    """Perspective-log hypograph {(u, v > 0, w > 0): u <= sum_i v log(w_i / v)}.

    Barrier -log(v sum_i log(w_i/v) - u) - sum_i log w_i - log v, nu = d + 2.
    With d = 1 this is the exponential cone.
    """

    tag = "hypoperlog"

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = int(d)
        self.dim = 2 + self.d
        self.nu = float(self.d + 2)

    def params(self):
        return {"d": self.d}

    def primal_margins(self, s):
        u, v, w = s[0], s[1], s[2:]
        if v <= 0.0 or np.any(w <= 0.0):
            return np.array([min(v, float(np.min(w)))])
        xi = v * float(np.sum(np.log(w / v))) - u
        return np.concatenate(([v], w, [xi]))

    def dual_margins(self, z):
        u, v, w = z[0], z[1], z[2:]
        if u >= 0.0 or np.any(w <= 0.0):
            return np.array([min(-u, float(np.min(w)))])
        slack = v - float(np.sum(u * (np.log(-w / u) + 1.0)))
        return np.concatenate(([-u], w, [slack]))

    def initial_point(self):
        pt = np.ones(self.dim)
        pt[0] = -1.0
        return pt

    def _core(self, pt):
        u, v, w = pt[0], pt[1], pt[2:]
        lg = np.log(w / v)
        sigma = float(np.sum(lg)) - self.d  # d(xi)/dv
        xi = v * float(np.sum(lg)) - u
        return u, v, w, sigma, xi

    def barrier(self, pt):
        u, v, w, sigma, xi = self._core(pt)
        return -math.log(xi) - float(np.sum(np.log(w))) - math.log(v)

    def grad(self, pt):
        u, v, w, sigma, xi = self._core(pt)
        t = v / w
        g = np.empty(self.dim)
        g[0] = 1.0 / xi
        g[1] = -sigma / xi - 1.0 / v
        g[2:] = -t / xi - 1.0 / w
        return g

    def hess(self, pt):
        u, v, w, sigma, xi = self._core(pt)
        d = self.d
        t = v / w
        H = np.empty((self.dim, self.dim))
        H[0, 0] = 1.0 / xi**2
        H[0, 1] = H[1, 0] = -sigma / xi**2
        H[0, 2:] = H[2:, 0] = -t / xi**2
        H[1, 1] = d / (v * xi) + sigma**2 / xi**2 + 1.0 / v**2
        H[1, 2:] = H[2:, 1] = -1.0 / (w * xi) + sigma * t / xi**2
        H[2:, 2:] = np.outer(t, t) / xi**2 + np.diag(v / (w * w * xi) + 1.0 / (w * w))
        return H


class HypoPerLogDet(Cone):
    """Perspective-logdet hypograph {(u, v > 0, svec(W)): W pd, u <= v logdet(W/v)}.

    Barrier -log(v logdet(W/v) - u) - logdet(W) - log v with nu = d + 2.
    """

    tag = "hypoperlogdet"

    def __init__(self, d: int):
        if d < 1:
            raise ValueError("d must be >= 1")
        self.d = int(d)
        self.dim = 2 + sdim(self.d)
        self.nu = float(self.d + 2)

    def params(self):
        return {"d": self.d}

    def _split(self, pt):
        return pt[0], pt[1], smat(pt[2:])

    def primal_margins(self, s):
        u, v, W = self._split(s)
        eigs = np.linalg.eigvalsh(W)
        if v <= 0.0 or np.any(eigs <= 0.0):
            return np.array([min(v, float(np.min(eigs)))])
        xi = v * float(np.sum(np.log(eigs / v))) - u
        return np.concatenate(([v], eigs, [xi]))

    def dual_margins(self, z):
        u, v, W = self._split(z)
        eigs = np.linalg.eigvalsh(W)
        if u >= 0.0 or np.any(eigs <= 0.0):
            return np.array([min(-u, float(np.min(eigs)))])
        slack = v - u * (float(np.sum(np.log(-eigs / u))) + self.d)
        return np.concatenate(([-u], eigs, [slack]))

    def initial_point(self):
        return np.concatenate(([-1.0, 1.0], svec(np.eye(self.d))))

    def _core(self, pt):
        u, v, W = self._split(pt)
        L = _posdef_chol(W)
        if L is None:
            raise NotInteriorError("matrix part not positive definite")
        logdet = _logdet_from_chol(L)
        sigma = logdet - self.d * math.log(v) - self.d  # d(xi)/dv
        xi = v * (logdet - self.d * math.log(v)) - u
        return u, v, W, logdet, sigma, xi

    def barrier(self, pt):
        u, v, W, logdet, sigma, xi = self._core(pt)
        return -math.log(xi) - logdet - math.log(v)

    def grad(self, pt):
        u, v, W, logdet, sigma, xi = self._core(pt)
        Wi = np.linalg.inv(W)
        Wi = 0.5 * (Wi + Wi.T)
        g = np.empty(self.dim)
        g[0] = 1.0 / xi
        g[1] = -sigma / xi - 1.0 / v
        g[2:] = -svec((v / xi + 1.0) * Wi, sym_tol=np.inf)
        return g

    def hess(self, pt):
        u, v, W, logdet, sigma, xi = self._core(pt)
        d = self.d
        Wi = np.linalg.inv(W)
        Wi = 0.5 * (Wi + Wi.T)
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

    def in_interior(self, s):
        s = np.asarray(s, dtype=float)
        if s.shape != (self.dim,) or not np.all(np.isfinite(s)):
            return False
        return all(_posdef_chol(L, pivot_floor=1e-12) is not None for L in self._lams(s))

    def dual_margins(self, z):
        return _wsos_primal_margins(self.Ps, z)

    def in_dual_interior(self, z):
        m = self.dual_margins(z)
        return bool(np.all(np.isfinite(m)) and np.min(m) > 0.0)

    def initial_point(self):
        return np.ones(self.d)

    def barrier(self, w):
        total = 0.0
        for Lam in self._lams(w):
            L = _posdef_chol(Lam)
            if L is None:
                raise NotInteriorError("moment matrix not positive definite")
            total -= _logdet_from_chol(L)
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
    res = solve(prob, SolveOptions(tol_feas=1e-8, tol_gap=1e-8, max_iters=200, time_limit=60.0))
    if res.status.value == "optimal":
        return np.array([-res.primal_obj])
    if res.status.value == "primal_infeasible":
        return np.array([-np.inf])
    return np.array([np.nan])


class Wsos(Cone):
    """Function-side weighted SOS cone {sum_l diag(P_l Th_l P_l'): Th_l psd}.

    No tractable barrier is known for this cone; oracles evaluate the
    moment-side barrier of its dual and the solver works on the dual side.
    """

    tag = "wsos"
    uses_dual_barrier = True
    cheap_primal_test = False  # strict membership needs an auxiliary solve

    def __init__(self, Ps):
        self.Ps, self.d = _check_ps(Ps)
        self.dim = self.d
        self.nu = float(sum(P.shape[1] for P in self.Ps))
        self._dual = WsosDual(self.Ps)

    def params(self):
        return {"Ps": [P.tolist() for P in self.Ps]}

    def primal_margins(self, s):
        return _wsos_primal_margins(self.Ps, s)

    def in_interior(self, s):
        m = self.primal_margins(s)
        return bool(np.all(np.isfinite(m)) and np.min(m) > 0.0)

    def dual_margins(self, z):
        return self._dual.primal_margins(z)

    def in_dual_interior(self, z):
        return self._dual.in_interior(z)

    def initial_point(self):
        return np.sum([np.einsum("ij,ij->i", P, P) for P in self.Ps], axis=0)

    def barrier(self, pt):
        return self._dual.barrier(pt)

    def grad(self, pt):
        return self._dual.grad(pt)

    def hess(self, pt):
        return self._dual.hess(pt)


# ---------------------------------------------------------------------------
# factory and op-style wrappers
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


def _require_domain(cone: Cone, pt: np.ndarray):
    if not cone.barrier_domain_ok(np.asarray(pt, dtype=float)):
        raise NotInteriorError(f"point not interior to the barrier domain of {cone!r}")


def barrier_grad(cone: Cone, pt: np.ndarray) -> np.ndarray:
    """Barrier gradient. For dual-barrier cones the point lives in the dual cone."""
    _require_domain(cone, pt)
    return cone.grad(np.asarray(pt, dtype=float))


def barrier_hess(cone: Cone, pt: np.ndarray) -> np.ndarray:
    """Barrier Hessian; symmetric positive definite on the barrier domain."""
    _require_domain(cone, pt)
    return cone.hess(np.asarray(pt, dtype=float))
