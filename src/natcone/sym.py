"""Symmetric-matrix vectorization with inner-product-preserving scaling."""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

_SQRT2 = math.sqrt(2.0)


def sdim(d: int) -> int:
    """Vectorized length of a symmetric d-by-d matrix, d*(d+1)/2."""
    if d < 1:
        raise ValueError(f"side dimension must be positive, got {d}")
    return d * (d + 1) // 2


def tri_side(length: int) -> int:
    """Side dimension d with sdim(d) == length; raises if length is not triangular."""
    d = int((math.isqrt(8 * length + 1) - 1) // 2)
    if d < 1 or d * (d + 1) // 2 != length:
        raise ValueError(f"{length} is not a triangular number")
    return d


@lru_cache(maxsize=None)
def _svec_indices(d: int):
    # column-stacked upper triangle: (0,0), (0,1), (1,1), (0,2), (1,2), (2,2), ...
    # Cached per side and shared by every caller, so the arrays are read-only.
    rows = np.concatenate([np.arange(j + 1) for j in range(d)])
    cols = np.concatenate([np.full(j + 1, j, dtype=int) for j in range(d)])
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def svec_index(i: int, j: int) -> int:
    """Position of entry (i, j), i <= j, in the column-stacked upper triangle."""
    if i > j:
        i, j = j, i
    return j * (j + 1) // 2 + i


def svec(S: np.ndarray, sym_tol: float = 1e-10) -> np.ndarray:
    """Vectorize a symmetric matrix, scaling off-diagonal entries by sqrt(2).

    The scaling makes the map an isometry: svec(S) @ svec(Z) == trace(S @ Z).
    Input that is not symmetric within ``sym_tol`` (relative) is rejected.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    scale = 1.0 + np.max(np.abs(S)) if S.size else 1.0
    if S.size and np.max(np.abs(S - S.T)) > sym_tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    d = S.shape[0]
    rows, cols = _svec_indices(d)
    out = S[rows, cols].copy()
    out[rows < cols] *= _SQRT2
    return out


def svec_kron(S: np.ndarray) -> np.ndarray:
    """Matrix of the map svec(D) -> svec(S D S) for symmetric S.

    This is the symmetric Kronecker product of S with itself in svec
    coordinates; with S = inv(W) it is the Hessian of -logdet(W). The result
    is exactly symmetric when S is.
    """
    S = np.asarray(S, dtype=float)
    rows, cols = _svec_indices(S.shape[0])
    w = np.where(rows < cols, _SQRT2, 1.0)
    # K[a, b] = (S[ra, rb] S[ca, cb] + S[ra, cb] S[ca, rb]) / 2, gathered as
    # row subsets of the two d-by-sdim column slabs
    X, Y = S[:, rows], S[:, cols]
    K = 0.5 * (X[rows] * Y[cols] + Y[rows] * X[cols])
    return K * np.outer(w, w)


def smat(w: np.ndarray) -> np.ndarray:
    """Inverse of svec: rebuild the symmetric matrix from its vectorization."""
    w = np.asarray(w, dtype=float).ravel()
    d = tri_side(w.size)
    rows, cols = _svec_indices(d)
    vals = w.copy()
    vals[rows < cols] /= _SQRT2
    M = np.zeros((d, d))
    M[rows, cols] = vals
    M[cols, rows] = vals
    return M
