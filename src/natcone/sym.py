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


@lru_cache(maxsize=None)
def _svec_maps(d: int):
    """Flat-index maps between a d-by-d matrix and its svec, cached per side.

    ``upper`` holds the flat matrix position of each svec entry and ``scale``
    its factor (sqrt(2) off the diagonal, else 1); ``full`` holds the svec
    position of each matrix entry and ``div`` its divisor. Shared by every
    caller, so the arrays are read-only.
    """
    rows, cols = _svec_indices(d)
    upper = rows * d + cols
    scale = np.where(rows < cols, _SQRT2, 1.0)
    full = np.empty(d * d, dtype=int)
    full[upper] = full[cols * d + rows] = np.arange(rows.size)
    div = scale[full]
    for a in (upper, scale, full, div):
        a.flags.writeable = False
    return upper, scale, full, div


def svec_index(i: int, j: int) -> int:
    """Position of entry (i, j), i <= j, in the column-stacked upper triangle."""
    if i > j:
        i, j = j, i
    return j * (j + 1) // 2 + i


def svec(S: np.ndarray, sym_tol: float = 1e-10) -> np.ndarray:
    """Vectorize a symmetric matrix, scaling off-diagonal entries by sqrt(2).

    The scaling makes the map an isometry: svec(S) @ svec(Z) == trace(S @ Z).
    Input that is not symmetric within ``sym_tol`` (relative) is rejected; an
    infinite ``sym_tol`` skips the test.
    """
    S = np.asarray(S, dtype=float)
    if S.ndim != 2 or S.shape[0] != S.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {S.shape}")
    if S.size and sym_tol != math.inf:
        if np.max(np.abs(S - S.T)) > sym_tol * (1.0 + np.max(np.abs(S))):
            raise ValueError("matrix is not symmetric within tolerance")
    upper, scale, _, _ = _svec_maps(S.shape[0])
    return S.reshape(-1).take(upper) * scale


def svec_kron(S: np.ndarray) -> np.ndarray:
    """Matrix of the map svec(D) -> svec(S D S) for symmetric S.

    This is the symmetric Kronecker product of S with itself in svec
    coordinates; with S = inv(W) it is the Hessian of -logdet(W). The result
    is exactly symmetric when S is.
    """
    S = np.asarray(S, dtype=float)
    rows, cols = _svec_indices(S.shape[0])
    _, w, _, _ = _svec_maps(S.shape[0])
    # K[a, b] = (S[ra, rb] S[ca, cb] + S[ra, cb] S[ca, rb]) / 2, gathered as
    # row subsets of the two d-by-sdim column slabs
    X, Y = S[:, rows], S[:, cols]
    K = 0.5 * (X[rows] * Y[cols] + Y[rows] * X[cols])
    return K * np.outer(w, w)


def svec_kron_prod(S: np.ndarray, V: np.ndarray) -> np.ndarray:
    """svec(S smat(v) S) for each column v of V, i.e. ``svec_kron(S) @ V``
    without forming the sdim-by-sdim matrix.

    S is symmetric and V has shape (sdim,) or (sdim, k). The k columns are
    gathered into a stack of d-by-d matrices at once; S multiplies the stack
    in two GEMMs, and one gather takes the upper triangles back to svec
    coordinates.
    """
    S = np.asarray(S, dtype=float)
    V = np.asarray(V, dtype=float)
    d = S.shape[0]
    upper, scale, full, div = _svec_maps(d)
    V2 = V.reshape(V.shape[0], -1)
    k = V2.shape[1]
    # D holds D_l[i, j] of the stack D_l = smat(V[:, l]) at row i, column
    # (j, l); S @ D is S D_l in that layout, and its transpose per l is D_l S,
    # so S @ (D_l S) is S D_l S at row (i, j), column l
    D = (V2.take(full, axis=0) / div[:, None]).reshape(d, d * k)
    SD = (S @ D).reshape(d, d, k).transpose(1, 0, 2).reshape(d, d * k)
    SDS = (S @ SD).reshape(d * d, k)
    return (SDS.take(upper, axis=0) * scale[:, None]).reshape(V.shape)


def smat(w: np.ndarray) -> np.ndarray:
    """Inverse of svec: rebuild the symmetric matrix from its vectorization."""
    w = np.asarray(w, dtype=float).ravel()
    d = tri_side(w.size)
    _, _, full, div = _svec_maps(d)
    return (w.take(full) / div).reshape(d, d)
