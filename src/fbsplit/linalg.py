"""Dense vectors and linear maps with adjoints, plus spectral-norm estimation.

Vectors are plain 1-D float64 numpy arrays; ``as_vector`` is the validation
boundary that keeps NaN/Inf out of solver state.  Lockstep runs stack their
vectors as the rows of a ``(K, dim)`` block.
"""

import math
import warnings

import numpy as np

__all__ = ["as_vector", "inner", "norm", "LinearMap", "identity", "operator_norm"]


def as_vector(x, dim=None, name="vector"):
    """Validate and return ``x`` as a finite 1-D float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim == 0:
        v = v.reshape(1)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite entries")
    if dim is not None and v.shape[0] != dim:
        raise ValueError(f"{name} has dimension {v.shape[0]}, expected {dim}")
    return v


def inner(u, v):
    """Euclidean inner product; raises on dimension mismatch."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    return float(np.dot(u, v))


def norm(v):
    """Euclidean norm of a 1-D float64 array as a float.

    This is the formula ``np.linalg.norm`` applies to such an array, so the
    result is the same bit for bit, without that function's argument handling.
    """
    return math.sqrt(v.dot(v))


class LinearMap:
    """Dense linear operator with an explicit adjoint.

    Wraps a 2-D array ``matrix`` of shape (out_dim, in_dim).  ``apply`` is
    matrix-vector multiplication and ``adjoint_apply`` uses the transpose, so
    the adjoint identity <A u, v> == <u, A^T v> holds by construction.

    Both also take a ``(K, dim)`` block of rows, the state of K lockstep
    runs, and map each row as they map a vector: a stacked ``matmul`` makes
    one matrix-vector product per row, so every row of the result is
    bit-identical to the 1-D product, which one matrix-matrix product is not.
    """

    def __init__(self, matrix):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2:
            raise ValueError(f"matrix must be 2-D, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValueError("matrix contains non-finite entries")
        self.matrix = m

    @property
    def in_dim(self):
        return self.matrix.shape[1]

    @property
    def out_dim(self):
        return self.matrix.shape[0]

    def apply(self, v):
        if v.ndim == 1:
            return self.matrix @ v
        return np.matmul(self.matrix, v[..., None])[..., 0]

    def adjoint_apply(self, u):
        if u.ndim == 1:
            return self.matrix.T @ u
        return np.matmul(self.matrix.T, u[..., None])[..., 0]

    def __repr__(self):
        return f"LinearMap({self.out_dim}x{self.in_dim})"


def identity(n):
    return LinearMap(np.eye(n))


def operator_norm(A, tol=1e-10, max_iter=10_000, seed=0):
    """Largest singular value of ``A`` by power iteration on A^T A.

    The start vector is drawn from a generator seeded with ``seed`` so the
    estimate is reproducible.  If the relative change of the eigenvalue
    estimate does not drop below ``tol`` within ``max_iter`` sweeps, the last
    value is returned and a warning is emitted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(A.in_dim)
    nx = np.linalg.norm(x)
    if nx == 0.0:
        x = np.ones(A.in_dim)
        nx = np.linalg.norm(x)
    x /= nx
    lam_prev = np.inf
    for _ in range(max_iter):
        y = A.adjoint_apply(A.apply(x))
        lam = float(np.linalg.norm(y))
        if lam == 0.0:
            return 0.0
        if abs(lam - lam_prev) <= tol * lam:
            return float(np.sqrt(lam))
        lam_prev = lam
        x = y / lam
    warnings.warn(
        f"operator_norm: no convergence within {max_iter} iterations; "
        f"returning last estimate {np.sqrt(lam_prev):.6e}",
        RuntimeWarning,
        stacklevel=2,
    )
    return float(np.sqrt(lam_prev))
