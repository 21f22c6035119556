"""Dense vectors and linear maps with adjoints, plus spectral norms by a
symmetric eigensolve of the Gram matrix or by Golub-Kahan bidiagonalization.

Vectors are plain 1-D float64 numpy arrays; ``as_vector`` is the validation
boundary that keeps NaN/Inf out of solver state.  Lockstep runs and
checkpoint states measured together stack their vectors as rows of a block.
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
    """Euclidean inner product; raises on dimension mismatch.  A block of
    rows takes it row by row, bit for bit as 1-D (a stacked ``matmul``)."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape[-1:] != v.shape[-1:]:
        raise ValueError(f"dimension mismatch: {u.shape} vs {v.shape}")
    if u.ndim == v.ndim == 1:
        return float(np.dot(u, v))
    return np.matmul(u[..., None, :], v[..., :, None])[..., 0, 0]


def norm(v):
    """Euclidean norm of a 1-D float64 array as a float, or of each row of
    a block as an array.

    This is the formula ``np.linalg.norm`` applies to such an array, so the
    result is the same bit for bit, without that function's argument handling.
    """
    if v.ndim == 1:
        return math.sqrt(v.dot(v))
    return np.sqrt(inner(v, v))


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


def identity(n):
    return LinearMap(np.eye(n))


# Largest short side min(m, n) whose norm comes from the Gram eigensolve.
# Timed against Golub-Kahan on Gaussian matrices, the eigensolve was 2.4-6.6x
# faster at short sides 20-64 and tied at (100, 200) and (128, 256); forming
# and solving G costs O(s^2 n + s^3), so at (500, 1000) it took twice as long.
GRAM_MAX_SIDE = 128


def operator_norm(A, tol=1e-10, max_iter=10_000, seed=0):
    """Largest singular value of ``A``, exact to roundoff when its short side
    is at most ``GRAM_MAX_SIDE``, else by Golub-Kahan-Lanczos bidiagonalization.

    Up to the cutoff the norm is sqrt(lambda_max(G)) for the s x s Gram
    matrix G, A A^T or A^T A with s = min(m, n), from one
    ``np.linalg.eigvalsh``.  At such sizes that is cheaper than the loop
    below, and it makes no product with the ``LinearMap``.  ``tol``,
    ``max_iter`` and ``seed`` steer the Golub-Kahan path only.

    Above the cutoff, from a unit start vector v_1 drawn from a generator
    seeded with ``seed``, step k makes one product with ``A`` and one with
    its adjoint:

        alpha_k u_k = A v_k - beta_{k-1} u_{k-1},
        beta_k v_{k+1} = A^T u_k - alpha_k v_k,

    so that A^T U_k = V_{k+1} C_k^T with C_k the k x (k+1) upper bidiagonal
    of the alphas (diagonal) and betas.  The estimate is the top singular
    value of C_k, a Rayleigh-Ritz value of A A^T, which approaches ||A||
    from below.  It is exact when an alpha or beta vanishes or after
    min(m, n) steps; otherwise the steps stop once the estimate changes by at
    most ``tol`` relative between checks, made every 3 steps from step 6.
    Only the alphas and betas are kept.  If ``max_iter`` steps pass without
    that, the last estimate is returned and a warning is emitted.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    steps = min(A.in_dim, A.out_dim)
    if steps <= GRAM_MAX_SIDE:
        M = A.matrix
        gram = M @ M.T if A.out_dim <= A.in_dim else M.T @ M
        return math.sqrt(np.linalg.eigvalsh(gram)[-1])
    v = np.random.default_rng(seed).standard_normal(A.in_dim)
    v /= norm(v)
    u = np.zeros(A.out_dim)
    beta = 0.0
    alphas, betas = [], []
    last = math.inf
    for k in range(1, max_iter + 1):
        u = A.apply(v) - beta * u
        alpha = norm(u)
        if alpha == 0.0:
            return _top_singular_value(alphas, betas)
        u /= alpha
        v = A.adjoint_apply(u) - alpha * v
        beta = norm(v)
        alphas.append(alpha)
        betas.append(beta)
        if beta == 0.0 or k == steps:
            return _top_singular_value(alphas, betas)
        if k >= 6 and k % 3 == 0:
            estimate = _top_singular_value(alphas, betas)
            if abs(estimate - last) <= tol * estimate:
                return estimate
            last = estimate
        v /= beta
    estimate = _top_singular_value(alphas, betas)
    warnings.warn(
        f"operator_norm: no convergence within {max_iter} iterations; "
        f"returning last estimate {estimate:.6e}",
        RuntimeWarning,
        stacklevel=2,
    )
    return estimate


def _top_singular_value(alphas, betas):
    """Largest singular value of the upper bidiagonal with diagonal ``alphas``
    and superdiagonal ``betas`` (one column more than rows); 0 if empty.

    Its square is the top eigenvalue of C C^T, the symmetric tridiagonal with
    diagonal alpha_i^2 + beta_i^2 and off-diagonal beta_i alpha_{i+1}.
    Laguerre's method finds it from the Gershgorin upper bound: the pivots
    q_i of the LDL^T factorization of C C^T - x I and their derivatives give
    g = sum 1/(x - lambda_j) and h = sum 1/(x - lambda_j)^2 in one pass, and
    from above every iterate stays above the top eigenvalue and converges to
    it cubically.  Scalar arithmetic, O(k) per iterate.
    """
    if not alphas:
        return 0.0
    d = [a * a + b * b for a, b in zip(alphas, betas)]
    off = [0.0] + [b * a for b, a in zip(betas, alphas[1:])]
    off2 = [e * e for e in off]
    x = max(map(sum, zip(d, off, off[1:] + [0.0])))
    n = len(d)
    for _ in range(100):
        q, r, s = 1.0, 0.0, 0.0  # the pivot q_i, q_i'/q_i and q_i''/q_i
        g = h = 0.0
        for di, e2 in zip(d, off2):
            w = e2 / q
            q = di - x - w
            if q == 0.0:
                return math.sqrt(x)
            r, s = (w * r - 1.0) / q, w * (s - 2.0 * r * r) / q
            g += r
            h += r * r - s
        root = math.sqrt(max((n - 1) * (n * h - g * g), 0.0))
        step = n / (g + math.copysign(root, g))
        if abs(step) <= 4 * math.ulp(x):
            break
        x -= step
    return math.sqrt(x)

