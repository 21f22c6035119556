"""Resolvent-capable monotone operators, cocoercive maps, and a small prox catalog.

A resolvent operator exposes ``resolvent(gamma, v) = (Id + gamma*M)^{-1}(v)``;
when M is the subdifferential of a convex function this is the proximal map.
A cocoercive map exposes ``apply(v)`` together with its modulus ``beta``:
<C(z)-C(y), z-y>  >=  beta * ||C(z)-C(y)||^2.

These properties are not enforced at runtime; the test suite checks them on
sampled pairs for every concrete class below.  ``value`` and the projection
also take a block of rows, and give each row its 1-D result bit for bit.
"""

import math

import numpy as np

from .linalg import LinearMap, as_vector, inner, operator_norm

__all__ = [
    "ResolventOperator",
    "CocoerciveMap",
    "SmoothTerm",
    "InclusionProblem",
    "prox_l1",
    "ZeroOperator",
    "L1Subdifferential",
    "AffineConstraint",
    "QuadraticTerm",
    "ZeroSmoothTerm",
    "quadratic_term",
]


def prox_l1(v, t):
    """Soft threshold: componentwise sign(v_i) * max(|v_i| - t, 0).

    A ``(K, n)`` block of rows may take one threshold per row as a
    ``(K, 1)`` column ``t``.
    """
    if not (t > 0 if isinstance(t, float) else np.all(t > 0)):
        raise ValueError("threshold t must be positive")
    v = np.asarray(v, dtype=float)
    if not np.isfinite(v).all():
        raise ValueError("prox_l1 input contains non-finite entries")
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


class ResolventOperator:
    """Interface for maximally monotone operators given through their resolvent."""

    dim = None  # None means any dimension

    def resolvent(self, gamma, v):
        raise NotImplementedError


class ZeroOperator(ResolventOperator):
    """M = 0, so f = 0; the resolvent is the identity for every step size."""

    def value(self, v):
        return 0.0

    def resolvent(self, gamma, v):
        return np.asarray(v, dtype=float)


class L1Subdifferential(ResolventOperator):
    """M = subdifferential of f = ||.||_1; resolvent(gamma, .) soft thresholds at gamma."""

    def value(self, v):
        total = np.sum(np.abs(v), axis=-1)
        return float(total) if total.ndim == 0 else total

    def resolvent(self, gamma, v):
        return prox_l1(v, gamma)


class AffineConstraint(ResolventOperator):
    """Normal cone of the affine set {x : Ax = b}.

    The resolvent is the Euclidean projection onto the set and does not
    depend on the step size.  Construction fails if the system Ax = b has
    no solution.
    """

    def __init__(self, A: LinearMap, b):
        b = as_vector(b, dim=A.out_dim, name="b")
        # pinv gives the minimum-norm correction also when A is rank deficient;
        # pinv @ b is a least-squares solution, so one SVD also decides
        # whether the system is consistent
        self._pinv = np.linalg.pinv(A.matrix)
        residual = np.linalg.norm(A.apply(self._pinv @ b) - b)
        if residual > 1e-10 * max(1.0, np.linalg.norm(b)):
            raise ValueError(
                f"inconsistent system: no x with Ax = b (residual {residual:.3e})"
            )
        self.A = A
        self.b = b
        self.dim = A.in_dim

    def project(self, v):
        r = self.A.apply(v) - self.b  # the pinv product is stacked for a block, as in LinearMap
        return v - (self._pinv @ r if r.ndim == 1 else np.matmul(self._pinv, r[..., None])[..., 0])

    def resolvent(self, gamma, v):
        return self.project(v)


class CocoerciveMap:
    """Interface for single-valued cocoercive maps."""

    beta = math.inf
    dim = None

    def apply(self, v):
        raise NotImplementedError


class SmoothTerm(CocoerciveMap):
    """Convex differentiable term whose gradient is (1/beta)-Lipschitz, and so
    beta-cocoercive (Baillon-Haddad): the term is the forward map C = grad h."""

    def value(self, v):
        raise NotImplementedError

    def gradient(self, v):
        raise NotImplementedError

    def apply(self, v):
        # a call, not an alias of gradient, so a wrapped gradient is reached too
        return self.gradient(v)


class QuadraticTerm(SmoothTerm):
    """x -> 0.5 * ||Bx - c||^2 with gradient B^T(Bx - c)."""

    def __init__(self, B: LinearMap, c, beta):
        self.B = B
        self.c = as_vector(c, dim=B.out_dim, name="c")
        self.beta = beta
        self.dim = B.in_dim

    def value(self, v):
        r = self.B.apply(v) - self.c
        return 0.5 * inner(r, r)

    def gradient(self, v):
        return self.B.adjoint_apply(self.B.apply(v) - self.c)


class ZeroSmoothTerm(SmoothTerm):
    """h = 0 with zero gradient, so also the forward map C = 0; beta is +inf."""

    def __init__(self, dim=None):
        self.dim = dim

    def value(self, v):
        return 0.0

    def gradient(self, v):
        return np.zeros_like(np.asarray(v, dtype=float))


def quadratic_term(B: LinearMap, c):
    """Build the quadratic term 0.5*||Bx-c||^2 with an estimated safe modulus.

    beta = 0.999 / ||B||^2 with the norm from ``operator_norm``.  It is exact
    to roundoff when B's short side is at most ``GRAM_MAX_SIDE``; above that
    Golub-Kahan approaches ||B|| from below and stops on a relative change,
    so it can read low by up to about 1e-11.  The shrink keeps step-size rules
    strictly inside their admissible ranges all the same.
    """
    n = operator_norm(B)
    beta = math.inf if n == 0.0 else 0.999 / (n * n)
    return QuadraticTerm(B, c, beta)


class InclusionProblem:
    """Find z with 0 in M(z) + C(z) for resolvent-capable M and beta-cocoercive C."""

    def __init__(self, M: ResolventOperator, C: CocoerciveMap):
        if M.dim is not None and C.dim is not None and M.dim != C.dim:
            raise ValueError(f"operator dimensions differ: M acts on {M.dim}, C on {C.dim}")
        self.M = M
        self.C = C

    @property
    def dim(self):
        return self.M.dim if self.M.dim is not None else self.C.dim

    @property
    def beta(self):
        return self.C.beta
