"""Primal-dual full splitting for min f(x) + h(x) subject to Ax = b.

The method applies the momentum+correction forward-backward scheme to the
primal-dual optimality system, yielding explicit updates that only use
prox_{tau f}, grad h, A and its adjoint:

    v_k     = x_k + (1 - a/(k+a)) (x_k - x_{k-1}) + (1 - a/(2(k+a))) (v_{k-1} - x_k)
    eta_k   = same extrapolation on the dual iterates
    x_{k+1} = prox_{tau f}(v_k - tau A* eta_k - tau grad h(x_k))
    l_{k+1} = eta_k + sigma (2 A x_{k+1} - b - A v_k)

This is fast forward-backward (:mod:`fbsplit.ffb`) with step 1 on z = (x, l)
in the metric P = [[I/tau, -A*], [-A, I/sigma]], for M(x, l) = (df(x) + A* l,
b - A x) and C(x, l) = (grad h(x), 0).  So with a > 2, tau, sigma > 0 and
tau sigma ||A||^2 < 1 its step rule is ffb's, 1 < max_step_size(a, beta_P), at
beta_P = beta min(1/tau, 1/sigma) (1 - sqrt(tau sigma ||A||^2)), a lower bound
on the cocoercivity modulus of C in P.

One kernel takes that step from the scaled point (u, q) = (tau r_x, sigma r_l)
of r = P y_k - C(z_k), u being the prox argument above.  Its certificate
w_{k+1} = (u - x_{k+1})/tau + A* l_{k+1}, the x-part of r - P z_{k+1}, satisfies
w_{k+1} - A* l_{k+1} in subdifferential f(x_{k+1}), and the implied dual
certificate equals b - A x_{k+1}; both are testable optimality records.
:func:`pd_step_alternative` builds the point from (x, lambda, w) alone, as ffb's
certificate form in P.  The FLAG scheme is an external baseline.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .ffb import (_check_alpha, _check_finite, _extrapolate, _extrapolation_coefficients,
                  max_step_size)
from .linalg import LinearMap, as_vector, inner, norm, operator_norm
from .operators import AffineConstraint, InclusionProblem, ResolventOperator, SmoothTerm

__all__ = [
    "PdProblem",
    "PdParams",
    "PdState",
    "pd_default_steps",
    "pd_init",
    "pd_step",
    "pd_step_alternative",
    "pd_zeta",
    "certificate_residual",
    "certificate_subgradient",
    "lagrangian_gap",
    "objective_bounds",
    "FlagParams",
    "FlagState",
    "flag_default_params",
    "flag_init",
    "flag_step",
]


class PdProblem:
    """Problem data: f with ``f.value(x)`` and prox ``f.resolvent(tau, u)``,
    smooth h, and the constraint Ax = b."""

    def __init__(self, f: ResolventOperator, h: SmoothTerm, A: LinearMap, b):
        self.f = f
        self.h = h
        self.A = A
        self.b = as_vector(b, dim=A.out_dim, name="b")
        if h.dim is not None and h.dim != A.in_dim:
            raise ConfigurationError(
                f"h acts on dimension {h.dim}, constraint matrix expects {A.in_dim}"
            )
        if not h.beta > 0:
            raise ConfigurationError("h must have a positive cocoercivity modulus")

    @property
    def n(self):
        return self.A.in_dim

    @property
    def m(self):
        return self.A.out_dim

    @property
    def beta(self):
        return self.h.beta

    @cached_property
    def a_norm(self):
        """||A|| by ``operator_norm``: exact to roundoff when A's short side is
        at most ``GRAM_MAX_SIDE``, a Golub-Kahan estimate from below above it."""
        return operator_norm(self.A)

    @cached_property
    def inclusion(self):
        """Inclusion form of the smooth part: M the constraint normal cone, C = h
        (its apply is grad h); f is dropped, so zeros minimize h over the constraint set."""
        return InclusionProblem(AffineConstraint(self.A, self.b), self.h)

    def objective(self, x):
        return self.f.value(x) + self.h.value(x)

    def feasibility(self, x):
        return norm(self.A.apply(x) - self.b)


@dataclass(frozen=True)
class PdParams:
    alpha: float
    tau: float
    sigma: float

    def validate(self, problem: PdProblem):
        """Check the strong-positivity and step-size conditions; raise naming
        the failed inequality.  Parameters given as ``(K, 1)`` columns, one
        row per lockstep run, must satisfy them in every row."""
        if np.ndim(self.tau):
            for row in zip(*(np.ravel(v) for v in (self.alpha, self.tau, self.sigma))):
                PdParams(*row).validate(problem)
            return self
        if not (self.tau > 0 and self.sigma > 0):
            raise ConfigurationError("tau and sigma must be positive")
        ts_a2 = self.tau * self.sigma * problem.a_norm**2
        if not ts_a2 < 1:
            raise ConfigurationError(f"tau*sigma*||A||^2 = {ts_a2:.6g} must be < 1")
        # the cocoercivity modulus of C = (grad h, 0) in the metric P
        beta_p = problem.beta * min(1.0 / self.tau, 1.0 / self.sigma) * (1.0 - math.sqrt(ts_a2))
        bound = max_step_size(self.alpha, beta_p)
        if not 1 < bound:
            raise ConfigurationError(
                f"step-size condition violated: max_step_size(alpha, beta_P) = {bound:.6g} "
                "must exceed 1, with beta_P = beta*min(1/tau,1/sigma)(1-sqrt(tau*sigma*||A||^2))"
            )
        return self


def pd_default_steps(alpha, problem: PdProblem):
    """tau = sigma = 0.99*beta / (beta*||A|| + 1 - 0.99*3(alpha-2)/(8(alpha-1))).

    pd's step rule, 1 < max_step_size(alpha, beta_P) with beta_P =
    beta*min(1/tau, 1/sigma)(1 - sqrt(tau*sigma*||A||^2)), reads at tau = sigma
    1/tau > ||A|| + (5alpha-2)/(8(alpha-1)beta); the formula keeps it strictly
    for every alpha > 2, in a form that stays finite when beta is +inf
    unless A = 0 too.
    """
    _check_alpha(alpha)
    margin = 1.0 - 0.99 * 3.0 * (alpha - 2.0) / (8.0 * (alpha - 1.0))
    tau = 0.99 / _step_denominator("tau and sigma", problem, problem.a_norm, margin)
    return PdParams(alpha=alpha, tau=tau, sigma=tau)


def _step_denominator(steps, problem: PdProblem, a_term, margin):
    """``a_term + margin/beta`` of a default step rule, refused naming the ``steps``
    to give when it is 0 (A = 0 and beta = +inf)."""
    denominator = a_term + (margin / problem.beta if math.isfinite(problem.beta) else 0.0)
    if not denominator > 0:
        raise ConfigurationError(f"{steps} must be given explicitly when ||A|| = 0 "
                                 "and h has unbounded cocoercivity modulus")
    return denominator


@dataclass
class PdState:
    """Primal-dual iterates at index k >= 1.

    ``v`` and ``dual_extrap`` hold the extrapolated points v_{k-1} and
    eta_{k-1} that produced (x_k, lam_k); ``w`` is the primal certificate
    w_k; ``grad_prev`` is grad h(x_{k-1}), ``grad`` is grad h(x_k) and
    ``ax`` is A x_k.  The step that makes x_k evaluates grad h(x_k) and
    A x_k once, and the next step and the checkpoint metrics read them
    here.  States produced by the alternative stepper leave v/dual_extrap
    as None.
    """

    k: int
    x_prev: np.ndarray
    x: np.ndarray
    lam_prev: np.ndarray
    lam: np.ndarray
    v: Optional[np.ndarray]
    dual_extrap: Optional[np.ndarray]
    w: np.ndarray
    grad_prev: np.ndarray
    grad: np.ndarray
    ax: np.ndarray


def _advance(state, problem: PdProblem, params: PdParams, x, lam, g, u, q, v=None, eta=None):
    """The state after ``state`` (None before k=1) from x_k, lam_k, g = grad h(x_k)
    and the scaled point (u, q) = (tau r_x, sigma r_l) of r = P y_k - C(z_k):
    z_{k+1} = (P + M)^{-1} r and w_{k+1} as in the module docstring.  The state
    keeps the extrapolated points ``v`` and ``eta``, None from the certificate form."""
    tau, sigma = params.tau, params.sigma
    _check_finite(state, u)
    x_next = problem.f.resolvent(tau, u)
    ax_next = problem.A.apply(x_next)
    lam_next = q + sigma * (2.0 * ax_next - problem.b)
    w_next = (u - x_next) / tau + problem.A.adjoint_apply(lam_next)
    _check_finite(state, lam_next, w_next)
    k = 1 if state is None else state.k + 1
    return PdState(k=k, x_prev=x, x=x_next, lam_prev=lam, lam=lam_next, v=v,
                   dual_extrap=eta, w=w_next, grad_prev=g,
                   grad=problem.h.gradient(x_next), ax=ax_next)


def _advance_from_y(state, problem: PdProblem, params: PdParams, x, lam, v, eta, g):
    """:func:`_advance` from the extrapolated point y_k = (v_k, eta_k), whose
    scaled point is u = v - tau A* eta - tau g and q = eta - sigma A v."""
    tau, sigma, A = params.tau, params.sigma, problem.A
    return _advance(state, problem, params, x, lam, g, v - tau * A.adjoint_apply(eta) - tau * g,
                    eta - sigma * A.apply(v), v, eta)


def pd_init(problem: PdProblem, params: PdParams, x0=None, v0=None,
            lam0=None, eta0=None):
    """State at k=1 from starting points (defaults all zero).

    Step sizes given as ``(K, 1)`` columns start K lockstep runs from zero:
    the state holds ``(K, n)`` and ``(K, m)`` blocks, one row per run, and
    :func:`pd_step` and :func:`pd_step_alternative` advance every row as
    they would advance that run alone.
    """
    params.validate(problem)
    rows = np.shape(params.tau)[:1]  # (K,) for a block, () for one run
    n, m = problem.n, problem.m
    x0 = np.zeros(rows + (n,)) if x0 is None else as_vector(x0, dim=n, name="x0")
    v0 = x0.copy() if v0 is None else as_vector(v0, dim=n, name="v0")
    lam0 = np.zeros(rows + (m,)) if lam0 is None else as_vector(lam0, dim=m, name="lam0")
    eta0 = lam0.copy() if eta0 is None else as_vector(eta0, dim=m, name="eta0")
    return _advance_from_y(None, problem, params, x0, lam0, v0, eta0, problem.h.gradient(x0))


def pd_step(state: PdState, problem: PdProblem, params: PdParams):
    """One iteration of the four-line update."""
    if state.v is None or state.dual_extrap is None:
        raise ConfigurationError("pd_step_alternative's states lack extrapolation points")
    m_c, c_c = _extrapolation_coefficients(params.alpha, state.k)
    v_k = _extrapolate(state.x, state.x_prev, state.v, m_c, c_c)
    eta_k = _extrapolate(state.lam, state.lam_prev, state.dual_extrap, m_c, c_c)
    return _advance_from_y(state, problem, params, state.x, state.lam, v_k, eta_k, state.grad)


def pd_step_alternative(state: PdState, problem: PdProblem, params: PdParams):
    """One iteration of the equivalent (x, lambda, w)-only recursion: ffb's
    certificate form in P, whose point is y_k = z_k + m (z_k - z_{k-1}) + c P^{-1} t
    with t = xi_k + C(z_{k-1}) = (w_k + grad h(x_{k-1}), b - A x_k).  No
    extrapolation points are carried; the trajectory coincides with
    :func:`pd_step` up to floating-point roundoff."""
    tau, sigma, A = params.tau, params.sigma, problem.A
    m_c, c_c = _extrapolation_coefficients(params.alpha, state.k)
    x_hat = state.x + m_c * (state.x - state.x_prev)
    lam_hat = state.lam + m_c * (state.lam - state.lam_prev)
    g = state.grad
    u = x_hat - tau * (A.adjoint_apply(lam_hat) - c_c * (state.w + state.grad_prev) + g)
    q = lam_hat - sigma * (A.apply(x_hat) - c_c * (problem.b - state.ax))
    return _advance(state, problem, params, state.x, state.lam, g, u, q)


def pd_zeta(state: PdState, problem: PdProblem, params: PdParams):
    """xi_k's lambda-component, xi_k = P(y_{k-1} - z_k) - C(z_{k-1}) in M(z_k),
    from the extrapolation points and the carried A x_k; equals b - A x_k."""
    if state.v is None or state.dual_extrap is None:
        raise ConfigurationError("zeta needs the extrapolation points")
    return (
        -problem.A.apply(state.v)
        + state.dual_extrap / params.sigma
        + state.ax
        - state.lam / params.sigma
    )


def certificate_residual(state: PdState, problem: PdProblem):
    """The lifted tangent residual ||xi_k + C(z_k)||: the norm of (w_k + grad h(x_k),
    b - A x_k), which vanishes at optimality, from the images the state carries.
    Stacked rows get a float64 array by ``math.hypot``; ``np.hypot`` does not match."""
    r = np.frompyfunc(math.hypot, 2, 1)(norm(state.w + state.grad), norm(problem.b - state.ax))
    return r.astype(np.float64) if isinstance(r, np.ndarray) else r


def certificate_subgradient(state: PdState, problem: PdProblem):
    """w_k - A* lam_k, a subgradient of f at x_k."""
    return state.w - problem.A.adjoint_apply(state.lam)


def lagrangian_gap(x, lam, x_star, lam_star, problem: PdProblem):
    """L(x, lam_star) - L(x_star, lam) with L(x, lam) = (f+h)(x) + <lam, Ax - b>;
    nonnegative at a true saddle reference."""
    A, b = problem.A.apply, problem.b
    return ((problem.objective(x) + inner(lam_star, A(x) - b))
            - (problem.objective(x_star) + inner(lam, A(x_star) - b)))


def objective_bounds(state: PdState, problem: PdProblem, x_star, lam_star):
    """Two-sided bound on the objective error at the current iterate.

    Returns (lower, gap, upper), from the images the state carries, with
    lower = -||lam_star|| * ||A x_k - b||,
    gap   = (f+h)(x_k) - (f+h)(x_star),
    upper = ||lam_star|| * ||A x_k - b|| + <(x_k - x*, lam_k - lam*),
            (w_k + grad h(x_k), b - A x_k)>.
    """
    r = norm(state.ax - problem.b)
    lam_norm = float(np.linalg.norm(lam_star))
    gap = problem.objective(state.x) - problem.objective(x_star)
    cross = inner(state.x - x_star, state.w + state.grad) + inner(
        state.lam - lam_star, problem.b - state.ax
    )
    return -lam_norm * r, gap, lam_norm * r + cross


@dataclass(frozen=True)
class FlagParams:
    """The step size; the penalty r and the dual step theta are fixed at 1."""

    tau: float

    def validate(self):
        if not self.tau > 0:
            raise ConfigurationError("tau must be positive")
        return self


def flag_default_params(problem: PdProblem):
    """tau = beta/(beta*||A||^2 + 1)."""
    return FlagParams(tau=1.0 / _step_denominator("tau", problem, problem.a_norm**2, 1.0))


@dataclass
class FlagState:
    k: int
    x: np.ndarray        # averaged iterate
    x_bar: np.ndarray    # inner prox iterate
    lam: np.ndarray
    x_prev: np.ndarray
    lam_prev: np.ndarray


def flag_init(problem: PdProblem, params: FlagParams, x1=None, xbar1=None, lam1=None):
    params.validate()
    n, m = problem.n, problem.m
    x1 = np.zeros(n) if x1 is None else as_vector(x1, dim=n, name="x1")
    xbar1 = x1.copy() if xbar1 is None else as_vector(xbar1, dim=n, name="xbar1")
    lam1 = np.zeros(m) if lam1 is None else as_vector(lam1, dim=m, name="lam1")
    return FlagState(k=1, x=x1, x_bar=xbar1, lam=lam1,
                     x_prev=x1.copy(), lam_prev=lam1.copy())


def flag_step(state: FlagState, problem: PdProblem, params: FlagParams):
    """One iteration of the Lagrangian-based averaging scheme."""
    k, tau = state.k, params.tau
    A, At = problem.A.apply, problem.A.adjoint_apply
    grad = problem.h.gradient(state.x_bar)
    u = (state.x_bar
         - tau * (grad + At(state.lam) + At(A(state.x_bar) - problem.b))
         - tau * k * At(A(state.x) - problem.b))
    _check_finite(state, u)
    xbar_next = problem.f.resolvent(tau, u)
    lam_next = state.lam + (A(xbar_next) - problem.b)
    # lam_next is non-finite whenever xbar_next is; x_next averages x with it
    x_next = (1.0 - 1.0 / (k + 1.0)) * state.x + xbar_next / (k + 1.0)
    _check_finite(state, lam_next)
    return FlagState(k=k + 1, x=x_next, x_bar=xbar_next, lam=lam_next,
                     x_prev=state.x, lam_prev=state.lam)
