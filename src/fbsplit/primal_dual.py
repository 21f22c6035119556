"""Primal-dual full splitting for min f(x) + h(x) subject to Ax = b.

The method applies the momentum+correction forward-backward scheme to the
primal-dual optimality system, yielding explicit updates that only use
prox_{tau f}, grad h, A and its adjoint:

    v_k     = x_k + (1 - a/(k+a)) (x_k - x_{k-1}) + (1 - a/(2(k+a))) (v_{k-1} - x_k)
    eta_k   = same extrapolation on the dual iterates
    x_{k+1} = prox_{tau f}(v_k - tau A* eta_k - tau grad h(x_k))
    l_{k+1} = eta_k + sigma (A x_{k+1} - b) + sigma A (x_{k+1} - v_k)

with a > 2 and tau, sigma > 0 satisfying

    1 < min(1/tau, 1/sigma) (1 - sqrt(tau sigma ||A||^2)) * 8(a-1) beta / (5a-2).

Along the run the certificate w_{k+1} = (v_k - x_{k+1})/tau
+ A*(l_{k+1} - eta_k) - grad h(x_k) satisfies
w_{k+1} - A* l_{k+1} in subdifferential f(x_{k+1}), and the implied dual
certificate equals b - A x_k exactly; both are testable optimality records.

An equivalent three-sequence recursion in (x, lambda, w) alone is provided
as :func:`pd_step_alternative`, and the FLAG scheme as an external baseline.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .ffb import _check_alpha, _check_finite, _extrapolate, _extrapolation_coefficients
from .linalg import LinearMap, as_vector, inner, norm, operator_norm
from .operators import ResolventOperator, SmoothTerm

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
        return operator_norm(self.A)

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
        _check_alpha(self.alpha)
        if not (self.tau > 0 and self.sigma > 0):
            raise ConfigurationError("tau and sigma must be positive")
        a2 = problem.a_norm**2
        if not self.tau * self.sigma * a2 < 1:
            raise ConfigurationError(
                f"tau*sigma*||A||^2 = {self.tau * self.sigma * a2:.6g} must be < 1"
            )
        lhs = (
            min(1.0 / self.tau, 1.0 / self.sigma)
            * (1.0 - math.sqrt(self.tau * self.sigma * a2))
            * 8.0 * (self.alpha - 1.0) * problem.beta / (5.0 * self.alpha - 2.0)
        )
        if not lhs > 1:
            raise ConfigurationError(
                "step-size condition violated: "
                f"min(1/tau,1/sigma)(1-sqrt(tau*sigma*||A||^2))*8(alpha-1)beta/(5alpha-2) "
                f"= {lhs:.6g} must exceed 1"
            )
        return self


def pd_default_steps(alpha, problem: PdProblem):
    """tau = sigma = 0.99*beta / (beta*||A|| + 1 - 0.99*3(alpha-2)/(8(alpha-1))).

    The formula keeps the step-size condition strictly satisfied for every
    alpha > 2; written in a form that stays finite when beta is +inf.
    """
    _check_alpha(alpha)
    margin = 1.0 - 0.99 * 3.0 * (alpha - 2.0) / (8.0 * (alpha - 1.0))
    beta = problem.beta
    tau = 0.99 / (problem.a_norm + (margin / beta if math.isfinite(beta) else 0.0))
    return PdParams(alpha=alpha, tau=tau, sigma=tau)


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
    tau, sigma = params.tau, params.sigma
    g0 = problem.h.gradient(x0)
    u = v0 - tau * problem.A.adjoint_apply(eta0) - tau * g0
    _check_finite(None, u)
    x1 = problem.f.resolvent(tau, u)
    ax1 = problem.A.apply(x1)
    lam1 = eta0 + sigma * (ax1 - problem.b) + sigma * (ax1 - problem.A.apply(v0))
    w1 = (v0 - x1) / tau + problem.A.adjoint_apply(lam1 - eta0) - g0
    _check_finite(None, lam1, w1)
    return PdState(k=1, x_prev=x0, x=x1, lam_prev=lam0, lam=lam1, v=v0, dual_extrap=eta0,
                   w=w1, grad_prev=g0, grad=problem.h.gradient(x1), ax=ax1)


def pd_step(state: PdState, problem: PdProblem, params: PdParams):
    """One iteration of the four-line update."""
    k, alpha, tau, sigma = state.k, params.alpha, params.tau, params.sigma
    m_c, c_c = _extrapolation_coefficients(alpha, k)
    if state.v is None or state.dual_extrap is None:
        raise ConfigurationError(
            "state lacks extrapolation points; it was produced by the "
            "alternative stepper"
        )
    v_k = _extrapolate(state.x, state.x_prev, state.v, m_c, c_c)
    eta_k = _extrapolate(state.lam, state.lam_prev, state.dual_extrap, m_c, c_c)
    g_k = state.grad
    u = v_k - tau * problem.A.adjoint_apply(eta_k) - tau * g_k
    _check_finite(state, u)
    x_next = problem.f.resolvent(tau, u)
    ax_next = problem.A.apply(x_next)
    lam_next = eta_k + sigma * (2.0 * ax_next - problem.b - problem.A.apply(v_k))
    w_next = (v_k - x_next) / tau + problem.A.adjoint_apply(lam_next - eta_k) - g_k
    _check_finite(state, lam_next, w_next)
    return PdState(k=k + 1, x_prev=state.x, x=x_next, lam_prev=state.lam, lam=lam_next,
                   v=v_k, dual_extrap=eta_k, w=w_next, grad_prev=g_k,
                   grad=problem.h.gradient(x_next), ax=ax_next)


def pd_step_alternative(state: PdState, problem: PdProblem, params: PdParams):
    """One iteration of the equivalent (x, lambda, w)-only recursion.

    The dual certificate b - A x_k is substituted in closed form, so no
    extrapolation points are carried; the produced trajectory coincides with
    :func:`pd_step` up to floating-point roundoff.
    """
    k, alpha, tau, sigma = state.k, params.alpha, params.tau, params.sigma
    m_c, c_c = _extrapolation_coefficients(alpha, k)
    A, At = problem.A.apply, problem.A.adjoint_apply
    dx = state.x - state.x_prev
    dlam = state.lam - state.lam_prev
    g_k = state.grad
    u = (state.x - tau * (g_k + At(state.lam)) + m_c * dx
         - tau * m_c * At(dlam) + c_c * tau * (state.w + state.grad_prev))
    _check_finite(state, u)
    x_next = problem.f.resolvent(tau, u)
    ax = state.ax
    ax_next = A(x_next)
    lam_next = (
        state.lam + sigma * (ax_next - problem.b) + m_c * dlam
        + sigma * (ax_next - ax - m_c * A(dx))
        - c_c * sigma * (ax - problem.b)
    )
    w_next = (
        (state.x - x_next + m_c * dx) / tau
        - At(state.lam - lam_next + m_c * dlam)
        + c_c * (state.w + state.grad_prev)
        - g_k
    )
    _check_finite(state, lam_next, w_next)
    return PdState(k=k + 1, x_prev=state.x, x=x_next, lam_prev=state.lam, lam=lam_next,
                   v=None, dual_extrap=None, w=w_next, grad_prev=g_k,
                   grad=problem.h.gradient(x_next), ax=ax_next)


def pd_zeta(state: PdState, problem: PdProblem, params: PdParams):
    """Dual certificate from the extrapolation points; equals b - A x_k."""
    if state.v is None or state.dual_extrap is None:
        raise ConfigurationError("zeta needs the extrapolation points")
    return (
        -problem.A.apply(state.v)
        + state.dual_extrap / params.sigma
        + problem.A.apply(state.x)
        - state.lam / params.sigma
    )


def certificate_residual(state: PdState, problem: PdProblem):
    """Norm of (w_k + grad h(x_k), b - A x_k); vanishes at optimality.
    grad h(x_k) and A x_k are the images the state carries.  Stacked rows
    get one each, by ``math.hypot``, which ``np.hypot`` does not match."""
    hypot = np.frompyfunc(math.hypot, 2, 1)
    return hypot(norm(state.w + state.grad), norm(problem.b - state.ax))


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

    Returns (lower, gap, upper) with
    lower = -||lam_star|| * ||A x_k - b||,
    gap   = (f+h)(x_k) - (f+h)(x_star),
    upper = ||lam_star|| * ||A x_k - b|| + <(x_k - x*, lam_k - lam*),
            (w_k + grad h(x_k), b - A x_k)>.
    """
    r = problem.feasibility(state.x)
    lam_norm = float(np.linalg.norm(lam_star))
    gap = problem.objective(state.x) - problem.objective(x_star)
    cross = inner(state.x - x_star, state.w + problem.h.gradient(state.x)) + inner(
        state.lam - lam_star, problem.b - problem.A.apply(state.x)
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
    beta = problem.beta
    a2 = problem.a_norm**2
    tau = 1.0 / (a2 + (1.0 / beta if math.isfinite(beta) else 0.0))
    return FlagParams(tau=tau)


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
