"""Discrete energy functions and decay certificates for the fast iteration.

The quantities here track the convergence analysis of the momentum+correction
scheme along a trajectory: the energy ``E``, its regularization ``F``, the
constants nu0..nu9, the weight ``omega_k``, the sign certificates ``S_k`` and
``R_k``, and a perturbed-decrease check of the F-sequence.  All indices are
empirical: the checks report the smallest k beyond which an inequality holds
on the given run, they do not certify it analytically.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .ffb import FfbParams, FfbState, _check_alpha, ffb_init, ffb_step_y
from .linalg import inner

__all__ = [
    "NuConstants",
    "nu_constants",
    "admissible_eta_interval",
    "default_epsilon",
    "omega_weight",
    "energy_E",
    "energy_E_expanded",
    "energy_F",
    "s_certificate",
    "r_certificate",
    "monotonicity_certificate",
    "PerturbedDecreaseReport",
    "perturbed_decrease_check",
    "energy_trajectory",
]


def _check_ranges(alpha, eta, epsilon):
    _check_alpha(alpha)
    if not 0 <= eta <= alpha - 1:
        raise ConfigurationError(f"eta={eta} outside [0, alpha-1]")
    if not 0 < epsilon < 1:
        raise ConfigurationError(f"epsilon={epsilon} outside (0, 1)")


@dataclass(frozen=True)
class NuConstants:
    """Constants of the energy-decay estimates for fixed (alpha, eta, epsilon).

    nu9 and the omega weight additionally require the step size and the
    cocoercivity modulus; they are None when those were not supplied.
    """

    alpha: float
    eta: float
    epsilon: float
    nu0: float
    nu1: float
    nu2: float
    nu3: float
    nu4: float
    nu5: float
    nu6: float
    nu7: float
    nu8: float
    nu9: float | None = None
    beta: float | None = None
    gamma: float | None = None

    def omega(self, k):
        if self.beta is None or self.gamma is None:
            raise ConfigurationError("omega requires beta and gamma")
        return omega_weight(k, self.alpha, self.beta, self.gamma, self.epsilon)


def _nu8(alpha, eta):
    return (4.0 / 3.0) * (alpha - 2.0) * eta / (1.0 - 8.0 * eta / (5.0 * alpha - 2.0))


def nu_constants(alpha, eta, epsilon, beta=None, gamma=None):
    """All decay constants for the given parameters.

    With ``beta`` and ``gamma`` supplied, nu9 and the omega weight become
    available as well; they depend on the step size, which the first three
    parameters do not determine.
    """
    _check_ranges(alpha, eta, epsilon)
    a1 = alpha - 1.0
    nu0 = (
        3.0 * (alpha - 2.0) / (4.0 * a1) * eta
        + (5.0 * alpha - 2.0) / (4.0 * a1) * (eta + 1.0 - alpha)
        - (4.0 * alpha - 1.0) * (alpha - 2.0) / (4.0 * a1)
    )
    nu1 = alpha * (eta + 1.0 - alpha) + (eta - 1.0) * alpha + (5.0 * alpha - 2.0) / (4.0 * a1)
    nu2 = 2.0 * (eta + 1.0 - alpha)
    nu3 = (5.0 * alpha - 2.0) * (2.0 - alpha) / (2.0 * a1)
    nu4 = (4.0 * alpha**2 + alpha - 2.0) / (2.0 * a1) - alpha**2
    nu5 = 3.0 * (alpha - 2.0) / (4.0 * a1)
    nu6 = (1.0 - epsilon) / (2.0 - epsilon)
    nu7 = (3.0 - 2.0 * epsilon) * alpha / (2.0 * (2.0 - epsilon))
    nu8 = _nu8(alpha, eta)
    nu9 = None
    if beta is not None and gamma is not None:
        nu9 = (2.0 * beta - (2.0 - epsilon) * gamma) * 3.0 * (alpha - 2.0) / (8.0 * a1) * gamma
    return NuConstants(
        alpha=alpha, eta=eta, epsilon=epsilon,
        nu0=nu0, nu1=nu1, nu2=nu2, nu3=nu3, nu4=nu4,
        nu5=nu5, nu6=nu6, nu7=nu7, nu8=nu8, nu9=nu9,
        beta=beta, gamma=gamma,
    )


def admissible_eta_interval(alpha):
    """Open interval of eta values for which the R_k certificate turns negative.

    Returns (lo, hi) with lo < hi, contained in (0, (5*alpha-2)/8].
    """
    _check_alpha(alpha)
    a1 = alpha - 1.0
    base = alpha**2 / (16.0 * a1) + (2.0 * alpha - 1.0) / 4.0
    off = (alpha - 2.0) * math.sqrt((9.0 * alpha - 2.0) * (5.0 * alpha - 10.0)) / (16.0 * a1)
    lo = max(0.0, base - off)
    hi = min((5.0 * alpha - 2.0) / 8.0, base + off)
    return lo, hi


def default_epsilon(alpha):
    """Midpoint of the admissible range (0, 3(alpha-2)/(4(alpha-1)))."""
    _check_alpha(alpha)
    return 0.5 * 3.0 * (alpha - 2.0) / (4.0 * (alpha - 1.0))


def omega_weight(k, alpha, beta, gamma, epsilon):
    """Weight of the ||C(z_{k+1}) - C(z_k)||^2 term in the F-decrease estimate."""
    a = 3.0 * (alpha - 2.0) / (4.0 * (alpha - 1.0))
    kp = k + 1.0
    r = a * kp + alpha
    return (
        (2.0 * beta - (2.0 - epsilon) * gamma) * a * gamma * kp**2
        - a * gamma**2 * kp**1.5
        - 0.5 * alpha * gamma**2 * r * math.sqrt(r)
        - 0.5 * (2.0 - epsilon) * gamma**2 * alpha**2
        + (2.0 * beta - (2.0 - epsilon) * (11.0 * alpha - 14.0) / (8.0 * (alpha - 1.0)) * gamma)
        * alpha * gamma * kp
    )


def _pieces(state: FfbState, z_star, params: FfbParams):
    alpha, gamma, k = params.alpha, params.gamma, state.k
    a = 3.0 * (alpha - 2.0) / (4.0 * (alpha - 1.0))
    b = (5.0 * alpha - 2.0) / (4.0 * (alpha - 1.0))
    delta = state.z - z_star
    d = state.z - state.z_prev
    t = state.xi + state.c_prev
    return alpha, gamma, k, a, b, delta, d, t


def energy_E(eta, state: FfbState, z_star, params: FfbParams):
    """Discrete energy at the state, norm-expanded form."""
    alpha, gamma, k, a, b, delta, d, t = _pieces(state, z_star, params)
    u = 2.0 * eta * delta + 2.0 * k * d + b * gamma * k * t
    return (
        0.5 * inner(u, u)
        + 2.0 * eta * (alpha - 1.0 - eta) * inner(delta, delta)
        + 2.0 * eta * gamma * (a * k + alpha) * inner(delta, t)
        + 0.5 * gamma**2 * (a * k + alpha) * (b * k + alpha) * inner(t, t)
    )


def energy_E_expanded(eta, state: FfbState, z_star, params: FfbParams):
    """Algebraically identical rewrite of :func:`energy_E`; used as a cross-check."""
    alpha, gamma, k, a, b, delta, d, t = _pieces(state, z_star, params)
    v = 2.0 * d + b * gamma * t
    return (
        2.0 * eta * (alpha - 1.0) * inner(delta, delta)
        + 4.0 * eta * k * inner(delta, d + gamma * t)
        + 2.0 * eta * gamma * alpha * inner(delta, t)
        + 0.5 * k**2 * inner(v, v)
        + 0.5 * gamma**2 * (a * k + alpha) * (b * k + alpha) * inner(t, t)
    )


def energy_F(eta, epsilon, state: FfbState, z_star, params: FfbParams):
    """Regularized energy: E plus two forward-map correction terms in
    C(z_k) - C(z_{k-1}), from the images the state carries.  When C is
    constant the corrections vanish and F equals E.
    """
    alpha, gamma, k, a, b, delta, d, t = _pieces(state, z_star, params)
    dc = state.c - state.c_prev
    r = a * k + alpha
    return (
        energy_E(eta, state, z_star, params)
        - 2.0 * gamma * r * k * inner(d, dc)
        + 0.5 * gamma**2 * r
        * ((2.0 - epsilon) * (2.0 * k + alpha) + alpha * math.sqrt(r))
        * inner(dc, dc)
    )


def s_certificate(eta, state: FfbState, z_star, params: FfbParams):
    """S_k, the quadratic whose nonnegativity gives the F lower bound."""
    alpha, gamma, k, a, b, delta, d, t = _pieces(state, z_star, params)
    return (
        eta * (alpha - 1.0) * (1.0 - 8.0 * eta / (5.0 * alpha - 2.0)) * inner(delta, delta)
        + 2.0 * eta * alpha * gamma * inner(delta, t)
        + 0.5 * alpha * gamma**2 * k * inner(t, t)
    )


def r_certificate(next_state: FfbState, params: FfbParams, nu: NuConstants):
    """R_k, evaluated from the state at index k+1; nonpositive for large k.

    ``next_state`` holds z_{k+1}, z_k and xi_{k+1} + C(z_k), which is all the
    certificate needs.
    """
    alpha, gamma = params.alpha, params.gamma
    k = next_state.k - 1
    if k < 1:
        raise ConfigurationError("r_certificate needs a state with k >= 2")
    q = math.sqrt((9.0 * alpha - 2.0) / (2.0 * (5.0 * alpha - 2.0)))
    step = next_state.z - next_state.z_prev
    t = next_state.xi + next_state.c_prev
    return (
        2.0 * q * nu.nu2 * k * inner(step, step)
        + 2.0 * gamma * (nu.nu0 * k + nu.nu1) * inner(step, t)
        + 0.5 * q * gamma**2
        * (nu.nu3 * k + alpha * math.sqrt(nu.nu5 * k + alpha) + nu.nu4)
        * inner(t, t)
    )


def monotonicity_certificate(state: FfbState, z_star):
    """<z_k - z*, xi_k + C(z_k)> with the carried C(z_k); nonnegative for any solution z*."""
    return inner(state.z - z_star, state.xi + state.c)


@dataclass
class PerturbedDecreaseReport:
    """Outcome of the perturbed-decrease scan of an F-sequence.

    ``k_stable`` is the smallest index such that F_{k+1} <= (1 + d_k) F_k for
    every later k in the series; ``violations`` lists all indices where the
    inequality failed.  ``holds`` is False when the final transition itself
    violates, i.e. no stable tail exists within the series.
    """

    k_stable: int
    violations: list
    checked: int
    holds: bool


def perturbed_decrease_check(f_series, alpha, eta):
    """Scan F_{k+1} <= (1 + d_k) F_k with d_k = nu8/((k+1)^{3/2} - nu8),
    where ``f_series[k-1]`` is F_k."""
    f = np.asarray(f_series, dtype=float)
    if f.ndim != 1 or f.size < 2:
        raise ValueError("need a 1-D series of at least two F values")
    nu8 = _nu8(alpha, eta)
    violations = []
    for k in range(1, f.size):
        d_k = nu8 / ((k + 1.0) ** 1.5 - nu8)
        if f[k] > (1.0 + d_k) * f[k - 1]:
            violations.append(k)
    k_stable = violations[-1] + 1 if violations else 1
    holds = k_stable <= f.size - 1
    return PerturbedDecreaseReport(
        k_stable=k_stable, violations=violations, checked=f.size - 1, holds=holds
    )


def energy_trajectory(problem, params: FfbParams, z_star, eta, epsilon, iters):
    """Run the extrapolation form from zero and record E_k and F_k for
    k = 1..iters.

    Returns (E, F) arrays indexed by k-1.
    """
    params = params.resolve(problem.beta)
    state = ffb_init(problem, params)
    e_vals = np.empty(iters)
    f_vals = np.empty(iters)
    for i in range(iters):
        e_vals[i] = energy_E(eta, state, z_star, params)
        f_vals[i] = energy_F(eta, epsilon, state, z_star, params)
        if i + 1 < iters:
            state = ffb_step_y(state, problem, params)
    return e_vals, f_vals
