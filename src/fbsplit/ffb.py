"""Fast forward-backward iteration with momentum and correction terms.

Two equivalent formulations are provided.  The extrapolation form keeps a
point ``y`` built from a momentum term ``z_k - z_{k-1}`` and a correction
term ``y_{k-1} - z_k``:

    y_k     = z_k + (1 - a/(k+a)) (z_k - z_{k-1}) + (1 - a/(2(k+a))) (y_{k-1} - z_k)
    z_{k+1} = J_{g M}(y_k - g C(z_k))

The certificate form propagates instead an element xi_k of M(z_k):

    z_{k+1} = J_{g M}(z_k - g C(z_k) + (1 - a/(k+a)) (z_k - z_{k-1})
                       + (2k+a)/(2(k+a)) g (xi_k + C(z_{k-1})))
    xi_{k+1} = (z_k - z_{k+1} + (1 - a/(k+a)) (z_k - z_{k-1})) / g
                       + (2k+a)/(2(k+a)) (xi_k + C(z_{k-1})) - C(z_k)

with a > 2 and step size 0 < g < 8(a-1) beta / (5a-2).  Both produce the
same iterates through one step: since y_{k-1} - z_k = g (xi_k + C(z_{k-1})),
the certificate form builds its y_k from xi_k and takes the extrapolation
form's step.  The maintained xi_k certifies the tangent residual
||xi_k + C(z_k)|| as a computable bound on dist(0, M(z_k) + C(z_k)).
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, DivergenceError
from .linalg import as_vector, norm
from .operators import InclusionProblem

__all__ = [
    "FfbParams",
    "FfbState",
    "max_step_size",
    "ffb_init",
    "ffb_step_y",
    "ffb_step_xi",
    "tangent_residual",
    "fixed_point_residual",
]


def max_step_size(alpha, beta):
    """Exclusive upper bound 8(alpha-1)*beta/(5*alpha-2) for the step size."""
    _check_alpha(alpha)
    if not beta > 0:
        raise ConfigurationError(f"beta must be positive, got {beta}")
    return 8.0 * (alpha - 1.0) * beta / (5.0 * alpha - 2.0)


@dataclass(frozen=True)
class FfbParams:
    """Acceleration parameter ``alpha`` (> 2) and step size ``gamma``.

    ``gamma=None`` selects 0.99 times the admissible upper bound once the
    problem's cocoercivity modulus is known.
    """

    alpha: float = 5.0
    gamma: float | None = None

    def resolve(self, beta):
        """Return a copy with a concrete, validated step size for modulus ``beta``."""
        _check_alpha(self.alpha)
        gamma = self.gamma
        if gamma is None:
            if not math.isfinite(beta):
                raise ConfigurationError(
                    "gamma must be given explicitly when the forward map has "
                    "unbounded cocoercivity modulus"
                )
            gamma = 0.99 * max_step_size(self.alpha, beta)
        if not gamma > 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        if math.isfinite(beta) and not gamma < max_step_size(self.alpha, beta):
            raise ConfigurationError(
                f"gamma={gamma} violates the step-size bound "
                f"{max_step_size(self.alpha, beta)} for alpha={self.alpha}, beta={beta}"
            )
        return replace(self, gamma=gamma)


@dataclass
class FfbState:
    """Rolling window of the iteration at index k >= 1.

    ``z_prev`` is z_{k-1}, ``z`` is z_k, ``y`` is y_{k-1}, ``xi`` the
    certificate element of M(z_k), ``c_prev`` is C(z_{k-1}) and ``c`` is
    C(z_k).  The step that makes z_k evaluates C(z_k) once, and the next
    step and the residuals read it here.  The identity
    xi = (y - z)/gamma - c_prev holds bit for bit after every step of
    either form.
    """

    k: int
    z_prev: np.ndarray
    z: np.ndarray
    y: np.ndarray
    xi: np.ndarray
    c_prev: np.ndarray
    c: np.ndarray


def _check_alpha(alpha):
    """Raise unless alpha > 2, the range of every extrapolation below."""
    if not alpha > 2:
        raise ConfigurationError(f"alpha must exceed 2, got {alpha}")


def _extrapolation_coefficients(alpha, k):
    """Momentum 1 - a/(k+a) and correction 1 - a/(2(k+a)) at index k."""
    return 1.0 - alpha / (k + alpha), 1.0 - alpha / (2.0 * (k + alpha))


def _extrapolate(cur, prev, anchor, m, c):
    """cur + m (cur - prev) + c (anchor - cur), with ``anchor`` the previous
    extrapolated point; the primal-dual solver extrapolates both sequences."""
    return cur + m * (cur - prev) + c * (anchor - cur)


def _forward_backward(problem: InclusionProblem, gamma, u, c):
    """J_{gamma M}(u - gamma c) with c = C(u), the map every method is built
    from; the caller passes the forward image it makes or carries."""
    return problem.M.resolvent(gamma, u - gamma * c)


def _check_finite(state, *arrays):
    """Raise DivergenceError, carrying the last finite ``state`` (None before
    k=1), unless every array is finite; for a ``(K, n)`` block of lockstep
    rows it names the rows that are not.  Steppers check a resolvent's
    argument rather than its output: a resolvent may reject non-finite input."""
    for a in arrays:
        finite = np.isfinite(a)
        if not finite.all():
            rows = np.flatnonzero(~finite.all(axis=-1)).tolist() if a.ndim > 1 else None
            raise DivergenceError("non-finite iterate", state=state, rows=rows)


def _start_point(problem: InclusionProblem, z0):
    """``z0`` validated against the problem's dimension; zero by default."""
    dim = problem.dim
    if z0 is None:
        if dim is None:
            raise ConfigurationError("z0 required: problem does not fix a dimension")
        z0 = np.zeros(dim)
    return as_vector(z0, dim=dim, name="z0")


def _advance(state, problem: InclusionProblem, gamma, z, y, c):
    """The state after ``state`` (None before k=1), from z_k, y_k and
    c = C(z_k): z_{k+1} = J_{gamma M}(y_k - gamma c) and
    xi_{k+1} = (y_k - z_{k+1})/gamma - c, which is non-finite whenever
    z_{k+1} is, with C(z_{k+1})."""
    u = y - gamma * c
    _check_finite(state, u)
    z_next = problem.M.resolvent(gamma, u)
    xi_next = (y - z_next) / gamma - c
    _check_finite(state, xi_next)
    k = 1 if state is None else state.k + 1
    return FfbState(k=k, z_prev=z, z=z_next, y=y, xi=xi_next, c_prev=c,
                    c=problem.C.apply(z_next))


def ffb_init(problem: InclusionProblem, params: FfbParams, z0=None, y0=None):
    """Build the state at k=1 from starting points z0, y0 (default zero)."""
    params = params.resolve(problem.beta)
    z0 = _start_point(problem, z0)
    y0 = z0.copy() if y0 is None else as_vector(y0, dim=z0.shape[0], name="y0")
    return _advance(None, problem, params.gamma, z0, y0, problem.C.apply(z0))


def ffb_step_y(state: FfbState, problem: InclusionProblem, params: FfbParams):
    """Advance one iteration using the extrapolation form."""
    m, c = _extrapolation_coefficients(params.alpha, state.k)
    y_k = _extrapolate(state.z, state.z_prev, state.y, m, c)
    return _advance(state, problem, params.gamma, state.z, y_k, state.c)


def ffb_step_xi(state: FfbState, problem: InclusionProblem, params: FfbParams):
    """Advance one iteration using the certificate form.

    Builds y_k = z_k + m (z_k - z_{k-1}) + c gamma (xi_k + C(z_{k-1})) from the
    identity y_{k-1} - z_k = gamma (xi_k + C(z_{k-1})) and takes the step of
    :func:`ffb_step_y`, so the iterates agree with it up to roundoff and
    states from both forms stay interchangeable.
    """
    m, c = _extrapolation_coefficients(params.alpha, state.k)
    y_k = (state.z + m * (state.z - state.z_prev)
           + c * params.gamma * (state.xi + state.c_prev))
    return _advance(state, problem, params.gamma, state.z, y_k, state.c)


def tangent_residual(state: FfbState):
    """||xi_k + C(z_k)||, an upper bound on dist(0, M(z_k) + C(z_k)).

    The bound is certified by the maintained xi_k in M(z_k); the infimum over
    all of M(z_k) is not computed.  C(z_k) is the image the state carries.
    """
    return norm(state.xi + state.c)


def fixed_point_residual(z, problem: InclusionProblem, gamma):
    """||z - J_{gamma M}(z - gamma C(z))||; zero exactly at solutions."""
    if not gamma > 0:
        raise ConfigurationError(f"gamma must be positive, got {gamma}")
    z = np.asarray(z, dtype=float)
    return norm(z - _forward_backward(problem, gamma, z, problem.C.apply(z)))
