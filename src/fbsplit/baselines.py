"""Comparison schemes sharing the operator infrastructure.

All variants solve 0 in M(z) + C(z) through resolvent and forward
evaluations; they differ in relaxation, momentum, and correction terms.
One state record with optional slots serves every variant so the benchmark
harness can drive them uniformly.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigurationError
from .ffb import _check_alpha, _check_finite, _forward_backward, _start_point
from .operators import InclusionProblem, ZeroMap

__all__ = [
    "VARIANTS",
    "BaselineMethod",
    "BaselineState",
    "default_schedules",
    "baseline_init",
    "baseline_step",
]

VARIANTS = (
    "fbs",
    "inertial_ppm",
    "moudafi_oliny",
    "lorenz_pock",
    "relaxed_inertial",
    "crifba",
    "fast_km",
    "appm",
)

# pure proximal-point schemes, defined only for C = 0
_PROX_ONLY = ("inertial_ppm", "appm")

# cap keeping inertial coefficients strictly below 1/3 where convergence needs it
_THIRD_CAP = 1.0 / 3.0 - 1e-3

# variants whose next step evaluates C(z_k), or FB(z_k) = J(z_k - g C(z_k)),
# at the iterate itself; the state carries that image
C_CARRIED = ("moudafi_oliny",)
FB_CARRIED = ("fbs", "fast_km")


@dataclass(frozen=True)
class BaselineMethod:
    """Variant name plus its parameter record; the per-iteration
    coefficients are those of :func:`default_schedules`."""

    variant: str
    gamma: Optional[float] = None
    alpha: float = 5.0   # fast_km acceleration parameter
    s: float = 1.0       # fast_km averaging weight
    rho: float = 0.9     # crifba relaxation factor

    def resolve(self, problem: InclusionProblem):
        """Validate against the problem and fill in a concrete step size."""
        if self.variant not in VARIANTS:
            raise ConfigurationError(f"unknown baseline variant {self.variant!r}")
        beta = problem.beta
        if self.variant in _PROX_ONLY and not isinstance(problem.C, ZeroMap):
            raise ConfigurationError(
                f"{self.variant} is a pure proximal-point scheme and requires C = 0"
            )
        gamma = self.gamma
        if gamma is None:
            if self.variant in _PROX_ONLY:
                gamma = 1.0
            elif math.isfinite(beta):
                gamma = beta
            else:
                raise ConfigurationError(
                    "gamma must be given explicitly when the forward map has "
                    "unbounded cocoercivity modulus"
                )
        if not gamma > 0:
            raise ConfigurationError(f"gamma must be positive, got {gamma}")
        if self.variant not in _PROX_ONLY and math.isfinite(beta) and not gamma < 2.0 * beta:
            raise ConfigurationError(
                f"gamma={gamma} outside (0, 2*beta) = (0, {2.0 * beta})"
            )
        if self.variant == "fast_km":
            _check_alpha(self.alpha)
            s_max = 2.0 - (gamma / (2.0 * beta) if math.isfinite(beta) else 0.0)
            if not 0 < self.s < s_max:
                raise ConfigurationError(
                    f"fast_km needs 0 < s < {s_max}, got {self.s}"
                )
        if not 0 < self.rho <= 1:
            raise ConfigurationError(f"rho must lie in (0, 1], got {self.rho}")
        return replace(self, gamma=gamma)


@dataclass
class BaselineState:
    """Shared iterate record; unused slots stay None for simpler variants.

    ``c`` and ``fb`` are images of z_k that the variant's next step needs
    (see ``C_CARRIED`` and ``FB_CARRIED``): the step that makes z_k
    evaluates them once, and the next step and the residuals read them here.
    """

    k: int
    z_prev: np.ndarray
    z: np.ndarray
    y_prev: Optional[np.ndarray] = None    # crifba / appm extrapolation history
    y_prev2: Optional[np.ndarray] = None   # appm second-order history
    fb_prev: Optional[np.ndarray] = None   # fast_km J(z_{k-1} - g C(z_{k-1}))
    c: Optional[np.ndarray] = None         # moudafi_oliny C(z_k)
    fb: Optional[np.ndarray] = None        # fbs / fast_km J(z_k - g C(z_k))


def default_schedules(variant, k, gamma=None, alpha=None, s=None):
    """Documented default coefficients of ``variant`` at iteration ``k``."""
    if k < 1:
        raise ConfigurationError(f"k must be >= 1, got {k}")
    nesterov = k / (k + 3.0)
    if variant == "fbs":
        return {}
    if variant in ("inertial_ppm", "moudafi_oliny", "lorenz_pock"):
        return {"alpha_k": min(_THIRD_CAP, nesterov)}
    if variant == "relaxed_inertial":
        return {"alpha_k": nesterov, "rho_k": 0.9, "mu_k": gamma}
    if variant == "crifba":
        return {"alpha_k": nesterov, "delta_k": nesterov}
    if variant == "appm":
        return {"alpha_k": 1.0 - 2.0 / (k + 1.0)}
    if variant == "fast_km":
        return {
            "fix_weight": 1.0 - s * alpha / (2.0 * (k + alpha)),
            "momentum": (1.0 - s) * k / (k + alpha),
            "fb_new": s * (alpha + 2.0 * k) / (2.0 * (k + alpha)),
            "fb_old": -s * k / (k + alpha),
        }
    raise ConfigurationError(f"unknown baseline variant {variant!r}")


def _fb(problem: InclusionProblem, gamma, z):
    """J(z - gamma C(z)), evaluating C(z)."""
    return _forward_backward(problem, gamma, z, problem.C.apply(z))


def _carry_images(state: BaselineState, method: BaselineMethod,
                  problem: InclusionProblem):
    """``state`` with the images of its z_k that the variant carries."""
    if method.variant in C_CARRIED:
        state.c = problem.C.apply(state.z)
    elif method.variant in FB_CARRIED:
        state.fb = _fb(problem, method.gamma, state.z)
    return state


def baseline_init(method: BaselineMethod, problem: InclusionProblem, z0=None):
    """State at k=1.  FBS takes one real step; inertial variants start with
    cleared momentum history (z_1 = z_0)."""
    method = method.resolve(problem)
    z0 = _start_point(problem, z0)
    gamma = method.gamma
    if method.variant == "fbs":
        state = BaselineState(k=1, z_prev=z0, z=_fb(problem, gamma, z0))
    else:
        state = BaselineState(k=1, z_prev=z0, z=z0.copy())
    if method.variant == "crifba":
        state.y_prev = z0.copy()
    elif method.variant == "appm":
        state.y_prev = z0.copy()
        state.y_prev2 = z0.copy()
    elif method.variant == "fast_km":
        state.fb_prev = _fb(problem, gamma, z0)
    return _carry_images(state, method, problem)


def baseline_step(method: BaselineMethod, state: BaselineState,
                  problem: InclusionProblem):
    """Advance ``state`` one iteration of the method's update rule."""
    k = state.k
    gamma = method.gamma
    if gamma is None:
        raise ConfigurationError("method not resolved: gamma is None")
    variant = method.variant
    co = default_schedules(variant, k, gamma=gamma, alpha=method.alpha, s=method.s)
    J = problem.M.resolvent
    z, z_prev = state.z, state.z_prev

    y_prev_new = state.y_prev
    y_prev2_new = state.y_prev2
    fb_prev_new = state.fb_prev

    if variant == "fbs":
        z_next = state.fb
    elif variant == "inertial_ppm":
        z_next = J(gamma, z + co["alpha_k"] * (z - z_prev))
    elif variant == "moudafi_oliny":
        z_next = J(gamma, z + co["alpha_k"] * (z - z_prev) - gamma * state.c)
    elif variant == "lorenz_pock":
        z_next = _fb(problem, gamma, z + co["alpha_k"] * (z - z_prev))
    elif variant == "relaxed_inertial":
        y = z + co["alpha_k"] * (z - z_prev)
        z_next = (1.0 - co["rho_k"]) * y + co["rho_k"] * _fb(problem, co["mu_k"], y)
    elif variant == "crifba":
        y = z + co["alpha_k"] * (z - z_prev) + co["delta_k"] * (state.y_prev - z)
        z_next = (1.0 - method.rho) * y + method.rho * _fb(problem, gamma, y)
        y_prev_new = y
    elif variant == "appm":
        y = z + co["alpha_k"] * (z - z_prev) + co["alpha_k"] * (state.y_prev2 - z_prev)
        z_next = J(gamma, y)
        y_prev2_new = state.y_prev
        y_prev_new = y
    elif variant == "fast_km":
        z_next = (
            co["fix_weight"] * z
            + co["momentum"] * (z - z_prev)
            + co["fb_new"] * state.fb
            + co["fb_old"] * state.fb_prev
        )
        fb_prev_new = state.fb

    _check_finite(state, z_next)
    return _carry_images(BaselineState(
        k=k + 1, z_prev=z, z=z_next,
        y_prev=y_prev_new, y_prev2=y_prev2_new, fb_prev=fb_prev_new,
    ), method, problem)
