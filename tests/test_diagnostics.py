import math

import numpy as np
import pytest

from fbsplit.diagnostics import (
    admissible_eta_interval,
    default_epsilon,
    energy_E,
    energy_E_expanded,
    energy_F,
    energy_trajectory,
    nu_constants,
    omega_weight,
    perturbed_decrease_check,
    r_certificate,
    s_certificate,
)
from fbsplit.errors import ConfigurationError
from fbsplit.ffb import FfbParams, FfbState, ffb_init, ffb_step_y
from fbsplit.operators import InclusionProblem, ZeroOperator, ZeroSmoothTerm


def test_nu_examples():
    assert nu_constants(3.0, 1.0, 0.1).nu2 == pytest.approx(-2.0)
    assert nu_constants(5.0, 1.0, 0.1).nu3 == pytest.approx(-8.625)
    assert nu_constants(10.0, 1.0, 0.1).nu5 == pytest.approx(2.0 / 3.0)


def test_nu_sign_conditions_sampled():
    rng = np.random.default_rng(2)
    for _ in range(200):
        alpha = 2.0 + 10.0 ** rng.uniform(-3, 2)
        eta = rng.uniform(0.0, alpha - 1.0)
        eps = rng.uniform(1e-6, 1.0 - 1e-6)
        nu = nu_constants(alpha, eta, eps)
        assert nu.nu2 <= 0
        assert nu.nu3 < 0
        assert nu.nu5 > 0
        assert nu.nu6 > 0
        assert nu.nu7 > 0


def test_nu_range_checks():
    with pytest.raises(ConfigurationError):
        nu_constants(2.0, 0.5, 0.1)
    with pytest.raises(ConfigurationError):
        nu_constants(3.0, 2.5, 0.1)  # eta > alpha - 1
    with pytest.raises(ConfigurationError):
        nu_constants(3.0, 0.5, 1.0)


def test_nu9_requires_step_data():
    nu = nu_constants(5.0, 1.0, 0.25)
    assert nu.nu9 is None
    nu_full = nu_constants(5.0, 1.0, 0.25, beta=1.0, gamma=0.5)
    assert nu_full.nu9 == pytest.approx((2.0 - 1.75 * 0.5) * 9.0 / 32.0 * 0.5)
    with pytest.raises(ConfigurationError):
        nu.omega(10)


def test_admissible_eta_interval_alpha3():
    lo, hi = admissible_eta_interval(3.0)
    assert lo == pytest.approx(9 / 32 + 5 / 4 - math.sqrt(125.0) / 32, rel=1e-12)
    assert lo == pytest.approx(1.1819, abs=1e-4)
    assert hi == pytest.approx(1.625)


def test_admissible_eta_interval_near_boundary():
    lo, hi = admissible_eta_interval(2.0 + 1e-9)
    assert lo < hi
    assert hi - lo < 1e-7


@pytest.mark.parametrize("alpha", [3.0, 5.0, 10.0, 100.0])
def test_admissible_eta_interval_containment(alpha):
    lo, hi = admissible_eta_interval(alpha)
    assert 0.0 < lo < hi <= (5.0 * alpha - 2.0) / 8.0


def test_admissible_eta_interval_domain():
    with pytest.raises(ConfigurationError):
        admissible_eta_interval(2.0)


def _random_state(rng, dim=6, k=7):
    return FfbState(
        k=k,
        z_prev=rng.standard_normal(dim),
        z=rng.standard_normal(dim),
        y=rng.standard_normal(dim),
        xi=rng.standard_normal(dim),
        c_prev=rng.standard_normal(dim),
        c=np.zeros(dim),
    )


def test_energy_forms_agree_on_random_states():
    rng = np.random.default_rng(8)
    params = FfbParams(alpha=4.0, gamma=0.7)
    for k in (1, 3, 50, 1234):
        state = _random_state(rng, k=k)
        z_star = rng.standard_normal(6)
        eta = rng.uniform(0.0, 3.0)
        e1 = energy_E(eta, state, z_star, params)
        e2 = energy_E_expanded(eta, state, z_star, params)
        assert e2 == pytest.approx(e1, rel=1e-12, abs=1e-12)


def test_energy_zero_at_stationary_state():
    dim = 4
    z_star = np.ones(dim)
    state = FfbState(k=9, z_prev=z_star.copy(), z=z_star.copy(), y=z_star.copy(),
                     xi=np.zeros(dim), c_prev=np.zeros(dim), c=np.zeros(dim))
    params = FfbParams(alpha=5.0, gamma=0.3)
    assert energy_E(1.0, state, z_star, params) == 0.0
    assert energy_F(1.0, 0.2, state, z_star, params) == 0.0


def test_energy_eta_zero_keeps_only_quadratic_terms():
    rng = np.random.default_rng(9)
    params = FfbParams(alpha=4.0, gamma=0.7)
    state = _random_state(rng, k=11)
    z_star = rng.standard_normal(6)
    alpha, gamma, k = 4.0, 0.7, 11
    a = 3 * (alpha - 2) / (4 * (alpha - 1))
    b = (5 * alpha - 2) / (4 * (alpha - 1))
    d = state.z - state.z_prev
    t = state.xi + state.c_prev
    u = 2 * k * d + b * gamma * k * t
    expected = 0.5 * np.dot(u, u) + 0.5 * gamma**2 * (a * k + alpha) * (b * k + alpha) * np.dot(t, t)
    assert energy_E(0.0, state, z_star, params) == pytest.approx(expected, rel=1e-12)


def test_energy_F_equals_E_for_constant_forward_map():
    # C identically zero: both correction terms vanish
    prob = InclusionProblem(ZeroOperator(), ZeroSmoothTerm())
    rng = np.random.default_rng(10)
    params = FfbParams(alpha=4.0, gamma=0.7)
    state = _random_state(rng, k=5)
    state.c_prev = np.zeros(6)
    state.c = prob.C.apply(state.z)
    z_star = rng.standard_normal(6)
    f = energy_F(1.5, 0.3, state, z_star, params)
    e = energy_E(1.5, state, z_star, params)
    assert f == pytest.approx(e, rel=1e-14)


@pytest.mark.slow
def test_energy_F_lower_bound_along_run(lyapunov_run, bench_inclusion, ffb_params,
                                        inclusion_z_star):
    # F >= eta*(alpha-1)*(1 - 8*eta/(5*alpha-2))*||z_k - z*||^2 beyond an
    # empirically located K0
    eta = lyapunov_run["eta"]
    alpha = ffb_params.alpha
    F = lyapunov_run["F"]
    const = eta * (alpha - 1.0) * (1.0 - 8.0 * eta / (5.0 * alpha - 2.0))
    state = ffb_init(bench_inclusion, ffb_params)
    violations = []
    for i in range(2000):
        bound = const * float(np.dot(state.z - inclusion_z_star, state.z - inclusion_z_star))
        if F[i] < bound - 1e-9 * max(1.0, abs(F[i])):
            violations.append(i + 1)
        state = ffb_step_y(state, bench_inclusion, ffb_params)
    k0 = violations[-1] + 1 if violations else 1
    assert k0 < 1000


def test_omega_weight_dominates_quadratic_tail():
    # omega_k >= nu9*(k+1)^2 for all large k; locate the switch and spot-check
    alpha, beta, gamma, eps = 5.0, 1.0, 0.9, default_epsilon(5.0)
    nu = nu_constants(alpha, 1.0, eps, beta=beta, gamma=gamma)
    ks = np.arange(1, 20000)
    vals = np.array([omega_weight(k, alpha, beta, gamma, eps) for k in ks])
    bound = nu.nu9 * (ks + 1.0) ** 2
    holds = vals >= bound
    assert holds[-1]
    first = int(np.argmax(holds))
    assert np.all(holds[first:])


def test_perturbed_decrease_zero_series():
    report = perturbed_decrease_check(np.zeros(50), alpha=5.0, eta=2.0)
    assert report.k_stable == 1
    assert report.violations == []
    assert report.holds


def test_perturbed_decrease_flags_fast_growth():
    f = 2.0 ** np.arange(40)
    report = perturbed_decrease_check(f, alpha=5.0, eta=2.0)
    assert report.violations  # growth faster than prod(1 + d_k)
    assert not report.holds


@pytest.mark.slow
def test_perturbed_decrease_on_run(lyapunov_run):
    report = perturbed_decrease_check(lyapunov_run["F"], alpha=5.0,
                                      eta=lyapunov_run["eta"])
    assert report.holds
    assert report.k_stable < 1000


def test_r_certificate_eventually_nonpositive(bench_inclusion, ffb_params):
    lo, hi = admissible_eta_interval(ffb_params.alpha)
    eta = 0.5 * (lo + hi)
    nu = nu_constants(ffb_params.alpha, eta, default_epsilon(ffb_params.alpha))
    state = ffb_init(bench_inclusion, ffb_params)
    values = []
    for _ in range(2000):
        state = ffb_step_y(state, bench_inclusion, ffb_params)
        values.append(r_certificate(state, ffb_params, nu))
    positive = [i + 1 for i, v in enumerate(values) if v > 1e-12]
    k1 = positive[-1] + 1 if positive else 1
    assert k1 < 1500


@pytest.mark.slow
def test_s_certificate_nonnegative_along_run(bench_inclusion, ffb_params, inclusion_z_star):
    lo, hi = admissible_eta_interval(ffb_params.alpha)
    eta = 0.5 * (lo + hi)
    state = ffb_init(bench_inclusion, ffb_params)
    violations = []
    for _ in range(2000):
        val = s_certificate(eta, state, inclusion_z_star, ffb_params)
        if val < -1e-9:
            violations.append(state.k)
        state = ffb_step_y(state, bench_inclusion, ffb_params)
    k0 = violations[-1] + 1 if violations else 1
    assert k0 < 1000


@pytest.mark.slow
def test_energy_trajectory_shapes(bench_inclusion, ffb_params, inclusion_z_star):
    E, F = energy_trajectory(bench_inclusion, ffb_params, inclusion_z_star,
                             eta=2.0, epsilon=0.25, iters=50)
    assert E.shape == F.shape == (50,)
    assert np.all(np.isfinite(E)) and np.all(np.isfinite(F))
