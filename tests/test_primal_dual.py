import math

import numpy as np
import pytest

from fbsplit.errors import ConfigurationError, DivergenceError
from fbsplit.linalg import LinearMap, identity
from fbsplit.operators import (
    L1Subdifferential,
    ZeroOperator,
    ZeroSmoothTerm,
    quadratic_term,
)
from fbsplit.primal_dual import (
    FlagParams,
    PdParams,
    PdProblem,
    certificate_subgradient,
    flag_default_params,
    flag_init,
    flag_step,
    lagrangian_gap,
    objective_bounds,
    pd_default_steps,
    pd_init,
    pd_step,
    pd_step_alternative,
    pd_zeta,
)


def scalar_l1_problem():
    """min |x| subject to x = 1; saddle point (1, -1), optimal value 1."""
    return PdProblem(
        f=L1Subdifferential(),
        h=ZeroSmoothTerm(1),
        A=identity(1),
        b=np.array([1.0]),
    )


def random_problem(seed, m=4, p=6, n=9):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n))
    return PdProblem(
        f=L1Subdifferential(),
        h=quadratic_term(LinearMap(rng.standard_normal((p, n))), rng.standard_normal(p)),
        A=LinearMap(a),
        b=a @ (rng.standard_normal(n) / math.sqrt(n)),
    )


def test_pd_default_steps_formula():
    rng = np.random.default_rng(1)
    # unit-norm constraint map, beta = 1
    prob = PdProblem(
        f=L1Subdifferential(),
        h=quadratic_term(identity(2), np.zeros(2)),
        A=identity(2),
        b=np.zeros(2),
    )
    params = pd_default_steps(5.0, prob)
    beta = prob.beta  # 0.999 after the safety shrink
    expected = 0.99 * beta / (beta * 1.0 + (1 - 0.99 * 9 / 32))
    assert params.tau == pytest.approx(expected, rel=1e-12)
    assert params.tau == pytest.approx(0.57506, abs=2e-3)
    assert params.sigma == params.tau


@pytest.mark.parametrize("alpha", [3.0, 5.0, 10.0])
def test_pd_default_steps_always_admissible(alpha):
    for seed in range(5):
        prob = random_problem(seed)
        params = pd_default_steps(alpha, prob)
        params.validate(prob)  # raises if any inequality fails


def test_pd_default_steps_beta_limit():
    prob = scalar_l1_problem()  # h = 0, beta = +inf, ||A|| = 1
    params = pd_default_steps(5.0, prob)
    assert params.tau == pytest.approx(0.99)


def test_pd_params_validation_messages():
    prob = random_problem(3)
    with pytest.raises(ConfigurationError):
        PdParams(alpha=2.0, tau=0.1, sigma=0.1).validate(prob)
    with pytest.raises(ConfigurationError, match="tau"):
        PdParams(alpha=5.0, tau=10.0 / prob.a_norm, sigma=10.0 / prob.a_norm).validate(prob)
    with pytest.raises(ConfigurationError, match="step-size"):
        # tau*sigma*||A||^2 < 1 but too large for the modulus condition
        t = 0.999 / prob.a_norm
        PdParams(alpha=5.0, tau=t, sigma=t).validate(prob)


def test_pd_init_zero_problem():
    prob = PdProblem(
        f=ZeroOperator(),
        h=ZeroSmoothTerm(2),
        A=identity(2),
        b=np.zeros(2),
    )
    params = PdParams(alpha=5.0, tau=0.3, sigma=0.3).validate(prob)
    state = pd_init(prob, params)
    np.testing.assert_array_equal(state.x, np.zeros(2))
    np.testing.assert_array_equal(state.lam, np.zeros(2))


def test_pd_init_scalar_hand_values():
    prob = scalar_l1_problem()
    params = PdParams(alpha=3.0, tau=0.3, sigma=0.3).validate(prob)
    state = pd_init(prob, params)
    assert state.x[0] == pytest.approx(0.0)
    assert state.lam[0] == pytest.approx(-0.3)
    assert state.w[0] == pytest.approx(-0.3)


def test_pd_init_stationary_saddle_point():
    prob = scalar_l1_problem()
    params = PdParams(alpha=3.0, tau=0.3, sigma=0.3).validate(prob)
    x_star, lam_star = np.array([1.0]), np.array([-1.0])
    state = pd_init(prob, params, x0=x_star, v0=x_star, lam0=lam_star, eta0=lam_star)
    assert state.x[0] == pytest.approx(1.0)
    assert state.lam[0] == pytest.approx(-1.0)
    for _ in range(4):
        state = pd_step(state, prob, params)
        assert state.x[0] == pytest.approx(1.0)
        assert state.lam[0] == pytest.approx(-1.0)


def test_pd_step_scalar_hand_trace():
    prob = scalar_l1_problem()
    params = PdParams(alpha=3.0, tau=0.3, sigma=0.3).validate(prob)
    state = pd_step(pd_init(prob, params), prob, params)
    # momentum 1/4 and correction 5/8 at k=1
    assert state.x[0] == pytest.approx(0.0)
    assert state.lam[0] == pytest.approx(-0.4875)
    assert state.w[0] == pytest.approx(-0.3)
    assert state.k == 2


def test_pd_step_alternative_matches_hand_trace():
    prob = scalar_l1_problem()
    params = PdParams(alpha=3.0, tau=0.3, sigma=0.3).validate(prob)
    state = pd_step_alternative(pd_init(prob, params), prob, params)
    assert state.x[0] == pytest.approx(0.0)
    assert state.lam[0] == pytest.approx(-0.4875)
    assert state.w[0] == pytest.approx(-0.3)


def test_pd_forms_agree_long_run():
    prob = random_problem(7, m=10, p=20, n=30)
    params = pd_default_steps(5.0, prob)
    s_main = pd_init(prob, params)
    s_alt = pd_init(prob, params)
    for _ in range(1000):
        s_main = pd_step(s_main, prob, params)
        s_alt = pd_step_alternative(s_alt, prob, params)
        for a, b in ((s_main.x, s_alt.x), (s_main.lam, s_alt.lam), (s_main.w, s_alt.w)):
            assert np.linalg.norm(a - b) <= 1e-10 * max(1.0, np.linalg.norm(a))


def test_zeta_identity_along_run():
    prob = random_problem(11)
    params = pd_default_steps(5.0, prob)
    state = pd_init(prob, params)
    scale = max(1.0, float(np.linalg.norm(prob.b)))
    for _ in range(200):
        zeta = pd_zeta(state, prob, params)
        target = prob.b - prob.A.apply(state.x)
        assert np.linalg.norm(zeta - target) <= 1e-13 * scale
        state = pd_step(state, prob, params)


def test_certificate_subgradient_inequality_sampled():
    prob = random_problem(13)
    params = pd_default_steps(5.0, prob)
    state = pd_init(prob, params)
    rng = np.random.default_rng(0)
    for _ in range(100):
        state = pd_step(state, prob, params)
    g = certificate_subgradient(state, prob)
    fx = prob.f.value(state.x)
    for _ in range(100):
        u = rng.standard_normal(prob.n) * 2.0
        assert prob.f.value(u) >= fx + float(np.dot(g, u - state.x)) - 1e-8


def test_flag_default_params():
    prob = scalar_l1_problem()
    params = flag_default_params(prob)
    assert params.tau == pytest.approx(1.0)  # beta -> inf limit of beta/(beta ||A||^2 + 1)
    prob2 = random_problem(17)
    p2 = flag_default_params(prob2)
    assert p2.tau == pytest.approx(prob2.beta / (prob2.beta * prob2.a_norm**2 + 1.0))


def test_flag_params_validation():
    with pytest.raises(ConfigurationError):
        FlagParams(tau=0.0).validate()


def test_flag_scalar_hand_trace():
    prob = scalar_l1_problem()
    params = FlagParams(tau=1.0)
    state = flag_step(flag_init(prob, params), prob, params)
    assert state.x_bar[0] == pytest.approx(1.0)
    assert state.lam[0] == pytest.approx(0.0)
    assert state.x[0] == pytest.approx(0.5)


def test_flag_stationary_start():
    prob = scalar_l1_problem()
    params = FlagParams(tau=1.0)
    state = flag_init(prob, params, x1=np.array([1.0]), xbar1=np.array([1.0]),
                      lam1=np.array([-1.0]))
    for _ in range(4):
        state = flag_step(state, prob, params)
        assert state.x[0] == pytest.approx(1.0)
        assert state.lam[0] == pytest.approx(-1.0)


def test_lagrangian_gap_values():
    prob = scalar_l1_problem()
    x_star, lam_star = np.array([1.0]), np.array([-1.0])
    assert lagrangian_gap(x_star, lam_star, x_star, lam_star, prob) == pytest.approx(0.0)
    # hand algebra on f=0, h=0.5||x||^2, A=Id, b=0 with arbitrary references
    prob2 = PdProblem(
        f=ZeroOperator(),
        h=quadratic_term(identity(2), np.zeros(2)),
        A=identity(2),
        b=np.zeros(2),
    )
    beta = prob2.beta  # value uses exact 0.5||x||^2 regardless of beta
    x = np.array([1.0, 2.0])
    lam = np.array([0.5, -0.5])
    x_ref = np.array([0.2, 0.1])
    lam_ref = np.array([1.0, 1.0])
    expected = (0.5 * 5.0 + np.dot(lam_ref, x)) - (0.5 * 0.05 + np.dot(lam, x_ref))
    assert lagrangian_gap(x, lam, x_ref, lam_ref, prob2) == pytest.approx(expected)


@pytest.mark.slow
def test_gap_decreases_on_benchmark(pd_run):
    recs = {r.k: r for r in pd_run.value.records}
    assert recs[10_000].gap <= recs[100].gap
    assert recs[10_000].gap >= -1e-8  # reference error only


@pytest.mark.slow
def test_objective_bounds_sandwich(bench_problem, pd_reference):
    ref = pd_reference.value
    params = pd_default_steps(5.0, bench_problem)
    state = pd_init(bench_problem, params)
    for _ in range(500):
        state = pd_step(state, bench_problem, params)
        if state.k % 50 == 0:
            lower, gap, upper = objective_bounds(state, bench_problem,
                                                 ref.x_star, ref.lam_star)
            slack = 1e-7 * max(1.0, abs(gap))
            assert lower - slack <= gap <= upper + slack


def test_pd_first_step_divergence_carries_no_state():
    # v0 - tau A* eta0 overflows, so the prox argument is non-finite before
    # any finite state exists
    prob = scalar_l1_problem()
    params = pd_default_steps(3.0, prob)
    with pytest.raises(DivergenceError) as exc_info, np.errstate(over="ignore"):
        pd_init(prob, params, v0=np.array([1e308]), eta0=np.array([-1e308]))
    assert exc_info.value.state is None
