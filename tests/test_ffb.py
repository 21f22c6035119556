import math

import numpy as np
import pytest

from conftest import by_k
from fbsplit.errors import ConfigurationError, DivergenceError
from fbsplit.ffb import (
    FfbParams,
    FfbState,
    ffb_init,
    ffb_step_xi,
    ffb_step_y,
    fixed_point_residual,
    max_step_size,
    tangent_residual,
)
from fbsplit.linalg import LinearMap, identity
from fbsplit.operators import (
    AffineConstraint,
    CocoerciveMap,
    GradientMap,
    InclusionProblem,
    L1Subdifferential,
    ZeroMap,
    ZeroOperator,
    quadratic_term,
)


class LinearForward(CocoerciveMap):
    """C(z) = z, cocoercive with modulus 1."""

    beta = 1.0

    def apply(self, v):
        return np.asarray(v, dtype=float)


def trivial_problem():
    return InclusionProblem(ZeroOperator(), ZeroMap())


def scalar_problem():
    return InclusionProblem(ZeroOperator(), LinearForward())


def test_max_step_size_values():
    assert max_step_size(10.0, 1.0) == pytest.approx(1.5)
    assert max_step_size(2.01, 1.0) == pytest.approx(8 * 1.01 / 8.05, rel=1e-12)
    assert max_step_size(1e9, 1.0) == pytest.approx(1.6, rel=1e-6)


def test_max_step_size_domain():
    with pytest.raises(ConfigurationError):
        max_step_size(2.0, 1.0)
    with pytest.raises(ConfigurationError):
        max_step_size(3.0, 0.0)


def test_params_resolve_default_and_bounds():
    p = FfbParams(alpha=5.0).resolve(1.0)
    assert p.gamma == pytest.approx(0.99 * 32.0 / 23.0)
    with pytest.raises(ConfigurationError):
        FfbParams(alpha=5.0, gamma=max_step_size(5.0, 1.0)).resolve(1.0)
    with pytest.raises(ConfigurationError):
        FfbParams(alpha=2.0, gamma=0.1).resolve(1.0)
    with pytest.raises(ConfigurationError):
        FfbParams(alpha=3.0, gamma=-0.1).resolve(1.0)
    with pytest.raises(ConfigurationError):
        FfbParams(alpha=3.0).resolve(math.inf)  # needs explicit gamma


def test_init_trivial_fixed_point():
    prob = trivial_problem()
    v = np.array([0.3, -1.2])
    state = ffb_init(prob, FfbParams(alpha=3.0, gamma=1.0), z0=v, y0=v)
    np.testing.assert_array_equal(state.z, v)
    np.testing.assert_array_equal(state.xi, np.zeros(2))
    assert state.k == 1


def test_init_soft_threshold_oracle():
    # M the l1 subdifferential in 1-D, C = 0, gamma = 1, y0 = 3:
    # z1 = soft(3, 1) = 2 and xi1 = (3 - 2)/1 = 1, a subgradient of |.| at 2
    prob = InclusionProblem(L1Subdifferential(), ZeroMap())
    state = ffb_init(prob, FfbParams(alpha=3.0, gamma=1.0),
                     z0=np.array([0.0]), y0=np.array([3.0]))
    assert state.z[0] == pytest.approx(2.0)
    assert state.xi[0] == pytest.approx(1.0)


def test_init_stationary_at_zero():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((2, 6))
    z_star = rng.standard_normal(6)
    b = m @ z_star
    # C vanishes at z_star: gradient of 0.5*||x - z_star||^2
    prob = InclusionProblem(
        AffineConstraint(LinearMap(m), b),
        GradientMap(quadratic_term(identity(6), z_star)),
    )
    params = FfbParams(alpha=5.0)
    state = ffb_init(prob, params, z0=z_star, y0=z_star)
    np.testing.assert_allclose(state.z, z_star, atol=1e-12)
    params = params.resolve(prob.beta)
    for _ in range(3):
        state = ffb_step_y(state, prob, params)
        np.testing.assert_allclose(state.z, z_star, atol=1e-12)
        np.testing.assert_allclose(state.xi + prob.C.apply(state.z), 0.0, atol=1e-12)


def _hand_state():
    # z0 = z1 = y0 = 1 with M = 0 and C(z) = z, gamma = 0.5
    one = np.array([1.0])
    return FfbState(k=1, z_prev=one.copy(), z=one.copy(), y=one.copy(),
                    xi=np.array([-1.0]), c_prev=one.copy(), c=one.copy())


def test_step_y_hand_trace():
    prob = scalar_problem()
    params = FfbParams(alpha=3.0, gamma=0.5).resolve(1.0)
    state = ffb_step_y(_hand_state(), prob, params)
    assert state.y[0] == pytest.approx(1.0)
    assert state.z[0] == pytest.approx(0.5)
    assert state.k == 2


def test_step_xi_matches_hand_trace():
    prob = scalar_problem()
    params = FfbParams(alpha=3.0, gamma=0.5).resolve(1.0)
    s_y = ffb_step_y(_hand_state(), prob, params)
    s_x = ffb_step_xi(_hand_state(), prob, params)
    assert s_x.z[0] == pytest.approx(s_y.z[0], abs=1e-14)
    assert s_x.xi[0] == pytest.approx(s_y.xi[0], abs=1e-14)


def test_xi_identity_exact_along_run(bench_inclusion, ffb_params):
    state = ffb_init(bench_inclusion, ffb_params)
    for _ in range(50):
        state = ffb_step_y(state, bench_inclusion, ffb_params)
        lhs = state.xi
        rhs = (state.y - state.z) / ffb_params.gamma - state.c_prev
        scale = max(1.0, float(np.max(np.abs(rhs))))
        np.testing.assert_allclose(lhs, rhs, atol=1e-14 * scale)


def test_formulation_equivalence_long_run():
    rng = np.random.default_rng(77)
    m = rng.standard_normal((4, 20))
    b = m @ rng.standard_normal(20)
    prob = InclusionProblem(
        AffineConstraint(LinearMap(m), b),
        GradientMap(quadratic_term(LinearMap(rng.standard_normal((10, 20))),
                                   rng.standard_normal(10))),
    )
    params = FfbParams(alpha=5.0).resolve(prob.beta)
    s_y = ffb_init(prob, params)
    s_x = ffb_init(prob, params)
    for _ in range(1000):
        s_y = ffb_step_y(s_y, prob, params)
        s_x = ffb_step_xi(s_x, prob, params)
        dev = np.linalg.norm(s_y.z - s_x.z) / max(1.0, np.linalg.norm(s_y.z))
        assert dev <= 1e-10


def test_tangent_residual_values():
    prob = InclusionProblem(L1Subdifferential(), ZeroMap())
    state = ffb_init(prob, FfbParams(alpha=3.0, gamma=1.0),
                     z0=np.array([0.0]), y0=np.array([3.0]))
    assert tangent_residual(state) == pytest.approx(1.0)
    # exact zero: xi = -C(z*) for C(z) = z at z* = 0
    state2 = FfbState(k=1, z_prev=np.zeros(1), z=np.zeros(1), y=np.zeros(1),
                      xi=np.zeros(1), c_prev=np.zeros(1), c=np.zeros(1))
    assert tangent_residual(state2) == 0.0


def test_fixed_point_residual_values():
    prob = scalar_problem()
    assert fixed_point_residual(np.array([1.0]), prob, 0.5) == pytest.approx(0.5)
    assert fixed_point_residual(np.zeros(1), prob, 0.5) == 0.0
    with pytest.raises(ConfigurationError):
        fixed_point_residual(np.zeros(1), prob, 0.0)


def test_residual_inequality_along_run(ffb_run, ffb_params):
    # r_fix <= gamma * r_tan at every logged iterate, 1e-12 relative slack
    gamma = ffb_params.gamma
    for rec in ffb_run.value.records:
        assert rec.rfix <= gamma * rec.rtan * (1 + 1e-12) + 1e-300


def test_monotonicity_certificate_along_run(bench_inclusion, ffb_params, inclusion_z_star):
    from fbsplit.diagnostics import monotonicity_certificate

    state = ffb_init(bench_inclusion, ffb_params)
    scale = max(1.0, float(np.linalg.norm(state.z - inclusion_z_star)))
    for _ in range(300):
        state = ffb_step_y(state, bench_inclusion, ffb_params)
        assert monotonicity_certificate(state, inclusion_z_star, bench_inclusion) >= -1e-10 * scale


def test_rate_checkpoints_decreasing(ffb_run):
    recs = by_k(ffb_run.value.records)
    kv = [k * recs[k].velocity for k in (100, 1000, 10_000)]
    kt = [k * recs[k].rtan for k in (100, 1000, 10_000)]
    assert kv[0] > kv[1] > kv[2]
    assert kt[0] > kt[1] > kt[2]


class _LyingMap(CocoerciveMap):
    """Claims cocoercivity it does not have; drives the iteration to overflow."""

    beta = 1.0

    def apply(self, v):
        return -np.asarray(v, dtype=float) - 1.0


def test_divergence_carries_last_state():
    prob = InclusionProblem(ZeroOperator(), _LyingMap())
    params = FfbParams(alpha=3.0, gamma=1.0).resolve(prob.beta)
    state = ffb_init(prob, params, z0=np.array([1.0]))
    with pytest.raises(DivergenceError) as exc_info:
        for _ in range(5000):
            state = ffb_step_y(state, prob, params)
    last = exc_info.value.state
    assert last is not None
    assert np.all(np.isfinite(last.z))


def test_first_step_divergence_carries_no_state():
    # the resolvent's argument overflows before any finite state exists; the
    # l1 resolvent would reject it as bad input if it were applied
    prob = InclusionProblem(L1Subdifferential(), _LyingMap())
    params = FfbParams(alpha=3.0, gamma=1.0)
    with pytest.raises(DivergenceError) as exc_info:
        ffb_init(prob, params, z0=np.array([1e308]))
    assert exc_info.value.state is None
