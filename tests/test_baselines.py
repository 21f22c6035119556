import numpy as np
import pytest

from conftest import by_k
from fbsplit.baselines import (
    VARIANTS,
    BaselineMethod,
    baseline_init,
    baseline_step,
    default_schedules,
)
from fbsplit.bench import ExperimentConfig, run_experiment
from fbsplit.errors import ConfigurationError
from fbsplit.linalg import LinearMap, identity
from fbsplit.operators import (
    AffineConstraint,
    InclusionProblem,
    L1Subdifferential,
    ZeroSmoothTerm,
    quadratic_term,
)
from test_ffb import scalar_problem


def test_default_schedules_crifba_limit():
    vals = [default_schedules("crifba", k)["alpha_k"] for k in (1, 10, 1000, 10**9)]
    assert vals == sorted(vals)
    assert vals[-1] < 1.0
    assert vals[-1] == pytest.approx(1.0, abs=1e-8)
    assert default_schedules("crifba", 5)["delta_k"] == default_schedules("crifba", 5)["alpha_k"]


def test_default_schedules_lorenz_pock_cap():
    for k in (1, 2, 10, 100, 10**6):
        assert default_schedules("lorenz_pock", k)["alpha_k"] <= 1.0 / 3.0 - 1e-3


def test_default_schedules_fast_km_momentum():
    co = default_schedules("fast_km", 1, alpha=3.0)
    # weights applied to a common fixed point sum to one
    total = co["fix_weight"] + co["fb_new"] + co["fb_old"]
    assert total == pytest.approx(1.0)


def test_fbs_hand_trace():
    prob = scalar_problem()
    method = BaselineMethod("fbs", gamma=1.0).resolve(prob)
    state = baseline_init(prob, method, z0=np.array([2.0]))
    assert state.z[0] == pytest.approx(0.0)  # z1 = (1 - gamma) z0
    state = baseline_step(state, prob, method)
    assert state.z[0] == pytest.approx(0.0)
    method_half = BaselineMethod("fbs", gamma=0.5).resolve(prob)
    s = baseline_init(prob, method_half, z0=np.array([2.0]))
    assert s.z[0] == pytest.approx(1.0)
    s = baseline_step(s, prob, method_half)
    assert s.z[0] == pytest.approx(0.5)


def _fixed_point_fixture():
    rng = np.random.default_rng(17)
    m = rng.standard_normal((2, 6))
    z_star = rng.standard_normal(6)
    b = m @ z_star
    prob = InclusionProblem(
        AffineConstraint(LinearMap(m), b),
        quadratic_term(identity(6), z_star),
    )
    return prob, prob.M.resolvent(1.0, z_star)


@pytest.mark.parametrize("variant", [v for v in VARIANTS if v not in ("inertial_ppm", "appm")])
def test_fixed_points_stay_fixed(variant):
    prob, z_star = _fixed_point_fixture()
    method = BaselineMethod(variant, gamma=0.5 * prob.beta).resolve(prob)
    state = baseline_init(prob, method, z0=z_star)
    for _ in range(5):
        state = baseline_step(state, prob, method)
        np.testing.assert_allclose(state.z, z_star, atol=1e-12)


@pytest.mark.parametrize("variant", ["inertial_ppm", "appm"])
def test_proximal_variants_fixed_points(variant):
    prob = InclusionProblem(L1Subdifferential(), ZeroSmoothTerm())
    method = BaselineMethod(variant, gamma=0.7).resolve(prob)
    state = baseline_init(prob, method, z0=np.zeros(3))
    for _ in range(5):
        state = baseline_step(state, prob, method)
        np.testing.assert_allclose(state.z, np.zeros(3), atol=1e-15)


def test_lorenz_pock_evaluates_forward_map_at_extrapolation():
    prob = scalar_problem()
    method = BaselineMethod("lorenz_pock", gamma=0.5).resolve(prob)
    state = baseline_init(prob, method, z0=np.array([1.0]))
    state.z_prev = np.array([0.0])  # force momentum
    alpha_1 = default_schedules("lorenz_pock", 1)["alpha_k"]
    y = 1.0 + alpha_1 * (1.0 - 0.0)
    expected = y - 0.5 * y  # J = Id, C(y) = y
    out = baseline_step(state, prob, method)
    assert out.z[0] == pytest.approx(expected, rel=1e-14)


def test_moudafi_oliny_evaluates_forward_map_at_iterate():
    prob = scalar_problem()
    method = BaselineMethod("moudafi_oliny", gamma=0.5).resolve(prob)
    state = baseline_init(prob, method, z0=np.array([1.0]))
    state.z_prev = np.array([0.0])
    alpha_1 = default_schedules("moudafi_oliny", 1)["alpha_k"]
    expected = 1.0 + alpha_1 * 1.0 - 0.5 * 1.0  # C evaluated at z, not y
    out = baseline_step(state, prob, method)
    assert out.z[0] == pytest.approx(expected, rel=1e-14)


def test_appm_hand_recursion():
    prob = InclusionProblem(L1Subdifferential(), ZeroSmoothTerm())
    method = BaselineMethod("appm", gamma=1.0).resolve(prob)
    z0 = np.array([4.0])
    state = baseline_init(prob, method, z0=z0)
    # k=1: alpha_1 = 0, y1 = z1 = 4, z2 = soft(4, 1) = 3
    state = baseline_step(state, prob, method)
    assert state.z[0] == pytest.approx(3.0)
    # k=2: alpha_2 = 1/3, y2 = z2 + (z2-z1)/3 + (y0-z1)/3 = 3 - 1/3
    state = baseline_step(state, prob, method)
    assert state.z[0] == pytest.approx(3.0 - 1.0 / 3.0 - 1.0)


def test_prox_only_variants_reject_forward_map():
    prob = scalar_problem()
    for variant in ("inertial_ppm", "appm"):
        with pytest.raises(ConfigurationError):
            BaselineMethod(variant, gamma=0.5).resolve(prob)


def test_parameter_range_validation():
    prob = scalar_problem()  # beta = 1
    with pytest.raises(ConfigurationError):
        BaselineMethod("fbs", gamma=2.0).resolve(prob)
    with pytest.raises(ConfigurationError):
        BaselineMethod("fbs", gamma=-1.0).resolve(prob)
    with pytest.raises(ConfigurationError):
        BaselineMethod("fast_km", gamma=1.0, alpha=2.0).resolve(prob)
    with pytest.raises(ConfigurationError):
        BaselineMethod("nope").resolve(prob)
    assert BaselineMethod("fbs").resolve(prob).gamma == pytest.approx(prob.beta)


def test_fast_km_residual_rate_checkpoints(bench_problem):
    run = run_experiment(
        ExperimentConfig(method="fast_km", alpha=5.0, iters=10_000),
        problem=bench_problem,
    )
    recs = by_k(run.records)
    vals = [k * recs[k].rfix for k in (100, 1000, 10_000)]
    assert vals[0] > vals[1] > vals[2]
