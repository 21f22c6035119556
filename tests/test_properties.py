"""Property tests for the operator contracts that ``operators.py`` states:
the adjoint identity, firm non-expansiveness of the resolvents, the
cocoercivity modulus of the quadratic term's gradient, and the row-wise
exactness of block application that lockstep runs rely on; and for the
reading of the primal-dual step as fast forward-backward in a metric."""

import dataclasses
import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbsplit.bench import generate_problem
from fbsplit.errors import ConfigurationError
from fbsplit.linalg import LinearMap, inner
from fbsplit.operators import AffineConstraint, prox_l1, quadratic_term
from fbsplit.primal_dual import PdParams, pd_default_steps, pd_init, pd_step

# timing on a shared host is noisy, so no example has a deadline
settings.register_profile("fbsplit", deadline=None, max_examples=60)
PROFILE = settings.get_profile("fbsplit")

dims = st.integers(min_value=1, max_value=12)
rows = st.integers(min_value=1, max_value=5)
entries = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)
thresholds = st.floats(min_value=1e-6, max_value=1e3)
seeds = st.integers(min_value=0, max_value=2**32 - 1)


@st.composite
def matrix_and_blocks(draw):
    m, n, k = draw(dims), draw(dims), draw(rows)
    matrix = draw(arrays(float, (m, n), elements=entries))
    return (matrix, draw(arrays(float, (k, n), elements=entries)),
            draw(arrays(float, (k, m), elements=entries)))


def _gaussian(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


@PROFILE
@given(matrix_and_blocks())
def test_block_application_equals_row_by_row(case):
    matrix, x, u = case
    A = LinearMap(matrix)
    assert np.array_equal(A.apply(x), np.array([A.apply(row.copy()) for row in x]))
    assert np.array_equal(A.adjoint_apply(u),
                          np.array([A.adjoint_apply(row.copy()) for row in u]))


@PROFILE
@given(matrix_and_blocks())
def test_adjoint_identity(case):
    matrix, x, u = case
    A = LinearMap(matrix)
    for xi, ui in zip(x, u):
        lhs, rhs = inner(A.apply(xi), ui), inner(xi, A.adjoint_apply(ui))
        scale = np.abs(matrix).sum() * np.abs(xi).max() * np.abs(ui).max()
        assert abs(lhs - rhs) <= 1e-12 * max(scale, 1.0)


@PROFILE
@given(dims, rows, st.data())
def test_prox_l1_per_row_thresholds_equal_row_by_row(n, k, data):
    v = data.draw(arrays(float, (k, n), elements=entries))
    t = data.draw(arrays(float, (k, 1), elements=thresholds))
    expected = np.array([prox_l1(row.copy(), float(ti)) for row, ti in zip(v, t[:, 0])])
    assert np.array_equal(prox_l1(v, t), expected)


def _firmly_nonexpansive(resolvent, x, y):
    """||Jx - Jy||^2 <= <Jx - Jy, x - y>, up to roundoff."""
    d = resolvent(x) - resolvent(y)
    slack = 1e-10 * max(1.0, inner(x - y, x - y))
    return inner(d, d) <= inner(d, x - y) + slack


@PROFILE
@given(dims, thresholds, st.data())
def test_prox_l1_is_firmly_nonexpansive(n, t, data):
    x, y = (data.draw(arrays(float, n, elements=entries)) for _ in range(2))
    assert _firmly_nonexpansive(lambda v: prox_l1(v, t), x, y)


@PROFILE
@given(dims, dims, seeds)
def test_affine_projection_is_firmly_nonexpansive(m, n, seed):
    a = _gaussian(seed, (m, n))
    projection = AffineConstraint(LinearMap(a), a @ _gaussian(seed + 1, n))
    x, y = 10.0 * _gaussian(seed + 2, (2, n))
    assert _firmly_nonexpansive(projection.project, x, y)


@PROFILE
@given(dims, dims, seeds)
def test_quadratic_gradient_is_cocoercive_with_its_beta(p, n, seed):
    C = quadratic_term(LinearMap(_gaussian(seed, (p, n))),
                       _gaussian(seed + 1, p))
    z, y = 10.0 * _gaussian(seed + 2, (2, n))
    dc = C.apply(z) - C.apply(y)
    slack = 1e-10 * max(1.0, inner(z - y, z - y))
    assert inner(dc, z - y) >= C.beta * inner(dc, dc) - slack


@st.composite
def pd_runs(draw):
    """A random instance and the steps of one to four runs on it, each with
    sigma = s * tau for s in [1/4, 1], which keeps pd's step condition."""
    problem = generate_problem(draw(dims), draw(dims), draw(dims), draw(seeds))
    runs = []
    for alpha in draw(st.lists(st.floats(min_value=2.5, max_value=30.0),
                               min_size=1, max_size=4)):
        tau = pd_default_steps(alpha, problem).tau
        runs.append(PdParams(alpha, tau, tau * draw(st.floats(min_value=0.25, max_value=1.0))))
    return problem, runs


def _lifted_pd_run(problem, params, state):
    """Fast forward-backward with gamma = 1 on z = (x, lam) from pd's ``state``,
    written independently of pd_step: each step is z+ = (P + M)^-1 (P y - C(z))
    in the metric P = [[I/tau, -A^T], [-A, I/sigma]], for the saddle operator
    M(x, lam) = (df(x) + A^T lam, b - A x) and C(x, lam) = (grad h(x), 0),
    whose resolvent is x+ = prox_{tau f}(tau r_x), lam+ = sigma (r_lam + 2 A x+ - b).
    ``state`` may instead be pd's starting points (x0, lam0, v0, eta0): then
    z0 = (x0, lam0), the first step takes y0 = (v0, eta0) as it is, and the run
    starts at k = 1.  Yields z+, the certificate xi+ = P(y - z+) - C(z), an
    element of M(z+), and the norm of r = P y - C(z), from whose terms xi+ is
    computed."""
    A, b, alpha, tau, sigma = problem.A.matrix, problem.b, *dataclasses.astuple(params)
    m, n = A.shape
    P = np.block([[np.eye(n) / tau, -A.T], [-A, np.eye(m) / sigma]])

    def C(z):
        return np.concatenate([problem.h.gradient(z[:n]), np.zeros(m)])

    if isinstance(state, tuple):
        x0, lam0, v0, eta0 = state
        z_prev, z, y, k = None, np.concatenate([x0, lam0]), np.concatenate([v0, eta0]), 0
    else:
        z_prev, z, y = (np.concatenate(pair) for pair in [
            (state.x_prev, state.lam_prev), (state.x, state.lam), (state.v, state.dual_extrap)])
        k = state.k
    while True:
        if k:
            momentum, correction = 1 - alpha / (k + alpha), 1 - alpha / (2 * (k + alpha))
            y = z + momentum * (z - z_prev) + correction * (y - z)
        r = P @ y - C(z)
        x_next = problem.f.resolvent(tau, tau * r[:n])
        z_next = np.concatenate([x_next, sigma * (r[n:] + 2 * A @ x_next - b)])
        yield z_next, P @ (y - z_next) - C(z), np.linalg.norm(r)
        z_prev, z, k = z, z_next, k + 1


def _close(lifted, parts, scale=None):
    """Whether ``lifted`` equals the concatenated ``parts`` to 1e-12 relative to
    ``scale``, by default their norm."""
    expected = np.concatenate(parts)
    if scale is None:
        scale = np.linalg.norm(expected)
    return np.linalg.norm(lifted - expected) <= 1e-12 * scale


@settings(PROFILE, max_examples=20)
@given(pd_runs())
def test_pd_step_is_fast_forward_backward_in_the_metric_p(case):
    # every run alone and as a row of one lockstep block, 200 steps from k = 1
    problem, runs = case
    fields = operator.attrgetter("x", "lam", "w", "ax")
    block = PdParams(*np.array([dataclasses.astuple(r) for r in runs]).T[..., None])
    solo = [pd_init(problem, r) for r in runs]
    rows = pd_init(problem, block)
    lifted = [_lifted_pd_run(problem, r, s) for r, s in zip(runs, solo)]
    for _ in range(200):
        solo = [pd_step(s, problem, r) for s, r in zip(solo, runs)]
        rows = pd_step(rows, problem, block)
        for i, (z, xi, r_norm) in enumerate(map(next, lifted)):
            for x, lam, w, ax in (fields(solo[i]), [a[i] for a in fields(rows)]):
                assert _close(z, [x, lam])
                # near a solution xi is small against the terms it is the sum of
                assert _close(xi, [w, problem.b - ax], r_norm)


@settings(PROFILE, max_examples=20)
@given(pd_runs(), seeds)
def test_pd_init_is_the_first_lifted_step(case, seed):
    # from drawn starting points with v0 != x0 and eta0 != lam0, every run
    # alone and as a row of one lockstep block: the state at k = 1, then 20 steps
    problem, runs = case
    n, m = problem.n, problem.m
    x0, lam0, v0, eta0 = np.split(_gaussian(seed, 2 * (n + m)), np.cumsum([n, m, n]))
    fields = operator.attrgetter("x", "lam", "w", "ax")
    block = PdParams(*np.array([dataclasses.astuple(r) for r in runs]).T[..., None])
    solo = [pd_init(problem, r, x0, v0, lam0, eta0) for r in runs]
    rows = pd_init(problem, block, x0, v0, lam0, eta0)
    lifted = [_lifted_pd_run(problem, r, (x0, lam0, v0, eta0)) for r in runs]
    for _ in range(21):
        for i, (z, xi, r_norm) in enumerate(map(next, lifted)):
            for x, lam, w, ax in (fields(solo[i]), [a[i] for a in fields(rows)]):
                assert _close(z, [x, lam])
                assert _close(xi, [w, problem.b - ax], r_norm)
        solo = [pd_step(s, problem, r) for s, r in zip(solo, runs)]
        rows = pd_step(rows, problem, block)


def _old_step_rule(problem, alpha, tau, sigma):
    """Whether the hand-expanded bound that pd checked before it read ffb's
    max_step_size holds; None within 1e-9 of either of its boundaries."""
    ts_a2 = tau * sigma * problem.a_norm**2
    if abs(ts_a2 - 1) <= 1e-9:
        return None
    if ts_a2 > 1:
        return False
    lhs = (min(1 / tau, 1 / sigma) * (1 - math.sqrt(ts_a2))
           * 8 * (alpha - 1) * problem.beta / (5 * alpha - 2))
    return None if abs(lhs - 1) <= 1e-9 else lhs > 1


@PROFILE
@given(dims, dims, dims, seeds, st.lists(st.tuples(
    st.floats(min_value=2.0, max_value=50.0, exclude_min=True),
    st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=-3.0, max_value=3.0)),
    min_size=1, max_size=4))
def test_pd_step_rule_is_max_step_size_in_the_metric_p(m, p, n, seed, draws):
    # every run alone and as a row of one block; tau spreads around pd's
    # default step, and sigma around tau
    problem = generate_problem(m, p, n, seed)
    runs = []
    for alpha, log_t, log_s in draws:
        tau = pd_default_steps(alpha, problem).tau * math.exp(log_t)
        runs.append(PdParams(alpha, tau, tau * math.exp(log_s)))
    accepted = [_old_step_rule(problem, *dataclasses.astuple(r)) for r in runs]
    assume(None not in accepted)
    block = PdParams(*np.array([dataclasses.astuple(r) for r in runs]).T[..., None])
    for params, accept in [*zip(runs, accepted), (block, all(accepted))]:
        if accept:
            assert params.validate(problem) is params
        else:
            with pytest.raises(ConfigurationError):
                params.validate(problem)
