import numpy as np
import pytest

from fbsplit.linalg import LinearMap, identity, inner
from fbsplit.operators import (
    AffineConstraint,
    InclusionProblem,
    L1Subdifferential,
    ZeroOperator,
    ZeroSmoothTerm,
    prox_l1,
    quadratic_term,
)


def _grid_prox_l1_1d(v, t, lo=-10.0, hi=10.0):
    """Independent oracle: grid minimization of 0.5*(x-v)^2 + t*|x|,
    refined twice around the coarse minimizer."""
    xs = np.linspace(lo, hi, 20001)
    for _ in range(3):
        vals = 0.5 * (xs - v) ** 2 + t * np.abs(xs)
        x0 = xs[np.argmin(vals)]
        width = xs[1] - xs[0]
        xs = np.linspace(x0 - 2 * width, x0 + 2 * width, 2001)
    vals = 0.5 * (xs - v) ** 2 + t * np.abs(xs)
    return xs[np.argmin(vals)]


def test_prox_l1_matches_grid_oracle():
    for v, t in [(3.0, 1.0), (-0.5, 1.0), (0.2, 0.7), (-4.1, 2.3)]:
        oracle = _grid_prox_l1_1d(v, t)
        assert prox_l1(np.array([v]), t)[0] == pytest.approx(oracle, abs=1e-6)
    np.testing.assert_allclose(prox_l1(np.array([3.0, -0.5]), 1.0), [2.0, 0.0])


def test_prox_l1_zero_and_tiny_threshold():
    np.testing.assert_array_equal(prox_l1(np.zeros(4), 0.5), np.zeros(4))
    assert prox_l1(np.array([5.0]), 1e-12)[0] == pytest.approx(5.0, abs=1e-11)


def test_prox_l1_rejects_bad_input():
    with pytest.raises(ValueError):
        prox_l1(np.ones(2), 0.0)
    with pytest.raises(ValueError):
        prox_l1(np.array([np.nan]), 1.0)


def test_quadratic_term_identity_cases():
    q = quadratic_term(identity(2), np.zeros(2))
    x = np.array([1.5, -2.0])
    np.testing.assert_allclose(q.gradient(x), x)
    assert q.beta == pytest.approx(1.0, rel=2e-3)  # 0.999 safety shrink
    q2 = quadratic_term(identity(2), np.ones(2))
    np.testing.assert_allclose(q2.gradient(np.ones(2)), np.zeros(2), atol=1e-14)
    assert q2.value(np.ones(2)) == 0.0


def test_quadratic_gradient_matches_finite_differences():
    # central differences at 50 random points, relative error <= 1e-5
    rng = np.random.default_rng(12)
    B = LinearMap(rng.standard_normal((4, 3)))
    q = quadratic_term(B, rng.standard_normal(4))
    eps = 1e-6
    for _ in range(50):
        x = rng.standard_normal(3)
        g = q.gradient(x)
        fd = np.empty(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = eps
            fd[i] = (q.value(x + e) - q.value(x - e)) / (2 * eps)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_quadratic_beta_cocoercivity_sampled():
    # <C(z)-C(y), z-y> >= beta ||C(z)-C(y)||^2 on 500 pairs
    rng = np.random.default_rng(13)
    q = quadratic_term(LinearMap(rng.standard_normal((6, 4))), rng.standard_normal(6))
    C = q
    for _ in range(500):
        z = rng.standard_normal(4) * 3
        y = rng.standard_normal(4) * 3
        dc = C.apply(z) - C.apply(y)
        assert inner(dc, z - y) >= C.beta * inner(dc, dc) - 1e-9


def test_affine_projection_matches_least_squares_oracle():
    A = LinearMap(np.array([[1.0, 1.0]]))
    proj = AffineConstraint(A, np.array([1.0]))
    np.testing.assert_allclose(proj.resolvent(0.7, np.zeros(2)), [0.5, 0.5])
    rng = np.random.default_rng(21)
    m = rng.standard_normal((3, 6))
    b = m @ rng.standard_normal(6)
    proj = AffineConstraint(LinearMap(m), b)
    for _ in range(10):
        v = rng.standard_normal(6)
        oracle = v - m.T @ np.linalg.solve(m @ m.T, m @ v - b)
        np.testing.assert_allclose(proj.resolvent(1.0, v), oracle, atol=1e-10)
    # a repeated row with an equal right-hand side is rank deficient but
    # consistent and describes the same set, so the projection is the same
    dup = AffineConstraint(LinearMap(np.vstack([m, m[:1]])), np.append(b, b[0]))
    for _ in range(10):
        v = rng.standard_normal(6)
        oracle = v - m.T @ np.linalg.solve(m @ m.T, m @ v - b)
        np.testing.assert_allclose(dup.resolvent(1.0, v), oracle, atol=1e-10)


def test_affine_projection_idempotent_and_gamma_free():
    rng = np.random.default_rng(22)
    m = rng.standard_normal((2, 5))
    b = m @ rng.standard_normal(5)
    proj = AffineConstraint(LinearMap(m), b)
    v = rng.standard_normal(5)
    once = proj.resolvent(1.0, v)
    np.testing.assert_allclose(proj.resolvent(1.0, once), once, atol=1e-12)
    np.testing.assert_allclose(proj.resolvent(1e-3, v), once, atol=1e-12)
    feasible = proj.resolvent(1.0, rng.standard_normal(5))
    np.testing.assert_allclose(proj.resolvent(1.0, feasible), feasible, atol=1e-12)


def test_affine_projection_rejects_inconsistent_system():
    # two contradictory copies of the same row
    A = LinearMap(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        AffineConstraint(A, np.array([0.0, 1.0]))


def test_zero_resolvent_is_identity():
    z = ZeroOperator()
    v = np.array([2.0, 3.0])
    np.testing.assert_array_equal(z.resolvent(1.0, v), v)


def test_zero_resolvent_fbs_reduces_to_gradient_descent():
    # two hand-computed gradient steps on 0.5*||x||^2 with gamma = 0.1
    prob = InclusionProblem(ZeroOperator(), quadratic_term(identity(1), np.zeros(1)))
    gamma = 0.1
    z = np.array([1.0])
    for expected in (0.9, 0.81):
        z = prob.M.resolvent(gamma, z - gamma * prob.C.apply(z))
        assert z[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("make_resolvent", [
    lambda rng: ZeroOperator(),
    lambda rng: L1Subdifferential(),
    lambda rng: (lambda m: AffineConstraint(
        LinearMap(m), m @ rng.standard_normal(5)))(rng.standard_normal((2, 5))),
])
def test_firm_nonexpansiveness_sampled(make_resolvent):
    # ||Jx - Jy||^2 <= <x - y, Jx - Jy> on 500 pairs, 1e-9 slack
    rng = np.random.default_rng(31)
    J = make_resolvent(rng)
    dim = J.dim or 5
    for _ in range(500):
        x = rng.standard_normal(dim) * 2
        y = rng.standard_normal(dim) * 2
        jx = J.resolvent(0.8, x)
        jy = J.resolvent(0.8, y)
        d = jx - jy
        assert inner(d, d) <= inner(x - y, d) + 1e-9


def test_zero_map_and_smooth_term():
    zm = ZeroSmoothTerm()
    np.testing.assert_array_equal(zm.apply(np.ones(3)), np.zeros(3))
    zs = ZeroSmoothTerm(3)
    assert zs.value(np.ones(3)) == 0.0
    np.testing.assert_array_equal(zs.gradient(np.ones(3)), np.zeros(3))
    assert zs.beta == np.inf


def test_inclusion_problem_dimension_check():
    rng = np.random.default_rng(41)
    m = rng.standard_normal((2, 5))
    proj = AffineConstraint(LinearMap(m), m @ rng.standard_normal(5))
    q = quadratic_term(LinearMap(rng.standard_normal((3, 4))), rng.standard_normal(3))
    with pytest.raises(ValueError):
        InclusionProblem(proj, q)
