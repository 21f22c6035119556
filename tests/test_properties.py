"""Property tests for the operator contracts that ``operators.py`` states:
the adjoint identity, firm non-expansiveness of the resolvents, the
cocoercivity modulus of the quadratic term's gradient, and the row-wise
exactness of block application that lockstep runs rely on."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fbsplit.linalg import LinearMap, inner
from fbsplit.operators import AffineConstraint, GradientMap, prox_l1, quadratic_term

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
    C = GradientMap(quadratic_term(LinearMap(_gaussian(seed, (p, n))),
                                   _gaussian(seed + 1, p)))
    z, y = 10.0 * _gaussian(seed + 2, (2, n))
    dc = C.apply(z) - C.apply(y)
    slack = 1e-10 * max(1.0, inner(z - y, z - y))
    assert inner(dc, z - y) >= C.beta * inner(dc, dc) - slack
