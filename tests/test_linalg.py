import numpy as np
import pytest

from fbsplit.linalg import GRAM_MAX_SIDE, LinearMap, as_vector, identity, inner, operator_norm


def test_inner_examples():
    assert inner([1.0, 2.0], [3.0, 4.0]) == 11.0
    assert inner([0.0, 0.0], [5.0, -7.0]) == 0.0


def test_inner_positivity_random():
    rng = np.random.default_rng(0)
    for _ in range(20):
        v = rng.standard_normal(7)
        assert inner(v, v) >= 0.0
        assert inner(v, v) == pytest.approx(np.dot(v, v))


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        inner([1.0, 2.0], [1.0, 2.0, 3.0])


def test_as_vector_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan])
    with pytest.raises(ValueError):
        as_vector([np.inf, 0.0])


def test_adjoint_identity_random_pairs():
    # <A u, v> == <u, A^T v> to 1e-10 relative, 200 sampled pairs
    rng = np.random.default_rng(42)
    A = LinearMap(rng.standard_normal((6, 9)))
    for _ in range(200):
        u = rng.standard_normal(9)
        v = rng.standard_normal(6)
        lhs = inner(A.apply(u), v)
        rhs = inner(u, A.adjoint_apply(v))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_operator_norm_diagonal():
    A = LinearMap(np.diag([3.0, 1.0]))
    assert operator_norm(A) == pytest.approx(3.0, rel=1e-9)


def test_operator_norm_zero_map():
    A = LinearMap(np.zeros((4, 3)))
    assert operator_norm(A) == 0.0


def test_operator_norm_matches_svd_oracle():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 3))
    oracle = np.linalg.svd(m, compute_uv=False)[0]
    assert operator_norm(LinearMap(m)) == pytest.approx(oracle, rel=1e-8)


def test_operator_norm_bounds_rayleigh_quotients():
    rng = np.random.default_rng(3)
    A = LinearMap(rng.standard_normal((8, 5)))
    est = operator_norm(A)
    for _ in range(50):
        v = rng.standard_normal(5)
        v /= np.linalg.norm(v)
        assert est >= np.linalg.norm(A.apply(v)) - 1e-10 * est


# a short side past the cutoff, where Golub-Kahan runs from a fixed start vector
_GK_SIDE = GRAM_MAX_SIDE + 1


def test_operator_norm_seed_reproducible():
    rng = np.random.default_rng(9)
    A = LinearMap(rng.standard_normal((_GK_SIDE, _GK_SIDE)))
    assert operator_norm(A) == operator_norm(A)


def _oracle_cases():
    rng = np.random.default_rng(11)
    cases = {
        "1xn": rng.standard_normal((1, 40)),
        "nx1": rng.standard_normal((40, 1)),
        "wide": rng.standard_normal((30, 80)),
        "tall": rng.standard_normal((80, 30)),
        "rank-1": np.outer(rng.standard_normal(40), rng.standard_normal(60)),
        "rank-20": rng.standard_normal((20, 100)),
        "zero": np.zeros((7, 5)),
        "diagonal": np.diag([5.0, 4.9999, 3.0, 2.0, 0.5, 0.1]),
    }
    for s in (GRAM_MAX_SIDE, _GK_SIDE):  # the last eigensolve, the first Golub-Kahan
        cases[f"wide-{s}"] = rng.standard_normal((s, 2 * s))
        cases[f"tall-{s}"] = rng.standard_normal((3 * s, s))
        cases[f"rank-5-{s}"] = rng.standard_normal((s, 5)) @ rng.standard_normal((5, 2 * s))
    return cases


@pytest.mark.parametrize("name", list(_oracle_cases()))
def test_operator_norm_exact_to_roundoff(name):
    # the Gram eigensolve is exact to roundoff, and Golub-Kahan
    # bidiagonalization converges to the top singular value from below:
    # either is within 1e-12 of the SVD, never above it past roundoff.
    # Golub-Kahan's start vector is fixed, so rotating the matrix by an
    # orthogonal q rotates the start direction: five q, five directions
    m = _oracle_cases()[name]
    rng = np.random.default_rng(13)
    for _ in range(5):
        q, _r = np.linalg.qr(rng.standard_normal((m.shape[1], m.shape[1])))
        mq = m @ q
        oracle = np.linalg.svd(mq, compute_uv=False)[0]
        est = operator_norm(LinearMap(mq))
        assert abs(est - oracle) <= 1e-12 * oracle
        assert est <= oracle * (1.0 + 1e-14)


class _CountingMap(LinearMap):
    def __init__(self, matrix):
        super().__init__(matrix)
        self.products = 0

    def apply(self, v):
        self.products += 1
        return super().apply(v)

    def adjoint_apply(self, u):
        self.products += 1
        return super().adjoint_apply(u)


@pytest.mark.parametrize("shape,eigensolve", [
    ((20, 100), True), ((50, 100), True), ((100, 1000), True),
    ((GRAM_MAX_SIDE, 2 * GRAM_MAX_SIDE), True),
    ((_GK_SIDE, 2 * _GK_SIDE), False), ((3 * _GK_SIDE, _GK_SIDE), False),
])
def test_operator_norm_path_follows_the_short_side(shape, eigensolve):
    # the eigensolve reads the matrix and makes no LinearMap product;
    # Golub-Kahan makes one with A and one with its adjoint per step
    A = _CountingMap(np.random.default_rng(2).standard_normal(shape))
    operator_norm(A)
    assert A.products == 0 if eigensolve else A.products >= 2


def test_operator_norm_products_on_the_large_quadratic():
    # the B of generate_problem(100, 500, 1000, seed=1), drawn in its order
    rng = np.random.default_rng(1)
    rng.standard_normal((100, 1000))
    B = _CountingMap(rng.standard_normal((500, 1000)))
    est = operator_norm(B)
    assert B.products <= 200
    oracle = np.linalg.svd(B.matrix, compute_uv=False)[0]
    assert abs(est - oracle) <= 1e-11 * oracle


def test_identity_map():
    I = identity(3)
    v = np.array([1.0, -2.0, 0.5])
    np.testing.assert_array_equal(I.apply(v), v)
    assert I.in_dim == I.out_dim == 3


def test_linear_map_rejects_bad_input():
    with pytest.raises(ValueError):
        LinearMap(np.ones(3))
    with pytest.raises(ValueError):
        LinearMap([[1.0, np.inf]])
