"""The Simpson and Kronrod rules: exact on their polynomials, and each row reduced on its own."""

import numpy as np
import pytest

from jdan import numerics
from jdan.numerics import composite_simpson, kronrod, simpson


def test_simpson_is_exact_on_cubics():
    rng = np.random.default_rng(0)
    coef = rng.normal(size=(6, 4))
    lo, hi = rng.uniform(-2.0, 0.0, 6), rng.uniform(0.5, 3.0, 6)
    nodes = np.linspace(lo, hi, 9, axis=-1)  # 8 subintervals per row
    values = sum(coef[:, k, None] * nodes**k for k in range(4))
    exact = sum(coef[:, k] * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k in range(4))
    np.testing.assert_allclose(simpson(values, (hi - lo) / 8), exact, rtol=1e-13, atol=1e-13)
    for c, a, b, want in zip(coef, lo, hi, exact):
        got = composite_simpson(np.polynomial.Polynomial(c), a, b, 3)  # 3 is rounded up to 4
        assert got == pytest.approx(want, rel=1e-13, abs=1e-13)


@pytest.mark.parametrize("rows", [1, 2, 7, 300])
@pytest.mark.parametrize("nodes", [3, 129, 1025])
def test_simpson_rows_do_not_depend_on_their_neighbours(rows, nodes):
    rng = np.random.default_rng(rows * nodes)
    block = rng.random((rows, 2 * nodes))
    h = rng.random(rows)
    for values in (block[:, :nodes], block[:, nodes:] ** 2):  # a view and a fresh array
        stacked = simpson(values, h)
        for i in range(rows):
            assert stacked[i] == simpson(values[i], h[i])
            assert stacked[i] == simpson(values[i:i + 1], h[i:i + 1])[0]
    deep = rng.random((rows, 3, nodes))
    stacked = simpson(deep, 0.25)
    assert all(stacked[i, j] == simpson(deep[i, j], 0.25) for i in range(rows) for j in range(3))


def test_kronrod_constants_extend_the_7_point_gauss_rule():
    nodes, weights = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(numerics.KRONROD_NODES[1::2], nodes, rtol=0, atol=1e-15)
    np.testing.assert_allclose(numerics.GAUSS_WEIGHTS, weights, rtol=0, atol=1e-15)


@pytest.mark.parametrize("k", range(23))
def test_kronrod_is_exact_on_monomials_to_degree_22(k):
    exact = (1.0 - (-1.0) ** (k + 1)) / (k + 1)
    got = np.dot(numerics.KRONROD_WEIGHTS, numerics.KRONROD_NODES ** k)
    assert abs(got - exact) <= 1e-15


@pytest.mark.parametrize("panels", [1, 2, 64])
def test_kronrod_rows_do_not_depend_on_their_neighbours(panels):
    rng = np.random.default_rng(panels)
    a, b = rng.uniform(-1.0, 0.0, 5), rng.uniform(0.5, 2.0, 5)
    shapes = []
    value, err = kronrod(lambda t: shapes.append(t.shape) or np.cos(3.0 * t), a, b, panels)
    assert shapes == [(5, 15 * panels)]
    np.testing.assert_allclose(value, (np.sin(3.0 * b) - np.sin(3.0 * a)) / 3.0, atol=1e-13)
    for i in range(5):
        alone = kronrod(lambda t: np.cos(3.0 * t), a[i:i + 1], b[i:i + 1], panels)
        assert (alone[0][0], alone[1][0]) == (value[i], err[i])
