"""Oracles for the sampler's unit-cube stage, the exact conditional inversion.

The map v -> u from uniforms to copula points is a change of variables: it
draws from the copula density c exactly when |det(du/dv)| * c(u) = 1
everywhere. The tests check that identity by central differences, the D = 2
conditional CDF against the combiner itself, saturated correlations, and that
a row's points do not depend on the rows drawn beside it.
"""

import numpy as np
import pytest

from jdan.copula import (
    CorrelationParams,
    _conditional_inverse,
    copula_cdf,
    copula_density,
    n_pairs,
    sample,
)
from jdan.hypernet import materialize

from conftest import random_model, unit_arch


def interior_uniforms(rng, rows, n, dim):
    return 0.02 + 0.96 * rng.random((rows, n, dim))


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_inversion_jacobian_times_density_is_one(dim):
    rng = np.random.default_rng(dim)
    corr = CorrelationParams(raw=rng.normal(0.0, 1.5, size=n_pairs(dim)))
    v = interior_uniforms(rng, 1, 200, dim)
    h = 1e-6
    jac = np.empty((200, dim, dim))
    for j in range(dim):
        step = np.zeros(dim)
        step[j] = h
        jac[:, :, j] = (_conditional_inverse(corr, v + step)[0]
                        - _conditional_inverse(corr, v - step)[0]) / (2.0 * h)
    u = _conditional_inverse(corr, v)[0]
    assert np.all((u > 0.0) & (u < 1.0))
    np.testing.assert_allclose(np.linalg.det(jac) * copula_density(corr, u), 1.0, atol=1e-6)


def test_second_coordinate_inverts_the_conditional_cdf():
    # for D = 2 the conditional CDF of u2 given u1 is dC(u1, u2)/du1, and C is
    # quadratic in u1, so the central difference is exact up to rounding
    rng = np.random.default_rng(7)
    for raw in (-2.0, -0.3, 0.0, 0.8, 3.0):
        corr = CorrelationParams(raw=[raw])
        v = interior_uniforms(rng, 1, 100, 2)
        u = _conditional_inverse(corr, v)[0]
        np.testing.assert_array_equal(u[:, 0], v[0, :, 0])
        h = 1e-4
        dc = (copula_cdf(corr, u + [h, 0.0]) - copula_cdf(corr, u - [h, 0.0])) / (2.0 * h)
        np.testing.assert_allclose(dc, v[0, :, 1], atol=1e-9)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_saturated_correlations_draw_finite_points_in_the_box(dim):
    rng = np.random.default_rng(20 + dim)
    patterns = [np.full(n_pairs(dim), 40.0), np.full(n_pairs(dim), -40.0),
                40.0 * rng.choice([-1.0, 1.0], size=n_pairs(dim))]
    shared, _ = random_model(rng, dim)
    arch = unit_arch(dim, hidden=(4,))
    block = materialize(rng.normal(size=(3, arch.param_count())), arch)
    block.correlations = CorrelationParams(raw=np.stack(patterns))
    draws = [sample(block, 2000, seed=[1, 2, 3])]
    for raw in patterns:
        shared.correlations = CorrelationParams(raw=raw)
        draws.append(sample(shared, 2000, seed=4))
    for model, d in zip([block] + [shared] * 3, draws):
        assert np.all(np.isfinite(d))
        assert np.all((d >= model.box_lower()) & (d <= model.box_upper()))


def test_per_row_unit_cube_rows_equal_one_row_calls():
    rng = np.random.default_rng(11)
    raw = rng.normal(0.0, 2.0, size=(4, n_pairs(4)))
    v = np.stack([np.random.default_rng(s).uniform(size=(300, 4)) for s in range(4)])
    block = _conditional_inverse(CorrelationParams(raw=raw), v)
    for r in range(4):
        np.testing.assert_array_equal(
            block[r], _conditional_inverse(CorrelationParams(raw=raw[r:r + 1]), v[r:r + 1])[0])
        np.testing.assert_array_equal(
            block[r], _conditional_inverse(CorrelationParams(raw=raw[r]), v[r:r + 1])[0])
