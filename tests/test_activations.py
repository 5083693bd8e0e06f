"""Activation tables: values, first/second derivatives, sign structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdan.activations import KINDS, apply, curvature, slope
from jdan.errors import ContractError, DomainError
from jdan.numerics import sigmoid

from conftest import central_fd

finite_x = st.floats(-10.0, 10.0, allow_nan=False)


def d1(kind, x):
    return slope(kind, x, apply(kind, x))


def d2(kind, x):
    return curvature(kind, x, apply(kind, x))


def test_tabulated_values():
    assert apply("sigmoid", 0.0) == 0.5
    assert apply("linear", 3.2) == 3.2
    assert apply("relu", -1.5) == 0.0
    assert d1("sigmoid", 0.0) == 0.25
    assert d1("linear", 7.0) == 1.0
    assert d1("tanh", 0.0) == 1.0
    assert d2("linear", 5.0) == 0.0
    assert d2("sigmoid", 0.0) == 0.0


def test_sigmoid_second_derivative_changes_sign():
    # the root cause of the multi-input impossibility: d2 is negative for
    # x > 0 and positive for x < 0
    assert d2("sigmoid", 1.0) < 0
    assert d2("sigmoid", -1.0) > 0
    s = apply("sigmoid", 1.0)
    assert d2("sigmoid", 1.0) == pytest.approx(s * (1 - s) * (1 - 2 * s), rel=1e-12)


def test_relu_subgradient_at_zero_is_zero():
    assert d1("relu", 0.0) == 0.0


def test_linear_relu_d2_exactly_zero_on_arrays():
    x = np.linspace(-10, 10, 1001)
    assert np.all(d2("linear", x) == 0.0)
    assert np.all(d2("relu", x) == 0.0)


def test_exp_all_derivatives_equal():
    x = np.linspace(-5, 5, 101)
    np.testing.assert_array_equal(apply("exp", x), np.exp(x))
    np.testing.assert_array_equal(d1("exp", x), np.exp(x))
    np.testing.assert_array_equal(d2("exp", x), np.exp(x))


@pytest.mark.parametrize("kind", KINDS)
def test_first_derivative_nonnegative_dense(kind):
    x = np.linspace(-10, 10, 4001)
    assert np.all(d1(kind, x) >= 0.0)


@pytest.mark.parametrize("kind", KINDS)
def test_d1_matches_central_fd(kind):
    rng = np.random.default_rng(0)
    for x in rng.uniform(-6, 6, size=200):
        if kind == "relu" and abs(x) < 2e-6:
            continue  # kink
        fd = central_fd(lambda t: apply(kind, t), x, 1e-6)
        assert abs(d1(kind, x) - fd) <= 1e-6 * (1 + abs(d1(kind, x)))


@pytest.mark.parametrize("kind", ["sigmoid", "tanh", "exp"])
def test_d2_matches_central_fd_of_d1(kind):
    rng = np.random.default_rng(1)
    for x in rng.uniform(-5, 5, size=200):
        fd = central_fd(lambda t: d1(kind, t), x, 1e-6)
        assert abs(d2(kind, x) - fd) <= 1e-5 * (1 + abs(d2(kind, x)))


def test_exp_higher_derivatives_nonnegative():
    # orders 3 and 4 by nested finite differences stay >= 0 (module invariant)
    x = np.linspace(-5, 5, 51)
    h = 1e-3
    d3 = (d2("exp", x + h) - d2("exp", x - h)) / (2 * h)
    d4 = (d2("exp", x + h) - 2 * d2("exp", x) + d2("exp", x - h)) / h**2
    assert np.all(d3 >= 0)
    assert np.all(d4 >= -1e-9)


@settings(max_examples=200, deadline=None)
@given(finite_x, st.sampled_from(KINDS))
def test_scalar_in_scalar_out(x, kind):
    for fn in (apply, d1, d2):
        v = fn(kind, x)
        assert np.ndim(v) == 0
        assert np.isfinite(v)


def test_unknown_kind_and_nonfinite_input():
    with pytest.raises(ContractError):
        apply("swish", 0.0)
    with pytest.raises(DomainError):
        apply("sigmoid", np.nan)
    with pytest.raises(DomainError):
        d1("tanh", np.inf)


def two_branch_sigmoid(x):
    """1/(1 + e^-x) where x >= 0 and e^x/(1 + e^x) elsewhere, one masked branch each."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("rows", [256, 16384])
def test_sigmoid_bitwise_equals_two_branch_formula(rows):
    extremes = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 36.7, -745.2]
    x = np.random.default_rng(rows).normal(scale=30.0, size=(rows, 10))
    x.flat[: len(extremes)] = extremes
    got, want = sigmoid(x), two_branch_sigmoid(x)
    assert got.shape == x.shape and got.dtype == np.float64
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    np.testing.assert_array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    # a 0-d input still gives an ndarray back
    for v in extremes:
        out = sigmoid(np.float64(v))
        assert isinstance(out, np.ndarray) and out.ndim == 0
        assert out.tobytes() == two_branch_sigmoid(v).tobytes() or np.isnan(v)
