"""Multi-input positive-weighted nets: monotone yes, mixed partials no."""

import numpy as np
import pytest

from jdan.errors import ContractError
from jdan.marginal import positivity_map
from jdan.miso import MisoNetParams, Witness, find_negative_witness, miso_mixed_partial
from jdan.numerics import sigmoid

from conftest import miso_forward, miso_grad


def two_layer(rng, dim=2, hidden=4, activation="sigmoid"):
    return MisoNetParams(
        layer_sizes=[dim, hidden, 1],
        raw_weights=[rng.standard_normal((hidden, dim)), rng.standard_normal((1, hidden))],
        biases=[rng.standard_normal(hidden), rng.standard_normal(1)],
        activations=[activation, activation],
    )


def fd_grad(params, y, h=1e-6):
    g = np.empty(params.dim)
    for d in range(params.dim):
        e = np.zeros(params.dim)
        e[d] = h
        g[d] = (miso_forward(params, y + e) - miso_forward(params, y - e)) / (2 * h)
    return g


def fd_mixed(params, y, p, q, h=1e-4):
    """4-point cross stencil for d2 out / dy_p dy_q."""
    ep = np.zeros(params.dim)
    eq = np.zeros(params.dim)
    ep[p] = h
    eq[q] = h
    return (
        miso_forward(params, y + ep + eq)
        - miso_forward(params, y + ep - eq)
        - miso_forward(params, y - ep + eq)
        + miso_forward(params, y - ep - eq)
    ) / (4 * h * h)


def test_forward_hand_value_zero_raw():
    # [2,1,1], all raw 0, sigmoid hidden + linear output, y = 0:
    # hidden pre-act 0 -> 0.5, output = w * 0.5 with w = ln2 + 1e-6
    params = MisoNetParams(
        layer_sizes=[2, 1, 1],
        raw_weights=[np.zeros((1, 2)), np.zeros((1, 1))],
        biases=[np.zeros(1), np.zeros(1)],
        activations=["sigmoid", "linear"],
    )
    w = positivity_map(0.0)
    assert miso_forward(params, np.zeros(2)) == pytest.approx(0.5 * w, rel=1e-12)
    assert miso_forward(params, np.zeros(2)) == pytest.approx(0.3465736, abs=1e-5)
    # with a sigmoid output layer the same net squashes that value once more
    squashed = MisoNetParams(
        layer_sizes=[2, 1, 1],
        raw_weights=[np.zeros((1, 2)), np.zeros((1, 1))],
        biases=[np.zeros(1), np.zeros(1)],
        activations=["sigmoid", "sigmoid"],
    )
    assert miso_forward(squashed, np.zeros(2)) == pytest.approx(float(sigmoid(0.5 * w)), rel=1e-12)


def test_forward_batch_matches_loop():
    rng = np.random.default_rng(0)
    params = two_layer(rng, dim=3)
    pts = rng.uniform(-2, 2, size=(40, 3))
    batch = miso_forward(params, pts)
    single = np.array([miso_forward(params, p) for p in pts])
    np.testing.assert_allclose(batch, single, rtol=1e-14)


@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "linear", "relu", "exp"])
def test_monotone_in_every_coordinate(activation):
    rng = np.random.default_rng(1)
    for _ in range(20):
        params = two_layer(rng, dim=3, activation=activation)
        y = rng.uniform(-1, 1, size=3)
        base = miso_forward(params, y)
        for d in range(3):
            e = np.zeros(3)
            e[d] = 0.3
            assert miso_forward(params, y + e) >= base - 1e-12


def test_grad_positive_and_matches_fd():
    rng = np.random.default_rng(2)
    for _ in range(50):
        params = two_layer(rng, dim=3)
        y = rng.uniform(-2, 2, size=3)
        g = miso_grad(params, y)
        assert np.all(g > 0)
        fd = fd_grad(params, y)
        assert np.max(np.abs(g - fd) / np.maximum(np.abs(g), 1e-10)) <= 1e-5


def test_grad_positive_on_many_sigmoid_nets():
    rng = np.random.default_rng(3)
    for _ in range(300):
        params = two_layer(rng, dim=2)
        assert np.all(miso_grad(params, rng.uniform(-3, 3, size=2)) > 0)


def test_mixed_partial_symmetry():
    rng = np.random.default_rng(4)
    for _ in range(30):
        params = two_layer(rng, dim=4)
        y = rng.uniform(-2, 2, size=4)
        a = miso_mixed_partial(params, y, 0, 3)
        b = miso_mixed_partial(params, y, 3, 0)
        assert a == pytest.approx(b, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("activation", ["linear", "relu"])
def test_mixed_partial_identically_zero_for_piecewise_linear(activation):
    rng = np.random.default_rng(5)
    for _ in range(50):
        params = two_layer(rng, dim=2, activation=activation)
        y = rng.uniform(-2, 2, size=2)
        assert miso_mixed_partial(params, y, 0, 1) == 0.0


def test_mixed_partial_matches_fd_single():
    rng = np.random.default_rng(6)
    params = two_layer(rng, dim=2)
    y = np.array([0.3, -0.7])
    an = miso_mixed_partial(params, y, 0, 1)
    fd = fd_mixed(params, y, 0, 1, h=1e-4)
    assert abs(an - fd) <= 1e-4 * max(abs(an), 1.0)


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
def test_mixed_partial_matches_fd_sweep(activation):
    rng = np.random.default_rng(7)
    for _ in range(200):
        params = two_layer(rng, dim=3, activation=activation)
        y = rng.uniform(-2, 2, size=3)
        p, q = sorted(rng.choice(3, size=2, replace=False))
        an = miso_mixed_partial(params, y, int(p), int(q))
        fd = fd_mixed(params, y, int(p), int(q), h=1e-4)
        assert abs(an - fd) <= 1e-3 * max(abs(an), 1e-2)


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
def test_witness_found_for_curvature_flipping_activations(activation):
    w = find_negative_witness(seed=0, activation=activation)
    assert isinstance(w, Witness)
    assert w.value < -1e-8
    # the witness is reproducible and self-consistent
    again = miso_mixed_partial(w.params, w.y, w.p, w.q)
    assert again == pytest.approx(w.value, rel=1e-15)


@pytest.mark.parametrize("activation", ["linear", "relu", "exp"])
def test_no_witness_for_nonnegative_curvature_activations(activation):
    assert find_negative_witness(seed=0, max_trials=300, activation=activation) is None


def test_exp_mixed_partial_always_positive():
    # both terms of the closed form are products of positives when every
    # activation derivative is positive
    rng = np.random.default_rng(8)
    with np.errstate(over="ignore"):
        for _ in range(100):
            params = two_layer(rng, dim=2, activation="exp")
            v = miso_mixed_partial(params, rng.uniform(-1, 1, size=2), 0, 1)
            if np.isfinite(v):
                assert v > 0


def test_witness_search_deterministic():
    a = find_negative_witness(seed=11)
    b = find_negative_witness(seed=11)
    assert a.trial == b.trial and a.value == b.value
    np.testing.assert_array_equal(a.y, b.y)


def test_contract_errors():
    rng = np.random.default_rng(9)
    params = two_layer(rng, dim=2)
    with pytest.raises(ContractError):
        miso_mixed_partial(params, np.zeros(2), 0, 0)  # p == q
    with pytest.raises(ContractError):
        miso_mixed_partial(params, np.zeros(3), 0, 1)  # wrong point size
    with pytest.raises(ContractError):
        miso_forward(params, np.zeros(3))
    deep = MisoNetParams(
        layer_sizes=[2, 3, 3, 1],
        raw_weights=[np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((1, 3))],
        biases=[np.zeros(3), np.zeros(3), np.zeros(1)],
        activations=["sigmoid"] * 3,
    )
    with pytest.raises(ContractError):
        miso_mixed_partial(deep, np.zeros(2), 0, 1)  # closed form is two-layer only
    with pytest.raises(ContractError):
        find_negative_witness(seed=0, activation="swish")
