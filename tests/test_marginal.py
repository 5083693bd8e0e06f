"""Marginal CDF unit: positivity, monotonicity, normalization, inversion."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jdan import marginal
from jdan.copula import joint_pdf
from jdan.errors import (
    ContractError,
    DegenerateMarginalError,
    EvaluationError,
    InversionError,
)
from jdan.hypernet import materialize
from jdan.marginal import (
    Bounds,
    MarginalNetParams,
    _psi,
    inverse_cdf,
    normalize,
    normalized_cdf,
    normalized_pdf,
    positivity_map,
)
from jdan.numerics import composite_simpson

from conftest import central_fd, unit_arch

UNIT = Bounds(0.0, 1.0)


def forward(params, y, deriv=False):
    """Raw network output psi(y), or with deriv d psi / dy, shaped like y."""
    y = np.asarray(y, dtype=np.float64)
    psi, dpsi = _psi(params, params.effective_weights(), y.reshape(-1, 1), deriv)
    out = (dpsi if deriv else psi).reshape(y.shape)
    return float(out) if out.ndim == 0 else out


def tiny_net(raw=0.0, activation="sigmoid"):
    """One hidden unit: layer sizes [1, 1, 1]."""
    return MarginalNetParams(
        layer_sizes=[1, 1, 1],
        raw_weights=[np.full((1, 1), raw), np.full((1, 1), raw)],
        biases=[np.zeros(1), np.zeros(1)],
        activation=activation,
    )


def random_net(rng, hidden=(8,), scale=1.0, activation="sigmoid"):
    sizes = [1, *hidden, 1]
    return MarginalNetParams(
        layer_sizes=sizes,
        raw_weights=[rng.normal(0, scale, size=(b, a)) for a, b in zip(sizes, sizes[1:])],
        biases=[rng.normal(0, scale, size=b) for b in sizes[1:]],
        activation=activation,
    )


def test_positivity_map_values():
    assert positivity_map(0.0) == pytest.approx(np.log(2.0) + 1e-6, rel=1e-12)
    assert positivity_map(20.0) == pytest.approx(20.0 + 1e-6, rel=1e-7)
    assert positivity_map(-20.0) == pytest.approx(np.exp(-20.0) + 1e-6, rel=1e-6)


@settings(max_examples=300, deadline=None)
@given(st.floats(-700, 700, allow_nan=False))
def test_positivity_map_always_positive(raw):
    v = positivity_map(raw)
    assert v >= 1e-6
    assert np.isfinite(v)


def test_forward_hand_value_zero_raw():
    # [1,1,1] sigmoid net, all raw 0: psi(y) = w * sigmoid(w*y) with w = ln2 + 1e-6
    net = tiny_net(0.0)
    w = positivity_map(0.0)
    assert forward(net, 0.0) == pytest.approx(0.5 * w, rel=1e-12)
    assert forward(net, 0.0) == pytest.approx(0.3465736, abs=1e-5)
    assert forward(net, 0.0, deriv=True) == pytest.approx(0.25 * w * w, rel=1e-12)
    assert forward(net, 0.0, deriv=True) == pytest.approx(0.1201123, abs=1e-5)


def test_linear_net_is_affine_increasing():
    net = tiny_net(0.3, activation="linear")
    w = positivity_map(0.3)
    ys = np.linspace(-2, 2, 9)
    np.testing.assert_allclose(forward(net, ys), w * w * ys, rtol=1e-12, atol=1e-12)
    assert np.all(np.diff(forward(net, ys)) > 0)
    np.testing.assert_allclose(forward(net, ys, deriv=True), w * w, rtol=1e-12)


@pytest.mark.parametrize("activation", ["sigmoid", "tanh", "relu", "linear"])
def test_forward_monotone_random(activation):
    rng = np.random.default_rng(3)
    for _ in range(50):
        net = random_net(rng, activation=activation)
        y = np.sort(rng.uniform(-3, 3, size=20))
        vals = forward(net, y)
        assert np.all(np.diff(vals) >= -1e-12)


def test_d_forward_matches_fd():
    rng = np.random.default_rng(4)
    for _ in range(50):
        net = random_net(rng)
        y = float(rng.uniform(-2, 2))
        fd = central_fd(lambda t: forward(net, t), y, 1e-5)
        an = forward(net, y, deriv=True)
        assert abs(an - fd) <= 1e-5 * (1 + abs(an))


def test_normalized_cdf_endpoints_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        net = random_net(rng)
        b = Bounds(*np.sort(rng.uniform(-3, 3, size=2)))
        assert normalized_cdf(net, b.lower, b) == 0.0
        assert normalized_cdf(net, b.upper, b) == 1.0
        # clamping outside the support
        assert normalized_cdf(net, b.lower - 1.0, b) == 0.0
        assert normalized_cdf(net, b.upper + 1.0, b) == 1.0


def test_normalized_cdf_monotone_in_range():
    rng = np.random.default_rng(6)
    for _ in range(50):
        net = random_net(rng)
        y = np.linspace(0, 1, 101)
        f = normalized_cdf(net, y, UNIT)
        assert np.all(f >= 0) and np.all(f <= 1)
        assert np.all(np.diff(f) >= -1e-12)


def test_normalized_pdf_nonnegative_and_zero_outside():
    rng = np.random.default_rng(7)
    net = random_net(rng)
    y = np.linspace(-0.5, 1.5, 101)
    p = normalized_pdf(net, y, UNIT)
    assert np.all(p >= 0)
    assert np.all(p[y < 0] == 0.0)
    assert np.all(p[y > 1] == 0.0)


@pytest.mark.parametrize("activation", ["sigmoid", "tanh"])
def test_pdf_integrates_to_one(activation):
    rng = np.random.default_rng(8)
    for _ in range(20):
        net = random_net(rng, activation=activation)
        total = composite_simpson(lambda t: normalized_pdf(net, t, UNIT), 0.0, 1.0, 512)
        assert total == pytest.approx(1.0, abs=1e-4)


def test_composite_simpson_keeps_its_values():
    # the values composite_simpson gave before it wrapped numerics.simpson, at the
    # call site of test_pdf_integrates_to_one
    rng = np.random.default_rng(8)
    for activation in ("sigmoid", "tanh"):
        for _ in range(20):
            net = random_net(rng, activation=activation)
            y = normalized_pdf(net, np.linspace(0.0, 1.0, 513), UNIT)
            odd, even = y[1:-1:2].sum(), y[2:-1:2].sum()
            before = 1.0 / 512 / 3.0 * (y[0] + y[-1] + 4.0 * odd + 2.0 * even)
            got = composite_simpson(lambda t: normalized_pdf(net, t, UNIT), 0.0, 1.0, 512)
            assert abs(got - before) <= 1e-15


def test_pdf_matches_fd_of_cdf():
    rng = np.random.default_rng(9)
    for _ in range(30):
        net = random_net(rng)
        y = float(rng.uniform(0.05, 0.95))
        fd = central_fd(lambda t: normalized_cdf(net, t, UNIT), y, 1e-5)
        an = normalized_pdf(net, y, UNIT)
        assert abs(an - fd) <= 1e-5 * (1 + abs(an))


def test_uniform_case_inverse():
    net = tiny_net(0.3, activation="linear")  # affine => uniform on [0,1]
    assert inverse_cdf(net, 0.25, UNIT) == pytest.approx(0.25, abs=1e-9)
    assert inverse_cdf(net, 0.0, UNIT) == 0.0
    assert inverse_cdf(net, 1.0, UNIT) == 1.0


def test_inverse_roundtrip_random():
    rng = np.random.default_rng(10)
    for _ in range(20):
        net = random_net(rng)
        p = rng.uniform(size=50)
        y = inverse_cdf(net, p, UNIT)
        back = normalized_cdf(net, y, UNIT)
        assert np.max(np.abs(back - p)) <= 1e-9


def test_inverse_rejects_bad_probability():
    net = tiny_net()
    with pytest.raises(ContractError):
        inverse_cdf(net, 1.5, UNIT)
    with pytest.raises(ContractError):
        inverse_cdf(net, -0.1, UNIT)


@pytest.mark.parametrize("rows", [None, 3], ids=["shared", "per_row"])
def test_passes_through_the_net_per_call(rows, monkeypatch):
    # psi(L) and psi(U) ride in the one pass of every CDF and density call,
    # normalize's too
    arch = unit_arch(dim=2)
    raw = np.random.default_rng(0).normal(size=(rows or 1, arch.param_count()))
    model = materialize(raw if rows else raw[0], arch)
    m, b = model.marginals[0], model.bounds[0]
    y = np.linspace(0.1, 0.9, 12).reshape(rows, -1) if rows else np.linspace(0.1, 0.9, 12)
    pts = np.full((rows or 5, 2), 0.4)
    passes = []
    psi = marginal._psi
    monkeypatch.setattr(marginal, "_psi", lambda *a, **kw: passes.append(1) or psi(*a, **kw))
    for call, want in ((lambda: normalized_cdf(m, y, b), 1),
                       (lambda: normalized_pdf(m, y, b), 1),
                       (lambda: normalize(m, y, b), 1),
                       (lambda: joint_pdf(model, pts), model.dim)):
        passes.clear()
        call()
        assert len(passes) == want


def test_degenerate_marginal_raises():
    # hugely negative raw weights drive every effective weight to ~1e-6,
    # flattening psi below the 1e-12 span guard
    net = tiny_net(-50.0)
    with pytest.raises(DegenerateMarginalError):
        normalized_cdf(net, 0.5, UNIT)


def test_overflow_reports_layer():
    net = MarginalNetParams(
        layer_sizes=[1, 1, 1],
        raw_weights=[np.full((1, 1), 800.0), np.full((1, 1), 800.0)],
        biases=[np.zeros(1), np.zeros(1)],
        activation="exp",
    )
    with np.errstate(over="ignore"), pytest.raises(EvaluationError) as err:
        forward(net, 10.0)
    assert err.value.layer is not None


def test_shape_validation():
    with pytest.raises(ContractError):
        MarginalNetParams(
            layer_sizes=[1, 2, 1],
            raw_weights=[np.zeros((2, 1)), np.zeros((1, 1))],  # second layer wants (1,2)
            biases=[np.zeros(2), np.zeros(1)],
        )
    with pytest.raises(ContractError):
        Bounds(1.0, 1.0)


def test_inversion_error_on_cdf_cliff():
    # first-layer weight so large the sigmoid transition at y = 1 is narrower
    # than float spacing: the CDF jumps 0 -> 1 between adjacent floats, so no
    # y satisfies |F(y) - 0.25| <= tol and bisection must report its bracket
    net = MarginalNetParams(
        layer_sizes=[1, 1, 1],
        raw_weights=[np.full((1, 1), 1e18), np.zeros((1, 1))],
        biases=[np.full(1, -1e18), np.zeros(1)],
        activation="sigmoid",
    )
    b = Bounds(0.0, 2.0)
    with pytest.raises(InversionError) as err:
        inverse_cdf(net, 0.25, b)
    lo, hi = err.value.bracket
    assert b.lower <= lo <= hi <= b.upper
