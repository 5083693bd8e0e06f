"""Flat-vector <-> model bijection and the conditioning network."""

import os

import numpy as np
import pytest

from jdan.copula import n_pairs
from jdan.errors import ConfigError, ContractError, EvaluationError
from jdan.hypernet import (
    ArchitectureDescriptor,
    ConditioningNet,
    Forecaster,
    initialize_net,
    materialize,
    nfn_forward,
)
from jdan.marginal import Bounds, positivity_map
from jdan.model_io import load_model

from conftest import flatten, unit_arch


def test_param_count_hand_check():
    # per marginal [1,3,1]: layer 1 has 3 weights + 3 biases, layer 2 has
    # 3 weights + 1 bias => 10; dim 2 => 20 marginal params + 1 correlation
    arch = ArchitectureDescriptor(
        dim=2, bounds=[(0.0, 1.0)] * 2, marginal_hidden=[[3], [3]]
    )
    assert arch.param_count() == 2 * 10 + 1
    arch3 = ArchitectureDescriptor(
        dim=3, bounds=[(0.0, 1.0)] * 3, marginal_hidden=[[2, 2]] * 3
    )
    # [1,2,2,1]: weights 2+4+2=8, biases 2+2+1=5 => 13 each; + 3 pairs
    assert arch3.param_count() == 3 * 13 + 3


def test_partition_covers_vector_exactly():
    arch = unit_arch(dim=3, hidden=(4, 2))
    spans, corr_span = arch.partition()
    seen = np.zeros(arch.param_count(), dtype=int)
    for w_spans, b_spans in spans:
        for a, b, shape in w_spans:
            assert (b - a) == shape[0] * shape[1]
            seen[a:b] += 1
        for a, b in b_spans:
            seen[a:b] += 1
    a, b = corr_span
    seen[a:b] += 1
    assert b == arch.param_count()
    assert np.all(seen == 1)  # a partition: every index hit exactly once


def test_materialize_flatten_roundtrip():
    rng = np.random.default_rng(0)
    arch = unit_arch(dim=3, hidden=(5, 3))
    theta = rng.normal(size=arch.param_count())
    model = materialize(theta, arch)
    np.testing.assert_array_equal(flatten(model), theta)
    # and the other direction: model -> vector -> model gives equal params
    again = materialize(flatten(model), arch)
    for m1, m2 in zip(model.marginals, again.marginals):
        for w1, w2 in zip(m1.raw_weights, m2.raw_weights):
            np.testing.assert_array_equal(w1, w2)
    np.testing.assert_array_equal(
        model.correlations.raw, again.correlations.raw
    )


def test_zero_vector_gives_neutral_model():
    arch = unit_arch(dim=2, hidden=(4,))
    model = materialize(np.zeros(arch.param_count()), arch)
    w = positivity_map(0.0)
    for m in model.marginals:
        for eff in m.effective_weights():
            np.testing.assert_allclose(eff, w, rtol=1e-15)
    np.testing.assert_array_equal(model.correlations.effective(), np.zeros(1))


def test_materialize_respects_layer_shapes():
    arch = ArchitectureDescriptor(
        dim=2, bounds=[(0.0, 1.0), (-1.0, 2.0)], marginal_hidden=[[3], [2, 2]]
    )
    rng = np.random.default_rng(1)
    model = materialize(rng.normal(size=arch.param_count()), arch)
    assert [w.shape for w in model.marginals[0].raw_weights] == [(3, 1), (1, 3)]
    assert [w.shape for w in model.marginals[1].raw_weights] == [(2, 1), (2, 2), (1, 2)]
    assert model.bounds[1].lower == -1.0 and model.bounds[1].upper == 2.0


def test_materialize_size_mismatch():
    arch = unit_arch(dim=2)
    with pytest.raises(ContractError):
        materialize(np.zeros(arch.param_count() + 1), arch)


def test_materialize_rejects_non_finite_raw():
    arch = unit_arch(dim=2)
    for bad in (np.nan, np.inf):
        raw = np.zeros(arch.param_count())
        raw[-1] = bad
        with pytest.raises(ConfigError):
            materialize(raw, arch)
        with pytest.raises(ConfigError):
            materialize(np.stack([np.zeros_like(raw), raw]), arch)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_hypernet_output_is_an_evaluation_error():
    arch = unit_arch(dim=2, feature_dim=1, hyper=(8,))
    net = initialize_net(arch, seed=0)
    net.weights[-1][:] = 1e308  # finite, but eight sigmoid units overflow the sum
    fc = Forecaster(net, arch)
    with pytest.raises(EvaluationError):
        fc.model_for(np.array([[0.5], [1.0]]))


def test_architecture_validation():
    with pytest.raises(ContractError):
        ArchitectureDescriptor(dim=1, bounds=[(0.0, 1.0)])
    with pytest.raises(ContractError):
        ArchitectureDescriptor(dim=2, bounds=[(0.0, 1.0)])  # one bounds pair short
    with pytest.raises(ContractError):
        ArchitectureDescriptor(dim=2, bounds=[(0.0, 1.0)] * 2, marginal_hidden=[[0], [2]])
    with pytest.raises(ContractError):
        ArchitectureDescriptor(
            dim=2, bounds=[(0.0, 1.0)] * 2, activations=["sigmoid", "swish"]
        )
    with pytest.raises(ContractError):
        ArchitectureDescriptor(dim=2, bounds=[(0.0, 1.0)] * 2, feature_dim=-1)
    for hidden in ([[8.5], [2]], [[], [2]], [["8"], [2]]):
        with pytest.raises(ContractError):
            ArchitectureDescriptor(dim=2, bounds=[(0.0, 1.0)] * 2, marginal_hidden=hidden)
    for hyper in ([0], ["a"], [2.5], [True]):
        with pytest.raises(ContractError):
            ArchitectureDescriptor(dim=2, bounds=[(0.0, 1.0)] * 2, hypernet_hidden=hyper)


@pytest.mark.parametrize("folder", ["runs", "perfbench/models"])
def test_committed_model_documents_still_load(folder):
    root = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), folder)
    names = sorted(n for n in os.listdir(root) if n.endswith("_model.json"))
    assert names
    for name in names:
        fc, _ = load_model(os.path.join(root, name))
        x = np.zeros(fc.net.input_dim) if fc.conditional else None
        assert flatten(fc.model_for(x)).shape == (fc.arch.param_count(),)


def test_empty_feature_block_is_a_contract_error():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    fc, _ = load_model(os.path.join(root, "runs", "conditional_d2_model.json"))
    with pytest.raises(ContractError, match="at least one row"):
        fc.model_for(np.empty((0, fc.net.input_dim)))


def test_initialize_unconditional_deterministic():
    arch = unit_arch(dim=2)
    a = initialize_net(arch, seed=7)
    b = initialize_net(arch, seed=7)
    c = initialize_net(arch, seed=8)
    assert a.input_dim == 0
    np.testing.assert_array_equal(a.raw, b.raw)
    assert not np.array_equal(a.raw, c.raw)
    assert a.raw.size == arch.param_count()
    # small init: raw values near zero so the model starts near independence
    assert np.max(np.abs(a.raw)) < 1.0
    model = materialize(a.raw, arch)
    assert np.max(np.abs(model.correlations.effective())) < 0.5


def test_initialize_conditional_shapes():
    arch = unit_arch(dim=2, feature_dim=3, hyper=(8, 4))
    net = initialize_net(arch, seed=0)
    assert net.input_dim == 3
    assert net.layer_sizes == [3, 8, 4, arch.param_count()]
    assert [w.shape for w in net.weights] == [
        (8, 3),
        (4, 8),
        (arch.param_count(), 4),
    ]
    assert all(np.all(b == 0) for b in net.biases)


def test_nfn_forward_unconditional_ignores_features():
    arch = unit_arch(dim=2)
    net = initialize_net(arch, seed=3)
    np.testing.assert_array_equal(nfn_forward(net, None), net.raw)
    batch = nfn_forward(net, np.zeros((5, 0)))
    assert batch.shape == (5, net.raw.size)
    np.testing.assert_array_equal(batch[2], net.raw)


def test_nfn_forward_batch_matches_single():
    arch = unit_arch(dim=2, feature_dim=2)
    net = initialize_net(arch, seed=4)
    rng = np.random.default_rng(5)
    xs = rng.normal(size=(10, 2))
    batch = nfn_forward(net, xs)
    for i, x in enumerate(xs):
        np.testing.assert_array_equal(batch[i], nfn_forward(net, x))


def test_nfn_forward_feature_sensitivity():
    arch = unit_arch(dim=2, feature_dim=1)
    net = initialize_net(arch, seed=6)
    a = nfn_forward(net, np.array([0.0]))
    b = nfn_forward(net, np.array([1.0]))
    assert not np.array_equal(a, b)


def test_nfn_forward_rejects_bad_features():
    arch = unit_arch(dim=2, feature_dim=2)
    net = initialize_net(arch, seed=0)
    with pytest.raises(ContractError):
        nfn_forward(net, np.zeros(3))
    with pytest.raises(ContractError):
        nfn_forward(net, np.array([np.nan, 0.0]))
    with pytest.raises(ContractError, match="needs features"):
        nfn_forward(net, None)
    # an unconditional net refuses a feature column rather than dropping it
    net = initialize_net(unit_arch(dim=2), seed=0)
    for x in (np.zeros((5, 3)), np.zeros(3)):
        with pytest.raises(ContractError, match="no features"):
            nfn_forward(net, x)


def test_conditioning_net_validation():
    with pytest.raises(ContractError):
        ConditioningNet(input_dim=0)  # no raw vector
    with pytest.raises(ContractError):
        ConditioningNet(
            input_dim=2,
            layer_sizes=[3, 4],  # first size must equal input_dim
            weights=[np.zeros((4, 3))],
            biases=[np.zeros(4)],
        )
    with pytest.raises(ContractError):
        ConditioningNet(
            input_dim=2,
            layer_sizes=[2, 4],
            weights=[np.zeros((4, 3))],  # shape mismatch
            biases=[np.zeros(4)],
        )


def test_forecaster_modes():
    arch = unit_arch(dim=2)
    fc = Forecaster(initialize_net(arch, seed=1), arch)
    assert not fc.conditional
    m1 = fc.model_for()
    assert fc.model_for(np.zeros((4, 0))) is m1  # same fixed model instance
    for x in (np.array([3.0]), np.zeros((50, 3)), 3.0):  # a stray feature is refused
        with pytest.raises(ContractError, match="an unconditional forecaster takes no features"):
            fc.model_for(x)

    carch = unit_arch(dim=2, feature_dim=1)
    cfc = Forecaster(initialize_net(carch, seed=1), carch)
    assert cfc.conditional
    with pytest.raises(ContractError):
        cfc.model_for()  # conditional without features
    ma = cfc.model_for(np.array([0.0]))
    mb = cfc.model_for(np.array([0.5]))
    assert not np.array_equal(flatten(ma), flatten(mb))


def test_forecaster_rejects_output_size_mismatch():
    arch = unit_arch(dim=2)
    other = unit_arch(dim=3)
    net = initialize_net(other, seed=0)
    with pytest.raises(ContractError):
        Forecaster(net, arch)


def test_forecaster_applies_feature_scaler():
    from jdan.data import ColumnScaler

    arch = unit_arch(dim=2, feature_dim=1)
    net = initialize_net(arch, seed=2)
    scaler = ColumnScaler(shift=np.array([5.0]), scale=np.array([2.0]))
    fc = Forecaster(net, arch, feature_scaler=scaler)
    bare = Forecaster(net, arch)
    # scaled (x-5)/2 at x=7 equals unscaled at x=1
    np.testing.assert_array_equal(
        flatten(fc.model_for(np.array([7.0]))),
        flatten(bare.model_for(np.array([1.0]))),
    )


def test_forecaster_checks_the_feature_count_before_scaling():
    # a one-column block would broadcast against a two-column scaler
    from jdan.data import ColumnScaler

    arch = unit_arch(dim=2, feature_dim=2)
    scaler = ColumnScaler(shift=np.array([0.0, 1.0]), scale=np.array([1.0, 2.0]))
    fc = Forecaster(initialize_net(arch, seed=2), arch, feature_scaler=scaler)
    for x in (np.array([0.5]), np.zeros((4, 1)), np.zeros((4, 3))):
        with pytest.raises(ContractError, match="expected 2 features"):
            fc.model_for(x)


def test_pair_count_grows_with_dim():
    for dim in range(2, 7):
        arch = unit_arch(dim=dim)
        _, corr_span = arch.partition()
        assert corr_span[1] - corr_span[0] == n_pairs(dim)


def test_bounds_accept_dataclass_or_tuple():
    a1 = ArchitectureDescriptor(dim=2, bounds=[Bounds(0.0, 1.0), (0.0, 2.0)])
    assert isinstance(a1.bounds[1], Bounds)
    assert a1.bounds[1].upper == 2.0
