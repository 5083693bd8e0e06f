"""Likelihood on the tape, gradient checks and the optimizer loop."""

import importlib.util
import json
import os

import numpy as np
import pytest

from jdan import activations, copula, marginal
from jdan import autodiff as ad
from jdan.cli import main
from jdan.copula import joint_pdf, sample
from jdan.data import LoadSpec, load_csv
from jdan import training
from jdan.errors import (
    ConfigError,
    ContractError,
    DegenerateMarginalError,
    DomainError,
    EvaluationError,
    NonFiniteLossError,
    TrainingError,
)
from jdan.hypernet import (
    ArchitectureDescriptor,
    Forecaster,
    initialize_net,
    materialize,
    nfn_forward,
)
from jdan.metrics import log_score
from jdan.model_io import load_model, load_spec_from_doc
from jdan.numerics import sigmoid as np_sigmoid
from jdan.training import (
    LOG_EPS,
    TrainConfig,
    TrainReport,
    flat_parameters,
    grad_check,
    nll_grad,
    nll_loss,
    set_flat_parameters,
    train,
)

from conftest import unit_arch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# several tests use deliberately small datasets; the advisory warning about
# batch count is expected there and asserted explicitly in its own test
pytestmark = pytest.mark.filterwarnings("ignore:only .* samples:UserWarning")


def numpy_nll(net, arch, targets):
    model = materialize(net.raw, arch)
    dens = joint_pdf(model, targets)
    return float(np.mean(-np.log(dens + LOG_EPS)))


# one loop per test rather than parametrize keeps the test ids stable
ACTIVATIONS = ("sigmoid", "tanh", "linear", "relu", "exp")
SMOOTH = ("sigmoid", "tanh", "exp", "linear")  # finite differences fail at relu's kink


def test_nll_matches_numpy_path_unconditional():
    rng = np.random.default_rng(0)
    for activation in ACTIVATIONS:
        for dim in (2, 3):
            arch = unit_arch(dim=dim, hidden=(6,), activation=activation)
            net = initialize_net(arch, seed=1)
            targets = rng.uniform(0.05, 0.95, size=(40, dim))
            plain = numpy_nll(net, arch, targets)
            assert nll_loss(net, arch, targets) == pytest.approx(plain, abs=1e-12)
            tape, _ = nll_grad(net, arch, targets)
            assert tape == pytest.approx(plain, abs=1e-12), (activation, dim)


def test_nll_matches_numpy_path_conditional():
    rng = np.random.default_rng(1)
    for activation in ACTIVATIONS:
        for dim in (2, 3):
            arch = unit_arch(dim=dim, feature_dim=2, hyper=(8,), activation=activation)
            net = initialize_net(arch, seed=2)
            feats = rng.normal(size=(25, 2))
            targets = rng.uniform(0.05, 0.95, size=(25, dim))
            fc = Forecaster(net, arch)
            dens = np.array(
                [joint_pdf(fc.model_for(x), y) for x, y in zip(feats, targets)]
            )
            plain = float(np.mean(-np.log(dens + LOG_EPS)))
            assert nll_loss(net, arch, targets, feats) == pytest.approx(plain, abs=1e-12)
            tape, _ = nll_grad(net, arch, targets, feats)
            assert tape == pytest.approx(plain, abs=1e-12), (activation, dim)


def test_uniform_independent_model_has_zero_nll():
    # linear marginals on the unit box with zero correlation: density == 1
    arch = unit_arch(dim=2, hidden=(4,), activation="linear")
    net = initialize_net(arch, seed=0)
    net.raw[:] = 0.0
    rng = np.random.default_rng(3)
    targets = rng.uniform(size=(100, 2))
    assert nll_loss(net, arch, targets) == pytest.approx(-np.log(1.0 + LOG_EPS), abs=1e-12)


def test_known_density_value():
    # uniform margins, C = 0.5, all targets at the lower corner: density 1.5
    arch = unit_arch(dim=2, hidden=(4,), activation="linear")
    net = initialize_net(arch, seed=0)
    net.raw[:] = 0.0
    net.raw[-1] = np.arctanh(0.5)
    targets = np.zeros((7, 2))
    assert nll_loss(net, arch, targets) == pytest.approx(-np.log(1.5 + LOG_EPS), abs=1e-12)


def test_loss_lower_bound_from_density_cap():
    # copula density < 2 and these unit-box marginal densities stay modest,
    # so the NLL of any uniform-box model cannot be arbitrarily negative
    rng = np.random.default_rng(4)
    arch = unit_arch(dim=2, hidden=(6,))
    targets = rng.uniform(0.1, 0.9, size=(50, 2))
    for s in range(5):
        net = initialize_net(arch, seed=s)
        model = materialize(net.raw, arch)
        cap = float(np.max(joint_pdf(model, targets)))
        assert nll_loss(net, arch, targets) >= -np.log(cap + LOG_EPS) - 1e-12


def test_symmetric_batch_zeroes_correlation_gradient():
    # two points mirrored through the box center produce opposite copula
    # pulls, so the correlation coordinate of the gradient vanishes
    arch = unit_arch(dim=2, hidden=(4,), activation="linear")
    net = initialize_net(arch, seed=0)
    net.raw[:] = 0.0
    targets = np.array([[0.2, 0.2], [0.8, 0.8], [0.2, 0.8], [0.8, 0.2]])
    _, g = nll_grad(net, arch, targets)
    assert abs(g[-1]) <= 1e-12


def test_grad_scales_linearly_with_repeated_data():
    # mean-reduction: duplicating the batch leaves the gradient unchanged
    rng = np.random.default_rng(5)
    arch = unit_arch(dim=2, hidden=(4,))
    net = initialize_net(arch, seed=6)
    targets = rng.uniform(0.1, 0.9, size=(10, 2))
    _, g1 = nll_grad(net, arch, targets)
    _, g2 = nll_grad(net, arch, np.vstack([targets, targets]))
    np.testing.assert_allclose(g1, g2, rtol=1e-10, atol=1e-12)


def test_grad_check_healthy_unconditional():
    rng = np.random.default_rng(6)
    for activation in SMOOTH:
        arch = unit_arch(dim=2, hidden=(5,), activation=activation)
        net = initialize_net(arch, seed=7)
        targets = rng.uniform(0.1, 0.9, size=(20, 2))
        worst = grad_check(net, arch, targets)
        assert worst <= 1e-4, activation


def test_grad_check_healthy_conditional():
    rng = np.random.default_rng(7)
    for activation in SMOOTH:
        arch = unit_arch(dim=2, feature_dim=1, hyper=(6,), activation=activation)
        net = initialize_net(arch, seed=8)
        feats = rng.normal(size=(15, 1))
        targets = rng.uniform(0.1, 0.9, size=(15, 2))
        worst = grad_check(net, arch, targets, feats, max_coords=40, seed=0)
        assert worst <= 1e-4, activation


def test_grad_check_detects_bad_step_size():
    # a huge FD step is a broken oracle; the reported discrepancy must grow
    rng = np.random.default_rng(8)
    arch = unit_arch(dim=2, hidden=(5,))
    net = initialize_net(arch, seed=9)
    targets = rng.uniform(0.1, 0.9, size=(20, 2))
    good = grad_check(net, arch, targets, h=1e-5)
    coarse = grad_check(net, arch, targets, h=0.5)
    assert coarse > 10 * good


def take(a, idx):
    """a[idx] as a tape node; idx selects no entry twice."""
    av = ad.value(a)

    def scatter(g):
        full = np.zeros_like(av)
        full[idx] = g
        return full

    return ad.custom(a, av[idx], scatter)


def reciprocal(a):
    out = 1.0 / ad.value(a)
    return ad.custom(a, out, lambda g: -g * out * out)


def softplus(a):
    av = ad.value(a)
    return ad.custom(a, np.logaddexp(0.0, av), lambda g: g * np_sigmoid(av))


def tanh(a):
    """The correlation squash with a slope of its own, none shared with ``combine_adjoint``."""
    out = np.tanh(ad.value(a))
    return ad.custom(a, out, lambda g: g * (1.0 - out * out))


# z'(pre) on the tape, from z = activations.apply(kind, pre); relu's step is a constant
TAPED_SLOPE = {
    "sigmoid": lambda pre, z: ad.mul(z, ad.add(1.0, -z)),
    "tanh": lambda pre, z: ad.add(1.0, -ad.mul(z, z)),
    "linear": lambda pre, z: 1.0,
    "relu": lambda pre, z: (ad.value(pre) > 0).astype(np.float64),
    "exp": lambda pre, z: z,
}


def taped_density(raw, arch, targets):
    """The joint density at in-box targets, (n,), on the generic tape from the raw block.

    An implementation of its own, sharing no code with ``normalize`` or ``combine``:
    each marginal net runs over [L, U, y] with its derivative chain on the tape, and
    F = (psi(y) - psi(L)) / span, f = psi'(y) / span feed the pair-mean combiner.
    A raw vector (P,) is one shared set, a block (n, P) a set per target row.
    """
    spans, (c0, c1) = arch.partition()
    lead, n = raw.shape[:-1], len(targets)
    cdfs, pdfs = [], []
    for d, (w_spans, b_spans) in enumerate(spans):
        ends = [arch.bounds[d].lower, arch.bounds[d].upper]
        a = (np.column_stack([np.tile(ends, (n, 1)), targets[:, d]])[..., None] if lead
             else np.concatenate([ends, targets[:, d]])[:, None])
        dy = np.ones(a.shape)
        for k, ((i, j, shape), (bi, bj)) in enumerate(zip(w_spans, b_spans)):
            w = ad.add(softplus(ad.reshape(take(raw, (..., slice(i, j))), lead + shape)),
                       marginal.WEIGHT_EPS)
            pre, e = ad.affine(a, w, take(raw, (..., slice(bi, bj)))), ad.affine(dy, w)
            if k == len(w_spans) - 1:
                a, dy = pre, e
            else:
                a = activations.apply(arch.activations[d], pre)
                dy = ad.mul(TAPED_SLOPE[arch.activations[d]](pre, a), e)
        psi, dpsi = (ad.reshape(v, a.shape[:-1]) for v in (a, dy))
        lower = take(psi, (..., slice(0, 1)))
        inv = reciprocal(ad.add(take(psi, (..., slice(1, 2))), -lower))
        cdfs.append(ad.reshape(ad.mul(ad.add(take(psi, (..., slice(2, None))), -lower), inv), (n,)))
        pdfs.append(ad.reshape(ad.mul(take(dpsi, (..., slice(2, None))), inv), (n,)))
    c = tanh(take(raw, (..., slice(c0, c1))))
    v = [ad.add(1.0, ad.mul(f, -2.0)) for f in cdfs]
    pairs = copula.pair_indices(arch.dim)
    total = 0.0
    for k, (d, i) in enumerate(pairs):
        total = ad.add(total, ad.mul(take(c, (..., k)), ad.mul(v[d], v[i])))
    dens = ad.add(1.0, ad.mul(total, 1.0 / len(pairs)))
    for f in pdfs:
        dens = ad.mul(dens, f)
    return dens


def tape_gradient(net, arch, targets, features=None):
    """The gradient on the generic tape: nfn_forward, taped_density, -log(. + LOG_EPS), mean."""
    leaves = [ad.leaf(p) for p in net.parameters()]
    raw = nfn_forward(net.with_parameters(leaves), features)
    ad.backward(ad.mean(-ad.log(taped_density(raw, arch, targets) + LOG_EPS)))
    return np.concatenate([leaf.grad.reshape(-1) for leaf in leaves])


def adjoint_error(net, arch, targets, features=None):
    """Largest gap between nll_grad's gradient and the generic tape's, over its largest entry."""
    _, got = nll_grad(net, arch, targets, features)
    want = tape_gradient(net, arch, targets, features)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def test_density_adjoint_matches_the_generic_tape():
    rng = np.random.default_rng(16)
    for activation in ACTIVATIONS:
        for dim in (2, 3, 4):
            for hidden in ((5,), (4, 3)):
                for feature_dim in (0, 2):  # one shared parameter set, then a row per sample
                    arch = unit_arch(dim=dim, hidden=hidden, activation=activation,
                                     feature_dim=feature_dim, hyper=(6,))
                    net = initialize_net(arch, seed=17)
                    if feature_dim == 0:  # away from the near-linear start, so every term counts
                        net.raw[:] = rng.normal(0.0, 0.7, net.raw.shape)
                    feats = rng.normal(size=(30, 2)) if feature_dim else None
                    targets = rng.uniform(0.02, 0.98, size=(30, dim))
                    err = adjoint_error(net, arch, targets, feats)
                    assert err <= 1e-12, (activation, dim, hidden, feature_dim, err)


def _perfbench_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_training_step_builds_at_most_20_tape_nodes(monkeypatch):
    # the hypernet's nodes, one for the batch density and four for the loss, counted as
    # the benchmark counts autodiff.tensors_per_step
    with open(os.path.join(ROOT, "configs", "conditional_d2.json"), encoding="utf-8") as fh:
        cfg = json.load(fh)
    a = cfg["architecture"]
    arch = ArchitectureDescriptor(dim=2, bounds=cfg["bounds"],
                                  marginal_hidden=[a["marginal_hidden"]] * 2,
                                  activations=[a["activations"]] * 2, feature_dim=1,
                                  hypernet_hidden=a["hypernet_hidden"])
    rng = np.random.default_rng(18)
    graph_size, backward, sizes = _perfbench_tracing()._graph_size, ad.backward, []
    monkeypatch.setattr(ad, "backward",
                        lambda root: sizes.append(graph_size(root)) or backward(root))
    nll_grad(initialize_net(arch, seed=19), arch, rng.uniform(size=(128, 2)),
             rng.normal(size=(128, 1)))
    assert 0 < sizes[0] <= 20


def test_unconditional_training_loss_is_the_evaluation_loss():
    rng = np.random.default_rng(20)
    for activation in ACTIVATIONS:
        for dim in (2, 3):
            arch = unit_arch(dim=dim, hidden=(6,), activation=activation)
            net = initialize_net(arch, seed=21)
            net.raw[:] = rng.normal(0.0, 0.7, net.raw.shape)
            targets = rng.uniform(size=(50, dim))
            loss = nll_loss(net, arch, targets)
            assert loss == -log_score(Forecaster(net, arch), targets)[0], activation
            assert nll_grad(net, arch, targets)[0] == loss, activation


def test_conditional_training_loss_is_the_evaluation_loss():
    # training takes features already scaled; evaluation scales them itself
    fc, doc = load_model(os.path.join(ROOT, "runs", "conditional_d2_model.json"))
    ds = load_csv(os.path.join(ROOT, "data", "conditional_d2.csv"), load_spec_from_doc(doc))
    scaled = fc.feature_scaler.transform(ds.features)
    loss = nll_loss(fc.net, fc.arch, ds.targets, scaled)
    assert loss == -log_score(fc, ds.targets, ds.features)[0]


def test_adjoint_mutants_fail_grad_check_and_the_tape_oracle(monkeypatch):
    # the bundled uniform model with its correlation turned up, so that each term matters
    fc, _ = load_model(os.path.join(ROOT, "runs", "uniform_d2_model.json"))
    net, arch = fc.net, fc.arch
    net.raw[-1] = 1.0  # C = tanh(1), about 0.76
    targets = load_csv(os.path.join(ROOT, "data", "uniform_d2.csv"),
                       LoadSpec(target_columns=["y1", "y2"])).targets[:64]
    assert grad_check(net, arch, targets) <= 1e-4
    assert adjoint_error(net, arch, targets) <= 1e-12
    value, _, curvature = activations._TABLE["tanh"]
    mutants = {
        "no z'' in the derivative chain":
            lambda patch: patch.setattr(marginal, "_slope_adjoint", lambda *args: 0.0),
        "no (1 - C^2) in the table's tanh slope":
            lambda patch: patch.setitem(activations._TABLE, "tanh",
                                        (value, lambda x, z: 1.0, curvature)),
    }
    for name, mutate in mutants.items():
        with monkeypatch.context() as patch:
            mutate(patch)
            assert grad_check(net, arch, targets) > 1e-4, name
            assert adjoint_error(net, arch, targets) > 1e-12, name


def test_flat_parameter_roundtrip():
    arch = unit_arch(dim=2, feature_dim=2, hyper=(5,))
    net = initialize_net(arch, seed=10)
    vec = flat_parameters(net)
    set_flat_parameters(net, vec * 2.0)
    np.testing.assert_array_equal(flat_parameters(net), vec * 2.0)
    with pytest.raises(ContractError):
        set_flat_parameters(net, vec[:-1])


def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=0)
    with pytest.raises(ConfigError):
        TrainConfig(validation_fraction=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(patience=-1)
    for bad in ({"batch_size": 64.0}, {"max_epochs": 2.5}, {"patience": 1.5},
                {"patience": True}, {"learning_rate": float("nan")},
                {"learning_rate": float("inf")}, {"grad_clip": float("nan")}):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)
    TrainConfig(batch_size=np.int64(64), grad_clip=float("inf"))  # numpy counts; no clipping


def test_train_config_rejects_negative_seed():
    # numpy's SeedSequence takes no negative entropy
    with pytest.raises(ConfigError):
        TrainConfig(seed=-3)


def test_train_is_bitwise_deterministic():
    rng = np.random.default_rng(9)
    arch = unit_arch(dim=2, hidden=(4,))
    targets = rng.uniform(size=(300, 2))
    cfg = TrainConfig(max_epochs=5, batch_size=64, seed=3)
    net1, rep1 = train(arch, targets, config=cfg)
    net2, rep2 = train(arch, targets, config=cfg)
    np.testing.assert_array_equal(flat_parameters(net1), flat_parameters(net2))
    assert rep1.train_nll == rep2.train_nll
    assert rep1.val_nll == rep2.val_nll


def test_train_seed_changes_split_and_init():
    rng = np.random.default_rng(10)
    arch = unit_arch(dim=2, hidden=(4,))
    targets = rng.uniform(size=(300, 2))
    net1, _ = train(arch, targets, config=TrainConfig(max_epochs=3, seed=0))
    net2, _ = train(arch, targets, config=TrainConfig(max_epochs=3, seed=1))
    assert not np.array_equal(flat_parameters(net1), flat_parameters(net2))


def test_train_improves_on_correlated_data():
    gen = unit_arch(dim=2, hidden=(4,), activation="linear")
    gnet = initialize_net(gen, seed=0)
    gnet.raw[:] = 0.0
    gnet.raw[-1] = np.arctanh(0.6)
    data = sample(materialize(gnet.raw, gen), 1500, seed=5)

    arch = unit_arch(dim=2, hidden=(6,))
    cfg = TrainConfig(max_epochs=40, batch_size=128, learning_rate=0.01, seed=1, patience=10)
    net, report = train(arch, data, config=cfg)
    assert report.val_nll[-1] <= report.val_nll[0] - 0.005
    fitted = materialize(net.raw, arch)
    c = float(fitted.correlations.effective()[0])
    assert 0.05 < c < 0.95  # right sign, sane magnitude


def test_train_report_invariants():
    rng = np.random.default_rng(11)
    arch = unit_arch(dim=2, hidden=(4,))
    targets = rng.uniform(size=(256, 2))
    cfg = TrainConfig(max_epochs=6, batch_size=64, seed=2, patience=2)
    _, report = train(arch, targets, config=cfg)
    assert isinstance(report, TrainReport)
    # one entry per completed epoch; the epoch-0 baseline lives only in
    # best_validation_nll (best_epoch == 0 when no epoch beats the init)
    assert len(report.val_nll) == report.stopped_epoch
    assert len(report.train_nll) == report.stopped_epoch
    assert report.best_validation_nll <= min(report.val_nll) + 1e-15
    assert 0 <= report.best_epoch <= report.stopped_epoch
    if report.best_epoch >= 1:
        assert report.val_nll[report.best_epoch - 1] == report.best_validation_nll
    assert report.wall_time > 0


def test_early_stop_restores_best_parameters():
    rng = np.random.default_rng(12)
    arch = unit_arch(dim=2, hidden=(4,))
    targets = rng.uniform(size=(240, 2))
    # aggressive learning rate forces val to bounce, exercising the restore
    cfg = TrainConfig(max_epochs=30, batch_size=32, learning_rate=0.2, seed=4, patience=3)
    net, report = train(arch, targets, config=cfg)
    # reconstruct the validation split exactly as train() does
    ss = np.random.SeedSequence(cfg.seed)
    split_rng = np.random.default_rng(ss.spawn(3)[0])
    perm = split_rng.permutation(targets.shape[0])
    n_val = max(1, round(cfg.validation_fraction * targets.shape[0]))
    val = targets[perm[:n_val]]
    got = nll_loss(net, arch, val)
    assert got == pytest.approx(report.best_validation_nll, abs=1e-9)


def test_small_dataset_warns():
    rng = np.random.default_rng(13)
    arch = unit_arch(dim=2, hidden=(4,))
    targets = rng.uniform(size=(30, 2))
    cfg = TrainConfig(max_epochs=1, batch_size=64, seed=0)
    with pytest.warns(UserWarning, match="samples"):
        train(arch, targets, config=cfg)


def test_out_of_bounds_target_is_contract_error():
    arch = unit_arch(dim=2, hidden=(4,))
    net = initialize_net(arch, seed=0)
    bad = np.array([[0.5, 1.5]])
    with pytest.raises(ContractError):
        nll_loss(net, arch, bad)


def test_nonfinite_loss_reports_sample_and_training_recovers():
    arch = unit_arch(dim=2, hidden=(4,))
    net = initialize_net(arch, seed=0)
    targets = np.array([[0.5, 0.5], [np.nan, 0.5]])
    with pytest.raises((NonFiniteLossError, ContractError)):
        nll_loss(net, arch, targets)


def test_training_error_carries_report(monkeypatch):
    # blow up the optimizer with an absurd learning rate on a tiny batch: the
    # first step flattens or overflows a marginal, and train stops with its
    # report; a linear model may survive, and then it must finish cleanly
    rng = np.random.default_rng(14)
    targets = rng.uniform(size=(64, 2))
    cfg = TrainConfig(max_epochs=50, batch_size=8, learning_rate=1e6, seed=0)
    for activation in ("sigmoid", "tanh", "exp", "relu"):
        arch = unit_arch(dim=2, hidden=(4,), activation=activation)
        with np.errstate(over="ignore"), pytest.raises(TrainingError) as err:
            train(arch, targets, config=cfg)
        report = err.value.report
        assert isinstance(report, TrainReport), activation
        assert report.stopped_epoch == 1
        assert np.isfinite(report.best_validation_nll)
    arch = unit_arch(dim=2, hidden=(4,), activation="linear")
    try:
        _, report = train(arch, targets, config=cfg)
    except TrainingError as err:
        report = err.report
    assert isinstance(report, TrainReport)
    assert np.isfinite(report.best_validation_nll)
    # every error the evaluation kernel raises ends the same way
    for error in (EvaluationError, DegenerateMarginalError, DomainError, NonFiniteLossError):
        def broken(*args, error=error):
            raise error("broken step")

        monkeypatch.setattr(training, "nll_grad", broken)
        with pytest.raises(TrainingError) as err:
            train(arch, targets, config=cfg)
        assert isinstance(err.value.__cause__, error)
        assert err.value.report.stopped_epoch == 1



def test_write_history_csv(tmp_path):
    # the CLI writes the history; its rows must be the report of the same fit
    rng = np.random.default_rng(15)
    targets = rng.uniform(size=(200, 2))
    rows = "\n".join(f"{a:.10f},{b:.10f}" for a, b in targets)
    (tmp_path / "train.csv").write_text("y1,y2\n" + rows + "\n", encoding="utf-8")
    config = {
        "seed": 3,
        "data": {"path": "train.csv", "target_columns": ["y1", "y2"]},
        "bounds": [[0.0, 1.0], [0.0, 1.0]],
        "architecture": {"marginal_hidden": [4]},
        "training": {"learning_rate": 0.01, "batch_size": 64, "max_epochs": 3},
        "out": "model.json",
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(tmp_path / "config.json"), "--quiet"]) == 0

    ds = load_csv(str(tmp_path / "train.csv"), LoadSpec(target_columns=["y1", "y2"]))
    arch = ArchitectureDescriptor(dim=2, bounds=[(0.0, 1.0)] * 2, marginal_hidden=[[4], [4]])
    _, report = train(arch, ds.targets, config=TrainConfig(
        seed=3, learning_rate=0.01, batch_size=64, max_epochs=3))
    lines = (tmp_path / "model_history.csv").read_text().strip().splitlines()
    assert lines[0] == "epoch,train_nll,val_nll"
    assert len(lines) == report.stopped_epoch + 1  # header + one row per epoch
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == [str(i) for i in range(1, report.stopped_epoch + 1)]
    assert [float(r[1]) for r in rows] == report.train_nll
    assert [float(r[2]) for r in rows] == report.val_nll
