"""Acceptance battery: ten end-to-end checks with quantitative oracles.

Each check prints one `[acceptance N] PASS/FAIL label: detail` line straight
to the terminal (bypassing capture, so the verdict is readable even when the
assert that follows fails) and enforces its wall-clock budget where one is
stated. Checks 1-4, 8 and 9 measure their invariants with the functions
`jdan verify` runs (``jdan.verify``), on random models and points of their
own, and hold the numbers to bounds of their own.
"""

import time

import numpy as np
import pytest

from jdan import copula
from jdan.cli import main
from jdan.copula import CorrelationParams, copula_cdf, sample
from jdan.hypernet import Forecaster, initialize_net, materialize
from jdan.miso import MisoNetParams, find_negative_witness, miso_mixed_partial
from jdan.model_io import save_model
from jdan.training import TrainConfig, grad_check, nll_loss, train
from jdan.verify import (
    cdf_range,
    face_cdf,
    fd_error,
    margin_error,
    mc_mass,
    min_monotone_diff,
    min_pdf,
    pit_ks,
    simpson_mass,
    spearman_gap,
)

from conftest import fgm_net, interior_points, miso_forward, miso_grad, random_model, unit_arch

pytestmark = pytest.mark.filterwarnings("ignore:only .* samples:UserWarning")


def _verdict(capfd, num, label, detail, t0, budget=None, **conditions):
    """Print the check's line, then assert each named condition and the budget where stated."""
    elapsed = time.perf_counter() - t0
    if budget is not None:
        conditions["within budget"] = elapsed < budget
    clock = f"{elapsed:.1f}s" + (f" / budget {budget:.0f}s" if budget else "")
    with capfd.disabled():
        print(f"[acceptance {num:2d}] {'PASS' if all(conditions.values()) else 'FAIL'} "
              f"{label}: {detail} ({clock})")
    for name, ok in conditions.items():
        assert ok, name


def test_01_joint_density_nonnegative(capfd):
    """1000 random models, D in {2,3,4,5}, 100 interior points each: pdf >= 0."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    lows = []
    for dim in (2, 3, 4, 5):
        for _ in range(250):
            model, _ = random_model(rng, dim=dim)
            lows.append(min_pdf(model, interior_points(rng, model, 100, margin=1e-6)))
    violations = sum(low < 0.0 for low in lows)
    _verdict(capfd, 1, "joint density nonnegative",
             f"{len(lows)} models x 100 pts, {violations} models below 0, "
             f"min pdf {min(lows):.3e}", t0, budget=60.0, nonnegative=violations == 0)


def test_02_density_matches_fd_mixed_partial(capfd):
    """Closed-form pdf vs 2^D-stencil mixed partial of the CDF, 200 draws per D."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = {}
    for dim in (2, 3, 4):
        w = 0.0
        for _ in range(40):
            model, _ = random_model(rng, dim=dim)
            w = max(w, fd_error(model, interior_points(rng, model, 5, margin=0.05)))
        worst[dim] = w
    _verdict(capfd, 2, "pdf equals FD mixed partial",
             "worst rel err " + ", ".join(f"D{d}: {e:.2e}" for d, e in worst.items()),
             t0, budget=30.0, fd_agrees=max(worst.values()) <= 1e-3)


def test_03_cdf_validity_battery(capfd):
    """Range, face/corner exactness, monotonicity, marginal consistency."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    bad = dict.fromkeys(["range", "lower-face", "corner", "monotone", "margin"], 0)
    n_pairs_checked = 0
    for dim, n_models in ((2, 15), (3, 15), (4, 10), (5, 10)):
        for _ in range(n_models):
            model, _ = random_model(rng, dim=dim)
            y1 = interior_points(rng, model, 200, margin=1e-9)
            y2 = y1 + rng.random(y1.shape) * (model.box_upper() - y1)
            lo, hi = cdf_range(model, np.vstack([y1, y2]))
            bad["range"] += lo < 0.0 or hi > 1.0
            bad["monotone"] += min_monotone_diff(model, y1, y2) < 0.0
            n_pairs_checked += len(y1)
            bad["lower-face"] += face_cdf(model, y1[0]) != 0.0  # exactly, each face through y1[0]
            bad["margin"] += margin_error(model, y1[1][:, None]) > 1e-12  # y_d = y1[1, d]
            bad["corner"] += margin_error(model, model.box_upper()[:, None]) > 1e-12
    _verdict(capfd, 3, "joint CDF validity", f"{n_pairs_checked} monotone pairs; models in "
             "violation: " + ", ".join(f"{k} {v}" for k, v in bad.items()), t0,
             all_pairs=n_pairs_checked == 10_000, valid=sum(bad.values()) == 0)


def test_04_density_normalization(capfd):
    """Joint pdf integrates to 1: tensor Simpson (D=2,3), Monte Carlo (D=4)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    totals = {}
    for dim, n in ((2, 64), (3, 48)):
        model, _ = random_model(rng, dim=dim)
        totals[dim] = simpson_mass(model, n)
    model, _ = random_model(rng, dim=4)
    lo, hi = model.box_lower(), model.box_upper()
    totals[4] = mc_mass(model, lo + (hi - lo) * np.random.default_rng(4044).random((1_000_000, 4)))
    _verdict(capfd, 4, "density normalization",
             ", ".join(f"D{d}: {v:.6f}" for d, v in sorted(totals.items())), t0, budget=120.0,
             d2=0.999 <= totals[2] <= 1.001, d3=0.999 <= totals[3] <= 1.001,
             d4=0.995 <= totals[4] <= 1.005)


def _fd_mixed(params, y, p, q, h=1e-4):
    ep = np.zeros(params.dim)
    eq = np.zeros(params.dim)
    ep[p] = h
    eq[q] = h
    return (miso_forward(params, y + ep + eq) - miso_forward(params, y + ep - eq)
            - miso_forward(params, y - ep + eq)
            + miso_forward(params, y - ep - eq)) / (4.0 * h * h)


def _random_miso(rng, act):
    hidden = int(rng.integers(2, 7))
    return MisoNetParams(
        layer_sizes=[3, hidden, 1],
        raw_weights=[rng.standard_normal((hidden, 3)), rng.standard_normal((1, hidden))],
        biases=[rng.standard_normal(hidden), rng.standard_normal(1)],
        activations=[act, act],
    )


def test_05_mixed_partial_trichotomy(capfd):
    """Sigmoid/tanh MISO nets flip mixed-partial sign; linear/relu/exp never do."""
    t0 = time.perf_counter()
    found_all = {}
    for act in ("sigmoid", "tanh"):
        wits = [find_negative_witness(seed=s, max_trials=10_000, activation=act)
                for s in range(5)]
        found_all[act] = all(
            w is not None and w.value < 0.0
            and miso_mixed_partial(w.params, w.y, w.p, w.q)
            == pytest.approx(w.value, rel=1e-12)
            for w in wits
        )
    none_found = {
        act: find_negative_witness(seed=0, max_trials=10_000, activation=act) is None
        for act in ("linear", "relu", "exp")
    }
    rng = np.random.default_rng(55)
    grad_positive = True
    for _ in range(1000):
        params = _random_miso(rng, "sigmoid")
        if not np.all(miso_grad(params, rng.uniform(-2, 2, size=3)) > 0.0):
            grad_positive = False
    worst_fd = 0.0
    kept = 0
    for act in ("sigmoid", "tanh"):
        draws = 0
        while draws < 100:
            params = _random_miso(rng, act)
            y = rng.uniform(-2, 2, size=3)
            p, q = sorted(int(i) for i in rng.choice(3, size=2, replace=False))
            an = miso_mixed_partial(params, y, p, q)
            if abs(an) < 1e-3:  # relative error needs a nonzero reference
                continue
            draws += 1
            kept += 1
            fd = _fd_mixed(params, y, p, q)
            worst_fd = max(worst_fd, abs(an - fd) / max(abs(an), abs(fd)))
    _verdict(capfd, 5, "mixed-partial trichotomy",
             f"witness sigmoid/tanh seeds 0-4: {found_all}, "
             f"none for {sorted(none_found)}: {all(none_found.values())}, "
             f"1000-net grad > 0: {grad_positive}, "
             f"FD worst rel {worst_fd:.2e} on {kept} draws", t0, budget=60.0,
             witnesses=all(found_all.values()), no_witness=all(none_found.values()),
             grad_positive=grad_positive, fd_agrees=worst_fd <= 1e-3)


def test_06_gradient_correctness(capfd):
    """Tape gradient vs central FD over 50 random configurations."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for k in range(50):
        dim = int(rng.integers(2, 5))
        hidden = (int(rng.integers(3, 9)),)
        fd_dim = int(rng.integers(0, 3)) if k % 2 else 0
        arch = unit_arch(dim, hidden, feature_dim=fd_dim)
        net = initialize_net(arch, seed=int(rng.integers(1_000_000)))
        # move off the near-zero init to a generic point in parameter space
        if fd_dim == 0:
            net.raw += rng.normal(0.0, 0.4, size=net.raw.shape)
        else:
            for p in net.parameters():
                p += rng.normal(0.0, 0.2, size=p.shape)
        targets = rng.uniform(0.08, 0.92, size=(12, dim))
        feats = rng.normal(size=(12, fd_dim)) if fd_dim else None
        worst = max(worst, grad_check(net, arch, targets, feats,
                                      max_coords=20, seed=k))
    _verdict(capfd, 6, "gradient correctness", f"50 configs, worst rel err {worst:.2e}", t0,
             budget=120.0, gradient_agrees=worst <= 1e-4)


def test_07_self_consistency_recovery(capfd):
    """Fit on model-generated data recovers the correlation and its NLL."""
    t0 = time.perf_counter()
    gen_net, gen_arch = fgm_net(2, 0.6)  # uniform margins, C = 0.6
    gen_model = materialize(gen_net.raw, gen_arch)
    data = sample(gen_model, 5000, seed=7001)

    arch = unit_arch(2, (8,))
    cfg = TrainConfig(learning_rate=0.01, batch_size=256, max_epochs=60,
                      patience=10, seed=7)
    net, rep = train(arch, data, config=cfg)
    c_hat = float(np.tanh(net.raw[-1]))
    # generator NLL on the same validation split train() carved out
    ss = np.random.SeedSequence(cfg.seed).spawn(3)
    perm = np.random.default_rng(ss[0]).permutation(len(data))
    n_val = max(1, int(round(cfg.validation_fraction * len(data))))
    gen_val_nll = nll_loss(gen_net, gen_arch, data[perm[:n_val]])
    gap = abs(rep.best_validation_nll - gen_val_nll)

    uniform = np.random.default_rng(7002).random((5000, 2))
    net2, rep2 = train(arch, uniform, config=cfg)
    c_null = float(np.tanh(net2.raw[-1]))
    _verdict(capfd, 7, "self-consistency recovery",
             f"C 0.6 -> {c_hat:.3f}, val NLL gap {gap:.4f}; "
             f"uniform -> C {c_null:.3f}, NLL {rep2.best_validation_nll:.4f}", t0, budget=300.0,
             c_recovered=0.45 <= c_hat <= 0.75, nll_gap=gap <= 0.1, null_c=abs(c_null) <= 0.1,
             null_nll=abs(rep2.best_validation_nll) <= 0.05)


def _sample_spearman():
    """Acceptance 8's sample check: (|rho - 0.3|, whether it is <= 0.05) for 20000 draws.

    rho is the sample Spearman rho at C = 0.9, and C/3 = 0.3 its target.
    Spearman is rank-based, so uniform margins are representative.
    """
    net, arch = fgm_net(2, 0.9)
    model = materialize(net.raw, arch)
    gap = spearman_gap(model, sample(model, 20_000, seed=88))
    return gap, gap <= 0.05


def test_08_spearman_identity(capfd):
    """Sample Spearman rho tracks C/3 (identity pre-verified by quadrature)."""
    t0 = time.perf_counter()
    raw = np.arctanh(0.9)
    # rho = 12 * double integral of the copula CDF - 3, midpoint rule
    n = 200
    u = (np.arange(n) + 0.5) / n
    uu, vv = np.meshgrid(u, u, indexing="ij")
    grid = np.column_stack([uu.reshape(-1), vv.reshape(-1)])
    cvals = copula_cdf(CorrelationParams(raw=np.array([raw])), grid)
    rho_int = 12.0 * float(cvals.mean()) - 3.0

    gap, sample_ok = _sample_spearman()
    _verdict(capfd, 8, "Spearman identity",
             f"quadrature rho {rho_int:.4f}, sample rho off by {gap:.4f}, target C/3 = 0.3",
             t0, budget=30.0, quadrature=abs(rho_int - 0.3) <= 1e-3, sample=sample_ok)


def test_08_sample_check_catches_flipped_dependence(monkeypatch):
    """A sampler that inverts under negated correlations fails acceptance 8's sample check."""
    assert _sample_spearman()[1]
    inverse = copula._conditional_inverse
    monkeypatch.setattr(copula, "_conditional_inverse",
                        lambda corr, v: inverse(CorrelationParams(raw=-corr.raw), v))
    gap, sample_ok = _sample_spearman()
    assert not sample_ok, gap


def test_09_pit_calibration_on_true_model(capfd):
    """PIT of self-generated data is uniform per dimension (99% KS band)."""
    t0 = time.perf_counter()
    crit = 1.63 / np.sqrt(2000)
    failing_seeds = 0
    worst = 0.0
    for s in range(20):
        rng = np.random.default_rng(900 + s)
        arch = unit_arch(2, (8,))
        net = initialize_net(arch, seed=s)
        net.raw[:] = rng.normal(0.0, 1.0, size=net.raw.size)
        model = materialize(net.raw, arch)
        ks = pit_ks(model, sample(model, 2000, seed=9000 + s))  # the worse dimension's
        worst = max(worst, ks)
        failing_seeds += int(ks > crit)
    _verdict(capfd, 9, "PIT calibration",
             f"{failing_seeds} of 20 seeds beyond KS {crit:.4f} (worst {worst:.4f})", t0,
             budget=60.0, calibrated=failing_seeds <= 1)


def test_10_determinism(capfd, tmp_path):
    """Same config/seed: bitwise-equal training NLLs and sample CSVs."""
    t0 = time.perf_counter()
    data = np.random.default_rng(101).random((600, 2))
    arch = unit_arch(2, (6,))
    cfg = TrainConfig(learning_rate=0.01, batch_size=128, max_epochs=6,
                      patience=6, seed=3)
    _, r1 = train(arch, data, config=cfg)
    _, r2 = train(arch, data, config=cfg)
    train_same = r1.train_nll == r2.train_nll and r1.val_nll == r2.val_nll

    arch2 = unit_arch(2, (4,))
    net = initialize_net(arch2, seed=9)
    net.raw += np.random.default_rng(9).normal(0.0, 0.5, size=net.raw.size)
    model_path = tmp_path / "model.json"
    save_model(str(model_path), Forecaster(net, arch2))
    outs = (tmp_path / "s1.csv", tmp_path / "s2.csv")
    codes = [main(["sample", "--model", str(model_path), "-n", "500",
                   "--seed", "11", "--out", str(out), "--quiet"])
             for out in outs]
    sample_same = (codes == [0, 0]
                   and outs[0].read_bytes() == outs[1].read_bytes())
    _verdict(capfd, 10, "determinism", f"train NLL columns identical: {train_same}, "
             f"sample CSV bytes identical: {sample_same}", t0,
             train_same=train_same, sample_same=sample_same)
