"""Acceptance battery: ten end-to-end checks with quantitative oracles.

Each check prints one `[acceptance N] PASS/FAIL label: detail` line straight
to the terminal (bypassing capture, so the verdict is readable even when the
assert that follows fails) and enforces its wall-clock budget where one is
stated.
"""

import time

import numpy as np
import pytest
from scipy import stats

from jdan import copula
from jdan.cli import main
from jdan.copula import (
    CorrelationParams,
    copula_cdf,
    joint_cdf,
    joint_pdf,
    mixed_partial_fd,
    sample,
)
from jdan.hypernet import Forecaster, initialize_net, materialize
from jdan.marginal import normalized_cdf
from jdan.metrics import pit_ks
from jdan.miso import MisoNetParams, find_negative_witness, miso_mixed_partial
from jdan.model_io import save_model
from jdan.training import TrainConfig, grad_check, nll_loss, train

from conftest import (
    interior_points,
    miso_forward,
    miso_grad,
    random_model,
    simpson_integral,
    unit_arch,
)

pytestmark = pytest.mark.filterwarnings("ignore:only .* samples:UserWarning")


def _report(capfd, num, ok, label, detail, elapsed, budget=None):
    clock = f"{elapsed:.1f}s" + (f" / budget {budget:.0f}s" if budget else "")
    with capfd.disabled():
        print(f"[acceptance {num:2d}] {'PASS' if ok else 'FAIL'} {label}: "
              f"{detail} ({clock})")


def test_01_joint_density_nonnegative(capfd):
    """1000 random models, D in {2,3,4,5}, 100 interior points each: pdf >= 0."""
    budget = 60.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    violations = 0
    lowest = np.inf
    for dim in (2, 3, 4, 5):
        for _ in range(250):
            model, _ = random_model(rng, dim=dim)
            pts = interior_points(rng, model, 100, margin=1e-6)
            pdf = joint_pdf(model, pts)
            violations += int(np.sum(pdf < 0.0))
            lowest = min(lowest, float(pdf.min()))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < budget
    _report(capfd, 1, ok, "joint density nonnegative",
            f"1000 models x 100 pts, {violations} violations, "
            f"min pdf {lowest:.3e}", elapsed, budget)
    assert violations == 0
    assert elapsed < budget


def test_02_density_matches_fd_mixed_partial(capfd):
    """Closed-form pdf vs 2^D-stencil mixed partial of the CDF, 200 draws per D."""
    budget = 30.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(22)
    worst = {}
    for dim in (2, 3, 4):
        w = 0.0
        for _ in range(40):
            model, _ = random_model(rng, dim=dim)
            h = 1e-3 * (model.box_upper() - model.box_lower())
            for y in interior_points(rng, model, 5, margin=0.05):
                an = joint_pdf(model, y)
                fd = mixed_partial_fd(model, y, h)
                w = max(w, abs(an - fd) / max(abs(an), abs(fd)))
        worst[dim] = w
    elapsed = time.perf_counter() - t0
    ok = max(worst.values()) <= 1e-3 and elapsed < budget
    _report(capfd, 2, ok, "pdf equals FD mixed partial",
            "worst rel err " + ", ".join(f"D{d}: {e:.2e}" for d, e in worst.items()),
            elapsed, budget)
    assert max(worst.values()) <= 1e-3
    assert elapsed < budget


def test_03_cdf_validity_battery(capfd):
    """Range, face/corner exactness, monotonicity, marginal consistency."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    range_bad = face_bad = corner_bad = mono_bad = margin_bad = 0
    n_pairs_checked = 0
    for dim, n_models in ((2, 15), (3, 15), (4, 10), (5, 10)):
        for _ in range(n_models):
            model, _ = random_model(rng, dim=dim)
            lo, hi = model.box_lower(), model.box_upper()
            y1 = interior_points(rng, model, 200, margin=1e-9)
            y2 = y1 + rng.random(y1.shape) * (hi - y1)
            f1 = joint_cdf(model, y1)
            f2 = joint_cdf(model, y2)
            for f in (f1, f2):
                range_bad += int(np.sum((f < 0.0) | (f > 1.0)))
            mono_bad += int(np.sum(f2 - f1 < 0.0))
            n_pairs_checked += len(y1)
            for d in range(dim):
                face = y1[0].copy()
                face[d] = lo[d]
                face_bad += joint_cdf(model, face) != 0.0
                edge = hi.copy()
                edge[d] = y1[1, d]
                want = normalized_cdf(model.marginals[d], edge[d], model.bounds[d])
                margin_bad += abs(joint_cdf(model, edge) - want) > 1e-12
            corner_bad += abs(joint_cdf(model, hi) - 1.0) > 1e-12
    elapsed = time.perf_counter() - t0
    total = range_bad + face_bad + corner_bad + mono_bad + margin_bad
    _report(capfd, 3, total == 0, "joint CDF validity",
            f"{n_pairs_checked} monotone pairs; violations: range {range_bad}, "
            f"lower-face {face_bad}, corner {corner_bad}, monotone {mono_bad}, "
            f"margin {margin_bad}", elapsed)
    assert n_pairs_checked == 10_000
    assert total == 0


def test_04_density_normalization(capfd):
    """Joint pdf integrates to 1: tensor Simpson (D=2,3), Monte Carlo (D=4)."""
    budget = 120.0
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    totals = {}
    for dim, n in ((2, 64), (3, 48)):
        model, _ = random_model(rng, dim=dim)
        totals[dim] = simpson_integral(model, n)
    model, _ = random_model(rng, dim=4)
    lo, hi = model.box_lower(), model.box_upper()
    pts = lo + (hi - lo) * np.random.default_rng(4044).random((1_000_000, 4))
    totals[4] = float(np.mean(joint_pdf(model, pts)) * np.prod(hi - lo))
    elapsed = time.perf_counter() - t0
    ok = (all(0.999 <= totals[d] <= 1.001 for d in (2, 3))
          and 0.995 <= totals[4] <= 1.005 and elapsed < budget)
    _report(capfd, 4, ok, "density normalization",
            ", ".join(f"D{d}: {v:.6f}" for d, v in sorted(totals.items())),
            elapsed, budget)
    assert 0.999 <= totals[2] <= 1.001
    assert 0.999 <= totals[3] <= 1.001
    assert 0.995 <= totals[4] <= 1.005
    assert elapsed < budget


def _fd_mixed(params, y, p, q, h=1e-4):
    ep = np.zeros(params.dim)
    eq = np.zeros(params.dim)
    ep[p] = h
    eq[q] = h
    return (miso_forward(params, y + ep + eq) - miso_forward(params, y + ep - eq)
            - miso_forward(params, y - ep + eq)
            + miso_forward(params, y - ep - eq)) / (4.0 * h * h)


def test_05_mixed_partial_trichotomy(capfd):
    """Sigmoid/tanh MISO nets flip mixed-partial sign; linear/relu/exp never do."""
    budget = 60.0
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
        hidden = int(rng.integers(2, 7))
        params = MisoNetParams(
            layer_sizes=[3, hidden, 1],
            raw_weights=[rng.standard_normal((hidden, 3)),
                         rng.standard_normal((1, hidden))],
            biases=[rng.standard_normal(hidden), rng.standard_normal(1)],
            activations=["sigmoid", "sigmoid"],
        )
        if not np.all(miso_grad(params, rng.uniform(-2, 2, size=3)) > 0.0):
            grad_positive = False
    worst_fd = 0.0
    kept = 0
    for act in ("sigmoid", "tanh"):
        draws = 0
        while draws < 100:
            hidden = int(rng.integers(2, 7))
            params = MisoNetParams(
                layer_sizes=[3, hidden, 1],
                raw_weights=[rng.standard_normal((hidden, 3)),
                             rng.standard_normal((1, hidden))],
                biases=[rng.standard_normal(hidden), rng.standard_normal(1)],
                activations=[act, act],
            )
            y = rng.uniform(-2, 2, size=3)
            p, q = sorted(int(i) for i in rng.choice(3, size=2, replace=False))
            an = miso_mixed_partial(params, y, p, q)
            if abs(an) < 1e-3:  # relative error needs a nonzero reference
                continue
            draws += 1
            kept += 1
            fd = _fd_mixed(params, y, p, q)
            worst_fd = max(worst_fd, abs(an - fd) / max(abs(an), abs(fd)))
    elapsed = time.perf_counter() - t0
    ok = (all(found_all.values()) and all(none_found.values()) and grad_positive
          and worst_fd <= 1e-3 and elapsed < budget)
    _report(capfd, 5, ok, "mixed-partial trichotomy",
            f"witness sigmoid/tanh seeds 0-4: {found_all}, "
            f"none for {sorted(none_found)}: {all(none_found.values())}, "
            f"1000-net grad > 0: {grad_positive}, "
            f"FD worst rel {worst_fd:.2e} on {kept} draws", elapsed, budget)
    assert all(found_all.values())
    assert all(none_found.values())
    assert grad_positive
    assert worst_fd <= 1e-3
    assert elapsed < budget


def test_06_gradient_correctness(capfd):
    """Tape gradient vs central FD over 50 random configurations."""
    budget = 120.0
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
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < budget
    _report(capfd, 6, ok, "gradient correctness",
            f"50 configs, worst rel err {worst:.2e}", elapsed, budget)
    assert worst <= 1e-4
    assert elapsed < budget


def test_07_self_consistency_recovery(capfd):
    """Fit on model-generated data recovers the correlation and its NLL."""
    budget = 300.0
    t0 = time.perf_counter()
    gen_arch = unit_arch(2, (4,), activation="linear")
    gen_net = initialize_net(gen_arch, seed=0)
    gen_net.raw[:] = 0.0
    gen_net.raw[-1] = np.arctanh(0.6)  # uniform margins, C = 0.6
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
    elapsed = time.perf_counter() - t0
    ok = (0.45 <= c_hat <= 0.75 and gap <= 0.1 and abs(c_null) <= 0.1
          and abs(rep2.best_validation_nll) <= 0.05 and elapsed < budget)
    _report(capfd, 7, ok, "self-consistency recovery",
            f"C 0.6 -> {c_hat:.3f}, val NLL gap {gap:.4f}; "
            f"uniform -> C {c_null:.3f}, NLL {rep2.best_validation_nll:.4f}",
            elapsed, budget)
    assert 0.45 <= c_hat <= 0.75
    assert gap <= 0.1
    assert abs(c_null) <= 0.1
    assert abs(rep2.best_validation_nll) <= 0.05
    assert elapsed < budget


def _sample_spearman():
    """Acceptance 8's sample check: (rho, |rho - 0.3| <= 0.05) for 20000 draws at C = 0.9.

    rho is the sample Spearman rho, and C/3 = 0.3 its target. Spearman is
    rank-based, so uniform margins are representative.
    """
    gen_arch = unit_arch(2, (4,), activation="linear")
    gen_net = initialize_net(gen_arch, seed=0)
    gen_net.raw[:] = 0.0
    gen_net.raw[-1] = np.arctanh(0.9)
    model = materialize(gen_net.raw, gen_arch)
    draws = sample(model, 20_000, seed=88)
    rho = float(stats.spearmanr(draws[:, 0], draws[:, 1]).statistic)
    return rho, abs(rho - 0.3) <= 0.05


def test_08_spearman_identity(capfd):
    """Sample Spearman rho tracks C/3 (identity pre-verified by quadrature)."""
    budget = 30.0
    t0 = time.perf_counter()
    raw = np.arctanh(0.9)
    # rho = 12 * double integral of the copula CDF - 3, midpoint rule
    n = 200
    u = (np.arange(n) + 0.5) / n
    uu, vv = np.meshgrid(u, u, indexing="ij")
    grid = np.column_stack([uu.reshape(-1), vv.reshape(-1)])
    cvals = copula_cdf(CorrelationParams(raw=np.array([raw])), grid)
    rho_int = 12.0 * float(cvals.mean()) - 3.0

    rho, sample_ok = _sample_spearman()
    elapsed = time.perf_counter() - t0
    ok = abs(rho_int - 0.3) <= 1e-3 and sample_ok and elapsed < budget
    _report(capfd, 8, ok, "Spearman identity",
            f"quadrature rho {rho_int:.4f}, sample rho {rho:.4f}, target C/3 = 0.3",
            elapsed, budget)
    assert abs(rho_int - 0.3) <= 1e-3
    assert sample_ok, rho
    assert elapsed < budget


def test_08_sample_check_catches_flipped_dependence(monkeypatch):
    """A sampler that inverts under negated correlations fails acceptance 8's sample check."""
    assert _sample_spearman()[1]
    inverse = copula._conditional_inverse
    monkeypatch.setattr(copula, "_conditional_inverse",
                        lambda corr, v: inverse(CorrelationParams(raw=-corr.raw), v))
    rho, sample_ok = _sample_spearman()
    assert not sample_ok, rho


def test_09_pit_calibration_on_true_model(capfd):
    """PIT of self-generated data is uniform per dimension (99% KS band)."""
    budget = 60.0
    t0 = time.perf_counter()
    crit = 1.63 / np.sqrt(2000)
    failing_seeds = 0
    worst = 0.0
    for s in range(20):
        rng = np.random.default_rng(900 + s)
        arch = unit_arch(2, (8,))
        net = initialize_net(arch, seed=s)
        net.raw[:] = rng.normal(0.0, 1.0, size=net.raw.size)
        fc = Forecaster(net, arch)
        draws = sample(fc.model_for(None), 2000, seed=9000 + s)
        ks = [pit_ks(fc, draws, d) for d in range(2)]
        worst = max(worst, max(ks))
        failing_seeds += int(any(k > crit for k in ks))
    elapsed = time.perf_counter() - t0
    ok = failing_seeds <= 1 and elapsed < budget
    _report(capfd, 9, ok, "PIT calibration",
            f"{failing_seeds} of 20 seeds beyond KS {crit:.4f} "
            f"(worst {worst:.4f})", elapsed, budget)
    assert failing_seeds <= 1
    assert elapsed < budget


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
    elapsed = time.perf_counter() - t0
    _report(capfd, 10, train_same and sample_same, "determinism",
            f"train NLL columns identical: {train_same}, "
            f"sample CSV bytes identical: {sample_same}", elapsed)
    assert train_same
    assert sample_same
