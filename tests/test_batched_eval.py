"""Batched evaluation against the per-row reference path.

The metrics score every row in one pass over a per-row parameter block.
The reference below is the per-row path they replaced: one model per row
from ``fc.model_for(x)``, scalar ``joint_pdf``/``normalized_cdf`` calls and
two ``composite_simpson`` integrals per CRPS observation. Both evaluate the
same arithmetic, so they agree to rounding: 1e-12 relative.
"""

import json
import os

import numpy as np
import pytest

from jdan import metrics
from jdan.cli import main
from jdan.copula import joint_pdf, sample
from jdan.errors import ContractError
from jdan.hypernet import ArchitectureDescriptor, Forecaster, flatten, initialize_net, materialize
from jdan.marginal import normalized_cdf
from jdan.numerics import composite_simpson
from jdan.training import LOG_EPS

from conftest import unit_arch

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ACTIVATIONS = ["sigmoid", "tanh", "linear", "relu", "exp"]
BOUNDS = [(-1.0, 2.0), (0.0, 5.0), (1.0, 1.5)]
RTOL = 1e-12


# ---------------------------------------------------------------- reference


def ref_log_density(fc, targets, features):
    rows = features if fc.conditional else [None] * len(targets)
    return np.array([np.log(joint_pdf(fc.model_for(x), y) + LOG_EPS)
                     for x, y in zip(rows, targets)])


def ref_pit(fc, targets, features):
    rows = features if fc.conditional else [None] * len(targets)
    out = []
    for x, y in zip(rows, targets):
        m = fc.model_for(x)
        out.append([normalized_cdf(m.marginals[d], float(y[d]), m.bounds[d])
                    for d in range(m.dim)])
    return np.array(out)


def ref_crps(fc, targets, dim, features):
    rows = features if fc.conditional else [None] * len(targets)
    half = metrics.CRPS_INTERVALS // 2
    b = fc.arch.bounds[dim]
    out = []
    for x, y in zip(rows, targets):
        params = fc.model_for(x).marginals[dim]
        yd = float(y[dim])
        below = composite_simpson(lambda t: normalized_cdf(params, t, b) ** 2,
                                  b.lower, yd, half)
        above = composite_simpson(lambda t: (normalized_cdf(params, t, b) - 1.0) ** 2,
                                  yd, b.upper, half)
        out.append(below + above)
    return float(np.mean(out))


def ref_energy(fc, targets, features, m_samples, seed):
    rows = features if fc.conditional else [None] * len(targets)
    seeds = np.random.SeedSequence(seed).spawn(len(targets))
    out = []
    for x, y, s in zip(rows, targets, seeds):
        draws = sample(fc.model_for(x), m_samples, s)
        to_obs = np.linalg.norm(draws - y, axis=1).mean()
        pairwise = np.linalg.norm(draws[:, None, :] - draws[None, :, :], axis=2).sum()
        out.append(to_obs - pairwise / (2.0 * m_samples**2))
    return float(np.mean(out))


# ---------------------------------------------------------------- fixtures


def make_forecaster(conditional, dim, activation, seed=0):
    arch = ArchitectureDescriptor(
        dim=dim,
        bounds=BOUNDS[:dim],
        marginal_hidden=[[5]] * dim,
        activations=[activation] * dim,
        feature_dim=2 if conditional else 0,
        hypernet_hidden=[6],
    )
    net = initialize_net(arch, seed=seed)
    if conditional:
        net.weights[-1] *= 8.0  # features move the parameters visibly
        net.biases[-1][:] = np.random.default_rng(seed).normal(0.0, 0.8, net.biases[-1].shape)
    else:
        net.raw[:] = np.random.default_rng(seed).normal(0.0, 0.8, net.raw.shape)
    return Forecaster(net, arch)


def make_rows(fc, n, seed=1, outside=0.1):
    """Features and targets; about `outside` of the rows leave the bounds."""
    rng = np.random.default_rng(seed)
    lo = np.array([b.lower for b in fc.arch.bounds])
    hi = np.array([b.upper for b in fc.arch.bounds])
    targets = lo + (hi - lo) * rng.random((n, fc.arch.dim))
    stray = rng.random(n) < outside
    targets[stray, 0] = hi[0] + 0.3 * (hi[0] - lo[0])
    features = rng.normal(size=(n, 2)) if fc.conditional else None
    return targets, features


def assert_matches_reference(fc, targets, features):
    keep = np.all([(targets[:, d] >= b.lower) & (targets[:, d] <= b.upper)
                   for d, b in enumerate(fc.arch.bounds)], axis=0)
    if keep.any():
        kept_x = features[keep] if fc.conditional else None
        logs = ref_log_density(fc, targets[keep], kept_x)
        value, n_eval, n_excl = metrics.log_score(fc, targets, features)
        assert (n_eval, n_excl) == (int(keep.sum()), int((~keep).sum()))
        # scaled by the terms' size: their mean can cancel to near zero
        assert abs(value - logs.mean()) <= RTOL * np.abs(logs).mean()

    clamped = np.clip(targets, [b.lower for b in fc.arch.bounds],
                      [b.upper for b in fc.arch.bounds])
    np.testing.assert_allclose(metrics.pit_values(fc, targets, features),
                               ref_pit(fc, clamped, features), rtol=RTOL, atol=1e-15)
    for d in range(fc.arch.dim):
        np.testing.assert_allclose(metrics.crps_marginal(fc, targets, d, features),
                                   ref_crps(fc, clamped, d, features), rtol=RTOL)


# ---------------------------------------------------------------- tests


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("conditional", [True, False], ids=["conditional", "unconditional"])
def test_metrics_match_per_row_reference(conditional, dim, activation):
    fc = make_forecaster(conditional, dim, activation)
    targets, features = make_rows(fc, 30)
    assert_matches_reference(fc, targets, features)


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("dim", [2, 3])
def test_batched_joint_pdf_matches_per_row_models(dim, activation):
    fc = make_forecaster(True, dim, activation)
    targets, features = make_rows(fc, 25, outside=0.0)
    per_row = np.array([joint_pdf(fc.model_for(x), y) for x, y in zip(features, targets)])
    batched = joint_pdf(fc.model_for(features), targets)
    np.testing.assert_allclose(batched, per_row, rtol=RTOL)


# CHUNK_POINTS values that put the 41 rows below in one chunk, one chunk plus
# one row (log score and PIT: 40 rows; CRPS: 40 rows of 258 nodes), and many
# chunks (5 rows, or one row per chunk)
@pytest.mark.parametrize("chunk_points", [16384, 40, 40 * 258, 5])
@pytest.mark.parametrize("n_rows", [1, 41])
@pytest.mark.parametrize("conditional", [True, False], ids=["conditional", "unconditional"])
def test_chunk_boundaries(monkeypatch, conditional, n_rows, chunk_points):
    monkeypatch.setattr(metrics, "CHUNK_POINTS", chunk_points)
    fc = make_forecaster(conditional, 2, "sigmoid", seed=3)
    targets, features = make_rows(fc, n_rows, seed=4, outside=0.0 if n_rows == 1 else 0.1)
    assert_matches_reference(fc, targets, features)


@pytest.mark.parametrize("chunk_points", [16384, 30])
@pytest.mark.parametrize("conditional", [True, False], ids=["conditional", "unconditional"])
def test_energy_score_matches_per_row_sampler(monkeypatch, conditional, chunk_points):
    monkeypatch.setattr(metrics, "CHUNK_POINTS", chunk_points)
    fc = make_forecaster(conditional, 2, "tanh", seed=5)
    targets, features = make_rows(fc, 9, seed=6)
    got = metrics.energy_score(fc, targets, features, m_samples=12, seed=7)
    want = ref_energy(fc, targets, features, 12, 7)
    np.testing.assert_allclose(got, want, rtol=1e-9)


def test_materialize_block_round_trip_and_rows():
    arch = unit_arch(dim=3, hidden=(3, 2))
    block = np.random.default_rng(0).normal(size=(4, arch.param_count()))
    model = materialize(block, arch)
    assert model.rows == 4
    np.testing.assert_array_equal(flatten(model), block)
    np.testing.assert_array_equal(flatten(model.take(slice(1, 3))), block[1:3])
    for i in range(4):
        np.testing.assert_array_equal(flatten(materialize(block[i], arch)), block[i])
    shared = materialize(block[0], arch)
    assert shared.rows is None and shared.take(slice(0, 1)) is shared


def test_per_row_model_rejects_mismatched_points():
    arch = unit_arch(dim=2)
    model = materialize(np.zeros((3, arch.param_count())), arch)
    with pytest.raises(ContractError):
        joint_pdf(model, np.full((4, 2), 0.5))
    with pytest.raises(ContractError):
        normalized_cdf(model.marginals[0], np.full(6, 0.5), model.bounds[0])
    with pytest.raises(ContractError):
        sample(model, 5, seed=[1, 2])


def test_metrics_reject_feature_target_row_mismatch():
    fc = make_forecaster(True, 2, "sigmoid")
    targets, features = make_rows(fc, 6, outside=0.0)
    with pytest.raises(ContractError):
        metrics.pit_values(fc, targets, features[:5])


def test_evaluate_reports_are_byte_identical(tmp_path):
    with open(os.path.join(ROOT, "data", "conditional_d2.csv"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()[:61]
    data = tmp_path / "rows.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    model = os.path.join(ROOT, "runs", "conditional_d2_model.json")
    reports = []
    for k in range(2):
        out = tmp_path / f"report{k}.json"
        assert main(["evaluate", "--model", model, "--data", str(data),
                     "--energy-samples", "40", "--seed", "3", "--quiet", "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["energy_score"] is not None
