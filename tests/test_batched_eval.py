"""Batched evaluation against the per-row reference path.

The metrics score every row in one pass over a per-row parameter block.
The reference below is the per-row path they replaced: one model per row
from ``fc.model_for(x)``, scalar ``joint_pdf``/``normalized_cdf`` calls and,
for each CRPS observation's split, Kronrod sums over plain node arrays. Both
evaluate the same arithmetic, so they agree to rounding: 1e-12 relative.

The CRPS rule itself is checked against Simpson on each side of the
observation, to the two rules' quadrature error, and against Simpson on 8192
subintervals a side, with two committed mutants that those checks catch.
"""

import json
import os

import numpy as np
import pytest

from jdan import marginal, metrics, numerics
from jdan.cli import main
from jdan.copula import joint_pdf, sample
from jdan.data import load_csv
from jdan.errors import ContractError
from jdan.hypernet import ArchitectureDescriptor, Forecaster, initialize_net, materialize
from jdan.marginal import TABLE_INTERVALS, normalized_cdf, table_nodes
from jdan.model_io import load_model, load_spec_from_doc
from jdan.numerics import composite_simpson
from jdan.training import LOG_EPS

from conftest import flatten, unit_arch

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


def k15(f, a, b, panels):
    """(K15 of f over `panels` equal panels of [a, b], the panels' summed |K15 - G7|)."""
    h = (b - a) / panels
    mid = a + h * (np.arange(panels) + 0.5)
    v = f(mid[:, None] + 0.5 * h * numerics.KRONROD_NODES)
    k, g = v @ numerics.KRONROD_WEIGHTS, v[:, 1::2] @ numerics.GAUSS_WEIGHTS
    return 0.5 * h * k.sum(), 0.5 * h * np.abs(k - g).sum()


def kronrod_crps_rows(fc, targets, dim, features):
    """Per row, int_L^U F^2 - 2 int_y^U F + (U - y) by K15 on 1, 2, 4, ..., 64 panels a side,
    stopping where both integrals' |K15 - G7| are at most 1e-12 (U - L): the rule
    ``crps_marginal`` evaluates, from one model per row."""
    rows = features if fc.conditional else [None] * len(targets)
    b = fc.arch.bounds[dim]
    out = []
    for x, y in zip(rows, targets):
        params = fc.model_for(x).marginals[dim]
        cdf = lambda t: normalized_cdf(params, t, b)  # noqa: E731
        yd = float(y[dim])
        for panels in 2 ** np.arange(7):
            whole, whole_err = k15(lambda t: cdf(t) ** 2, b.lower, b.upper, panels)
            tail, tail_err = k15(cdf, yd, b.upper, panels)
            if max(whole_err, tail_err) <= 1e-12 * b.width:
                break
        out.append(whole - 2.0 * tail + (b.upper - yd))
    return np.array(out)


def simpson_table_crps_rows(fc, targets, dim, features):
    """Per row, int_L^U F^2 - 2 (int_te^U F - int_te^y F) + (U - y) by Simpson on 128
    intervals, te the last even node at or below y: the rule ``crps_marginal`` took
    before K15, kept as the error the new rule must not exceed."""
    rows = features if fc.conditional else [None] * len(targets)
    b = fc.arch.bounds[dim]
    h = b.width / TABLE_INTERVALS
    out = []
    for x, y in zip(rows, targets):
        params = fc.model_for(x).marginals[dim]
        cdf = lambda t: normalized_cdf(params, t, b)  # noqa: E731
        yd = float(y[dim])
        e = min(int(np.floor((yd - b.lower) / (2.0 * h))), TABLE_INTERVALS // 2)
        te = table_nodes(b)[2 * e]
        whole = composite_simpson(lambda t: cdf(t) ** 2, b.lower, b.upper, TABLE_INTERVALS)
        above = composite_simpson(cdf, te, b.upper, TABLE_INTERVALS - 2 * e)
        end = composite_simpson(cdf, te, yd, 2)
        out.append(whole - 2.0 * (above - end) + (b.upper - yd))
    return np.array(out)


def library_crps_rows(fc, targets, dim, features):
    """Per row, ``crps_marginal`` on that row alone."""
    return np.array([metrics.crps_marginal(fc, targets[i:i + 1], dim,
                                           features[i:i + 1] if fc.conditional else None)
                     for i in range(len(targets))])


def ref_crps(fc, targets, dim, features):
    return float(np.mean(kronrod_crps_rows(fc, targets, dim, features)))


def simpson_crps_rows(fc, targets, dim, features, half=128):
    """Per row, Simpson with `half` subintervals on each side of the observation:
    the CRPS rule before the table, kept as the accuracy oracle."""
    rows = features if fc.conditional else [None] * len(targets)
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
    return np.array(out)


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


def norm_energy(model, targets, m_samples, seed):
    """The blocked energy score with its distances from np.linalg.norm on (rows, m, m, D)."""
    n = targets.shape[0]
    row_seeds = np.random.SeedSequence(seed).spawn(n)
    out = np.empty(n)
    for rows in numerics.row_blocks(n, m_samples):
        s = sample(model.take(rows), m_samples, row_seeds[rows])
        to_obs = np.linalg.norm(s - targets[rows, None, :], axis=-1).mean(axis=-1)
        spread = np.empty_like(to_obs)
        for pairs in numerics.row_blocks(s.shape[0], m_samples**2):
            t = s[pairs]
            dist = np.linalg.norm(t[:, :, None, :] - t[:, None, :, :], axis=-1)
            spread[pairs] = dist.reshape(t.shape[0], -1).sum(axis=-1)
        out[rows] = to_obs - spread / (2.0 * m_samples**2)
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


# The oracle is composite Simpson with panels at most 2h = (U - L) / 64 wide,
# on [L, y] and [y, U]. On a smooth integrand g Simpson errs by at most
# (U - L) h^4 max|g^(4)| / 180; the integrands are F^2 and (1 - F)^2. For these
# models max|g^(4)|, taken by fourth differences on 4096 intervals, puts that
# term below 2.5e-8 (sigmoid), 2.4e-7 (tanh) and 1.9e-6 (exp); linear
# marginals have a quadratic F^2, which Simpson integrates exactly. A ReLU unit
# that switches on inside [L, U] puts a kink in F; a panel straddling it errs
# by up to J h^2 / 6 for the jump J <= 2 |jump of f| in g', at most 6.5e-5 here,
# and each of the 5 hidden units can switch once. The K15 rule's own error is
# far smaller: its G7 check asks for 1e-12 (U - L), and on 64 panels across a
# ReLU kink it is no farther off than the Simpson table it replaced (the
# steep-marginal test below). So the two agree to twice the Simpson term.
SIMPSON_ERROR = {"sigmoid": 2.5e-8, "tanh": 2.4e-7, "exp": 1.9e-6, "linear": 1e-14,
                 "relu": 5 * 6.5e-5}


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("conditional", [True, False], ids=["conditional", "unconditional"])
def test_crps_split_matches_per_side_simpson_oracle(conditional, dim, activation):
    fc = make_forecaster(conditional, dim, activation)
    targets, features = make_rows(fc, 30)
    clamped = np.clip(targets, [b.lower for b in fc.arch.bounds],
                      [b.upper for b in fc.arch.bounds])
    for d in range(dim):
        rule = kronrod_crps_rows(fc, clamped, d, features)
        oracle = simpson_crps_rows(fc, clamped, d, features)
        assert np.max(np.abs(rule - oracle)) <= 2.0 * SIMPSON_ERROR[activation]


def bundled(name):
    fc, doc = load_model(os.path.join(ROOT, "runs", f"{name}_model.json"))
    ds = load_csv(os.path.join(ROOT, "data", f"{name}.csv"), load_spec_from_doc(doc))
    return fc, ds.targets, (ds.features if fc.conditional else None)


def bundled_crps_error(name, rows=40):
    """Largest |per-row CRPS - Simpson on 8192 subintervals a side| over both dimensions
    of the first rows: the oracle is exact to ~1e-16 on these smooth marginals."""
    fc, targets, features = bundled(name)
    targets, features = targets[:rows], None if features is None else features[:rows]
    return max(np.max(np.abs(library_crps_rows(fc, targets, d, features)
                             - simpson_crps_rows(fc, targets, d, features, half=8192)))
               for d in range(2))


@pytest.mark.parametrize("name", ["uniform_d2", "conditional_d2"])
def test_bundled_crps_is_within_1e_12_of_fine_simpson(name):
    assert bundled_crps_error(name) <= 1e-12


def test_crps_mutant_without_the_width_term_fails_the_fine_simpson_check(monkeypatch):
    """A rule dropping (U - y) fails test_bundled_crps_is_within_1e_12_of_fine_simpson."""
    split = metrics._split_crps

    def without_width(params, b, y, panels):
        value, ok = split(params, b, y, panels)
        return value - (b.upper - y), ok

    monkeypatch.setattr(metrics, "_split_crps", without_width)
    assert bundled_crps_error("uniform_d2", rows=5) > 1e-12


@pytest.mark.parametrize("name", ["uniform_d2", "conditional_d2"])
def test_bundled_crps_passes_its_check_at_32_points_per_row(monkeypatch, name):
    # per row: psi(L), psi(U) and 15 nodes on each of [L, U] and [y, U]; a shared set
    # takes psi(L), psi(U) and the [L, U] nodes once per pass. More points would mean a
    # fallback row.
    fc, targets, features = bundled(name)
    points = []
    psi = marginal._psi
    monkeypatch.setattr(marginal, "_psi",
                        lambda *a, **kw: points.append(np.size(a[2])) or psi(*a, **kw))
    n = len(targets)
    for d in range(2):
        points.clear()
        metrics.crps_marginal(fc, targets, d, features)
        assert len(points) == len(numerics.row_blocks(n, 32))
        assert sum(points) == (32 * n if fc.conditional else 15 * n + 17 * len(points))


STEEP = 5.0  # scales a make_forecaster model's raw parameters into steep marginals


def steep_crps_errors(activation):
    """Per row and dimension of a steep model: |CRPS - Simpson on 8192 subintervals a
    side| for crps_marginal and for the Simpson table it replaced, and whether
    crps_marginal took its fallback (handed the net more than 30 points a row)."""
    fc = make_forecaster(False, 2, activation)
    fc.net.raw[:] *= STEEP
    targets, _ = make_rows(fc, 20, outside=0.0)
    widest = []
    cdf = metrics.normalized_cdf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(metrics, "normalized_cdf",
                   lambda m, t, b: widest.append(np.shape(t)[-1]) or cdf(m, t, b))
        new = np.array([library_crps_rows(fc, targets, d, None) for d in range(2)])
    fine = np.array([simpson_crps_rows(fc, targets, d, None, half=8192) for d in range(2)])
    old = np.array([simpson_table_crps_rows(fc, targets, d, None) for d in range(2)])
    return np.abs(new - fine), np.abs(old - fine), max(widest) > 30


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_steep_crps_is_no_farther_from_fine_simpson_than_the_table(activation):
    # below 1e-12 both sit at the fine oracle's rounding
    new, old, fallback = steep_crps_errors(activation)
    assert np.all(new <= np.maximum(old, 1e-12))
    if activation in ("tanh", "relu"):
        assert fallback


def test_crps_mutant_that_never_falls_back_fails_the_steep_check(monkeypatch):
    """A check with an infinite tolerance fails
    test_steep_crps_is_no_farther_from_fine_simpson_than_the_table on tanh."""
    monkeypatch.setattr(metrics, "CRPS_TOL", np.inf)
    new, old, fallback = steep_crps_errors("tanh")
    assert not fallback and not np.all(new <= np.maximum(old, 1e-12))


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("dim", [2, 3])
def test_batched_joint_pdf_matches_per_row_models(dim, activation):
    fc = make_forecaster(True, dim, activation)
    targets, features = make_rows(fc, 25, outside=0.0)
    per_row = np.array([joint_pdf(fc.model_for(x), y) for x, y in zip(features, targets)])
    batched = joint_pdf(fc.model_for(features), targets)
    np.testing.assert_allclose(batched, per_row, rtol=RTOL)


# BLOCK_POINTS values that put the 41 rows below in one block (16384, and for CRPS
# also 40 * 258 and 40 * 131), one block plus one row (log score and PIT: 40; CRPS:
# 40 rows of 32 points), and many blocks (5 rows, or one row per block)
@pytest.mark.parametrize("block_points", [16384, 40, 40 * 258, 40 * 131, 40 * 32, 5])
@pytest.mark.parametrize("n_rows", [1, 41])
@pytest.mark.parametrize("conditional", [True, False], ids=["conditional", "unconditional"])
def test_chunk_boundaries(monkeypatch, conditional, n_rows, block_points):
    monkeypatch.setattr(numerics, "BLOCK_POINTS", block_points)
    fc = make_forecaster(conditional, 2, "sigmoid", seed=3)
    targets, features = make_rows(fc, n_rows, seed=4, outside=0.0 if n_rows == 1 else 0.1)
    assert_matches_reference(fc, targets, features)


@pytest.mark.parametrize("block_points", [16384, 30])
@pytest.mark.parametrize("conditional", [True, False], ids=["conditional", "unconditional"])
def test_energy_score_matches_per_row_sampler(monkeypatch, conditional, block_points):
    monkeypatch.setattr(numerics, "BLOCK_POINTS", block_points)
    fc = make_forecaster(conditional, 2, "tanh", seed=5)
    targets, features = make_rows(fc, 9, seed=6)
    got = metrics.energy_score(fc, targets, features, m_samples=12, seed=7)
    want = ref_energy(fc, targets, features, 12, 7)
    assert got == want


@pytest.mark.parametrize("block_points", [4096, 30, 1])
@pytest.mark.parametrize("m", [2, 3, 65, 200])
@pytest.mark.parametrize("dim", [2, 3, 9])
def test_energy_score_is_bitwise_the_norm_form(monkeypatch, dim, m, block_points):
    monkeypatch.setattr(numerics, "BLOCK_POINTS", block_points)
    arch = unit_arch(dim, hidden=(4,), feature_dim=2, hyper=(6,))
    rng = np.random.default_rng(dim * 1000 + m)
    model = Forecaster(initialize_net(arch, seed=dim), arch).model_for(rng.normal(size=(5, 2)))
    targets = rng.random((5, dim))
    got = metrics._energy_score(model, targets, m, 11)
    assert np.array_equal(got, norm_energy(model, targets, m, 11))


@pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 12, 15])
def test_pair_distances_follow_numpy_summation_order(dim):
    t = np.random.default_rng(dim).normal(size=(3, 7, dim)) * 10.0
    order = metrics._summation_order(dim)
    bufs = [np.empty((3, 7, 7)) for _ in range(metrics._buffers_for(order))]
    metrics._add_squares(order, t, bufs)
    want = np.linalg.norm(t[:, :, None, :] - t[:, None, :, :], axis=-1)
    assert np.array_equal(np.sqrt(bufs[0]), want)


@pytest.mark.parametrize("m_samples", [1, 0, 2.0, 200.5, True, "200", None])
def test_energy_score_rejects_bad_sample_counts(m_samples):
    fc = make_forecaster(False, 2, "sigmoid")
    targets, _ = make_rows(fc, 3)
    with pytest.raises(ContractError, match="m_samples"):
        metrics.energy_score(fc, targets, m_samples=m_samples)


def test_energy_score_refuses_an_unallocatable_pair_buffer(monkeypatch):
    fc = make_forecaster(False, 2, "sigmoid")
    targets, _ = make_rows(fc, 3)
    monkeypatch.setattr(metrics, "copula_sample", lambda *a: pytest.fail("sampled first"))
    # 2**32 squared is past numpy's largest array: refused without allocating anything
    with pytest.raises(ContractError, match=r"m_samples=4294967296 needs \d+ bytes"):
        metrics.energy_score(fc, targets, m_samples=2**32)


def test_evaluate_builds_one_model_for_every_metric(monkeypatch):
    fc = make_forecaster(True, 2, "sigmoid", seed=2)
    targets, features = make_rows(fc, 24, seed=3, outside=0.3)  # some leave the bounds
    calls = []
    model_for = Forecaster.model_for
    monkeypatch.setattr(Forecaster, "model_for",
                        lambda self, x=None: calls.append(x) or model_for(self, x))
    report = metrics.evaluate_forecaster(fc, targets, features, m_samples=10, seed=4)
    assert len(calls) == 1 and calls[0].shape == features.shape
    monkeypatch.undo()
    value, n_eval, n_excl = metrics.log_score(fc, targets, features)
    assert (report.n_evaluated, report.n_excluded) == (n_eval, n_excl) and n_excl > 0
    assert report.log_score == pytest.approx(value, rel=1e-12)
    assert report.crps == [metrics.crps_marginal(fc, targets, d, features) for d in range(2)]
    assert report.energy_score == metrics.energy_score(fc, targets, features, m_samples=10, seed=4)


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


@pytest.mark.parametrize("name", ["uniform_d2", "conditional_d2"])
def test_reports_do_not_depend_on_block_size(monkeypatch, name):
    fc, doc = load_model(os.path.join(ROOT, "runs", f"{name}_model.json"))
    ds = load_csv(os.path.join(ROOT, "data", f"{name}.csv"), load_spec_from_doc(doc))
    features = ds.features[:300] if fc.conditional else None
    cdf_calls = []
    monkeypatch.setattr(metrics, "normalized_cdf",
                        lambda *a: cdf_calls.append(1) or normalized_cdf(*a))
    reports, calls = [], []
    for block_points in (16384, 4096, 1000, 5):
        monkeypatch.setattr(numerics, "BLOCK_POINTS", block_points)
        cdf_calls.clear()
        report = metrics.evaluate_forecaster(fc, ds.targets[:300], features, m_samples=50, seed=1)
        reports.append(report.to_json())
        calls.append(len(cdf_calls))
    assert calls == sorted(calls) and calls[0] < calls[-1]  # the sweep really re-blocks
    assert reports[1:] == reports[:1] * 3
    assert json.loads(reports[0])["energy_score"] is not None


def test_row_parameters_do_not_depend_on_the_block(monkeypatch):
    # a time step's forecast is the same alone or scored beside other steps
    fc, doc = load_model(os.path.join(ROOT, "runs", "conditional_d2_model.json"))
    x = load_csv(os.path.join(ROOT, "data", "conditional_d2.csv"), load_spec_from_doc(doc)).features
    alone = np.array([flatten(fc.model_for(row)) for row in x])
    for block_points in (5, 100, 4096, 2**20):
        monkeypatch.setattr(numerics, "BLOCK_POINTS", block_points)
        assert int(np.sum(flatten(fc.model_for(x)) != alone)) == 0, block_points
