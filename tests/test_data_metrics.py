"""CSV loading, bounds fitting, scalers, and the evaluation metric battery."""

import numpy as np
import pytest

from jdan.data import (
    ColumnScaler,
    Dataset,
    LoadSpec,
    clamp_to_bounds,
    fit_bounds,
    in_bounds_mask,
    load_csv,
)
from jdan.errors import (
    ContractError,
    CsvParseError,
    DegenerateDimensionError,
    EmptyDatasetError,
    MissingColumnError,
)
from jdan.hypernet import Forecaster, initialize_net
from jdan.metrics import (
    MetricsReport,
    crps_marginal,
    energy_score,
    evaluate_forecaster,
    log_score,
    pit_ks,
    pit_values,
)
from jdan.training import nll_loss

from conftest import unit_arch


def uniform_forecaster(dim=2):
    """Linear marginals + zero correlations on the unit box: density == 1."""
    arch = unit_arch(dim=dim, hidden=(4,), activation="linear")
    net = initialize_net(arch, seed=0)
    net.raw[:] = 0.0
    return Forecaster(net, arch)


def random_forecaster(seed=1, dim=2, feature_dim=0):
    arch = unit_arch(dim=dim, feature_dim=feature_dim)
    return Forecaster(initialize_net(arch, seed=seed), arch)


# ---------------------------------------------------------------- scaler


def test_scaler_fit_transform_roundtrip():
    rng = np.random.default_rng(0)
    x = rng.normal(3.0, 2.5, size=(200, 4))
    sc = ColumnScaler.fit(x)
    z = sc.transform(x)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-12)


def test_scaler_constant_column_passes_through():
    x = np.column_stack([np.full(10, 7.0), np.arange(10.0)])
    sc = ColumnScaler.fit(x)
    z = sc.transform(x)
    np.testing.assert_allclose(z[:, 0], 0.0, atol=1e-15)
    with pytest.raises(ContractError):
        ColumnScaler(shift=np.zeros(2), scale=np.array([1.0, 0.0]))


# ---------------------------------------------------------------- loading


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_load_csv_with_lags(tmp_path):
    # 5 usable rows, lags {1, 2}: first 2 rows consumed by lagging
    path = write_csv(
        tmp_path / "d.csv",
        "x1,y1,y2\n"
        "10,1,100\n"
        "11,2,200\n"
        "12,3,300\n"
        "13,4,400\n"
        "14,5,500\n",
    )
    spec = LoadSpec(feature_columns=["x1"], target_columns=["y1", "y2"], lag_windows=[1, 2])
    ds = load_csv(path, spec)
    assert ds.n == 3 and ds.dim == 2
    np.testing.assert_array_equal(ds.targets[:, 0], [3, 4, 5])
    assert ds.feature_names == ["x1", "y1_lag1", "y2_lag1", "y1_lag2", "y2_lag2"]
    # row 0 of features: x1 at the aligned row, then targets one and two back
    np.testing.assert_array_equal(ds.features[0], [12, 2, 200, 1, 100])
    np.testing.assert_array_equal(ds.features[2], [14, 4, 400, 3, 300])


def test_load_csv_drops_missing_rows(tmp_path):
    path = write_csv(
        tmp_path / "d.csv",
        "y1,y2\n"
        "1,2\n"
        ",3\n"          # missing cell
        "4,nan\n"       # non-finite counts as missing
        "5,6\n"
        "\n",           # blank line ignored entirely
    )
    ds = load_csv(path, LoadSpec(target_columns=["y1", "y2"]))
    assert ds.n == 2
    assert ds.n_dropped == 2
    np.testing.assert_array_equal(ds.targets, [[1, 2], [5, 6]])


def test_load_csv_parse_error_location(tmp_path):
    path = write_csv(tmp_path / "d.csv", "y1\n1\nbogus\n")
    with pytest.raises(CsvParseError) as err:
        load_csv(path, LoadSpec(target_columns=["y1"]))
    assert err.value.row == 3
    assert err.value.column == "y1"


def test_load_csv_missing_column(tmp_path):
    path = write_csv(tmp_path / "d.csv", "a,b\n1,2\n")
    with pytest.raises(MissingColumnError):
        load_csv(path, LoadSpec(target_columns=["y1"]))


def test_load_csv_empty_variants(tmp_path):
    empty = write_csv(tmp_path / "e.csv", "")
    with pytest.raises(EmptyDatasetError):
        load_csv(empty, LoadSpec(target_columns=["y1"]))
    header_only = write_csv(tmp_path / "h.csv", "y1\n")
    with pytest.raises(EmptyDatasetError):
        load_csv(header_only, LoadSpec(target_columns=["y1"]))
    too_short = write_csv(tmp_path / "s.csv", "y1\n1\n2\n")
    with pytest.raises(EmptyDatasetError):
        load_csv(too_short, LoadSpec(target_columns=["y1"], lag_windows=[5]))


def test_load_spec_validation():
    with pytest.raises(ContractError):
        LoadSpec(target_columns=[])
    with pytest.raises(ContractError):
        LoadSpec(feature_columns=["a"], target_columns=["a"])
    with pytest.raises(ContractError):
        LoadSpec(target_columns=["y"], lag_windows=[0])
    with pytest.raises(ContractError):
        LoadSpec(target_columns=["y"], lag_windows=[1, 1])


def test_dataset_validation():
    with pytest.raises(ContractError):
        Dataset(features=np.zeros((3, 1)), targets=np.zeros((4, 2)))


# ---------------------------------------------------------------- bounds


def test_fit_bounds_margin():
    y = np.array([[0.0, 10.0], [1.0, 20.0]])
    bs = fit_bounds(y, margin=0.05)
    assert bs[0].lower == pytest.approx(-0.05) and bs[0].upper == pytest.approx(1.05)
    assert bs[1].lower == pytest.approx(9.5) and bs[1].upper == pytest.approx(20.5)
    tight = fit_bounds(y, margin=0.0)
    assert tight[0].lower == 0.0 and tight[0].upper == 1.0


def test_fit_bounds_degenerate_column():
    y = np.column_stack([np.arange(5.0), np.full(5, 3.0)])
    with pytest.raises(DegenerateDimensionError):
        fit_bounds(y)


def test_bounds_mask_and_clamp():
    bounds = fit_bounds(np.array([[0.0, 0.0], [1.0, 1.0]]), margin=0.0)
    y = np.array([[0.5, 0.5], [1.5, 0.5], [0.5, -0.1]])
    np.testing.assert_array_equal(in_bounds_mask(y, bounds), [True, False, False])
    clamped = clamp_to_bounds(y, bounds)
    np.testing.assert_array_equal(clamped, [[0.5, 0.5], [1.0, 0.5], [0.5, 0.0]])
    # clamping copies; the input is untouched
    assert y[1, 0] == 1.5


# ---------------------------------------------------------------- metrics


def test_log_score_is_negative_nll():
    rng = np.random.default_rng(2)
    fc = random_forecaster(seed=3)
    targets = rng.uniform(0.05, 0.95, size=(50, 2))
    ls, n_eval, n_excl = log_score(fc, targets)
    nll = nll_loss(fc.net, fc.arch, targets)
    assert ls == pytest.approx(-nll, abs=1e-12)
    assert n_eval == 50 and n_excl == 0


def test_log_score_excludes_out_of_bounds_rows():
    fc = uniform_forecaster()
    targets = np.array([[0.5, 0.5], [2.0, 0.5], [0.2, 0.8]])
    ls, n_eval, n_excl = log_score(fc, targets)
    assert n_eval == 2 and n_excl == 1
    assert ls == pytest.approx(np.log(1.0 + 1e-12), abs=1e-12)
    with pytest.raises(ContractError):
        log_score(fc, np.array([[5.0, 5.0]]))


def test_crps_uniform_hand_values():
    # uniform forecast on [0,1]: CRPS(y) = int_0^y t^2 + int_y^1 (t-1)^2
    #                                    = (y^3 + (1-y)^3) / 3
    # F is linear, so Simpson integrates F^2 and F exactly: only rounding is left
    fc = uniform_forecaster()
    at_half = crps_marginal(fc, np.array([[0.5, 0.5]]), 0)
    assert at_half == pytest.approx(1.0 / 12.0, abs=1e-12)
    at_zero = crps_marginal(fc, np.array([[0.0, 0.5]]), 0)
    assert at_zero == pytest.approx(1.0 / 3.0, abs=1e-12)
    at_quarter = crps_marginal(fc, np.array([[0.25, 0.5]]), 0)
    want = (0.25**3 + 0.75**3) / 3.0
    assert at_quarter == pytest.approx(want, abs=1e-12)


def test_crps_mean_over_rows():
    fc = uniform_forecaster()
    y = np.array([[0.5, 0.5], [0.0, 0.5]])
    got = crps_marginal(fc, y, 0)
    assert got == pytest.approx((1 / 12 + 1 / 3) / 2, abs=1e-12)


def test_crps_hands_at_most_131_points_per_row_to_the_net(monkeypatch):
    # the bound of the 129-node Simpson table plus two points, which the Kronrod
    # rule's 32 points per row keep well inside (pinned in test_batched_eval)
    from jdan import marginal

    points = []
    psi = marginal._psi
    monkeypatch.setattr(marginal, "_psi",
                        lambda *a, **kw: points.append(np.size(a[2])) or psi(*a, **kw))
    rng = np.random.default_rng(7)
    for fc, features in ((random_forecaster(feature_dim=2), rng.normal(size=(50, 2))),
                         (random_forecaster(), None)):
        for d in range(2):
            points.clear()
            crps_marginal(fc, rng.random((50, 2)), d, features)
            assert 0 < sum(points) <= 131 * 50


@pytest.mark.parametrize("conditional", [False, True], ids=["unconditional", "conditional"])
@pytest.mark.parametrize("metric", [
    lambda fc, y, x: crps_marginal(fc, y, 0, x),
    lambda fc, y, x: energy_score(fc, y, x),
], ids=["crps", "energy"])
def test_metrics_on_zero_rows_raise(metric, conditional):
    # not a NaN mean of nothing, as log_score already refuses
    fc = random_forecaster(feature_dim=2) if conditional else uniform_forecaster()
    with pytest.raises(ContractError, match="no rows to score"):
        metric(fc, np.empty((0, 2)), np.empty((0, 2)) if conditional else None)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("metric", [
    lambda fc, y: log_score(fc, y),
    lambda fc, y: crps_marginal(fc, y, 0),
    lambda fc, y: pit_values(fc, y),
    lambda fc, y: pit_ks(fc, y, 0),
    lambda fc, y: energy_score(fc, y, m_samples=4),
    lambda fc, y: evaluate_forecaster(fc, y, m_samples=4),
], ids=["log_score", "crps", "pit_values", "pit_ks", "energy", "evaluate"])
def test_metrics_refuse_non_finite_targets(metric, bad):
    # NaN gave a NaN energy score or a misleading activation error, inf an
    # infinite one, and log_score excluded +-inf rows as out of bounds
    y = np.random.default_rng(4).random((25, 2))
    y[7, 1] = bad
    with pytest.raises(ContractError, match=r"target row 7 is not finite"):
        metric(uniform_forecaster(), y)


@pytest.mark.parametrize("metric", [
    lambda fc, y, x: log_score(fc, y, x),
    lambda fc, y, x: crps_marginal(fc, y, 0, x),
    lambda fc, y, x: pit_values(fc, y, x).tolist(),
    lambda fc, y, x: energy_score(fc, y, x, m_samples=4),
    lambda fc, y, x: evaluate_forecaster(fc, y, x, m_samples=4).to_json(),
], ids=["log_score", "crps", "pit_values", "energy", "evaluate"])
def test_unconditional_metrics_refuse_stray_features(metric):
    # the features were dropped unread, where the CLI and nfn_forward refuse them
    fc, y = uniform_forecaster(), np.random.default_rng(8).random((50, 2))
    for x in (np.zeros((50, 3)), np.zeros((7, 3)), np.full((50, 3), np.nan)):
        with pytest.raises(ContractError, match="takes no features, got 3"):
            metric(fc, y, x)
    want = metric(fc, y, None)
    assert metric(fc, y, np.empty((50, 0))) == want


def test_pit_values_uniform_model_identity():
    # uniform marginals: PIT of y is y itself
    fc = uniform_forecaster()
    rng = np.random.default_rng(3)
    y = rng.uniform(size=(30, 2))
    np.testing.assert_allclose(pit_values(fc, y), y, atol=1e-12)


def test_pit_ks_calibrated_vs_miscalibrated():
    fc = uniform_forecaster()
    rng = np.random.default_rng(4)
    calibrated = rng.uniform(size=(500, 2))
    ks = pit_ks(fc, calibrated, 0)
    assert ks <= 1.63 / np.sqrt(500)
    skewed = rng.uniform(size=(500, 2)) ** 3  # not uniform at all
    assert pit_ks(fc, skewed, 0) > 1.63 / np.sqrt(500)


def test_pit_ks_needs_twenty_rows():
    fc = uniform_forecaster()
    with pytest.raises(ContractError):
        pit_ks(fc, np.full((19, 2), 0.5), 0)


def test_energy_score_deterministic_and_sane():
    fc = random_forecaster(seed=5)
    rng = np.random.default_rng(6)
    y = rng.uniform(0.1, 0.9, size=(10, 2))
    a = energy_score(fc, y, m_samples=64, seed=9)
    b = energy_score(fc, y, m_samples=64, seed=9)
    c = energy_score(fc, y, m_samples=64, seed=10)
    assert a == b
    assert a != c
    assert a > 0
    with pytest.raises(ContractError):
        energy_score(fc, y, m_samples=1)


def test_energy_score_prefers_the_true_region():
    # observations near the box center: a forecaster matching them scores
    # better than the same forecaster scored against far-corner observations
    fc = uniform_forecaster()
    near = np.full((8, 2), 0.5)
    far = np.full((8, 2), 0.999)
    assert energy_score(fc, near, m_samples=128, seed=0) < energy_score(
        fc, far, m_samples=128, seed=0
    )


def test_evaluate_forecaster_report():
    fc = uniform_forecaster()
    rng = np.random.default_rng(7)
    y = rng.uniform(size=(200, 2))
    rep = evaluate_forecaster(fc, y, m_samples=32, seed=0)
    assert isinstance(rep, MetricsReport)
    assert rep.log_score == pytest.approx(0.0, abs=1e-9)
    assert len(rep.crps) == 2 and len(rep.pit_ks) == 2
    assert rep.n_evaluated == 200 and rep.n_excluded == 0
    d = rep.to_dict()
    assert set(d) == {
        "log_score", "crps", "pit_ks", "energy_score", "n_evaluated", "n_excluded",
    }
    assert "log score" in rep.format_table()


def test_evaluate_forecaster_small_sample_skips_ks():
    fc = uniform_forecaster()
    rng = np.random.default_rng(8)
    y = rng.uniform(size=(10, 2))
    rep = evaluate_forecaster(fc, y, with_energy=False)
    assert rep.pit_ks == [None, None]
    assert rep.energy_score is None
    assert "n < 20" in rep.format_table()
    # None round-trips through the JSON document too
    assert '"pit_ks"' in rep.to_json()


def test_conditional_metrics_paths():
    rng = np.random.default_rng(9)
    fc = random_forecaster(seed=10, feature_dim=1)
    x = rng.normal(size=(25, 1))
    y = rng.uniform(0.1, 0.9, size=(25, 2))
    ls, n_eval, _ = log_score(fc, y, x)
    assert np.isfinite(ls) and n_eval == 25
    pit = pit_values(fc, y, x)
    assert pit.shape == (25, 2)
    assert np.all((pit >= 0) & (pit <= 1))
    rep = evaluate_forecaster(fc, y, x, m_samples=16, seed=1)
    assert np.isfinite(rep.crps).all()
