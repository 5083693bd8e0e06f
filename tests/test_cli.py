"""CLI surface: train/evaluate/density/sample/verify end to end, exit codes."""

import csv
import json
import os

import numpy as np
import pytest

from jdan.cli import main

# training fixtures here are deliberately tiny; the batch-count advisory is noise
pytestmark = pytest.mark.filterwarnings("ignore:only .* samples:UserWarning")


def write_uniform_csv(path, n=800, seed=0, dim=2):
    rng = np.random.default_rng(seed)
    data = rng.uniform(size=(n, dim))
    header = ",".join(f"y{d + 1}" for d in range(dim))
    rows = "\n".join(",".join(f"{v:.10f}" for v in row) for row in data)
    path.write_text(header + "\n" + rows + "\n", encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small trained model shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = write_uniform_csv(root / "train.csv")
    config = {
        "seed": 1,
        "data": {"path": "train.csv", "target_columns": ["y1", "y2"]},
        "bounds": [[0.0, 1.0], [0.0, 1.0]],
        "marginal_hidden": [6],
        "training": {
            "learning_rate": 0.01,
            "batch_size": 128,
            "max_epochs": 8,
            "patience": 5,
        },
        "out": "run/model.json",
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    rc = main(["train", "--config", str(cfg_path), "--quiet"])
    assert rc == 0
    model = root / "run" / "model.json"
    assert model.exists()
    return {"root": root, "model": str(model), "config": str(cfg_path), "data": data}


def test_train_writes_model_and_history(trained):
    doc = json.loads(open(trained["model"]).read())
    assert doc["version"] == "jdan-v1"
    assert doc["dim"] == 2
    assert [list(b.values()) for b in doc["bounds"]] == [[0.0, 1.0], [0.0, 1.0]]
    assert len(doc["marginals"]) == 2
    assert len(doc["correlations"]["raw"]) == 1
    history = os.path.join(trained["root"], "run", "model_history.csv")
    lines = open(history).read().strip().splitlines()
    assert lines[0] == "epoch,train_nll,val_nll"
    assert len(lines) >= 2


def test_train_is_reproducible(trained, tmp_path):
    # same config, fresh output dir: byte-identical history NLL columns
    cfg = json.loads(open(trained["config"]).read())
    cfg["out"] = str(tmp_path / "again.json")
    cfg["data"]["path"] = str(trained["data"])
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["train", "--config", str(p), "--quiet"]) == 0
    h1 = open(os.path.join(trained["root"], "run", "model_history.csv")).read()
    h2 = open(tmp_path / "again_history.csv").read()
    assert h1 == h2


def test_verify_quick_passes(trained, capsys):
    rc = main(["verify", "--model", trained["model"], "--seed", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all 8 checks passed" in out
    assert "FAIL" not in out


def test_evaluate_writes_report(trained, tmp_path, capsys):
    test_csv = write_uniform_csv(tmp_path / "test.csv", n=400, seed=9)
    out = tmp_path / "report.json"
    rc = main([
        "evaluate", "--model", trained["model"], "--data", str(test_csv),
        "--energy-samples", "32", "--seed", "0", "--out", str(out),
    ])
    assert rc == 0
    rep = json.loads(out.read_text())
    # trained on uniform data: log score should be near 0, PIT near uniform
    assert abs(rep["log_score"]) < 0.1
    assert all(k <= 1.63 / np.sqrt(400) * 2 for k in rep["pit_ks"])
    assert rep["n_evaluated"] == 400
    table = capsys.readouterr().out
    assert "log score" in table


def test_evaluate_pit_out(trained, tmp_path):
    test_csv = write_uniform_csv(tmp_path / "test.csv", n=60, seed=3)
    pit_path = tmp_path / "pit.csv"
    rc = main([
        "evaluate", "--model", trained["model"], "--data", str(test_csv),
        "--no-energy", "--seed", "0", "--pit-out", str(pit_path), "--quiet",
    ])
    assert rc == 0
    with open(pit_path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u1", "u2"]
    vals = np.array(rows[1:], dtype=float)
    assert vals.shape == (60, 2)
    assert np.all((vals >= 0) & (vals <= 1))


def test_density_grid_sums_to_one(trained, tmp_path):
    out = tmp_path / "density.csv"
    rc = main([
        "density", "--model", trained["model"], "--grid", "64",
        "--out", str(out), "--quiet",
    ])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["y1", "y2", "pdf"]
    vals = np.array(rows[1:], dtype=float)
    assert vals.shape == (64 * 64, 3)
    cell = (1.0 / 64) ** 2  # unit box, cell-centered grid
    assert vals[:, 2].sum() * cell == pytest.approx(1.0, abs=0.02)
    assert np.all(vals[:, 2] >= 0)


def test_density_with_fixed_dimension(trained, tmp_path):
    out = tmp_path / "slice.csv"
    rc = main([
        "density", "--model", trained["model"], "--grid", "16",
        "--fix", "2=0.5", "--out", str(out), "--quiet",
    ])
    assert rc == 0
    vals = np.array(list(csv.reader(open(out)))[1:], dtype=float)
    assert vals.shape == (16, 3)
    np.testing.assert_allclose(vals[:, 1], 0.5)  # y2 pinned everywhere


def test_sample_deterministic_bytes(trained, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        rc = main([
            "sample", "--model", trained["model"], "-n", "200",
            "--seed", "7", "--out", str(out), "--quiet",
        ])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    rows = list(csv.reader(open(a)))
    assert rows[0] == ["y1", "y2"]
    vals = np.array(rows[1:], dtype=float)
    assert vals.shape == (200, 2)
    assert np.all((vals >= 0) & (vals <= 1))


def test_sample_requires_seed(trained, tmp_path):
    rc = main([
        "sample", "--model", trained["model"], "-n", "10",
        "--out", str(tmp_path / "s.csv"), "--quiet",
    ])
    assert rc == 2


def test_diagnose_miso_finds_sigmoid_witness(tmp_path, capsys):
    out = tmp_path / "miso.json"
    rc = main([
        "diagnose-miso", "--activation", "sigmoid", "--seed", "0",
        "--trials", "2000", "--out", str(out), "--quiet",
    ])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["witness_found"] is True
    assert rep["witness"]["value"] < -1e-8
    assert rep["activation"] == "sigmoid"


def test_diagnose_miso_linear_none(tmp_path):
    out = tmp_path / "miso.json"
    rc = main([
        "diagnose-miso", "--activation", "linear", "--seed", "0",
        "--trials", "200", "--out", str(out), "--quiet",
    ])
    assert rc == 0  # "no witness" is a finding, not a failure
    rep = json.loads(out.read_text())
    assert rep["witness_found"] is False
    assert rep["trials"] == 200


def test_exit_code_2_on_user_errors(trained, tmp_path):
    # missing config file
    assert main(["train", "--config", str(tmp_path / "nope.json")]) == 2
    # config without a seed anywhere
    cfg = tmp_path / "no_seed.json"
    cfg.write_text(json.dumps({"data": {"path": "x.csv", "target_columns": ["y1"]}}))
    assert main(["train", "--config", str(cfg)]) == 2
    # missing data file
    cfg2 = tmp_path / "no_data.json"
    cfg2.write_text(json.dumps({
        "seed": 0,
        "data": {"path": "absent.csv", "target_columns": ["y1", "y2"]},
    }))
    assert main(["train", "--config", str(cfg2)]) == 2
    # unknown training option
    cfg3 = tmp_path / "bad_key.json"
    cfg3.write_text(json.dumps({
        "seed": 0,
        "data": {"path": str(trained["data"]), "target_columns": ["y1", "y2"]},
        "training": {"momentum": 0.9},
    }))
    assert main(["train", "--config", str(cfg3)]) == 2
    # nonexistent model path
    assert main(["verify", "--model", str(tmp_path / "ghost.json")]) == 2


def test_exit_code_2_on_bad_model_document(trained, tmp_path):
    doc = json.loads(open(trained["model"]).read())
    doc["version"] = "jdan-v999"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", "--model", str(bad)]) == 2
    trunc = tmp_path / "trunc.json"
    trunc.write_text(open(trained["model"]).read()[:100])
    assert main(["verify", "--model", str(trunc)]) == 2


def test_density_too_many_free_dims(tmp_path):
    # 4-D model with nothing fixed: refuse to emit a 4-D grid
    rng = np.random.default_rng(0)
    data = rng.uniform(size=(400, 4))
    csv_path = tmp_path / "d4.csv"
    csv_path.write_text(
        "y1,y2,y3,y4\n"
        + "\n".join(",".join(f"{v:.8f}" for v in row) for row in data)
        + "\n"
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 0,
        "data": {"path": "d4.csv", "target_columns": ["y1", "y2", "y3", "y4"]},
        "bounds": [[0.0, 1.0]] * 4,
        "marginal_hidden": [4],
        "training": {"max_epochs": 1, "batch_size": 128},
        "out": "m4.json",
    }))
    assert main(["train", "--config", str(cfg), "--quiet"]) == 0
    model = str(tmp_path / "m4.json")
    assert main(["density", "--model", model, "--quiet",
                 "--out", str(tmp_path / "x.csv")]) == 2
    # fixing two dimensions brings it down to a plottable 2-D slice
    assert main(["density", "--model", model, "--grid", "8", "--quiet",
                 "--fix", "3=0.5", "--fix", "4=0.5",
                 "--out", str(tmp_path / "ok.csv")]) == 0


def test_jdan_threads_env(trained, tmp_path, monkeypatch):
    monkeypatch.setenv("JDAN_THREADS", "1")
    test_csv = write_uniform_csv(tmp_path / "t.csv", n=40, seed=4)
    rc = main([
        "evaluate", "--model", trained["model"], "--data", str(test_csv),
        "--no-energy", "--seed", "0", "--quiet",
        "--out", str(tmp_path / "r.json"),
    ])
    assert rc == 0
    monkeypatch.setenv("JDAN_THREADS", "zero")
    assert main([
        "evaluate", "--model", trained["model"], "--data", str(test_csv),
        "--no-energy", "--seed", "0", "--quiet",
        "--out", str(tmp_path / "r2.json"),
    ]) == 2


def test_conditional_round_trip(tmp_path):
    # features shift the correlation; train, then query two feature values
    rng = np.random.default_rng(1)
    n = 600
    x = rng.uniform(-1, 1, size=n)
    y = rng.uniform(size=(n, 2))
    rows = "\n".join(
        f"{a:.8f},{b:.8f},{c:.8f}" for a, (b, c) in zip(x, y)
    )
    (tmp_path / "cond.csv").write_text("x1,y1,y2\n" + rows + "\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "seed": 3,
        "data": {
            "path": "cond.csv",
            "feature_columns": ["x1"],
            "target_columns": ["y1", "y2"],
        },
        "bounds": [[0.0, 1.0], [0.0, 1.0]],
        "marginal_hidden": [4],
        "hypernet_hidden": [8],
        "training": {"max_epochs": 3, "batch_size": 128},
        "out": "cond.json",
    }))
    assert main(["train", "--config", str(cfg), "--quiet"]) == 0
    model = str(tmp_path / "cond.json")
    # conditional model refuses feature-free queries
    assert main(["sample", "--model", model, "-n", "5", "--seed", "0",
                 "--out", str(tmp_path / "s.csv"), "--quiet"]) == 2
    assert main(["sample", "--model", model, "-n", "5", "--seed", "0",
                 "--features", "0.2",
                 "--out", str(tmp_path / "s.csv"), "--quiet"]) == 0
    assert main(["verify", "--model", model, "--features", "0.2",
                 "--seed", "0", "--quiet"]) == 0


def _edited_doc(src, dest, edit):
    with open(src, encoding="utf-8") as fh:
        doc = json.load(fh)
    edit(doc)
    dest.write_text(json.dumps(doc), encoding="utf-8")  # json writes NaN as NaN
    return str(dest)


def test_non_finite_model_documents_exit_2(trained, tmp_path):
    def nan_corr(doc):
        doc["correlations"]["raw"][0] = float("nan")

    def inf_bias(doc):
        doc["marginals"][1]["biases"][0][0] = float("inf")

    test_csv = write_uniform_csv(tmp_path / "t.csv", n=30, seed=2)
    for k, edit in enumerate((nan_corr, inf_bias)):
        model = _edited_doc(trained["model"], tmp_path / f"bad{k}.json", edit)
        assert main(["evaluate", "--model", model, "--data", str(test_csv),
                     "--quiet", "--out", str(tmp_path / "r.json")]) == 2
        assert main(["sample", "--model", model, "-n", "20", "--seed", "0",
                     "--quiet", "--out", str(tmp_path / "s.csv")]) == 2
        assert main(["verify", "--model", model, "--seed", "0", "--quiet"]) == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_non_finite_conditional_documents(tmp_path):
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    source = os.path.join(root, "runs", "conditional_d2_model.json")
    with open(os.path.join(root, "data", "conditional_d2.csv"), encoding="utf-8") as fh:
        rows = tmp_path / "rows.csv"
        rows.write_text("".join(fh.readlines()[:6]), encoding="utf-8")

    def nan_weight(doc):
        doc["conditioning"]["weights"][0][0][0] = float("nan")

    def nan_scaling(doc):
        doc["feature_scaling"]["shift"][0] = float("nan")

    def overflow(doc):  # finite weights whose output layer overflows
        w = doc["conditioning"]["weights"][-1]
        doc["conditioning"]["weights"][-1] = [[1e308] * len(r) for r in w]

    for k, edit in enumerate((nan_weight, nan_scaling)):
        model = _edited_doc(source, tmp_path / f"bad{k}.json", edit)
        assert main(["sample", "--model", model, "-n", "5", "--seed", "0",
                     "--features", "0.2", "--quiet", "--out", str(tmp_path / "s.csv")]) == 2
    model = _edited_doc(source, tmp_path / "overflow.json", overflow)
    assert main(["verify", "--model", model, "--features", "0.2", "--quiet"]) == 3
    assert main(["evaluate", "--model", model, "--data", str(rows), "--no-energy",
                 "--quiet", "--out", str(tmp_path / "r.json")]) == 3


def test_verify_battery_fails_on_nan(trained):
    from jdan.cli import _verify_battery
    from jdan.copula import CorrelationParams
    from jdan.model_io import load_model

    model = load_model(trained["model"])[0].model_for()
    model.correlations = CorrelationParams(raw=[np.nan])
    results = {name: ok for name, ok, _ in _verify_battery(model, "quick", 0)}
    assert not results["lower faces cdf == 0"]
    assert not results["margins reproduce marginal cdf"]
    assert results["quantile/cdf round trip"]  # the marginals are intact


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
