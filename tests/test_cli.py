"""CLI surface: train/evaluate/density/sample/verify end to end, exit codes."""

import csv
import hashlib
import itertools
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from jdan import cli
from jdan.cli import main
from jdan.copula import joint_pdf, sample
from jdan.data import load_csv
from jdan.errors import EvaluationError
from jdan import marginal
from jdan.hypernet import ArchitectureDescriptor, Forecaster, initialize_net
from jdan.metrics import pit_values
from jdan.model_io import load_model, load_spec_from_doc, save_model
from jdan.verify import battery, simpson_mass

from conftest import random_model, simpson_integral

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = os.path.join(ROOT, "runs")
SRC = os.path.join(ROOT, "src")

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
        "architecture": {"marginal_hidden": [6]},
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


def test_documents_carry_no_optimizer_state(trained, tmp_path):
    # nothing reads Adam's moments back, so saves leave them out; older
    # documents that still carry a "training_state" block load as before
    assert "training_state" not in json.loads(open(trained["model"]).read())
    for name, features in (("uniform_d2_model.json", None), ("conditional_d2_model.json", 0.5)):
        doc = json.loads(open(os.path.join(RUNS, name)).read())
        doc["training_state"] = {"adam_m": [0.0], "adam_v": [0.0], "adam_t": 1, "epoch": 1}
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        fc, _ = load_model(str(path))
        x = None if features is None else np.full(fc.net.input_dim, features)
        y = np.array([0.5 * (b.lower + b.upper) for b in fc.arch.bounds])
        assert np.isfinite(joint_pdf(fc.model_for(x), y))


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


def test_train_out_moves_the_history_too(trained, tmp_path):
    # --out writes the history beside the model, never to the config's history_out
    config_dir, out_dir = tmp_path / "config_dir", tmp_path / "out_dir"
    config_dir.mkdir()
    cfg = json.loads(open(trained["config"]).read())
    cfg.update(out=str(config_dir / "m.json"), history_out=str(config_dir / "h.csv"))
    cfg["data"]["path"] = str(trained["data"])
    cfg["training"]["max_epochs"] = 2
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["train", "--config", str(path), "--out", str(out_dir / "run.json"), "--quiet"]) == 0
    assert list(config_dir.iterdir()) == []
    assert sorted(p.name for p in out_dir.iterdir()) == ["run.json", "run_history.csv"]


@pytest.mark.parametrize("name", ["uniform_d2", "conditional_d2"])
def test_committed_runs_are_reproduced(name, tmp_path):
    # retraining a bundled config gives back its model and history byte for byte
    out, history = tmp_path / f"{name}.json", tmp_path / f"{name}_history.csv"
    assert main(["train", "--config", os.path.join(ROOT, "configs", f"{name}.json"),
                 "--out", str(out), "--quiet"]) == 0
    assert out.read_bytes() == open(os.path.join(RUNS, f"{name}_model.json"), "rb").read()
    assert history.read_bytes() == open(os.path.join(RUNS, f"{name}_history.csv"), "rb").read()
    if name == "uniform_d2":
        grid = tmp_path / "grid.csv"
        assert main(["density", "--model", str(out), "--grid", "64",
                     "--out", str(grid), "--quiet"]) == 0
        assert grid.read_bytes() == open(os.path.join(RUNS, "grid.csv"), "rb").read()


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
    assert table.startswith(f"report written to {out}\n")
    assert "log score" in table


def test_evaluate_pit_out(trained, tmp_path, monkeypatch):
    test_csv = write_uniform_csv(tmp_path / "test.csv", n=60, seed=3)
    pit_path = tmp_path / "pit.csv"
    calls = []
    model_for = Forecaster.model_for
    monkeypatch.setattr(Forecaster, "model_for",
                        lambda self, x=None: calls.append(x) or model_for(self, x))
    rc = main([
        "evaluate", "--model", trained["model"], "--data", str(test_csv),
        "--no-energy", "--seed", "0", "--pit-out", str(pit_path), "--quiet",
    ])
    assert rc == 0
    assert len(calls) == 1  # the report's PIT matrix is the one written
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


# sha256 of `sample -n 20000 --seed 7` on the committed models, the conditional one at
# --features 0.2: a kernel change that moves one draw fails here
SAMPLE_SHA256 = {
    "uniform_d2": "590c49fb80df2436c422f0a2ffe54591ab00cfd7ce752e1d9ebae22343f2f068",
    "conditional_d2": "8c4187e5488eef62d28416639dd2f243eab9cb74c429ebb4773c0eb73ec88601",
}


@pytest.mark.parametrize("name, features", [("uniform_d2", []),
                                            ("conditional_d2", ["--features", "0.2"])])
def test_committed_models_sample_pinned_bytes(name, features, tmp_path):
    out = tmp_path / "draws.csv"
    assert main(["sample", "--model", os.path.join(RUNS, f"{name}_model.json"), "-n", "20000",
                 "--seed", "7", "--out", str(out), "--quiet"] + features) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == SAMPLE_SHA256[name]



@pytest.mark.parametrize("fault", [None, EvaluationError, KeyboardInterrupt],
                         ids=["complete", "error", "interrupt"])
@pytest.mark.parametrize("old", [None, b"old bytes\n"], ids=["new_file", "old_file"])
def test_output_files_are_all_or_nothing(trained, tmp_path, monkeypatch, fault, old):
    # the renderer fails after two of its blocks have been written
    out = tmp_path / "draws.csv"
    if old is not None:
        out.write_bytes(old)
        out.chmod(0o640)  # the new file takes the old one's mode
    render = cli._csv

    def failing(*args):
        parts = render(*args)
        yield next(parts)
        yield next(parts)
        raise fault("rendering failed")

    if fault is not None:
        monkeypatch.setattr(cli, "_csv", failing)
    argv = ["sample", "--model", trained["model"], "-n", "9000", "--seed", "5",
            "--out", str(out), "--quiet"]
    if fault is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == (0 if fault is None else 3)
    if fault is None:
        assert out.read_text().count("\n") == 9001
    elif old is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == old
    if old is not None:
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
    assert os.listdir(tmp_path) == (["draws.csv"] if out.exists() else [])


def test_model_document_is_written_all_or_nothing(tmp_path, monkeypatch):
    # an interrupt after json.dump's first chunk leaves the old document, with its mode
    fc, doc = load_model(os.path.join(RUNS, "uniform_d2_model.json"))
    path, fresh = tmp_path / "model.json", tmp_path / "fresh.json"
    save_model(str(path), fc, data_spec=doc["data_spec"])
    old = path.read_bytes()
    assert old == (json.dumps(doc, indent=1) + "\n").encode()
    path.chmod(0o640)

    def interrupted(obj, fh, **kwargs):
        fh.write(next(json.JSONEncoder(**kwargs).iterencode(obj)))
        raise KeyboardInterrupt

    monkeypatch.setattr(json, "dump", interrupted)
    for target in (path, fresh):
        with pytest.raises(KeyboardInterrupt):
            save_model(str(target), fc)
    assert path.read_bytes() == old and stat.S_IMODE(os.stat(path).st_mode) == 0o640
    assert os.listdir(tmp_path) == ["model.json"]
    monkeypatch.undo()
    save_model(str(path), fc, data_spec=doc["data_spec"])
    assert path.read_bytes() == old and stat.S_IMODE(os.stat(path).st_mode) == 0o640


@pytest.mark.parametrize("via_link", [False, True], ids=["fifo", "link_to_fifo"])
def test_output_to_a_fifo_is_written_in_place(trained, tmp_path, via_link):
    # a FIFO (or a symlink to one) stays a FIFO and its reader gets the bytes a file gets;
    # the output is smaller than a pipe's buffer, so the writer never waits for the read
    argv = ["sample", "--model", trained["model"], "-n", "50", "--seed", "5", "--quiet"]
    assert main(argv + ["--out", str(tmp_path / "file.csv")]) == 0
    fifo = tmp_path / "draws.fifo"
    os.mkfifo(fifo)
    out = fifo
    if via_link:
        out = tmp_path / "draws.csv"
        out.symlink_to(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # a reader, so the writer's open returns
    try:
        assert main(argv + ["--out", str(out)]) == 0
        got = b"".join(iter(lambda: os.read(reader, 1 << 16), b""))
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert got == (tmp_path / "file.csv").read_bytes()
    assert sorted(os.listdir(tmp_path)) == sorted(["file.csv", "draws.fifo"]
                                                  + (["draws.csv"] if via_link else []))


def per_cell_csv(header, table):
    lines = [",".join(header)] + [",".join(f"{v:.17g}" for v in row) for row in table]
    return "\n".join(lines) + "\n"


def test_csv_outputs_match_per_cell_rendering(trained, tmp_path, capsys):
    fc, doc = load_model(trained["model"])
    model = fc.model_for(None)

    out = tmp_path / "draws.csv"
    # 9000 draws span three blocks of rendered text
    argv = ["sample", "--model", trained["model"], "-n", "9000", "--seed", "5", "--quiet"]
    assert main(argv + ["--out", str(out)]) == 0
    want = per_cell_csv(["y1", "y2"], sample(model, 9000, 5))
    assert out.read_text() == want
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == want

    # cell centers of an 8-cell grid per free dimension, y1 varying slowest
    centers = (np.arange(8) + 0.5) * (1.0 / 8)
    full = np.array([[a, b] for a in centers for b in centers])
    pinned = np.column_stack([centers, np.full(8, 0.25)])
    for fix, points in (([], full), (["--fix", "2=0.25"], pinned)):
        out = tmp_path / "grid.csv"
        assert main(["density", "--model", trained["model"], "--grid", "8", "--quiet",
                     "--out", str(out)] + fix) == 0
        table = np.column_stack([points, joint_pdf(model, points)])
        assert out.read_text() == per_cell_csv(["y1", "y2", "pdf"], table)

    test_csv = write_uniform_csv(tmp_path / "test.csv", n=50, seed=8)
    pit_path = tmp_path / "pit.csv"
    assert main(["evaluate", "--model", trained["model"], "--data", str(test_csv),
                 "--no-energy", "--quiet", "--pit-out", str(pit_path),
                 "--out", str(tmp_path / "report.json")]) == 0
    targets = load_csv(str(test_csv), load_spec_from_doc(doc)).targets
    assert pit_path.read_text() == per_cell_csv(["u1", "u2"], pit_values(fc, targets))

    # whole numbers as in the train history, beside fixed and exponent notation, +-0, inf,
    # nan and values next to 1e-4 and 1e17, over three blocks
    rng = np.random.default_rng(12)
    edges = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e-4, -1e-4, 1e17, 1e16, 1e300]
    edges += [np.nextafter(v, t) for v in (1e-4, -1e-4, 1e17) for t in (-np.inf, np.inf)]
    n = 9000
    table = np.column_stack([np.arange(1.0, n + 1), rng.choice(edges, n),
                             rng.standard_normal(n) * 10.0 ** rng.integers(-9, 20, n)])
    header = ["epoch", "a", "b"]
    assert "".join(cli._csv(header, table)) == per_cell_csv(header, table)


@pytest.fixture(scope="module")
def model_d3(tmp_path_factory):
    """A D = 3 model on a box that is not the unit cube, saved as a document."""
    arch = ArchitectureDescriptor(dim=3, bounds=[(-1.0, 2.0), (0.0, 1.0), (10.0, 13.5)],
                                  marginal_hidden=[[5]] * 3, activations=["sigmoid"] * 3)
    net = initialize_net(arch, seed=4)
    net.raw[:] = np.random.default_rng(4).normal(0.0, 0.8, net.raw.shape)
    path = tmp_path_factory.mktemp("d3") / "model.json"
    save_model(str(path), Forecaster(net, arch))
    return str(path)


@pytest.mark.parametrize("case, grid, fixes", [
    ("d3", 5, {}),
    ("d3", 6, {1: 0.3}),
    ("d3", 4, {2: 99.0}),  # outside the box: every density is 0
    ("d2", 70, {}),  # 4900 rows: two blocks of rendered text
], ids=["d3_free", "d3_one_fixed", "d3_fixed_outside", "d2_two_blocks"])
def test_density_grid_bytes_match_per_point_pdf(case, grid, fixes, trained, model_d3, tmp_path):
    path = model_d3 if case == "d3" else trained["model"]
    model = load_model(path)[0].model_for(None)
    axes = [[fixes[d]] if d in fixes else
            b.lower + b.width / grid * (np.arange(grid) + 0.5)  # cell centers
            for d, b in enumerate(model.bounds)]
    points = np.array(list(itertools.product(*axes)), dtype=np.float64)  # y1 varying slowest
    out = tmp_path / "grid.csv"
    fix = [arg for d, v in fixes.items() for arg in ("--fix", f"{d + 1}={v!r}")]
    assert main(["density", "--model", path, "--grid", str(grid), "--quiet",
                 "--out", str(out)] + fix) == 0
    want = per_cell_csv([f"y{d + 1}" for d in range(model.dim)] + ["pdf"],
                        np.column_stack([points, joint_pdf(model, points)]))
    assert out.read_text() == want
    if 2 in fixes:
        assert not np.any(joint_pdf(model, points))


def test_density_runs_each_marginal_once_per_axis_value(monkeypatch, tmp_path):
    # a marginal factor depends on its own coordinate only, so a 64 x 64 grid needs
    # its 64 values (and the ends L and U), not all 4096 points
    seen = {}
    psi = marginal._psi

    def counted(params, weights, a, *rest):
        seen[id(params)] = seen.get(id(params), 0) + a.size
        return psi(params, weights, a, *rest)

    monkeypatch.setattr(marginal, "_psi", counted)
    assert main(["density", "--model", os.path.join(RUNS, "uniform_d2_model.json"),
                 "--grid", "64", "--quiet", "--out", str(tmp_path / "grid.csv")]) == 0
    assert len(seen) == 2
    assert all(n <= 2 + 64 for n in seen.values()), seen


def test_grid_and_draw_bytes_do_not_depend_on_blas_threads(tmp_path):
    # evaluation makes no BLAS call, so holding OpenBLAS to one thread changes no
    # byte of the grid (its marginals run once per axis value) or of the draws
    model = os.path.join(RUNS, "conditional_d2_model.json")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    for argv in (["density", "--model", model, "--features", "0.3", "--grid", "257"],
                 ["sample", "--model", model, "--features", "0.3", "-n", "20000", "--seed", "4"]):
        default = tmp_path / "default.csv"
        assert main(argv + ["--quiet", "--out", str(default)]) == 0
        one = tmp_path / "one_thread.csv"
        subprocess.run([sys.executable, "-m", "jdan"] + argv + ["--quiet", "--out", str(one)],
                       env=env, check=True)
        assert one.read_bytes() == default.read_bytes(), argv[0]


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


@pytest.mark.parametrize("flag, value", [("--dim", "1"), ("--hidden", "0"), ("--trials", "0")])
def test_diagnose_miso_rejects_searches_that_cannot_find_a_witness(flag, value, tmp_path, capsys):
    # one input has no mixed partial and zero trials or hidden units search nothing,
    # so "no witness" would be a conclusion drawn from no evidence
    out = tmp_path / "miso.json"
    argv = ["diagnose-miso", "--activation", "sigmoid", "--trials", "3", flag, value,
            "--out", str(out), "--quiet"]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {flag} must be >=")
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_density_fix_rejects_non_finite_values(value, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    argv = ["density", "--model", os.path.join(RUNS, "uniform_d2_model.json"), "--grid", "4",
            "--fix", f"1={value}", "--out", str(out), "--quiet"]
    assert main(argv) == 2  # a usage error, not a numerical failure (exit 3)
    assert capsys.readouterr().err.startswith("error: --fix value must be finite")
    assert not out.exists()


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


MALFORMED = {
    "features_not_numbers": ("sample", None),
    "config_is_a_list": ("train", [1, 2]),
    "config_string_bound": ("train", {"bounds": [["a", 1.0], [0.0, 1.0]]}),
    "config_hidden_is_int": ("train", {"architecture": {"marginal_hidden": 5}}),
    "config_hidden_fraction": ("train", {"architecture": {"marginal_hidden": [8.5]}}),
    "config_hypernet_zero": ("train", {"architecture": {"hypernet_hidden": [0]}}),
    "config_hypernet_text": ("train", {"architecture": {"hypernet_hidden": ["a"]}}),
    "config_hypernet_fraction": ("train", {"architecture": {"hypernet_hidden": [2.5]}}),
    "config_batch_float": ("train", {"training": {"batch_size": 64.0}}),
    "config_epochs_fraction": ("train", {"training": {"max_epochs": 2.5}}),
    "config_patience_fraction": ("train", {"training": {"max_epochs": 1, "patience": 1.5}}),
    "config_learning_rate_nan": ("train", {"training": {"learning_rate": float("nan")}}),
    "config_grad_clip_nan": ("train", {"training": {"grad_clip": float("nan")}}),
    "config_lag_fraction": ("train", {"data": {"lag_windows": [1.5]}}),
    "config_lag_bool": ("train", {"data": {"lag_windows": [True]}}),
    "config_seed_fraction": ("train", {"seed": 2.7}),
    "config_seed_bool": ("train", {"seed": True}),
    "config_seed_text": ("train", {"seed": "3"}),
    "document_is_a_list": ("verify", [1, 2]),
    "document_string_bound": ("verify", lambda d: d["bounds"][0].update(lower="a")),
    "document_hidden_is_int": ("verify", lambda d: d["architecture"].update(marginal_hidden=5)),
    "document_raw_is_text": ("verify", lambda d: d.update(correlations={"raw": "x"})),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(case, trained, tmp_path, capsys):
    command, content = MALFORMED[case]
    path = tmp_path / "input.json"
    if command == "sample":
        argv = ["sample", "--model", os.path.join(RUNS, "conditional_d2_model.json"),
                "-n", "5", "--seed", "1", "--features", "abc"]
    elif command == "train":
        if isinstance(content, dict):  # no --seed below, so the config's own seed is read
            data = {"path": str(trained["data"]), "target_columns": ["y1", "y2"],
                    **content.get("data", {})}
            content = {"seed": 0, "out": "m.json", "training": {"max_epochs": 1},
                       **content, "data": data}
        path.write_text(json.dumps(content))
        argv = ["train", "--config", str(path), "--quiet"]
    else:
        if callable(content):
            doc = json.loads(open(trained["model"]).read())
            content(doc)
            content = doc
        path.write_text(json.dumps(content))
        argv = ["verify", "--model", str(path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("section, key", [
    (None, "sead"),
    ("data", "target_column"),
    ("bounds", "margn"),
    ("architecture", "marginal_hiden"),
    ("training", "momentum"),
])
def test_misspelled_config_keys_exit_2(section, key, trained, tmp_path, capsys):
    cfg = {"seed": 0, "out": "m.json",
           "data": {"path": str(trained["data"]), "target_columns": ["y1", "y2"]},
           "bounds": {"margin": 0.05}, "architecture": {"activations": "tanh"},
           "training": {"max_epochs": 1}}
    (cfg if section is None else cfg[section])[key] = 1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.update(training=[1]),
     "the training config section must be a JSON object, got [1]"),
    (lambda c: c.update(architecture=["x"]),
     "the architecture config section must be a JSON object, got ['x']"),
    (lambda c: c.update(data=["path"]), "the data config section must be a JSON object"),
    (lambda c: c.update(architecture={"marginal_hidden": [[8], 8]}),
     "marginal_hidden widths must be lists of positive integers, got 8"),
    (lambda c: c.update(bounds=[[0, 1], [0]]),
     "bounds must be [lower, upper] pairs, got [[0, 1], [0]]"),
    (lambda c: c["data"].update(target_columns="y1"), "target_columns must be a list, got 'y1'"),
], ids=["training", "architecture", "data", "marginal_hidden", "bounds", "target_columns"])
def test_config_errors_name_the_field(edit, message, trained, tmp_path, capsys):
    # a section or field of the wrong type is named, not reported in Python's words
    cfg = {"seed": 0, "out": "m.json", "training": {"max_epochs": 1},
           "data": {"path": str(trained["data"]), "target_columns": ["y1", "y2"]}}
    edit(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["data_spec"].update(feature_columns="x1"),
     "feature_columns must be a list, got 'x1'"),
    (lambda d: d["data_spec"].update(target_columns="y1"),
     "target_columns must be a list, got 'y1'"),
    (lambda d: d.update(data_spec="x"), "data_spec must be a JSON object, got 'x'"),
], ids=["feature_columns", "target_columns", "data_spec"])
def test_model_document_column_spec_errors_name_the_field(edit, message, tmp_path, capsys):
    # a string is refused, not split into one-letter column names
    doc = json.loads(open(os.path.join(RUNS, "conditional_d2_model.json")).read())
    edit(doc)
    path, out = tmp_path / "model.json", tmp_path / "report.json"
    path.write_text(json.dumps(doc))
    assert main(["evaluate", "--model", str(path), "--data",
                 os.path.join(ROOT, "data", "conditional_d2.csv"), "--no-energy",
                 "--out", str(out), "--quiet"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, seed", [
    ("train", -3), ("train", float("inf")), ("evaluate", -1), ("sample", -1), ("verify", -1),
    ("diagnose-miso", -1),
])
def test_negative_seed_exits_2(command, seed, trained, tmp_path, capsys):
    out = tmp_path / "out"
    if command == "train":
        cfg = {"seed": seed, "out": str(out),
               "data": {"path": str(trained["data"]), "target_columns": ["y1", "y2"]},
               "training": {"max_epochs": 1}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        argv = ["train", "--config", str(path)]
    else:
        argv = {
            "evaluate": ["evaluate", "--model", trained["model"], "--data", str(trained["data"]),
                         "--out", str(out)],
            "sample": ["sample", "--model", trained["model"], "-n", "5", "--out", str(out)],
            "verify": ["verify", "--model", trained["model"]],  # prints only, so takes no --out
            "diagnose-miso": ["diagnose-miso", "--trials", "1", "--out", str(out)],
        }[command] + ["--seed", str(seed)]
    assert main(argv + ["--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("name, report, pit_csv, energy", [
    ("uniform_d2", "uniform_metrics.json", "uniform_pit.csv", False),
    ("conditional_d2", "cond_metrics.json", None, False),
    ("conditional_d2", "cond_metrics.json", None, True),
], ids=["uniform_d2-uniform_metrics.json-uniform_pit.csv", "conditional_d2-cond_metrics.json-None",
        "conditional_d2-cond_metrics.json-energy"])
def test_committed_reports_are_reproduced(name, report, pit_csv, energy, tmp_path):
    # every field is reproduced exactly, the energy score too (default seed 0, m = 200);
    # that one is checked on one model only, to keep the test short
    out, pit = tmp_path / "report.json", tmp_path / "pit.csv"
    assert main(["evaluate", "--model", os.path.join(RUNS, f"{name}_model.json"),
                 "--data", os.path.join(ROOT, "data", f"{name}.csv"),
                 *([] if energy else ["--no-energy"]),
                 "--out", str(out), "--pit-out", str(pit), "--quiet"]) == 0
    want = open(os.path.join(RUNS, report)).read()
    if energy:
        assert out.read_text() == want
    else:
        got, want = json.loads(out.read_text()), json.loads(want)
        assert got.pop("energy_score") is None and want.pop("energy_score") > 0.0
        assert got == want
    if pit_csv is not None:
        assert pit.read_bytes() == open(os.path.join(RUNS, pit_csv), "rb").read()


@pytest.mark.parametrize("dim, n", [(2, 64), (3, 48)])
def test_box_integral_matches_oracle(dim, n):
    model, _ = random_model(np.random.default_rng(dim), dim=dim)
    assert abs(simpson_mass(model, n) - simpson_integral(model, n)) <= 1e-12


@pytest.mark.parametrize("name, features", [("uniform_d2", []),
                                            ("conditional_d2", ["--features", "0.3"])])
def test_verify_full_passes_on_bundled_models(name, features, capsys):
    model = os.path.join(RUNS, f"{name}_model.json")
    assert main(["verify", "--model", model, "--level", "full"] + features) == 0
    out = capsys.readouterr().out
    assert out.count("pass  ") == 12 and "FAIL" not in out
    assert "density integrates to 1 (simpson)" in out
    assert out.endswith("verify: all 12 checks passed\n")


# `verify --level full` stdout on the committed models, captured before the battery was batched
# (the round-trip maxima since inversion starts from the CDF table, the sampler's two lines since
# the battery checks the sampler)
PINNED_VERIFY = {"uniform_d2": [], "conditional_d2": ["--features", "0.2"]}
PINNED_VERIFY_OUT = {
    "uniform_d2": (
        'pass  lower corner cdf == 0  (0.000e+00)\n'
        'pass  upper corner cdf == 1  (0.000e+00)\n'
        'pass  lower faces cdf == 0  (0.000e+00)\n'
        'pass  cdf within [0,1]  (range [7.964e-05, 0.978942])\n'
        'pass  pdf nonnegative  (min 9.251e-01)\n'
        'pass  cdf monotone on random pairs  (min diff 1.562e-03)\n'
        'pass  margins reproduce marginal cdf  (max 0.000e+00)\n'
        'pass  quantile/cdf round trip  (max 1.580e-12)\n'
        'pass  density matches FD mixed partial  (max rel 6.282e-08)\n'
        'pass  density integrates to 1 (simpson)  (1.000000)\n'
        "pass  draws' PIT uniform per dimension  (max KS 3.195e-03)\n"
        "pass  draws' Spearman rho == C/(3P) per pair  (max error 1.672e-03)\n"
        'verify: all 12 checks passed\n'
    ),
    "conditional_d2": (
        'pass  lower corner cdf == 0  (0.000e+00)\n'
        'pass  upper corner cdf == 1  (0.000e+00)\n'
        'pass  lower faces cdf == 0  (0.000e+00)\n'
        'pass  cdf within [0,1]  (range [8.958e-05, 0.979902])\n'
        'pass  pdf nonnegative  (min 7.535e-01)\n'
        'pass  cdf monotone on random pairs  (min diff 1.822e-03)\n'
        'pass  margins reproduce marginal cdf  (max 0.000e+00)\n'
        'pass  quantile/cdf round trip  (max 7.274e-12)\n'
        'pass  density matches FD mixed partial  (max rel 1.359e-07)\n'
        'pass  density integrates to 1 (simpson)  (1.000000)\n'
        "pass  draws' PIT uniform per dimension  (max KS 3.195e-03)\n"
        "pass  draws' Spearman rho == C/(3P) per pair  (max error 1.663e-03)\n"
        'verify: all 12 checks passed\n'
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_VERIFY))
def test_verify_output_is_pinned(name, capsys):
    model = os.path.join(RUNS, f"{name}_model.json")
    assert main(["verify", "--model", model, "--level", "full"] + PINNED_VERIFY[name]) == 0
    assert capsys.readouterr().out == PINNED_VERIFY_OUT[name]


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
        "architecture": {"marginal_hidden": [4]},
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
        "architecture": {"marginal_hidden": [4], "hypernet_hidden": [8]},
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


@pytest.mark.parametrize("name, field, edit", [
    ("uniform_d2", "dim", lambda doc: doc.update(dim=2.5)),
    ("conditional_d2", "architecture.feature_dim",
     lambda doc: doc["architecture"].update(feature_dim=1.5)),
    ("conditional_d2", "conditioning.input_dim",
     lambda doc: doc["conditioning"].update(input_dim=1.5)),
    ("conditional_d2", "conditioning.layer_sizes entry",
     lambda doc: doc["conditioning"]["layer_sizes"].__setitem__(1, 32.5)),
], ids=["dim", "feature_dim", "input_dim", "layer_sizes"])
def test_non_integral_model_document_counts_exit_2(name, field, edit, tmp_path, capsys):
    # int() would truncate these and go on with a different model
    model = _edited_doc(os.path.join(RUNS, f"{name}_model.json"), tmp_path / "m.json", edit)
    out = tmp_path / "s.csv"
    features = ["--features", "0.2"] if name == "conditional_d2" else []
    assert main(["sample", "--model", model, "-n", "5", "--seed", "0", *features,
                 "--quiet", "--out", str(out)]) == 2
    assert f"model document {field} must be an integer" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, edit, field", [
    ("uniform_d2", lambda doc: doc.update(correlations=doc["correlations"]["raw"]),
     "correlations"),
    ("uniform_d2", lambda doc: doc["bounds"].__setitem__(0, [0.0, 1.0]), "bounds[0]"),
    ("uniform_d2", lambda doc: doc["marginals"].__setitem__(0, 3), "marginal 1"),
    ("uniform_d2", lambda doc: doc["marginals"][0].update(raw_weights=0.5),
     "marginal 1 raw_weights"),
    ("uniform_d2", lambda doc: doc.update(bounds={"lower": 0.0}), "bounds"),
    ("uniform_d2", lambda doc: doc.update(architecture=[8]), "architecture"),
    ("conditional_d2", lambda doc: doc.update(conditioning=[1]), "conditioning"),
    ("conditional_d2", lambda doc: doc.update(feature_scaling=0.5), "feature_scaling"),
], ids=["correlations_list", "bounds_entry_list", "marginal_number", "raw_weights_number",
        "bounds_object", "architecture_list", "conditioning_list", "feature_scaling_number"])
def test_wrongly_typed_document_fields_are_named(name, edit, field, tmp_path, capsys):
    # the first four quoted Python's own error ("list indices must be integers or slices,
    # not str") in place of the field
    model = _edited_doc(os.path.join(RUNS, f"{name}_model.json"), tmp_path / "m.json", edit)
    out = tmp_path / "s.csv"
    features = ["--features", "0.2"] if name == "conditional_d2" else []
    assert main(["sample", "--model", model, "-n", "5", "--seed", "0", *features,
                 "--quiet", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: model document {field} must be an ")
    assert "Traceback" not in err
    assert not out.exists()


def test_evaluate_feature_count_mismatch_exits_2(tmp_path, capsys):
    # lag windows add lagged columns, so the data carries more features than the net takes
    model = _edited_doc(os.path.join(RUNS, "conditional_d2_model.json"), tmp_path / "lag.json",
                        lambda doc: doc["data_spec"].update(lag_windows=[1]))
    assert main(["evaluate", "--model", model, "--data",
                 os.path.join(ROOT, "data", "conditional_d2.csv"), "--no-energy", "--quiet",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "error: expected 1 features, got 3\n"
    assert not (tmp_path / "r.json").exists()


def test_evaluate_refuses_features_for_an_unconditional_model(tmp_path, capsys):
    # the two lag columns and the first row were dropped unread
    model = _edited_doc(os.path.join(RUNS, "uniform_d2_model.json"), tmp_path / "lag.json",
                        lambda doc: doc["data_spec"].update(lag_windows=[1]))
    assert main(["evaluate", "--model", model, "--data",
                 os.path.join(ROOT, "data", "uniform_d2.csv"), "--no-energy", "--quiet",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert capsys.readouterr().err == "error: an unconditional forecaster takes no features, got 2\n"
    assert not (tmp_path / "r.json").exists()


def test_feature_scaling_of_the_wrong_width_exits_2(tmp_path, capsys):
    # one shift and scale were broadcast over both features of a two-feature net
    def widen(doc):
        c = doc["conditioning"]
        c["input_dim"] = c["layer_sizes"][0] = doc["architecture"]["feature_dim"] = 2
        c["weights"][0] = [row * 2 for row in c["weights"][0]]

    model = _edited_doc(os.path.join(RUNS, "conditional_d2_model.json"), tmp_path / "m.json",
                        widen)
    out = tmp_path / "s.csv"
    assert main(["sample", "--model", model, "-n", "5", "--seed", "0", "--features", "0.1,0.2",
                 "--quiet", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: feature_scaling has 1 columns for 2 features\n"
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-3"])
def test_sample_count_below_one_exits_2(count, tmp_path, capsys):
    out = tmp_path / "s.csv"
    assert main(["sample", "--model", os.path.join(RUNS, "uniform_d2_model.json"), "-n", count,
                 "--seed", "0", "--quiet", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: need at least one sample\n"
    assert not out.exists()


@pytest.mark.parametrize("name, features, message", [
    ("uniform_d2", "0.2", "an unconditional forecaster takes no features, got 1"),
    ("uniform_d2", "nan", "an unconditional forecaster takes no features, got 1"),
    ("conditional_d2", None, "a conditional forecaster needs features: 1 per row"),
    ("conditional_d2", "0.1,0.2", "expected 1 features, got 2"),
    ("conditional_d2", "nan", "features must be finite"),
    ("conditional_d2", "inf", "features must be finite"),
], ids=["uncond_column", "uncond_nan", "cond_none", "cond_width", "cond_nan", "cond_inf"])
@pytest.mark.parametrize("command", ["sample", "density", "verify"])
def test_bad_features_exit_2_with_the_one_message(command, name, features, message, tmp_path,
                                                   capsys):
    out = tmp_path / "out.csv"
    argv = [command, "--model", os.path.join(RUNS, f"{name}_model.json"), "--quiet"]
    argv += {"sample": ["-n", "5", "--seed", "0", "--out", str(out)],
             "density": ["--out", str(out)], "verify": []}[command]
    argv += [] if features is None else ["--features", features]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_unallocatable_energy_samples_exit_2(tmp_path, capsys):
    with open(os.path.join(ROOT, "data", "uniform_d2.csv"), encoding="utf-8") as fh:
        rows = tmp_path / "rows.csv"
        rows.write_text("".join(fh.readlines()[:4]), encoding="utf-8")
    # 2**32 squared is past numpy's largest array: refused without allocating anything
    assert main(["evaluate", "--model", os.path.join(RUNS, "uniform_d2_model.json"),
                 "--data", str(rows), "--energy-samples", str(2**32), "--quiet",
                 "--out", str(tmp_path / "r.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: energy score with m_samples=4294967296 needs ")
    assert err.endswith(" bytes for its pair distances\n")
    assert not (tmp_path / "r.json").exists()


# each request is at least a PiB, which numpy refuses without allocating anything
@pytest.mark.parametrize("args, message", [
    (["sample", "-n", "100000000000000", "--seed", "0"],
     "error: 100000000000000 draws of dimension 2 need 1600000000000000 bytes for their uniforms"),
    (["sample", "-n", str(10**20), "--seed", "0"],
     f"error: {10**20} draws of dimension 2 need {16 * 10**20} bytes for their uniforms"),
    (["density", "--grid", "100000000"],
     f"error: a grid of {10**16} points needs {16 * 10**16} bytes"),
], ids=["sample_pib", "sample_past_numpy_dims", "density_grid"])
def test_unallocatable_requests_exit_2(args, message, tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert main([*args, "--model", os.path.join(RUNS, "uniform_d2_model.json"),
                 "--quiet", "--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["density", "sample", "evaluate", "train"])
def test_bounds_whose_width_overflows_exit_2(command, tmp_path, capsys):
    # -1e308 and 1e308 are finite, but U - L is inf: every y1 came out inf and the
    # density 0, or the marginal net's first layer met a non-finite input
    out = tmp_path / "out.csv"
    if command == "train":
        write_uniform_csv(tmp_path / "train.csv")
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "seed": 1, "data": {"path": "train.csv", "target_columns": ["y1", "y2"]},
            "bounds": [[-1e308, 1e308], [0.0, 1.0]],
            "training": {"max_epochs": 1, "batch_size": 128},
        }), encoding="utf-8")
        argv = ["train", "--config", str(cfg)]
    else:
        def widen(doc):
            doc["bounds"][0] = {"lower": -1e308, "upper": 1e308}
        model = _edited_doc(os.path.join(RUNS, "uniform_d2_model.json"), tmp_path / "m.json",
                            widen)
        argv = {"density": ["density", "--grid", "4"],
                "sample": ["sample", "-n", "5", "--seed", "0"],
                "evaluate": ["evaluate", "--data", os.path.join(ROOT, "data", "uniform_d2.csv"),
                             "--no-energy"]}[command] + ["--model", model]
    assert main(argv + ["--quiet", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: bounds [-1e+308, 1e+308] are wider than a float holds\n")
    assert not out.exists()


@pytest.mark.parametrize("first", ["2=0.25", "02=0.25"])
def test_density_refuses_a_dimension_fixed_twice(first, tmp_path, capsys):
    out = tmp_path / "grid.csv"
    assert main(["density", "--model", os.path.join(RUNS, "uniform_d2_model.json"),
                 "--grid", "2", "--fix", first, "--fix", "2=0.5", "--quiet",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: --fix dimension 2 given twice\n"
    assert not out.exists()


def _recut_marginal(doc):
    """Marginal 2's 25 raw values as a [1, 2, 5, 1] net: the count of the stored [1, 8, 1]."""
    m = doc["marginals"][1]
    flat = np.concatenate([np.ravel(a) for a in m["raw_weights"] + m["biases"]])
    cuts = np.cumsum([2, 10, 5, 2, 5])
    w1, w2, w3, b1, b2, b3 = np.split(flat, cuts)
    m.update(layer_sizes=[1, 2, 5, 1],
             raw_weights=[w1.reshape(2, 1).tolist(), w2.reshape(5, 2).tolist(),
                          w3.reshape(1, 5).tolist()],
             biases=[b1.tolist(), b2.tolist(), b3.tolist()])


@pytest.mark.parametrize("name, edit, message", [
    ("uniform_d2", _recut_marginal,
     "marginal 2 layer_sizes [1, 2, 5, 1] disagrees with the architecture's [1, 8, 1]"),
    ("uniform_d2", lambda doc: doc["marginals"][1].update(activation="tanh"),
     "marginal 2 activation 'tanh' disagrees with the architecture's 'sigmoid'"),
    ("conditional_d2", lambda doc: doc["architecture"].update(hypernet_hidden=[7]),
     "conditioning.layer_sizes [1, 32, 32, 51] disagrees with the architecture's [1, 7, 51]"),
], ids=["marginal_layer_sizes", "marginal_activation", "hypernet_hidden"])
def test_model_documents_must_match_their_architecture(name, edit, message, tmp_path, capsys):
    # each of these loaded silently and ran a model the document does not describe
    model = _edited_doc(os.path.join(RUNS, f"{name}_model.json"), tmp_path / "m.json", edit)
    out = tmp_path / "s.csv"
    features = ["--features", "0.2"] if name == "conditional_d2" else []
    assert main(["sample", "--model", model, "-n", "5", "--seed", "0", *features,
                 "--quiet", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: model document {message}\n"
    assert not out.exists()


def test_model_arrays_must_fit_their_spans(tmp_path, capsys):
    def short_bias(doc):
        doc["marginals"][0]["biases"][0].pop()

    def extra_layer(doc):
        doc["marginals"][0]["raw_weights"].append([[0.0]])

    def short_correlations(doc):
        doc["correlations"]["raw"] = []

    errs = [
        "marginal 1 biases[0] shape (7,) disagrees with the architecture's (8,)",
        "marginal 1 raw_weights array count 3 disagrees with the architecture's 2",
        "correlations[0] shape (0,) disagrees with the architecture's (1,)",
    ]
    for k, (edit, err) in enumerate(zip((short_bias, extra_layer, short_correlations), errs)):
        model = _edited_doc(os.path.join(RUNS, "uniform_d2_model.json"),
                            tmp_path / f"m{k}.json", edit)
        assert main(["verify", "--model", model, "--quiet"]) == 2
        assert capsys.readouterr().err == f"error: model document {err}\n"


def _pop_conditioning_layer(doc):
    doc["conditioning"]["weights"].pop()
    doc["conditioning"]["biases"].pop()


def _repeat_conditioning_layer(doc):
    doc["conditioning"]["weights"].append(doc["conditioning"]["weights"][-1])
    doc["conditioning"]["biases"].append(doc["conditioning"]["biases"][-1])


@pytest.mark.parametrize("command", [
    ["sample", "-n", "5", "--seed", "0", "--features", "0.2"],
    ["evaluate", "--data", os.path.join(ROOT, "data", "conditional_d2.csv"), "--no-energy"],
], ids=["sample", "evaluate"])
@pytest.mark.parametrize("edit, counts", [
    (_pop_conditioning_layer, "3 layers, 2 weights, 2 biases"),
    (_repeat_conditioning_layer, "3 layers, 4 weights, 4 biases"),
], ids=["layer_fewer", "layer_extra"])
def test_conditioning_layer_counts_must_match(edit, counts, command, tmp_path, capsys):
    # one layer fewer failed on the raw vector's width, one more with an IndexError traceback
    model = _edited_doc(os.path.join(RUNS, "conditional_d2_model.json"), tmp_path / "m.json", edit)
    out = tmp_path / "out"
    assert main([command[0], "--model", model, *command[1:], "--quiet", "--out", str(out)]) == 2
    message = f"hypernet needs one weight and bias per layer: {counts}"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("name", ["uniform_d2", "conditional_d2"])
def test_bundled_models_save_back_byte_identical(name, tmp_path):
    src = os.path.join(RUNS, f"{name}_model.json")
    fc, doc = load_model(src)
    save_model(tmp_path / "m.json", fc, data_spec=doc["data_spec"])
    with open(src, "rb") as fh:
        assert (tmp_path / "m.json").read_bytes() == fh.read()


def test_verify_battery_fails_on_nan(trained):
    from jdan.copula import CorrelationParams
    from jdan.model_io import load_model

    model = load_model(trained["model"])[0].model_for()
    model.correlations = CorrelationParams(raw=[np.nan])
    results = {name: ok for name, ok, _ in battery(model, "quick", 0)}
    assert not results["lower faces cdf == 0"]
    assert not results["margins reproduce marginal cdf"]
    assert results["quantile/cdf round trip"]  # the marginals are intact


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command, flag", [
    *[(command, "--config") for command in ("evaluate", "density", "sample", "diagnose-miso",
                                            "verify")],
    ("density", "--seed"),
    ("verify", "--out"),
])
def test_flags_a_command_does_not_read_exit_2(command, flag, tmp_path, capsys):
    # a flag the command would drop is a usage error, so no run looks configured when it is not
    model = os.path.join(RUNS, "uniform_d2_model.json")
    argv = {
        "evaluate": ["--model", model, "--data", os.path.join(ROOT, "data", "uniform_d2.csv")],
        "density": ["--model", model],
        "sample": ["--model", model, "-n", "5", "--seed", "0"],
        "diagnose-miso": ["--trials", "1"],
        "verify": ["--model", model],
    }[command]
    value = "0" if flag == "--seed" else str(tmp_path / "given")
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, flag, value, "--quiet"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not os.listdir(tmp_path)


@pytest.mark.parametrize("command", [["sample", "-n", "5", "--seed", "0"], ["density"]],
                         ids=["sample", "density"])
def test_features_for_an_unconditional_model_exit_2(command, tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert main([command[0], "--model", os.path.join(RUNS, "uniform_d2_model.json"),
                 *command[1:], "--features", "0.2", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: an unconditional forecaster takes no features, got 1\n"
    assert not out.exists()


def test_a_command_imports_no_pool_and_starts_no_thread(tmp_path):
    # and the runtime needs numpy alone: verify's rank and KS checks import no scipy
    run = """
import sys, threading
import jdan.cli
rc = jdan.cli.main(["sample", "--model", sys.argv[1], "-n", "50", "--seed", "1", "--quiet",
                    "--out", sys.argv[2]])
rc += jdan.cli.main(["verify", "--model", sys.argv[1], "--level", "full", "--quiet"])
print(rc, "concurrent.futures" in sys.modules, threading.active_count(), "scipy" in sys.modules)
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    done = subprocess.run([sys.executable, "-c", run, os.path.join(RUNS, "uniform_d2_model.json"),
                           str(tmp_path / "draws.csv")], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "False", "1", "False"]
