import os
import subprocess
import sys

import numpy as np

import inputs
from conftest import BENCH


def _hashes(workload, seed, directory):
    os.makedirs(directory)
    files = inputs.write_inputs(workload, seed, str(directory))
    return {name: inputs.sha256(path) for name, path in files.items()}


def test_same_seed_gives_identical_bytes(tmp_path):
    for workload in ("fit", "score", "draw"):
        first = _hashes(workload, 5, tmp_path / f"{workload}-a")
        again = _hashes(workload, 5, tmp_path / f"{workload}-b")
        assert first == again


def test_other_seed_gives_other_rows(tmp_path):
    a = _hashes("fit", 5, tmp_path / "a")
    b = _hashes("fit", 6, tmp_path / "b")
    for name in ("fit.csv", "heldout.csv"):
        assert a[name] != b[name]
    s = _hashes("score", 5, tmp_path / "s")
    t = _hashes("score", 6, tmp_path / "t")
    assert s["score.csv"] != t["score.csv"] and s["energy.csv"] != t["energy.csv"]


def test_streams_are_distinct():
    _, fit = inputs.conditional_rows(5, "fit", 50)
    _, held = inputs.conditional_rows(5, "heldout", 50)
    assert not np.array_equal(fit, held)


def test_generator_never_imports_jdan(tmp_path):
    d = str(tmp_path)
    code = (f"import sys, inputs\n"
            f"inputs.write_inputs('fit', 1, {d!r})\n"
            f"inputs.write_inputs('score', 1, {d!r})\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'jdan']\n")
    subprocess.run([sys.executable, "-c", code], cwd=BENCH, check=True, timeout=60)


def test_rows_follow_the_generating_density():
    # under 1 + C m1 m2 with m = 1 - 2y uniform, E[m1 m2 | x] = C / 9 = 0.8 x / 9
    x, y = inputs.conditional_rows(0, "fit", 40_000)
    m = (1 - 2 * y[:, 0]) * (1 - 2 * y[:, 1])
    slope = np.sum(x * m) / np.sum(x * x)
    assert abs(slope - inputs.STRENGTH / 9) < 0.01
    assert np.all((y >= 0) & (y <= 1))
    # the marginals stay uniform
    for d in range(2):
        assert abs(np.mean(y[:, d]) - 0.5) < 0.01


def test_csv_round_trips_exactly(tmp_path):
    x, y = inputs.conditional_rows(3, "score", 20)
    path = str(tmp_path / "rows.csv")
    inputs.write_csv(path, x, y)
    rx, ry = inputs.read_csv(path)
    assert np.array_equal(rx[:, 0], x) and np.array_equal(ry, y)
