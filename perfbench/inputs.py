"""Seeded benchmark inputs, made with numpy alone.

Rows come from a known conditional density, not from jdan's sampler, so a
change to the program cannot change the data it is measured on:

    x ~ U(-1, 1),  (y1, y2) ~ 1 + C (1 - 2 y1)(1 - 2 y2) on [0, 1]^2,  C = 0.8 x

drawn by rejection under the envelope 2 (the density never exceeds 1.8).
The two model documents are frozen copies under models/, so rewriting the
repository's runs/ leaves the score and draw workloads unchanged.
"""

import hashlib
import json
import os

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
CONDITIONAL_MODEL = os.path.join(HERE, "models", "conditional_d2_model.json")
UNIFORM_MODEL = os.path.join(HERE, "models", "uniform_d2_model.json")
STRENGTH = 0.8
WORKLOADS = ("fit", "score", "draw")

FIT_ROWS = 4000
HELDOUT_ROWS = 2000  # fresh rows on which the fitted model is scored
SCORE_ROWS = 1000    # evaluate --no-energy
ENERGY_ROWS = 150    # full evaluate, energy score on
ENERGY_SAMPLES = 200
DRAWS = 100_000
GRID = 512
# batch size -> epochs; patience = epochs, so every run takes the same steps
FIT_RUNS = {128: 40, 256: 40}

_STREAMS = {"fit": 0, "heldout": 1, "score": 2, "energy": 3}


def conditional_rows(seed, stream, n):
    """(x, y): n rows of the generating density, from one seeded stream."""
    rng = np.random.default_rng([_STREAMS[stream], seed])
    x = rng.uniform(-1.0, 1.0, n)
    c = STRENGTH * x
    y = np.empty((n, 2))
    todo = np.arange(n)
    while todo.size:
        u = rng.uniform(size=(todo.size, 2))
        dens = 1.0 + c[todo] * (1.0 - 2.0 * u[:, 0]) * (1.0 - 2.0 * u[:, 1])
        ok = rng.uniform(size=todo.size) * 2.0 < dens
        y[todo[ok]] = u[ok]
        todo = todo[~ok]
    return x, y


def true_log_density(x, y):
    """log of the generating density at rows (x, y)."""
    return np.log1p(STRENGTH * x * (1.0 - 2.0 * y[:, 0]) * (1.0 - 2.0 * y[:, 1]))


def write_csv(path, x, y):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x1,y1,y2\n")
        for xi, (a, b) in zip(x, y):
            fh.write(f"{xi:.17g},{a:.17g},{b:.17g}\n")


def read_csv(path):
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return table[:, :1], table[:, 1:]


def fit_config(seed, batch_size):
    epochs = FIT_RUNS[batch_size]
    return {
        "seed": seed,
        "data": {"path": "fit.csv", "feature_columns": ["x1"],
                 "target_columns": ["y1", "y2"], "lag_windows": []},
        "bounds": [[0.0, 1.0], [0.0, 1.0]],
        "architecture": {"marginal_hidden": [8], "activations": "sigmoid",
                         "hypernet_hidden": [32, 32]},
        "training": {"learning_rate": 0.003, "batch_size": batch_size,
                     "max_epochs": epochs, "patience": epochs,
                     "validation_fraction": 0.2},
        "out": f"fit_b{batch_size}_model.json",
        "history_out": f"fit_b{batch_size}_history.csv",
    }


def write_inputs(workload, seed, workdir):
    """Write the workload's generated inputs into workdir; return {name: path}."""
    files = {}
    if workload == "fit":
        for stream, name, n in (("fit", "fit.csv", FIT_ROWS),
                                ("heldout", "heldout.csv", HELDOUT_ROWS)):
            files[name] = os.path.join(workdir, name)
            write_csv(files[name], *conditional_rows(seed, stream, n))
        for batch in FIT_RUNS:
            name = f"fit_b{batch}.json"
            files[name] = os.path.join(workdir, name)
            with open(files[name], "w", encoding="utf-8") as fh:
                json.dump(fit_config(seed, batch), fh, indent=1)
    elif workload == "score":
        files["conditional_d2_model.json"] = CONDITIONAL_MODEL
        for stream, name, n in (("score", "score.csv", SCORE_ROWS),
                                ("energy", "energy.csv", ENERGY_ROWS)):
            files[name] = os.path.join(workdir, name)
            write_csv(files[name], *conditional_rows(seed, stream, n))
    elif workload == "draw":
        files["uniform_d2_model.json"] = UNIFORM_MODEL
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return files


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
