"""One benchmark workload, in a process of its own.

    python3 perfbench/workload.py --workload W --workdir D --seed N \
        --seconds S --trace 0|1 [--setup-only]

Set-up imports jdan from the checkout's src/ and loads the workload's inputs
through model_io.load_model and data.load_csv. With --setup-only the process
stops there; run.py times that from a fresh interpreter.

Otherwise the process calls jdan.cli.main in-process. One iteration runs each
of the workload's two commands once, and iterations repeat until the
commands' own time adds up to --seconds. With --trace 1, untraced and traced
iterations alternate. The outputs are checked after the timed loop, and the
timings, checks and layer metrics go to D/result.json for run.py.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import statistics
import sys
import time
import traceback
from collections import namedtuple

import numpy as np

import checks
import inputs
import reference
import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TRAIN_OUT = re.compile(r"final validation nll (\S+) \(epoch \d+ of (\d+)\)")
ENERGY_REPLICATES = 4

# one CLI call: label is the throughput's name, items the work it does
# (None: rows x epochs, read from the train output)
Command = namedtuple("Command", "label argv outputs items")


def commands(workload, workdir, seed):
    def p(name):
        return os.path.join(workdir, name)

    if workload == "fit":
        return [
            Command(label, ["train", "--config", p(f"fit_b{b}.json"), "--quiet"],
                    [p(f"fit_b{b}_model.json"), p(f"fit_b{b}_history.csv")], None)
            for label, b in zip(("train_rows_per_s", "train_b256_rows_per_s"), inputs.FIT_RUNS)
        ]
    if workload == "score":
        base = ["evaluate", "--model", inputs.CONDITIONAL_MODEL, "--seed", str(seed), "--quiet"]
        return [
            Command("score_rows_per_s",
                    base + ["--data", p("score.csv"), "--no-energy", "--out", p("score_report.json")],
                    [p("score_report.json")], inputs.SCORE_ROWS),
            Command("evaluate_rows_per_s",
                    base + ["--data", p("energy.csv"), "--energy-samples",
                            str(inputs.ENERGY_SAMPLES), "--out", p("energy_report.json")],
                    [p("energy_report.json")], inputs.ENERGY_ROWS),
        ]
    model = inputs.UNIFORM_MODEL
    return [
        Command("draws_per_s", ["sample", "--model", model, "-n", str(inputs.DRAWS),
                                "--seed", str(seed), "--out", p("draws.csv"), "--quiet"],
                [p("draws.csv")], inputs.DRAWS),
        Command("density_points_per_s", ["density", "--model", model, "--grid",
                                         str(inputs.GRID), "--out", p("grid.csv"), "--quiet"],
                [p("grid.csv")], inputs.GRID ** 2),
    ]


def setup(workload, workdir):
    """Import jdan from this checkout and load the workload's inputs."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import jdan
    from jdan import data, model_io

    if os.path.dirname(os.path.abspath(jdan.__file__)) != os.path.join(src, "jdan"):
        raise SystemExit(f"jdan imported from {jdan.__file__}, not from {src}")
    spec = data.LoadSpec(feature_columns=["x1"], target_columns=["y1", "y2"])
    if workload == "fit":
        return {"fit": data.load_csv(os.path.join(workdir, "fit.csv"), spec)}
    if workload == "score":
        return {"model": model_io.load_model(inputs.CONDITIONAL_MODEL),
                "score": data.load_csv(os.path.join(workdir, "score.csv"), spec),
                "energy": data.load_csv(os.path.join(workdir, "energy.csv"), spec)}
    return {"model": model_io.load_model(inputs.UNIFORM_MODEL)}


def _digest(paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(inputs.sha256(path).encode() if os.path.exists(path) else b"missing")
    return h.hexdigest()


def run_command(cli, cmd, tracer=None):
    """(seconds, exit code or None if it raised, captured stdout) of one call."""
    out = io.StringIO()
    with tracer if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                rc = cli.main(cmd.argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            rc = None
        seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue()


def measure(cli, cmds, seconds, traced_too):
    """Run iterations until the commands' time reaches `seconds`."""
    iterations = []
    measured = 0.0
    while True:
        traced = traced_too and len(iterations) % 2 == 1
        tracer = tracing.Tracer() if traced else None  # one per iteration: span ids stay unique
        calls, spans = [], []
        for cmd in cmds:
            first = len(tracer.spans) if traced else 0
            secs, rc, text = run_command(cli, cmd, tracer)
            measured += secs
            calls.append({"seconds": secs, "rc": rc, "stdout": text, "digest": _digest(cmd.outputs)})
            spans.append(tracer.spans[first:] if traced else None)
        iterations.append({"traced": traced, "calls": calls, "spans": spans})
        # a traced run needs a warm untraced iteration to set against the traced ones
        if measured >= seconds and (not traced_too or len(iterations) >= 3):
            return iterations


def _items(cmd, call):
    if cmd.items is not None:
        return cmd.items
    m = TRAIN_OUT.search(call["stdout"])
    train_rows = inputs.FIT_ROWS - round(0.2 * inputs.FIT_ROWS)  # validation_fraction 0.2
    return train_rows * int(m.group(2)) if m else None


def throughput(cmds, iterations):
    """Items per second of each command: total over its successful untraced calls.

    Work done over time spent, not a median of per-call rates: the machine
    switches between a fast and a slow state every few seconds, and a
    median of a few calls jumps between the two states from run to run.
    """
    out = []
    for k, cmd in enumerate(cmds):
        items = seconds = 0.0
        for it in iterations:
            call = it["calls"][k]
            n = _items(cmd, call)
            if not it["traced"] and call["rc"] == 0 and n:
                items += n
                seconds += call["seconds"]
        out.append(items / seconds if seconds else None)
    return out


def _parse(label, load, path):
    """(value, []) or (None, [failed check]) when an output cannot be read."""
    try:
        return load(path), []
    except (OSError, ValueError) as exc:
        return None, [checks.Check(f"{label}: output readable", False, str(exc))]


def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_fit(cmds, iterations, workdir):
    from jdan import model_io
    from jdan.errors import JdanError

    hx, hy = inputs.read_csv(os.path.join(workdir, "heldout.csv"))
    truth = -float(inputs.true_log_density(hx[:, 0], hy).mean())
    out = []
    for k, cmd in enumerate(cmds):
        m = TRAIN_OUT.search(iterations[-1]["calls"][k]["stdout"])
        val = float(m.group(1)) if m else None
        try:
            fc, doc = model_io.load_model(cmd.outputs[0])
            reloads = fc.conditional and fc.arch.dim == 2
            gap = -float(reference.Model(doc, hx).log_density(hy).mean()) - truth
        except (OSError, ValueError, KeyError, JdanError):
            traceback.print_exc()
            reloads, gap = False, None
        out += checks.fit(cmd.label, val, gap, reloads)
    return out


def check_score(cmds, loaded, seed):
    from jdan.training import nll_loss

    fc, doc = loaded["model"]
    out = []
    for cmd, name, with_energy in zip(cmds, ("score", "energy"), (False, True)):
        report, bad = _parse(cmd.label, _json, cmd.outputs[0])
        if report is None:
            out += bad
            continue
        ds = loaded[name]
        log_ref = -nll_loss(fc.net, fc.arch, ds.targets, fc.feature_scaler.transform(ds.features))
        x, y = inputs.read_csv(cmd.argv[cmd.argv.index("--data") + 1])
        ref = reference.Model(doc, x)
        crps_ref = [float(ref.crps(y, d).mean()) for d in range(2)]
        ks_ref = [checks.ks_uniform(col) for col in ref.pit(y).T]
        energy_ref = (reference.energy_reference(doc, x, y, inputs.ENERGY_SAMPLES,
                                                 ENERGY_REPLICATES, [7, seed])
                      if with_energy else None)
        out += checks.score(cmd.label, report, y.shape[0], log_ref, crps_ref, ks_ref, energy_ref)
    return out


def check_draw(cmds):
    ref = reference.Model(inputs.UNIFORM_MODEL)
    out = []
    draws, bad = _parse(cmds[0].label, _csv, cmds[0].outputs[0])
    out += bad or checks.draws(cmds[0].label, draws, inputs.DRAWS, ref.lower, ref.upper,
                               lambda d, col: ref.cdf(d, col[None, :])[0])
    grid, bad = _parse(cmds[1].label, _csv, cmds[1].outputs[0])
    cell = float(np.prod((ref.upper - ref.lower) / inputs.GRID))
    out += bad or checks.grid(cmds[1].label, grid[:, -1], inputs.GRID ** 2, cell)
    return out


def baseline(workload, spans):
    """Per-unit layer times of one traced iteration, as the ROADMAP table states them."""
    def total(k, name):
        picked = [s.end - s.start for s in spans[k] if s.name == name]
        return sum(picked), len(picked)

    if workload == "fit":
        s, n = total(0, "training.nll_grad")
        return {"nll_grad_ms_per_batch128": 1e3 * s / n if n else None}
    if workload == "score":
        return {
            "log_score_ms_per_row": 1e3 * total(0, "metrics.log_score")[0] / inputs.SCORE_ROWS,
            "crps_ms_per_row_dim": 1e3 * total(0, "metrics.crps_marginal")[0] / (2 * inputs.SCORE_ROWS),
            "energy_ms_per_row": 1e3 * total(1, "metrics.energy_score")[0] / inputs.ENERGY_ROWS,
        }
    return {"sample_ms_per_1e4_draws": 1e3 * total(0, "copula.sample")[0] / (inputs.DRAWS / 1e4)}


def layer_report(workload, iterations):
    """Median per-layer metrics over traced iterations, plus tracing overhead."""
    traced = [it for it in iterations if it["traced"]]
    per_it = [tracing.layer_metrics([s for spans in it["spans"] for s in spans]) for it in traced]
    layers = {k: statistics.median(m[k] for m in per_it) for k in per_it[0]}

    def wall(its):
        return statistics.median(sum(c["seconds"] for c in it["calls"]) for it in its)

    # the first iteration runs cold, so it is left out of the comparison
    layers["trace.overhead_s"] = wall(traced) - wall([it for it in iterations[1:] if not it["traced"]])
    base = [baseline(workload, it["spans"]) for it in traced]
    return layers, {k: statistics.median(b[k] for b in base) for k in base[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    loaded = setup(args.workload, args.workdir)
    if args.setup_only:
        return 0
    from jdan import cli, parallel

    cmds = commands(args.workload, args.workdir, args.seed)
    iterations = measure(cli, cmds, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux

    results = [c for it in iterations for c in it["calls"]]
    found = [checks.identical(cmd.label, [it["calls"][k]["digest"] for it in iterations])
             for k, cmd in enumerate(cmds)]
    if args.workload == "fit":
        found += check_fit(cmds, iterations, args.workdir)
    elif args.workload == "score":
        found += check_score(cmds, loaded, args.seed)
    else:
        found += check_draw(cmds)

    rates = throughput(cmds, iterations)
    result = {
        "worker_count": parallel.worker_count(),
        "labels": [cmd.label for cmd in cmds],
        "iterations": [{"traced": it["traced"], "seconds": [c["seconds"] for c in it["calls"]],
                        "rc": [c["rc"] for c in it["calls"]]} for it in iterations],
        "calls": {"attempted": len(results), "failed": sum(c["rc"] != 0 for c in results)},
        "checks": [list(c) for c in found],
        "end_to_end": {"peak_rss_mb": peak_rss_mb, "cmd1_items_per_s": rates[0],
                       "cmd2_items_per_s": rates[1]},
    }
    if args.trace:
        result["per_layer"], result["baseline"] = layer_report(args.workload, iterations)
    with open(os.path.join(args.workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
