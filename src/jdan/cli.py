"""Command-line interface.

Subcommands: train, evaluate, density, sample, diagnose-miso, verify.
Exit codes: 0 success, 2 usage/config/data problem, 3 numerical failure
(including verify-battery violations). All randomness flows from explicit
seeds — there are no wall-clock defaults anywhere. ``verify`` prints the
checks of ``jdan.verify.battery``, which holds every check and its bound.
"""

import argparse
import dataclasses
import json
import numbers
import os
import sys

import numpy as np

from . import model_io, render
from .activations import KINDS
from .copula import grid_pdf, sample as model_sample
from .data import ColumnScaler, LoadSpec, fit_bounds, load_csv
from .errors import ConfigError, ContractError, DataError, JdanError
from .hypernet import ArchitectureDescriptor, Forecaster
from .marginal import normalized_cdf  # noqa: F401  unused here; perfbench reads it by this name
from .metrics import evaluate_forecaster
from .miso import find_negative_witness
from .numerics import row_blocks
from .training import TrainConfig, train

# the keys each config section accepts; any other key is a usage error
_CONFIG_KEYS = {
    "top-level": {"seed", "data", "bounds", "architecture", "training", "out", "history_out"},
    "data": {"path"} | {f.name for f in dataclasses.fields(LoadSpec)},
    "bounds": {"margin"},
    "architecture": {"marginal_hidden", "activations", "hypernet_hidden"},
    "training": {f.name for f in dataclasses.fields(TrainConfig)} - {"seed"},
}


def _say(args, text):
    if not args.quiet:
        print(text)


def _resolve(path, base):
    """Relative paths inside a config resolve against the config file."""
    if path is None or os.path.isabs(path):
        return path
    return os.path.normpath(os.path.join(base, path))


def _with_parent(path):
    """path, once its directory exists."""
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    return path


def _emit(args, path, parts, note=None):
    """Write the text parts to path and say note, or to stdout when there is no path.

    A file is written whole or not at all (``model_io.write_file``), the parts
    rendered as they are written.
    """
    if not path:
        sys.stdout.writelines(parts)
        return
    model_io.write_file(_with_parent(path), lambda fh: fh.writelines(parts))
    if note is not None:
        _say(args, note)


def _csv(header, table, axes=()):
    """Header line, then one line per row at full float precision; a part per block of rows.

    Every value's text is exactly ``'%.17g' % v`` (``render.cells``). With grid
    axes, row r starts with point r of the axes' product (the last axis varying
    fastest), each axis value rendered once, and the table holds only the
    columns after it.
    """
    table = np.asarray(table, dtype=np.float64)
    points = [render.cells(a) for a in axes]  # (text, end) of each axis value
    shape = [len(a) for a in axes]
    yield ",".join(header) + "\n"
    for rows in row_blocks(len(table)):
        text, end = render.cells(table[rows])
        if axes:  # each row's point, then its values
            at = np.unravel_index(np.arange(rows.start, rows.start + len(end)), shape)
            text = np.column_stack([t.take(i) for (t, _), i in zip(points, at)] + [text])
            end = np.column_stack([e.take(i) for (_, e), i in zip(points, at)] + [end])
        yield render.lines(text, end)


def _load_config(args):
    if not args.config:
        raise ConfigError("this command requires --config")
    with open(args.config, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: not valid JSON ({exc})") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{args.config}: a config must be a JSON object")
    return cfg, os.path.dirname(os.path.abspath(args.config))


def _check_keys(section, name):
    if not isinstance(section, dict):
        raise ConfigError(f"the {name} config section must be a JSON object, got {section!r}")
    unknown = set(section) - _CONFIG_KEYS[name]
    if unknown:
        raise ConfigError(f"unknown {name} config key(s): {', '.join(sorted(unknown))}")


def _seed(args, cfg=None, required=False):
    """The run's seed: --seed, else the config's "seed", else 0 unless one is required."""
    seed = args.seed if args.seed is not None else (cfg or {}).get("seed")
    if seed is None:
        if required:
            where = "config \"seed\" or --seed" if cfg is not None else "--seed"
            raise ConfigError(f"{args.command} requires an explicit seed ({where})")
        return 0
    if not isinstance(seed, numbers.Integral) or isinstance(seed, bool) or seed < 0:
        raise ConfigError(f"a seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def _arch_from_config(cfg, dim, feature_dim, bounds):
    a = cfg.get("architecture", {})
    _check_keys(a, "architecture")
    hidden = a.get("marginal_hidden")
    if hidden is not None and hidden and not isinstance(hidden[0], list):
        hidden = [list(hidden)] * dim  # one shared spec
    acts = a.get("activations")
    if isinstance(acts, str):
        acts = [acts] * dim
    return ArchitectureDescriptor(
        dim=dim,
        bounds=bounds,
        marginal_hidden=hidden,
        activations=acts,
        feature_dim=feature_dim,
        hypernet_hidden=a.get("hypernet_hidden"),
    )


def cmd_train(args):
    cfg, base = _load_config(args)
    try:  # a wrongly typed config field surfaces as one of these
        _check_keys(cfg, "top-level")
        seed = _seed(args, cfg, required=True)
        data_cfg = cfg.get("data", {})
        _check_keys(data_cfg, "data")
        if "path" not in data_cfg:
            raise ConfigError("config needs a data section with a path")
        spec = LoadSpec(**{k: v for k, v in data_cfg.items() if k != "path"})
        ds = load_csv(_resolve(data_cfg["path"], base), spec)
        if ds.n_dropped:
            _say(args, f"dropped {ds.n_dropped} rows with missing values")

        bounds_cfg = cfg.get("bounds", {})
        if isinstance(bounds_cfg, list):
            if not all(isinstance(b, list) and len(b) == 2 for b in bounds_cfg):
                raise ConfigError(f"bounds must be [lower, upper] pairs, got {bounds_cfg!r}")
            bounds = [tuple(b) for b in bounds_cfg]
        else:
            _check_keys(bounds_cfg, "bounds")
            bounds = fit_bounds(ds.targets, margin=float(bounds_cfg.get("margin", 0.05)))
        arch = _arch_from_config(cfg, ds.targets.shape[1], ds.features.shape[1], bounds)

        t_cfg = cfg.get("training", {})
        _check_keys(t_cfg, "training")
        tc = TrainConfig(seed=seed, **t_cfg)
    except (AttributeError, TypeError, ValueError) as exc:
        raise ConfigError(f"{args.config}: malformed config ({exc})") from exc

    scaler = ColumnScaler.fit(ds.features)  # (n, 0) without feature columns: no features
    net, report = train(
        arch, ds.targets, scaler.transform(ds.features), config=tc,
        log=None if args.quiet else (lambda line: print(line)),
    )
    fc = Forecaster(net, arch, feature_scaler=scaler)

    out = args.out or _resolve(cfg.get("out", "model.json"), base)
    data_spec = {"path": data_cfg["path"], **dataclasses.asdict(spec)}
    model_io.save_model(_with_parent(out), fc, data_spec=data_spec)
    # with --out the history goes beside the model, never to the config's history_out
    history = None if args.out else _resolve(cfg.get("history_out"), base)
    history = history or os.path.splitext(out)[0] + "_history.csv"
    epochs = np.arange(1, len(report.train_nll) + 1)
    _emit(args, history,
          _csv(["epoch", "train_nll", "val_nll"],
               np.column_stack([epochs, report.train_nll, report.val_nll])),
          f"model written to {out}; history to {history}")
    print(f"final validation nll {report.best_validation_nll:.6f}"
          f" (epoch {report.best_epoch} of {report.stopped_epoch})")
    return 0


def _model(args):
    """The shared parameter set of --model at --features, which the model's check takes."""
    fc, _ = model_io.load_model(args.model)
    if args.features is None:
        return fc.model_for()
    try:
        x = np.array([float(v) for v in args.features.split(",")], dtype=np.float64)
    except ValueError:
        raise ConfigError(
            f"--features expects comma-separated numbers, got {args.features!r}") from None
    return fc.model_for(x)


def cmd_evaluate(args):
    fc, doc = model_io.load_model(args.model)
    spec = model_io.load_spec_from_doc(doc)
    ds = load_csv(args.data, spec)
    report = evaluate_forecaster(
        fc, ds.targets, ds.features, m_samples=args.energy_samples, seed=_seed(args),
        with_energy=not args.no_energy,
    )
    _emit(args, args.out, [report.to_json() + "\n"], f"report written to {args.out}")
    if not args.quiet:
        print(report.format_table())
    if args.pit_out:
        _emit(args, args.pit_out, _csv([f"u{d+1}" for d in range(fc.arch.dim)], report.pit))
    return 0


def _parse_fixes(fix_args, dim):
    fixed = {}
    for item in fix_args or []:
        try:
            name, value = item.split("=", 1)
            d, v = int(name), float(value)
        except ValueError:
            raise ConfigError(f"--fix expects DIM=VALUE with 1-based DIM, got {item!r}") from None
        if not 1 <= d <= dim:
            raise ConfigError(f"--fix dimension {d} out of range 1..{dim}")
        if not np.isfinite(v):
            raise ConfigError(f"--fix value must be finite, got {item!r}")
        if d - 1 in fixed:
            raise ConfigError(f"--fix dimension {d} given twice")
        fixed[d - 1] = v
    return fixed


def cmd_density(args):
    model = _model(args)
    if args.grid < 2:
        raise ConfigError("grid resolution must be >= 2")
    fixed = _parse_fixes(args.fix, model.dim)
    free = [d for d in range(model.dim) if d not in fixed]
    if not free:
        raise ConfigError("at least one dimension must remain free")
    if len(free) > 3:
        raise ConfigError(
            f"{len(free)} free dimensions; fix all but at most 3 with --fix DIM=VALUE"
        )
    size = args.grid ** len(free)
    # the evaluation's grid-sized temporaries take about as much as the grid's points would,
    # so a grid whose points cannot be allocated is refused before any file is opened
    try:  # a MemoryError, or a ValueError when numpy refuses the shape outright
        np.empty((size, model.dim))
    except (MemoryError, ValueError):
        raise ConfigError(f"a grid of {size} points needs {size * model.dim * 8} bytes") from None
    # cell centers, so sum(pdf) * cell volume is a honest Riemann estimate
    centers = np.arange(args.grid) + 0.5
    axes = [np.array([fixed[d]]) if d in fixed else
            model.bounds[d].lower + model.bounds[d].width / args.grid * centers
            for d in range(model.dim)]
    dens = grid_pdf(model, axes)
    _emit(args, args.out, _csv([f"y{d+1}" for d in range(model.dim)] + ["pdf"], dens[:, None],
                               axes),
          f"{size} grid densities written to {args.out}")
    return 0


def cmd_sample(args):
    model = _model(args)
    seed = _seed(args, required=True)
    draws = model_sample(model, args.count, seed)
    _emit(args, args.out, _csv([f"y{d+1}" for d in range(model.dim)], draws),
          f"{args.count} samples written to {args.out}")
    return 0


def cmd_diagnose_miso(args):
    for flag, least in (("dim", 2), ("hidden", 1), ("trials", 1)):  # else nothing is searched
        if getattr(args, flag) < least:
            raise ConfigError(f"--{flag} must be >= {least}, got {getattr(args, flag)}")
    seed = _seed(args)
    witness = find_negative_witness(
        seed=seed,
        max_trials=args.trials,
        activation=args.activation,
        dim=args.dim,
        hidden=args.hidden,
    )
    report = {
        "activation": args.activation,
        "dim": args.dim,
        "hidden": args.hidden,
        "trials": args.trials,
        "seed": seed,
        "witness_found": witness is not None,
    }
    if witness is None:
        report["witness"] = None
        report["note"] = (
            f"no negative mixed partial found in {args.trials} trials; consistent "
            "with this activation admitting a monotone-joint construction"
        )
    else:
        report["witness"] = {
            "trial": witness.trial,
            "value": witness.value,
            "p": witness.p,
            "q": witness.q,
            "y": witness.y.tolist(),
            "layer_sizes": witness.params.layer_sizes,
            "raw_weights": [w.tolist() for w in witness.params.raw_weights],
            "biases": [b.tolist() for b in witness.params.biases],
        }
        report["note"] = (
            "negative mixed partial found: a single multi-input monotone network "
            "of this activation cannot serve as a joint CDF"
        )
    _emit(args, args.out, [json.dumps(report, indent=2) + "\n"], f"report written to {args.out}")
    return 0


def cmd_verify(args):
    from . import verify  # here, so that no other command pays for importing it

    checks = verify.battery(_model(args), args.level, _seed(args))
    failures = 0
    for name, ok, detail in checks:
        failures += 0 if ok else 1
        _say(args, f"{'pass' if ok else 'FAIL'}  {name}  ({detail})")
    if failures:
        print(f"verify: {failures} of {len(checks)} checks failed", file=sys.stderr)
        return 3
    _say(args, f"verify: all {len(checks)} checks passed")
    return 0


def build_parser():
    shared = {"--config": {"help": "JSON config file"},
              "--seed": {"type": int, "help": "seed override"},
              "--out": {"help": "output path"},
              "--quiet": {"action": "store_true", "help": "suppress progress chatter"}}
    parser = argparse.ArgumentParser(
        prog="jdan",
        description="Nonparametric joint density forecasting with monotone-net marginals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, text, *flags):
        """A subcommand with the shared flags fn reads, --quiet always among them."""
        p = sub.add_parser(name, help=text)
        for flag in flags + ("--quiet",):
            p.add_argument(flag, **shared[flag])
        p.set_defaults(fn=fn)
        return p

    command("train", cmd_train, "fit a model from a config", "--config", "--seed", "--out")

    p = command("evaluate", cmd_evaluate, "score a model on a CSV", "--seed", "--out")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--energy-samples", type=int, default=200)
    p.add_argument("--no-energy", action="store_true", help="skip the energy score")
    p.add_argument("--pit-out", default=None, help="write PIT values as CSV")

    p = command("density", cmd_density, "joint density on a grid", "--out")
    p.add_argument("--model", required=True)
    p.add_argument("--features", default=None, help="comma-separated feature values")
    p.add_argument("--grid", type=int, default=64, help="cells per free dimension")
    p.add_argument("--fix", action="append", default=None, metavar="DIM=VALUE",
                   help="freeze a (1-based) dimension; repeatable")

    p = command("sample", cmd_sample, "draw joint samples", "--seed", "--out")
    p.add_argument("--model", required=True)
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--features", default=None)

    p = command("diagnose-miso", cmd_diagnose_miso,
                "search for a negative mixed partial of a monotone net", "--seed", "--out")
    p.add_argument("--activation", default="sigmoid", choices=KINDS)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--hidden", type=int, default=4)
    p.add_argument("--trials", type=int, default=10000)

    p = command("verify", cmd_verify, "run the invariant battery", "--seed")
    p.add_argument("--model", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ContractError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JdanError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
