"""Command-line interface.

Subcommands: train, evaluate, density, sample, diagnose-miso, verify.
Exit codes: 0 success, 2 usage/config/data problem, 3 numerical failure
(including verify-battery violations). All randomness flows from explicit
seeds — there are no wall-clock defaults anywhere.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import model_io
from .copula import joint_cdf, joint_pdf, mixed_partial_fd, sample as model_sample
from .data import ColumnScaler, LoadSpec, fit_bounds, load_csv
from .errors import ConfigError, ContractError, DataError, JdanError
from .hypernet import ArchitectureDescriptor, Forecaster
from .marginal import inverse_cdf, normalized_cdf
from .metrics import evaluate_forecaster, pit_values
from .miso import find_negative_witness
from .parallel import worker_count
from .training import TrainConfig, train, write_history_csv

_TRAIN_KEYS = {
    "learning_rate", "batch_size", "max_epochs", "patience",
    "grad_clip", "validation_fraction",
}


def _say(args, text):
    if not args.quiet:
        print(text)


def _resolve(path, base):
    """Relative paths inside a config resolve against the config file."""
    if path is None or os.path.isabs(path):
        return path
    return os.path.normpath(os.path.join(base, path))


def _write_text(path, text):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_config(args):
    if not args.config:
        raise ConfigError("this command requires --config")
    with open(args.config, encoding="utf-8") as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{args.config}: not valid JSON ({exc})") from exc
    return cfg, os.path.dirname(os.path.abspath(args.config))


def _require_seed(args, cfg):
    if args.seed is not None:
        return int(args.seed)
    if "seed" in cfg:
        return int(cfg["seed"])
    raise ConfigError("an explicit seed is required (config \"seed\" or --seed)")


def _arch_from_config(cfg, dim, feature_dim, bounds):
    a = cfg.get("architecture", {})
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
    seed = _require_seed(args, cfg)
    data_cfg = cfg.get("data")
    if not data_cfg or "path" not in data_cfg:
        raise ConfigError("config needs a data section with a path")
    spec = LoadSpec(
        feature_columns=data_cfg.get("feature_columns", []),
        target_columns=data_cfg.get("target_columns", []),
        lag_windows=data_cfg.get("lag_windows", []),
    )
    ds = load_csv(_resolve(data_cfg["path"], base), spec)
    if ds.n_dropped:
        _say(args, f"dropped {ds.n_dropped} rows with missing values")

    bounds_cfg = cfg.get("bounds", {"margin": 0.05})
    if isinstance(bounds_cfg, list):
        bounds = [tuple(b) for b in bounds_cfg]
    else:
        bounds = fit_bounds(ds.targets, margin=float(bounds_cfg.get("margin", 0.05)))
    dim = ds.targets.shape[1]
    feature_dim = ds.features.shape[1]
    arch = _arch_from_config(cfg, dim, feature_dim, bounds)

    t_cfg = dict(cfg.get("training", {}))
    unknown = set(t_cfg) - _TRAIN_KEYS
    if unknown:
        raise ConfigError(f"unknown training option(s): {', '.join(sorted(unknown))}")
    tc = TrainConfig(seed=seed, **t_cfg)

    scaler = None
    features = None
    if feature_dim > 0:
        scaler = ColumnScaler.fit(ds.features)
        features = scaler.transform(ds.features)

    net, report = train(
        arch, ds.targets, features, config=tc,
        log=None if args.quiet else (lambda line: print(line)),
    )
    fc = Forecaster(net, arch, feature_scaler=scaler)

    out = args.out or _resolve(cfg.get("out", "model.json"), base)
    data_spec = {
        "path": data_cfg["path"],
        "feature_columns": spec.feature_columns,
        "target_columns": spec.target_columns,
        "lag_windows": spec.lag_windows,
    }
    parent = os.path.dirname(os.path.abspath(out))
    os.makedirs(parent, exist_ok=True)
    model_io.save_model(out, fc, data_spec=data_spec, training_state=report.optimizer_state)
    history = _resolve(cfg.get("history_out"), base) or os.path.splitext(out)[0] + "_history.csv"
    os.makedirs(os.path.dirname(os.path.abspath(history)), exist_ok=True)
    write_history_csv(report, history)
    _say(args, f"model written to {out}; history to {history}")
    print(f"final validation nll {report.best_validation_nll:.6f}"
          f" (epoch {report.best_epoch} of {report.stopped_epoch})")
    return 0


def _features_arg(fc, text):
    if not fc.conditional:
        return None
    if text is None:
        raise ConfigError("this model is conditional; pass --features v1,v2,...")
    vals = np.array([float(v) for v in text.split(",")], dtype=np.float64)
    return vals


def cmd_evaluate(args):
    fc, doc = model_io.load_model(args.model)
    spec = model_io.load_spec_from_doc(doc)
    ds = load_csv(args.data, spec)
    features = ds.features if fc.conditional else None
    if fc.conditional and ds.features.shape[1] != fc.net.input_dim:
        raise ConfigError(
            f"model expects {fc.net.input_dim} features, data provides {ds.features.shape[1]}"
        )
    seed = args.seed if args.seed is not None else 0
    report = evaluate_forecaster(
        fc, ds.targets, features, m_samples=args.energy_samples, seed=seed,
        with_energy=not args.no_energy,
    )
    text = report.to_json()
    if args.out:
        _write_text(args.out, text + "\n")
        _say(args, f"report written to {args.out}")
    else:
        print(text)
    if not args.quiet:
        print(report.format_table())
    if args.pit_out:
        pit = pit_values(fc, ds.targets, features)
        rows = [",".join(f"u{d+1}" for d in range(pit.shape[1]))]
        rows += [",".join(f"{v:.17g}" for v in row) for row in pit]
        _write_text(args.pit_out, "\n".join(rows) + "\n")
    return 0


def _parse_fixes(fix_args, dim):
    fixed = {}
    for item in fix_args or []:
        try:
            name, value = item.split("=", 1)
            d = int(name)
            fixed[d - 1] = float(value)
        except ValueError:
            raise ConfigError(f"--fix expects DIM=VALUE with 1-based DIM, got {item!r}") from None
        if not 1 <= d <= dim:
            raise ConfigError(f"--fix dimension {d} out of range 1..{dim}")
    return fixed


def cmd_density(args):
    fc, _ = model_io.load_model(args.model)
    model = fc.model_for(_features_arg(fc, args.features))
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
    # cell centers, so sum(pdf) * cell volume is a honest Riemann estimate
    axes = []
    for d in free:
        b = model.bounds[d]
        width = b.width / args.grid
        axes.append(b.lower + width * (np.arange(args.grid) + 0.5))
    mesh = np.meshgrid(*axes, indexing="ij")
    n_rows = mesh[0].size
    points = np.empty((n_rows, model.dim))
    for d, v in fixed.items():
        points[:, d] = v
    for ax, d in enumerate(free):
        points[:, d] = mesh[ax].reshape(-1)
    dens = joint_pdf(model, points)
    lines = [",".join([f"y{d+1}" for d in range(model.dim)] + ["pdf"])]
    for row, p in zip(points, dens):
        lines.append(",".join(f"{v:.17g}" for v in row) + f",{p:.17g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
        _say(args, f"{n_rows} grid densities written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_sample(args):
    fc, _ = model_io.load_model(args.model)
    if args.seed is None:
        raise ConfigError("sample requires an explicit --seed")
    if args.count < 1:
        raise ConfigError("--count must be >= 1")
    model = fc.model_for(_features_arg(fc, args.features))
    draws = model_sample(model, args.count, args.seed)
    lines = [",".join(f"y{d+1}" for d in range(model.dim))]
    for row in draws:
        lines.append(",".join(f"{v:.17g}" for v in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
        _say(args, f"{args.count} samples written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_diagnose_miso(args):
    witness = find_negative_witness(
        seed=args.seed if args.seed is not None else 0,
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
        "seed": args.seed if args.seed is not None else 0,
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
    text = json.dumps(report, indent=2)
    if args.out:
        _write_text(args.out, text + "\n")
        _say(args, f"report written to {args.out}")
    else:
        print(text)
    return 0


def _worst(values):
    """Largest of some scalars or arrays; NaN if any value is NaN, so a check fails."""
    return float(np.max([np.max(v) for v in values]))


def _verify_battery(model, level, seed):
    """Yield (check name, passed, detail) for the invariant battery."""
    rng = np.random.default_rng(seed)
    lower = model.box_lower()
    upper = model.box_upper()
    checks = []

    def rand_points(n):
        return lower + (upper - lower) * rng.random((n, model.dim))

    v = joint_cdf(model, lower)
    checks.append(("lower corner cdf == 0", abs(v) <= 1e-12, f"{v:.3e}"))
    v = joint_cdf(model, upper)
    checks.append(("upper corner cdf == 1", abs(v - 1.0) <= 1e-12, f"{v - 1.0:.3e}"))
    faces = []
    for d in range(model.dim):
        y = upper.copy()
        y[d] = lower[d]
        faces.append(abs(joint_cdf(model, y)))
    worst = _worst(faces)
    checks.append(("lower faces cdf == 0", worst <= 1e-12, f"{worst:.3e}"))

    pts = rand_points(500)
    c = joint_cdf(model, pts)
    ok = bool(np.all(c >= -1e-12) and np.all(c <= 1.0 + 1e-12))
    checks.append(("cdf within [0,1]", ok, f"range [{c.min():.3e}, {c.max():.6f}]"))
    p = joint_pdf(model, pts)
    checks.append(("pdf nonnegative", bool(np.all(p >= 0.0)), f"min {p.min():.3e}"))

    n_pairs_check = 2000 if level == "quick" else 10000
    a = rand_points(n_pairs_check)
    b = a + (upper - a) * rng.random(a.shape)  # b >= a coordinatewise, in box
    diff = joint_cdf(model, b) - joint_cdf(model, a)
    checks.append(
        ("cdf monotone on random pairs", bool(np.all(diff >= -1e-12)), f"min diff {diff.min():.3e}")
    )

    gaps = []
    for d in range(model.dim):
        ys = np.tile(upper, (50, 1))
        ys[:, d] = np.linspace(lower[d], upper[d], 50)
        joint = joint_cdf(model, ys)
        marg = normalized_cdf(model.marginals[d], ys[:, d], model.bounds[d])
        gaps.append(np.abs(joint - marg))
    worst = _worst(gaps)
    checks.append(("margins reproduce marginal cdf", worst <= 1e-12, f"max {worst:.3e}"))

    gaps = []
    for d in range(model.dim):
        ps = rng.random(50)
        ys = inverse_cdf(model.marginals[d], ps, model.bounds[d])
        back = normalized_cdf(model.marginals[d], ys, model.bounds[d])
        gaps.append(np.abs(back - ps))
    worst = _worst(gaps)
    checks.append(("quantile/cdf round trip", worst <= 1e-8, f"max {worst:.3e}"))

    if level == "full":
        h = 1e-3 * (upper - lower)
        span = upper - lower
        interior = lower + span * (0.05 + 0.9 * rng.random((25, model.dim)))
        errors = []
        for y in interior:
            fd = mixed_partial_fd(model, y, h)
            an = joint_pdf(model, y)
            scale = max(abs(an), abs(fd), 1e-12)
            errors.append(abs(an - fd) / scale)
        worst = _worst(errors)
        checks.append(("density matches FD mixed partial", worst <= 1e-3, f"max rel {worst:.3e}"))

        if model.dim <= 3:
            total = _simpson_box_integral(model, n=48)
            checks.append(
                ("density integrates to 1 (simpson)", 0.999 <= total <= 1.001, f"{total:.6f}")
            )
        elif model.dim == 4:
            pts = rand_points(200000)
            vol = float(np.prod(upper - lower))
            total = float(np.mean(joint_pdf(model, pts))) * vol
            checks.append(
                ("density integrates to 1 (monte carlo)", 0.98 <= total <= 1.02, f"{total:.4f}")
            )
    return checks


def _simpson_box_integral(model, n=48):
    """Tensor-product Simpson integral of joint_pdf over the box (D <= 3)."""
    if n % 2:
        n += 1
    axes, weights = [], []
    for d in range(model.dim):
        b = model.bounds[d]
        t = np.linspace(b.lower, b.upper, n + 1)
        w = np.ones(n + 1)
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        w *= (b.upper - b.lower) / n / 3.0
        axes.append(t)
        weights.append(w)
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([m.reshape(-1) for m in mesh])
    dens = joint_pdf(model, pts).reshape(mesh[0].shape)
    wmesh = np.meshgrid(*weights, indexing="ij")
    wall = np.ones_like(dens)
    for w in wmesh:
        wall = wall * w
    return float(np.sum(dens * wall))


def cmd_verify(args):
    fc, _ = model_io.load_model(args.model)
    model = fc.model_for(_features_arg(fc, args.features))
    seed = args.seed if args.seed is not None else 0
    checks = _verify_battery(model, args.level, seed)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="seed override")
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--quiet", action="store_true", help="suppress progress chatter")

    parser = argparse.ArgumentParser(
        prog="jdan",
        description="Nonparametric joint density forecasting with monotone-net marginals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", parents=[common], help="fit a model from a config")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("evaluate", parents=[common], help="score a model on a CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--energy-samples", type=int, default=200)
    p.add_argument("--no-energy", action="store_true", help="skip the energy score")
    p.add_argument("--pit-out", default=None, help="write PIT values as CSV")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("density", parents=[common], help="joint density on a grid")
    p.add_argument("--model", required=True)
    p.add_argument("--features", default=None, help="comma-separated feature values")
    p.add_argument("--grid", type=int, default=64, help="cells per free dimension")
    p.add_argument("--fix", action="append", default=None, metavar="DIM=VALUE",
                   help="freeze a (1-based) dimension; repeatable")
    p.set_defaults(fn=cmd_density)

    p = sub.add_parser("sample", parents=[common], help="draw joint samples")
    p.add_argument("--model", required=True)
    p.add_argument("-n", "--count", type=int, required=True)
    p.add_argument("--features", default=None)
    p.set_defaults(fn=cmd_sample)

    p = sub.add_parser("diagnose-miso", parents=[common],
                       help="search for a negative mixed partial of a monotone net")
    p.add_argument("--activation", default="sigmoid",
                   choices=["sigmoid", "tanh", "linear", "relu", "exp"])
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--hidden", type=int, default=4)
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(fn=cmd_diagnose_miso)

    p = sub.add_parser("verify", parents=[common], help="run the invariant battery")
    p.add_argument("--model", required=True)
    p.add_argument("--features", default=None)
    p.add_argument("--level", choices=["quick", "full"], default="quick")
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        worker_count()  # reject a malformed JDAN_THREADS on every path
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
