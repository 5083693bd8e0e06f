#!/usr/bin/env python3
"""Generate synthetic CSV datasets for the bundled configs and experiments.

Kinds:
  uniform      independent U(0,1) targets y1..yD
  correlated   D=2 draws from a fixed generator model with correlation C
  conditional  D=2 draws whose correlation is driven by a feature x1:
               C(x1) = strength * x1 with x1 ~ U(-1, 1)

The correlated and conditional kinds draw through ``jdan.sample``. The bundled
``data/conditional_d2.csv`` (``--kind conditional --seed 2``) was drawn when
``sample`` was a rejection sampler, so that seed now gives different y1, y2
rows than the file; the bundled models were trained on the committed file.
"""

import argparse
import os
import sys

import numpy as np

from jdan import sample
from jdan.hypernet import ArchitectureDescriptor, initialize_net, materialize


def _write(path, header, rows):
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    print(f"{len(rows)} rows -> {path}")


def _generator(seed, corr_raw):
    """A fixed D=2 model on the unit box with the given correlation raw."""
    arch = ArchitectureDescriptor(dim=2, bounds=[(0, 1), (0, 1)], marginal_hidden=[[8], [8]])
    raw = initialize_net(arch, seed).raw.copy()
    raw[-1] = corr_raw
    return materialize(raw, arch), arch


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=["uniform", "correlated", "conditional"], required=True)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--dim", type=int, default=2, help="uniform only")
    ap.add_argument("--corr", type=float, default=0.6, help="correlated: effective C in (-1,1)")
    ap.add_argument("--strength", type=float, default=0.8, help="conditional: C(x) = strength*x")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    if args.kind == "uniform":
        rows = rng.uniform(size=(args.n, args.dim))
        _write(args.out, [f"y{d+1}" for d in range(args.dim)], rows)
        return 0

    if args.kind == "correlated":
        if not -1 < args.corr < 1:
            print("--corr must lie in (-1, 1)", file=sys.stderr)
            return 2
        model, _ = _generator(seed=11, corr_raw=np.arctanh(args.corr))
        rows = sample(model, args.n, seed=args.seed)
        _write(args.out, ["y1", "y2"], rows)
        return 0

    # conditional: one model per row, correlation tanh-linked to the feature
    if not 0 < args.strength < 1:
        print("--strength must lie in (0, 1)", file=sys.stderr)
        return 2
    arch = ArchitectureDescriptor(dim=2, bounds=[(0, 1), (0, 1)], marginal_hidden=[[8], [8]])
    base_raw = initialize_net(arch, seed=11).raw.copy()
    x = rng.uniform(-1.0, 1.0, size=args.n)
    child_seeds = np.random.SeedSequence(args.seed).spawn(args.n)
    rows = np.empty((args.n, 3))
    for i in range(args.n):
        raw = base_raw.copy()
        raw[-1] = np.arctanh(args.strength * x[i])
        model = materialize(raw, arch)
        y = sample(model, 1, seed=child_seeds[i])[0]
        rows[i] = (x[i], y[0], y[1])
    _write(args.out, ["x1", "y1", "y2"], rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
