"""Quantile inversion against a bisection oracle, and the invariance it relies on.

``inverse_cdf`` solves F(y) = p by safeguarded Newton. The oracle below is
plain bisection on [L, U] through ``normalized_cdf``: slow, but each of its
steps is obviously right. Both stop at |F(y) - p| <= INVERT_TOL, so their
answers agree to 2 * INVERT_TOL in probability.

Newton carries the last-bit noise of F into y, so a shared parameter set
must give every point the same F whichever points share the call; the
block-against-one-point tests check that bitwise.

On the bundled models each start from the table already meets the tolerance,
so a call makes two net passes; the pass tests pin that, and a broken start
shows there as extra Newton passes, since Newton still finds the quantiles.
"""

import os

import numpy as np
import pytest

from jdan import marginal
from jdan.copula import joint_pdf, sample
from jdan.errors import InversionError
from jdan.hypernet import ArchitectureDescriptor, flatten, materialize
from jdan.marginal import (
    INVERT_MAX_ITERS,
    INVERT_TOL,
    TABLE_INTERVALS,
    inverse_cdf,
    normalized_cdf,
    normalized_pdf,
    positivity_map,
    table_nodes,
)
from jdan.model_io import load_model

from conftest import random_model

ACTIVATIONS = ["sigmoid", "tanh", "linear", "relu", "exp"]
# raw parameter scale; stacked exp layers with N(0, 1) parameters overflow on these bounds
SCALE = {"exp": 0.5}
BOUNDS = [(-1.0, 2.0), (0.5, 4.0)]
# the ends, and probabilities within 1e-12 of them
EDGE_PROBS = np.array([0.0, 1e-300, 1e-16, 1e-13, 1e-12,
                       1.0 - 1e-12, 1.0 - 1e-13, 1.0 - 2.0**-53, 1.0])


def bisect_inverse_cdf(params, p, b):
    """Quantile by bisection of [L, U]: the oracle for ``inverse_cdf``."""
    p = np.asarray(p, dtype=np.float64)
    lo = np.full_like(p, b.lower)
    hi = np.full_like(p, b.upper)
    out = np.where(p <= 0.0, b.lower, np.where(p >= 1.0, b.upper, np.nan))
    active = np.isnan(out)
    for _ in range(INVERT_MAX_ITERS):
        if not active.any():
            return out
        mid = 0.5 * (lo + hi)
        c = normalized_cdf(params, mid, b)
        hit = active & (np.abs(c - p) <= INVERT_TOL)
        out[hit] = mid[hit]
        active &= ~hit
        left = c > p
        hi = np.where(active & left, mid, hi)
        lo = np.where(active & ~left, mid, lo)
    raise InversionError("bisection did not converge")


def make_model(activation, hidden, rows, seed):
    arch = ArchitectureDescriptor(dim=2, bounds=BOUNDS, marginal_hidden=[list(hidden)] * 2,
                                  activations=[activation] * 2)
    shape = (arch.param_count(),) if rows is None else (rows, arch.param_count())
    raw = np.random.default_rng(seed).normal(0.0, SCALE.get(activation, 1.0), size=shape)
    return materialize(raw, arch)


@pytest.mark.parametrize("hidden", [(8,), (4, 4)], ids=["h8", "h4x4"])
@pytest.mark.parametrize("rows", [None, 5], ids=["shared", "per_row"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_newton_agrees_with_bisection_oracle(activation, rows, hidden):
    model = make_model(activation, hidden, rows, seed=len(activation) + len(hidden))
    rng = np.random.default_rng(1)
    p = np.concatenate([EDGE_PROBS, rng.random(40)])
    if rows is not None:
        p = np.stack([rng.permutation(p) for _ in range(rows)])
    for m, b in zip(model.marginals, model.bounds):
        got = inverse_cdf(m, p, b)
        want = bisect_inverse_cdf(m, p, b)
        assert got.shape == p.shape
        assert np.all((got >= b.lower) & (got <= b.upper))
        np.testing.assert_array_equal(got[p == 0.0], b.lower)
        np.testing.assert_array_equal(got[p == 1.0], b.upper)
        back = normalized_cdf(m, got, b)
        assert np.max(np.abs(back - p)) <= INVERT_TOL
        assert np.max(np.abs(back - normalized_cdf(m, want, b))) <= 2.0 * INVERT_TOL


def worst_round_trip(activation):
    """max |F(inverse_cdf(p)) - p| over both marginals of eight random models."""
    worst = 0.0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        model, _ = random_model(rng, 2, hidden=(8,), scale=2.0, activation=activation)
        p = rng.random(500)
        for m, b in zip(model.marginals, model.bounds):
            worst = max(worst, np.max(np.abs(normalized_cdf(m, inverse_cdf(m, p, b), b) - p)))
    return worst


@pytest.mark.parametrize("activation", ["relu", "tanh"])
def test_quantiles_round_trip_within_1e_10(activation):
    # the bound is written out: read from INVERT_TOL, it would loosen with the tolerance
    assert worst_round_trip(activation) <= 1e-10


def test_inversion_tolerance_mutant_fails_the_round_trip(monkeypatch):
    monkeypatch.setattr(marginal, "INVERT_TOL", 1e-3)
    for activation in ("relu", "tanh"):
        assert worst_round_trip(activation) > 1e-10, activation


def test_newton_needs_few_passes(monkeypatch):
    # bisection spends ~33 CDF evaluations per call; a Hermite start from the table and
    # one check pass settle most points, and Newton needs at most two passes more
    model = make_model("sigmoid", (8,), None, seed=3)
    passes = []
    psi = marginal._psi
    monkeypatch.setattr(marginal, "_psi",
                        lambda *a, **kw: passes.append(len(a[2])) or psi(*a, **kw))
    p = np.random.default_rng(2).random(4096)
    for m, b in zip(model.marginals, model.bounds):
        passes.clear()
        inverse_cdf(m, p, b)
        assert passes[0] == TABLE_INTERVALS + 1  # the table, with psi(L) and psi(U), once per call
        assert len(passes) <= 4


@pytest.mark.parametrize("hidden", [(8,), (4, 4)], ids=["h8", "h4x4"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_shared_block_is_bitwise_one_point_calls(activation, hidden):
    rng = np.random.default_rng(5)
    for _ in range(4):
        model, _ = random_model(rng, dim=2, hidden=hidden, scale=SCALE.get(activation, 1.0),
                                activation=activation, bounds=BOUNDS)
        for m, b in zip(model.marginals, model.bounds):
            y = rng.uniform(b.lower, b.upper, 30)
            p = rng.random(30)
            for f, x in ((normalized_cdf, y), (normalized_pdf, y), (inverse_cdf, p)):
                block = f(m, x, b)
                np.testing.assert_array_equal(block, [f(m, v, b) for v in x])


@pytest.mark.parametrize("hidden", [(8,), (4, 4)], ids=["h8", "h4x4"])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_block_rows_are_bitwise_one_row_shared_sets(activation, hidden):
    # every plain pass sums each layer in a fixed order, so row i of a block evaluates
    # and inverts exactly as the shared set made of row i's parameters alone
    arch = ArchitectureDescriptor(dim=2, bounds=BOUNDS, marginal_hidden=[list(hidden)] * 2,
                                  activations=[activation] * 2)
    rng = np.random.default_rng(9)
    raw = rng.normal(0.0, SCALE.get(activation, 1.0), size=(6, arch.param_count()))
    block = materialize(raw, arch)
    alone = [materialize(r, arch) for r in raw]
    p = rng.random((6, 40))
    for d, b in enumerate(block.bounds):
        quantiles = inverse_cdf(block.marginals[d], p, b)
        y = rng.uniform(b.lower, b.upper, (6, 40))
        cdf, pdf = normalized_cdf(block.marginals[d], y, b), normalized_pdf(block.marginals[d], y, b)
        for i, one in enumerate(alone):
            m = one.marginals[d]
            np.testing.assert_array_equal(quantiles[i], inverse_cdf(m, p[i], b))
            np.testing.assert_array_equal(cdf[i], normalized_cdf(m, y[i], b))
            np.testing.assert_array_equal(pdf[i], normalized_pdf(m, y[i], b))
    pts = np.column_stack([rng.uniform(lo, hi, len(raw)) for lo, hi in BOUNDS])
    dens = joint_pdf(block, pts)
    for i, one in enumerate(alone):
        np.testing.assert_array_equal(dens[i], joint_pdf(one, pts[i]))


@pytest.mark.parametrize("rows", [None, 3], ids=["shared", "per_row"])
def test_empty_points_give_empty_arrays(rows):
    model = make_model("sigmoid", (8,), rows, seed=4)
    empty = np.empty((0,) if rows is None else (rows, 0))
    for m, b in zip(model.marginals, model.bounds):
        for f in (inverse_cdf, normalized_cdf, normalized_pdf):
            out = f(m, empty, b)
            assert isinstance(out, np.ndarray) and out.shape == empty.shape


RUNS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "runs")


def bundled(name, rows):
    """A bundled model's shared set, or a block of `rows` parameter sets."""
    fc, _ = load_model(os.path.join(RUNS, f"{name}_model.json"))
    x = np.linspace(-1.0, 1.0, rows or 1)[:, None]  # the conditional data's feature range
    if fc.conditional:
        return fc.model_for(x[0] if rows is None else x)
    model = fc.model_for()
    return model if rows is None else materialize(np.tile(flatten(model), (rows, 1)), fc.arch)


def count_passes(monkeypatch):
    """Record (points per parameter row, with the derivative?) for every marginal net pass."""
    passes = []
    psi = marginal._psi

    def counted(params, weights, a, deriv, *rest):
        passes.append((a.shape[-2], deriv))
        return psi(params, weights, a, deriv, *rest)

    monkeypatch.setattr(marginal, "_psi", counted)
    return passes


def quantile_probs(rows, seed):
    """The edges and 4000 uniform probabilities: (4009,) shared, or (rows, 200) per row."""
    rng = np.random.default_rng(seed)
    if rows is None:
        return np.concatenate([EDGE_PROBS, rng.random(4000)])
    return np.concatenate([np.tile(EDGE_PROBS, (rows, 1)), rng.random((rows, 191))], axis=1)


def assert_matches_oracle(m, b, p, got):
    back = normalized_cdf(m, got, b)
    assert np.max(np.abs(back - p)) <= INVERT_TOL
    want = bisect_inverse_cdf(m, p, b)
    assert np.max(np.abs(back - normalized_cdf(m, want, b))) <= 2.0 * INVERT_TOL


@pytest.mark.parametrize("rows", [None, 20], ids=["shared", "per_row"])
@pytest.mark.parametrize("name", ["uniform_d2", "conditional_d2"])
def test_bundled_models_invert_in_two_passes(monkeypatch, name, rows):
    model = bundled(name, rows)
    p = quantile_probs(rows, seed=1)
    passes = count_passes(monkeypatch)
    for m, b in zip(model.marginals, model.bounds):
        passes.clear()
        inverse_cdf(m, p, b)
        # the table with the derivative, then one check of every point without it
        assert passes == [(TABLE_INTERVALS + 1, True), (p.shape[-1], False)]
    if rows is None:  # a call of many blocks checks each block once, and builds one table
        passes.clear()
        sample(model, 10000, seed=2)
        assert [k for k, deriv in passes if deriv] == [TABLE_INTERVALS + 1] * 2
        assert sum(k for k, deriv in passes if not deriv) == 2 * 10000


@pytest.mark.parametrize("name", ["uniform_d2", "conditional_d2"])
def test_start_with_density_for_its_reciprocal_costs_passes_not_quantiles(monkeypatch, name):
    # a mutant start that uses f where the interpolant's end slopes are 1 / f: Newton still
    # finds every quantile, and only the pass count shows the broken start
    hermite = marginal._hermite
    monkeypatch.setattr(marginal, "_hermite",
                        lambda x0, x1, h, f0, f1: hermite(x0, x1, h, 1.0 / f0, 1.0 / f1))
    model = bundled(name, None)
    p = quantile_probs(None, seed=3)
    passes = count_passes(monkeypatch)
    for m, b in zip(model.marginals, model.bounds):
        passes.clear()
        assert_matches_oracle(m, b, p, inverse_cdf(m, p, b))
        assert len(passes) > 2


@pytest.mark.parametrize("rows", [None, 3], ids=["shared", "per_row"])
def test_zero_density_nodes_start_at_the_bracket_midpoint(rows):
    # every relu unit is off below y0, so F and f are 0 on the table nodes there and the
    # bracket of a small p has f = 0 at its left node: the start divides by zero
    model = make_model("relu", (4,), rows, seed=7)
    p = quantile_probs(rows, seed=4)
    for d, (m, b) in enumerate(zip(model.marginals, model.bounds)):
        w = positivity_map(m.raw_weights[0])[..., 0]
        y0 = b.lower + b.width * np.linspace(0.3, 0.6, w.shape[-1]) * (1.0 + 0.1 * d)
        m.biases[0] = -w * y0  # unit j turns on at y0[j]
        nodes = np.broadcast_to(table_nodes(b), p.shape[:-1] + (TABLE_INTERVALS + 1,))
        assert np.all(np.any(normalized_pdf(m, nodes, b) == 0.0, axis=-1))
        got = inverse_cdf(m, p, b)
        assert np.all(got[p == 0.0] == b.lower) and np.all(got[p == 1.0] == b.upper)
        assert_matches_oracle(m, b, p, got)
