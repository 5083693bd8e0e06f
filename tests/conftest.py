"""Shared helpers: random model/architecture construction for the suite."""

import numpy as np
from hypothesis import settings

from jdan import marginal
from jdan.activations import apply, slope
from jdan.copula import joint_pdf
from jdan.errors import ContractError
from jdan.hypernet import ArchitectureDescriptor, materialize, raw_block
from jdan.marginal import GUIDE_CELLS, TABLE_INTERVALS, positivity_map

# every run draws the same examples and writes no example database (.hypothesis/)
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


def unit_arch(dim, hidden=(8,), feature_dim=0, activation="sigmoid", hyper=(16,)):
    """Architecture on the unit box with one shared hidden spec."""
    return ArchitectureDescriptor(
        dim=dim,
        bounds=[(0.0, 1.0)] * dim,
        marginal_hidden=[list(hidden)] * dim,
        activations=[activation] * dim,
        feature_dim=feature_dim,
        hypernet_hidden=list(hyper),
    )


def random_model(rng, dim, hidden=(8,), scale=1.0, activation="sigmoid", bounds=None):
    """Materialize a model from raw ~ N(0, scale); total for any draw."""
    if bounds is None:
        arch = unit_arch(dim, hidden, activation=activation)
    else:
        arch = ArchitectureDescriptor(
            dim=dim,
            bounds=list(bounds),
            marginal_hidden=[list(hidden)] * dim,
            activations=[activation] * dim,
        )
    raw = rng.normal(0.0, scale, size=arch.param_count())
    return materialize(raw, arch), arch


def flatten(model):
    """Inverse of materialize: a model's raw parameters in partition order, (P,) or (n, P)."""
    return raw_block([(m.raw_weights, m.biases) for m in model.marginals], model.correlations.raw)


def central_fd(f, x, h):
    """Central finite difference of a scalar function of a scalar."""
    return (f(x + h) - f(x - h)) / (2.0 * h)


def interior_points(rng, model, n, margin=0.05):
    """Points inside the box, at least margin*width from each face."""
    lo = model.box_lower()
    hi = model.box_upper()
    span = hi - lo
    return lo + span * (margin + (1 - 2 * margin) * rng.random((n, model.dim)))


def simpson_integral(model, n):
    """Tensor-product Simpson integral of joint_pdf over the box, from weight meshes.

    Kept apart from jdan's own Simpson rule so it can serve as the oracle for it.
    """
    lo, hi = model.box_lower(), model.box_upper()
    axes = [np.linspace(lo[d], hi[d], n + 1) for d in range(model.dim)]
    grids = np.meshgrid(*axes, indexing="ij")
    pts = np.column_stack([g.reshape(-1) for g in grids])
    pdf = joint_pdf(model, pts).reshape([n + 1] * model.dim)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    for d in range(model.dim):
        shape = [1] * model.dim
        shape[d] = n + 1
        pdf = pdf * w.reshape(shape) * ((hi[d] - lo[d]) / n / 3.0)
    return float(pdf.sum())


def miso_forward(params, y):
    """A MisoNetParams net's output at one point (D,) or a batch (n, D)."""
    y = np.asarray(y, dtype=np.float64)
    a = np.atleast_2d(y)
    if a.shape[1] != params.dim:
        raise ContractError(f"expected {params.dim} inputs, got {a.shape[1]}")
    for rw, b, kind in zip(params.raw_weights, params.biases, params.activations):
        a = apply(kind, a @ positivity_map(rw).T + b)
    out = a[:, 0]
    return float(out[0]) if y.ndim == 1 else out


def miso_grad(params, y):
    """d output / d inputs at one point (D,), by stacked layer Jacobians."""
    a = np.asarray(y, dtype=np.float64)
    jac = np.eye(params.dim)
    for rw, b, kind in zip(params.raw_weights, params.biases, params.activations):
        w = positivity_map(rw)
        pre = w @ a + b
        a = apply(kind, pre)
        jac = np.reshape(slope(kind, pre, a), (-1, 1)) * (w @ jac)
    return jac[0]


def searched_brackets(top, p):
    """The lookup's oracle: per row, the last node whose F is <= p, short of the last node,
    as a flat interval index r (nodes - 1) + j."""
    j = np.stack([np.searchsorted(t, v, side="right") - 1 for t, v in zip(top, p)])
    return np.minimum(j, top.shape[1] - 2) + (top.shape[1] - 1) * np.arange(len(top))[:, None]


def adversarial_tables(rng, rows, nodes):
    """(top, p): running-max CDF tables (rows, nodes) from exactly 0 to exactly 1, and
    probabilities (rows, 128) aimed at their edges.

    The tables hold flat stretches (a relu unit that is off), values on the guide's cell
    edges, runs of nodes inside one cell, and dips of one ulp that leave F unsorted; p
    holds 0 and 1, cell edges, the table's values and the floats either side of them.
    """
    inc = rng.random((rows, nodes - 1)) * (rng.random((rows, nodes - 1)) < rng.random((rows, 1)))
    inc[:, -1] += 1e-3  # some rise, so that the scaled table ends at 1
    f = np.cumsum(inc, axis=1) / np.sum(inc, axis=1, keepdims=True)
    snap = rng.random(f.shape) < 0.3
    f[snap] = np.round(f[snap] * GUIDE_CELLS) / GUIDE_CELLS
    steep = rng.random(rows) < 0.3  # squeeze every node into one cell above a random edge
    f[steep] = (rng.integers(0, GUIDE_CELLS, (steep.sum(), 1)) + f[steep]) / GUIDE_CELLS
    dip = rng.random(f.shape) < 0.1
    f[dip] = np.nextafter(f[dip], -np.inf)
    f = np.concatenate([np.zeros((rows, 1)), np.clip(f, 0.0, 1.0)], axis=1)
    f[:, -1] = 1.0
    top = np.maximum.accumulate(f, axis=1)
    pick = rng.integers(0, nodes, (rows, 32))
    at = np.take_along_axis(f, pick, axis=1)
    p = np.concatenate([
        np.zeros((rows, 1)), np.ones((rows, 1)), rng.random((rows, 14)),
        rng.integers(0, GUIDE_CELLS + 1, (rows, 16)) / GUIDE_CELLS,
        at, np.nextafter(at, -np.inf), np.nextafter(at, np.inf)], axis=1)
    return top, np.clip(p, 0.0, 1.0)


def bracket_mismatches(seed=0):
    """Points whose guide-table bracket differs from the search's, over 1200 adversarial tables
    of 2, 9 and TABLE_INTERVALS + 1 nodes, one row at a time and 200 rows at once."""
    rng = np.random.default_rng(seed)
    bad = 0
    for nodes in (2, 9, TABLE_INTERVALS + 1):
        for rows in (1,) * 200 + (200,):
            top, p = adversarial_tables(rng, rows, nodes)
            got = marginal._brackets(marginal._guide(top), p)
            bad += int(np.sum(got != searched_brackets(top, p)))
    return bad
