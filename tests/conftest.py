"""Shared helpers: random model/architecture construction for the suite."""

import numpy as np
from hypothesis import settings

from jdan.activations import apply, slope
from jdan.copula import joint_pdf
from jdan.errors import ContractError
from jdan.hypernet import ArchitectureDescriptor, materialize
from jdan.marginal import positivity_map

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
