"""Single-input positive-weighted networks used as marginal CDFs.

A marginal unit is a scalar-to-scalar feedforward network whose effective
weights are forced positive through ``positivity_map``, making the raw
output nondecreasing in its input. Rescaling the output between its values
at the support bounds [L, U] turns it into a proper CDF on [L, U]:

    F(y) = (psi(y) - psi(L)) / (psi(U) - psi(L))

The input-derivative of the network is available in closed form, so the
marginal density comes for free and stays nonnegative by construction.

Parameters are either one shared set, weights (out, in) and biases (out,),
or a block of n per-row sets, weights (n, out, in) and biases (n, out). With
a block, every function here takes points whose leading axis has length n,
shape (n,) or (n, k), and evaluates row i's points under row i's parameters.
"""

from dataclasses import dataclass

import numpy as np

from . import activations
from .errors import (
    ContractError,
    DegenerateMarginalError,
    EvaluationError,
    InversionError,
)
from .numerics import softplus

WEIGHT_EPS = 1e-6       # floor added to softplus so weights stay strictly positive
DENOM_EPS = 1e-12       # below this the marginal is considered flat, hence broken
INVERT_TOL = 1e-10
INVERT_MAX_ITERS = 200


def positivity_map(raw):
    """Map unconstrained reals to strictly positive weights: softplus + eps."""
    return softplus(raw) + WEIGHT_EPS


@dataclass
class Bounds:
    """Support interval of one target dimension, in target units."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (np.isfinite(self.lower) and np.isfinite(self.upper)):
            raise ContractError("bounds must be finite")
        if not self.lower < self.upper:
            raise ContractError(f"bounds require lower < upper, got [{self.lower}, {self.upper}]")

    @property
    def width(self):
        return self.upper - self.lower


@dataclass
class MarginalNetParams:
    """Raw (unconstrained) parameters of one marginal unit.

    layer_sizes runs [1, hidden..., 1]; raw_weights[k] has shape
    (layer_sizes[k+1], layer_sizes[k]) and is pushed through
    ``positivity_map`` at evaluation time. Biases are unconstrained.
    The hidden activation is shared across hidden layers; the output
    layer is always linear (normalization makes squashing redundant).
    A parameter block adds one leading row axis to every weight and bias.
    """

    layer_sizes: list
    raw_weights: list
    biases: list
    activation: str = "sigmoid"

    def __post_init__(self):
        if self.activation not in activations.KINDS:
            raise ContractError(f"unknown activation {self.activation!r}")
        sizes = self.layer_sizes
        if sizes[0] != 1 or sizes[-1] != 1:
            raise ContractError("marginal nets map one scalar to one scalar")
        if len(self.raw_weights) != len(sizes) - 1 or len(self.biases) != len(sizes) - 1:
            raise ContractError("need one weight matrix and bias vector per layer")
        lead = self.raw_weights[0].shape[:-2]
        if len(lead) > 1:
            raise ContractError("parameters carry at most one leading row axis")
        for k, (w, b) in enumerate(zip(self.raw_weights, self.biases)):
            if w.shape != lead + (sizes[k + 1], sizes[k]) or b.shape != lead + (sizes[k + 1],):
                raise ContractError(f"layer {k} parameter shape mismatch")

    @property
    def rows(self):
        """Number of per-row parameter sets, or None for one shared set."""
        w = self.raw_weights[0]
        return w.shape[0] if w.ndim == 3 else None

    def take(self, rows):
        """The parameter rows selected by `rows`; a shared set is returned as is."""
        if self.rows is None:
            return self
        return MarginalNetParams(
            layer_sizes=self.layer_sizes,
            raw_weights=[w[rows] for w in self.raw_weights],
            biases=[b[rows] for b in self.biases],
            activation=self.activation,
        )

    def effective_weights(self):
        return [positivity_map(w) for w in self.raw_weights]


def _as_column(params, y):
    """Points as a column per parameter row: (m, 1) shared, (n, k, 1) per row."""
    y = np.asarray(y, dtype=np.float64)
    if params.rows is None:
        return y.reshape(-1, 1), y.shape
    if y.shape[:1] != (params.rows,) or y.ndim > 2:
        raise ContractError(
            f"{params.rows} parameter rows need points of shape ({params.rows},) or "
            f"({params.rows}, k), got {y.shape}"
        )
    return y.reshape(params.rows, -1, 1), y.shape


def _layer(a, w, b):
    """a @ w^T + b for a shared (out, in) or per-row (n, out, in) weight."""
    return a @ np.swapaxes(w, -1, -2) + b[..., None, :]


def _per_row(v, y):
    """Broadcast a per-row value (shape () or (n,)) against points y."""
    v = np.asarray(v)
    return v.reshape(v.shape + (1,) * (np.ndim(y) - v.ndim))


def _at(params, value):
    """One copy of `value` per parameter row (a scalar for a shared set)."""
    return value if params.rows is None else np.full(params.rows, value)


def forward(params: MarginalNetParams, y):
    """Raw network output psi(y). Nondecreasing in y. Accepts scalars or arrays."""
    a, shape = _as_column(params, y)
    n_layers = len(params.raw_weights)
    for k, (rw, b) in enumerate(zip(params.raw_weights, params.biases)):
        pre = _layer(a, positivity_map(rw), b)
        a = pre if k == n_layers - 1 else activations.act_eval(params.activation, pre)
        if not np.all(np.isfinite(a)):
            raise EvaluationError(f"non-finite activation in marginal layer {k}", layer=k)
    out = a[..., 0].reshape(shape)
    return float(out) if out.ndim == 0 else out


def d_forward(params: MarginalNetParams, y):
    """Analytic d psi / d y via the layer-by-layer chain rule. Always >= 0."""
    a, shape = _as_column(params, y)
    dchain = np.ones_like(a)
    n_layers = len(params.raw_weights)
    for k, (rw, b) in enumerate(zip(params.raw_weights, params.biases)):
        w = positivity_map(rw)
        pre = _layer(a, w, b)
        dpre = dchain @ np.swapaxes(w, -1, -2)
        if k == n_layers - 1:
            a, dchain = pre, dpre
        else:
            a = activations.act_eval(params.activation, pre)
            dchain = activations.act_d1(params.activation, pre) * dpre
    out = dchain[..., 0].reshape(shape)
    return float(out) if out.ndim == 0 else out


def _denominator(params, b: Bounds):
    """psi(U) - psi(L): a float, or one span per parameter row."""
    span = forward(params, _at(params, b.upper)) - forward(params, _at(params, b.lower))
    if np.any(span < DENOM_EPS):
        flat = float(np.min(span))
        raise DegenerateMarginalError(
            f"marginal is flat over [{b.lower}, {b.upper}] (span {flat:.3e}); "
            "the model cannot represent a distribution on these bounds"
        )
    return span


def normalized_cdf(params: MarginalNetParams, y, b: Bounds):
    """CDF on [L, U]: exactly 0 at L, exactly 1 at U; inputs outside are clamped."""
    y_arr = np.asarray(y, dtype=np.float64)
    yc = np.clip(y_arr, b.lower, b.upper)
    den = _per_row(_denominator(params, b), y_arr)
    raw = (forward(params, yc) - _per_row(forward(params, _at(params, b.lower)), y_arr)) / den
    # batched BLAS paths can differ from the scalar path by an ulp, so pin the
    # endpoints explicitly and clip the drift instead of trusting x - x == 0
    out = np.clip(raw, 0.0, 1.0)
    out = np.where(y_arr <= b.lower, 0.0, np.where(y_arr >= b.upper, 1.0, out))
    return float(out) if np.ndim(out) == 0 else out


def normalized_pdf(params: MarginalNetParams, y, b: Bounds):
    """Density on [L, U]: d psi / dy over the normalizing span; 0 outside."""
    y = np.asarray(y, dtype=np.float64)
    den = _per_row(_denominator(params, b), y)
    out = d_forward(params, y) / den
    inside = (y >= b.lower) & (y <= b.upper)
    out = np.where(inside, out, 0.0)
    return float(out) if out.ndim == 0 else out


def inverse_cdf(params: MarginalNetParams, p, b: Bounds):
    """Quantile function by bisection on [L, U].

    Accepts scalars or arrays of probabilities in [0, 1]; p = 0 and p = 1
    return the exact bounds. Bisection stops once |F(y) - p| <= 1e-10
    everywhere, and reports the offending bracket if 200 iterations are
    not enough.
    """
    p_arr = np.atleast_1d(np.asarray(p, dtype=np.float64))
    if np.any((p_arr < 0.0) | (p_arr > 1.0)) or not np.all(np.isfinite(p_arr)):
        raise ContractError("probabilities must lie in [0, 1]")
    lo = np.full_like(p_arr, b.lower)
    hi = np.full_like(p_arr, b.upper)
    out = np.where(p_arr <= 0.0, b.lower, np.where(p_arr >= 1.0, b.upper, np.nan))
    active = np.isnan(out)
    for _ in range(INVERT_MAX_ITERS):
        if not np.any(active):
            break
        mid = 0.5 * (lo + hi)
        c = np.atleast_1d(normalized_cdf(params, mid, b))
        hit = active & (np.abs(c - p_arr) <= INVERT_TOL)
        out[hit] = mid[hit]
        active = active & ~hit
        go_left = c > p_arr
        hi = np.where(active & go_left, mid, hi)
        lo = np.where(active & ~go_left, mid, lo)
    if np.any(active):
        i = int(np.argmax(active))
        raise InversionError(
            f"quantile bisection did not converge for p={p_arr[i]:.6g}",
            bracket=(float(lo[i]), float(hi[i])),
        )
    return float(out[0]) if np.ndim(p) == 0 else out.reshape(np.shape(p))
