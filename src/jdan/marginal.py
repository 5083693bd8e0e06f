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
The parameters may also be tape nodes (see ``autodiff``): ``normalize`` is
then the same code differentiated for training. Points are always plain
arrays.

One helper, ``_pass``, finds psi(L), psi(U) and the span, and is the only
check of the span: it runs the net once over nodes from exactly L to exactly
U and then the caller's points. Each CDF, density or table call is one such
pass; ``normalize`` makes two (see there).
"""

from dataclasses import dataclass

import numpy as np

from . import activations
from . import autodiff as ad
from .errors import (
    ContractError,
    DegenerateMarginalError,
    EvaluationError,
    InversionError,
)

WEIGHT_EPS = 1e-6       # floor added to softplus so weights stay strictly positive
DENOM_EPS = 1e-12       # below this the marginal is considered flat, hence broken
INVERT_TOL = 1e-10
INVERT_MAX_ITERS = 200
TABLE_INTERVALS = 128   # the CDF table's equal intervals over [L, U]: even, for Simpson, and 2^7


def positivity_map(raw):
    """Map unconstrained reals to strictly positive weights: softplus + eps."""
    return ad.softplus(raw) + WEIGHT_EPS


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
        if not np.isfinite(self.upper - self.lower):
            raise ContractError(f"bounds [{self.lower}, {self.upper}] are wider than a float holds")

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


def _psi(params, weights, a, deriv):
    """psi at column points a and, with deriv, d psi / dy there (else None).

    The chain rule runs layer by layer beside the forward pass, so the
    derivative is exact and, with positive weights, never negative. With
    plain parameters, each value depends only on its point and its row's
    parameters (see ``autodiff.affine``), so row i of a block gives the bits
    of the one-row set made of row i's parameters alone.
    """
    d = np.ones(a.shape) if deriv else None
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, params.biases)):
        pre = ad.affine(a, w, b)
        if deriv:
            d = ad.affine(d, w)
        if k < last:
            a = activations.apply(params.activation, pre)
            if deriv:
                d = activations.slope(params.activation, pre, a) * d
        else:
            a = pre  # linear output layer
        if not np.all(np.isfinite(ad.value(a))):
            raise EvaluationError(f"non-finite activation in marginal layer {k}", layer=k)
    return a, d


def _pinned(cdf, y, b: Bounds):
    """cdf clipped to [0, 1], and exactly 0 at y <= L and 1 at y >= U."""
    # unpinned, F is exact at the ends and within [0, 1] only while every layer
    # rounds monotonically, which floating-point exp and tanh do not promise
    return np.where(y <= b.lower, 0.0, np.where(y >= b.upper, 1.0, np.clip(cdf, 0.0, 1.0)))


def table_nodes(b: Bounds):
    """The CDF table's TABLE_INTERVALS + 1 equally spaced nodes, exactly L first and U last."""
    return np.linspace(b.lower, b.upper, TABLE_INTERVALS + 1)


def _pass(params, weights, b: Bounds, a, deriv=False, table=False):
    """(psi(L), the span psi(U) - psi(L), psi, d psi / dy or None), from one pass.

    The pass runs over nodes from exactly L to exactly U, [L, U] or with table
    ``table_nodes(b)``, broadcast over a's rows, then over the point column a
    (as ``_as_column`` makes it): psi holds the nodes' values first.
    """
    nodes = table_nodes(b)[:, None] if table else np.array([[b.lower], [b.upper]])
    nodes = np.broadcast_to(nodes, a.shape[:-2] + nodes.shape)
    psi, dpsi = _psi(params, weights, np.concatenate([nodes, a], axis=-2), deriv)
    k = nodes.shape[-2]
    lower = psi[..., :1, :]
    span = psi[..., k - 1:k, :] - lower
    if np.any(ad.value(span) < DENOM_EPS):
        raise DegenerateMarginalError(
            f"marginal is flat over [{b.lower}, {b.upper}] "
            f"(span {float(np.min(ad.value(span))):.3e}); "
            "the model cannot represent a distribution on these bounds"
        )
    return lower, span, psi, dpsi


def normalize(params: MarginalNetParams, y, b: Bounds):
    """(F(y), f(y)) at points y inside [L, U]; tape-node parameters give tape nodes.

    psi(L) and psi(U) come from one pass, psi(y) and d psi / dy from a second:
    training differentiates this, and one pass would reshape the tape's
    matmuls and so change the trained bits.
    """
    a, shape = _as_column(params, y)
    weights = params.effective_weights()
    lower, span, _, _ = _pass(params, weights, b, a[..., :0, :])
    psi, dpsi = _psi(params, weights, a, True)
    return ((psi - lower) / span).reshape(shape), (dpsi / span).reshape(shape)


def cdf_table(params: MarginalNetParams, b: Bounds, extra=None):
    """(F on ``table_nodes(b)``, F at the extra points), from one pass through the net.

    The table is (TABLE_INTERVALS + 1,) for a shared set and
    (n, TABLE_INTERVALS + 1) for a block of n. The extra points are shaped as
    ``normalized_cdf`` takes them, and their F comes back shaped like them.
    Every value depends only on its point and its row's parameters.
    """
    if extra is None:
        extra = np.empty(params.raw_weights[0].shape[:-2] + (0,))  # no points in any row
    a, shape = _as_column(params, np.clip(extra, b.lower, b.upper))
    lower, span, psi, _ = _pass(params, params.effective_weights(), b, a, table=True)
    f, n = ((psi - lower) / span)[..., 0], TABLE_INTERVALS + 1
    return _pinned(f[..., :n], table_nodes(b), b), _pinned(f[..., n:], a[..., 0], b).reshape(shape)


def normalized_cdf(params: MarginalNetParams, y, b: Bounds):
    """CDF on [L, U]: exactly 0 at L, exactly 1 at U; inputs outside are clamped."""
    y = np.asarray(y, dtype=np.float64)
    a, shape = _as_column(params, np.clip(y, b.lower, b.upper))
    lower, span, psi, _ = _pass(params, params.effective_weights(), b, a)
    out = _pinned(((psi[..., 2:, :] - lower) / span).reshape(shape), y, b)  # past L and U
    return float(out) if out.ndim == 0 else out


def normalized_pdf(params: MarginalNetParams, y, b: Bounds):
    """Density on [L, U]: d psi / dy over the normalizing span; 0 outside."""
    y = np.asarray(y, dtype=np.float64)
    a, shape = _as_column(params, np.clip(y, b.lower, b.upper))
    _, span, _, dpsi = _pass(params, params.effective_weights(), b, a, deriv=True)
    dens = (dpsi[..., 2:, :] / span).reshape(shape)  # past L and U
    out = np.where((y >= b.lower) & (y <= b.upper), dens, 0.0)
    return float(out) if out.ndim == 0 else out


def inverse_cdf(params: MarginalNetParams, p, b: Bounds):
    """Quantile function on [L, U] by safeguarded Newton (``rtsafe``).

    Takes probabilities in [0, 1] shaped like ``normalized_cdf``'s points;
    p = 0 and p = 1 give the exact bounds. One pass over the CDF table gives
    psi(L), psi(U) and, for each p, the adjacent nodes whose F brackets it;
    Newton starts from the secant point between them. Each step gets F and f
    at every point from one pass; a point bisects its bracket when the Newton
    point is not finite, leaves the bracket or fails to halve the step before
    last. Settled points keep their y and ride along: each value depends only
    on its own point, so they change no other point's bits. Stops once
    |F(y) - p| <= 1e-10 everywhere, F as ``normalized_cdf`` gives it, and
    reports the offending bracket if 200 steps are not enough.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    if np.any((p_arr < 0.0) | (p_arr > 1.0)) or not np.all(np.isfinite(p_arr)):
        raise ContractError("probabilities must lie in [0, 1]")
    q, shape = _as_column(params, p_arr)
    weights, nodes = params.effective_weights(), table_nodes(b)
    lower, span, psi, _ = _pass(params, weights, b, q[..., :0, :], table=True)
    table = _pinned(((psi - lower) / span).reshape(-1, TABLE_INTERVALS + 1), nodes, b)
    flat = q.reshape(len(table), -1)  # each table row's p: (1, m) shared, (n, k) per row
    # the node i with F[i] <= p < F[i + 1]: F is 0 at L and 1 at U, and the binary
    # search's own comparisons keep that even where rounding leaves F unsorted by an ulp
    i = np.stack([np.searchsorted(t, v, side="right") for t, v in zip(table, flat)])
    i = np.clip(i - 1, 0, TABLE_INTERVALS - 1)  # p = 0 and p = 1 are settled apart
    f_lo, f_hi = np.take_along_axis(table, i, -1), np.take_along_axis(table, i + 1, -1)
    lo, hi = nodes[i].reshape(q.shape), nodes[i + 1].reshape(q.shape)
    live = (q > 0.0) & (q < 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # f_hi > f_lo wherever p is live
        start = lo + ((flat - f_lo) / (f_hi - f_lo)).reshape(q.shape) * (hi - lo)
    x = np.where(live, start, np.where(q >= 1.0, b.upper, b.lower))
    step, old = hi - lo, hi - lo  # |last step| and |step before last|
    for _ in range(INVERT_MAX_ITERS):
        if not live.any():
            break
        psi, dpsi = _psi(params, weights, x, True)
        res = _pinned((psi - lower) / span, x, b) - q
        live &= np.abs(res) > INVERT_TOL
        lo, hi = np.where(res > 0.0, lo, x), np.where(res > 0.0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dx = res * span / dpsi  # (F - p) / f; a NaN or infinite dx fails `ok`
            newton = x - dx
        half = 0.5 * (hi - lo)
        ok = (newton > lo) & (newton < hi) & (2.0 * np.abs(dx) <= old)
        x = np.where(live, np.where(ok, newton, lo + half), x)
        old, step = step, np.where(ok, np.abs(dx), half)
    if np.any(live):
        raise InversionError(f"quantile inversion did not converge for p={q[live][0]:.6g}",
                             bracket=(float(lo[live][0]), float(hi[live][0])))
    out = x.reshape(shape)
    return float(out) if out.ndim == 0 else out
