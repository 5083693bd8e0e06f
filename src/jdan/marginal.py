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
Parameters and points are plain arrays. Training runs ``normalize``,
recording the pass, and differentiates it with ``normalize_adjoint``, a
hand-written adjoint of the layer recursion.

One helper, ``_pass``, finds psi(L), psi(U) and the span, and is the only
check of the span: it runs the net once over nodes from exactly L to exactly
U and then the caller's points. Each CDF or density call, and the table of
``inverse_cdf``, is one such pass. ``inverse_cdf`` finds each probability's
bracket in that table through a guide table over p (``_guide``,
``_brackets``) in a few exact comparisons, not by a search.
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
from .numerics import row_blocks

WEIGHT_EPS = 1e-6       # floor added to softplus so weights stay strictly positive
DENOM_EPS = 1e-12       # below this the marginal is considered flat, hence broken
INVERT_TOL = 1e-10
INVERT_MAX_ITERS = 200
TABLE_INTERVALS = 128   # the quantile table's equal intervals over [L, U]: 2^7
GUIDE_CELLS = 512       # the bracket lookup's equal cells of p over [0, 1]: 2^9


def positivity_map(raw):
    """Map unconstrained reals to strictly positive weights: softplus + eps."""
    return np.logaddexp(0.0, raw) + WEIGHT_EPS


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


def _psi(params, weights, a, deriv, record=None):
    """psi at column points a and, with deriv, d psi / dy there (else None).

    deriv is True for every point, or a slice of a's points (its second-last
    axis) to take d psi / dy at those alone. The chain rule runs layer by
    layer beside the forward pass, so the derivative is exact and, with
    positive weights, never negative. Each value depends only on its point
    and its row's parameters (see ``autodiff.affine``), so row i of a block
    gives the bits of the one-row set made of row i's parameters alone.

    Given a list, record gets one entry per layer, (w, a, d, pre, e, z, s),
    for ``normalize_adjoint``: the layer's weights, its value input a and
    derivative input d (None in the first layer, where it is all ones), its
    pre-activation and derivative pre-activation e = d w^T, and in a hidden
    layer the activation z and slope s, so that the next d is s e (z and s are
    None in the linear output layer). d and e hold deriv's points only.
    """
    rows = slice(None) if deriv is True else deriv
    d = None
    last = len(weights) - 1
    for k, (w, b) in enumerate(zip(weights, params.biases)):
        pre = ad.affine(a, w, b)
        z = s = e = None
        if deriv:  # the first layer's inputs are all ones, and it has no bias: e is w broadcast
            e = ad.affine(d, w) if d is not None else np.broadcast_to(
                w[..., None, :, 0], pre[..., rows, :].shape)
        if k < last:
            z = activations.apply(params.activation, pre)
            if deriv:
                s = activations.slope(params.activation, pre, z)
        if record is not None:
            record.append((w, a, d, pre, e, z, s))
        if k == last:
            a, d = pre, e
        else:
            if s is not None and deriv is not True and np.ndim(s):
                s = s[..., rows, :]  # at deriv's points; a linear slope is the number 1.0
            a, d = z, (None if s is None else s * e)
        if not np.isfinite(a).all():
            raise EvaluationError(f"non-finite activation in marginal layer {k}", layer=k)
    return a, d


def _slope_adjoint(kind, pre, z, e, gd):
    """What the derivative chain's d = z'(pre) e sends back to pre: gd e z''(pre)."""
    return gd * e * activations.curvature(kind, pre, z)


def normalize_adjoint(params: MarginalNetParams, record, cdf, pdf, g_cdf, g_pdf):
    """Gradients of the raw weights and of the biases, given those of ``normalize``'s F and f.

    Plain arrays only: record is the list a ``normalize`` call filled, and cdf
    and pdf are what it returned. F = (psi(y) - psi(L)) / s and f = psi'(y) / s
    with the span s = psi(U) - psi(L) give the gradients of psi at [L, U, y]
    and of psi' at y; the value chain and the derivative chain then run back
    layer by layer (Griewank & Walther 2008, ch. 3-4), the derivative chain
    reaching each pre-activation through z'' as well (``_slope_adjoint``).
    Each effective weight w = softplus(raw) + eps passes its gradient to raw
    times softplus'(raw) = sigmoid(raw) = 1 - exp(eps - w). A shared set sums
    over the points.
    """
    # a shared set's pass, and a block's with fewer points per row than rows, holds its arrays
    # with their axes reversed in memory (see ``autodiff.affine``), so the adjoint works on the
    # transposes: (units, points) shared, (units, points, rows) per row
    psi = record[-1][3].T
    col = psi.shape[2:] + (-1, 1)
    cdf, pdf, g_cdf, g_pdf = (v.reshape(col).T for v in (cdf, pdf, g_cdf, g_pdf))
    span = psi[:, 1:2] - psi[:, :1]
    g_y, gd = g_cdf / span, g_pdf / span  # the gradients of psi and d psi / dy at the points
    g_span = -(g_y * cdf + gd * pdf).sum(axis=1, keepdims=True)
    ga = np.concatenate([-g_y.sum(axis=1, keepdims=True) - g_span, g_span, g_y], axis=1)
    g_w, g_b = [], []
    for w, a, d, pre, e, z, s in reversed(record):
        if z is not None:  # a hidden layer: a = z(pre), and at the points d = z'(pre) e
            s = np.transpose(s)  # a number for linear
            ga = ga * s
            ga[:, 2:] += _slope_adjoint(params.activation, pre.T[:, 2:], z.T[:, 2:], e.T, gd)
            gd = gd * (s if s.ndim == 0 else s[:, 2:])
        gw = np.einsum("ok...,ik...->...oi", ga, a.T)  # ga and gd now hold pre's and e's gradients
        g_b.append(ga.sum(axis=1).T)
        if d is None:  # e = w[..., 0] broadcast over the points
            gw[..., 0] += gd.sum(axis=1).T
        else:
            gw += np.einsum("ok...,ik...->...oi", gd, d.T)
            ga, gd = (np.einsum("ok...,...oi->ik...", g, w) for g in (ga, gd))
        g_w.append(gw * -np.expm1(WEIGHT_EPS - w))  # softplus' = 1 - exp(-softplus)
    return g_w[::-1], g_b[::-1]


def _pinned(cdf, y, b: Bounds):
    """cdf clipped to [0, 1], and exactly 0 at y <= L and 1 at y >= U."""
    # unpinned, F is exact at the ends and within [0, 1] only while every layer
    # rounds monotonically, which floating-point exp and tanh do not promise
    return np.where(y <= b.lower, 0.0, np.where(y >= b.upper, 1.0, np.clip(cdf, 0.0, 1.0)))


def table_nodes(b: Bounds):
    """The CDF table's TABLE_INTERVALS + 1 equally spaced nodes, exactly L first and U last."""
    return np.linspace(b.lower, b.upper, TABLE_INTERVALS + 1)


def _pass(params, weights, b: Bounds, a, deriv=False, table=False, record=None):
    """(psi(L), the span psi(U) - psi(L), psi, d psi / dy or None), from one pass.

    The pass runs over nodes from exactly L to exactly U, [L, U] or with table
    ``table_nodes(b)``, broadcast over a's rows, then over the point column a
    (as ``_as_column`` makes it): psi holds the nodes' values first. With
    deriv, d psi / dy comes for a's points, and with table for the nodes as
    well. A record list is handed to ``_psi``.
    """
    nodes = table_nodes(b)[:, None] if table else np.array([[b.lower], [b.upper]])
    pts = np.empty(a.shape[:-2] + (len(nodes) + a.shape[-2], 1))
    pts[..., :len(nodes), :], pts[..., len(nodes):, :] = nodes, a
    deriv = deriv and (table or slice(len(nodes), None))  # at the table's nodes, or a's points
    psi, dpsi = _psi(params, weights, pts, deriv, record)
    k = nodes.shape[-2]
    lower = psi[..., :1, :]
    span = psi[..., k - 1:k, :] - lower
    if np.any(span < DENOM_EPS):
        raise DegenerateMarginalError(
            f"marginal is flat over [{b.lower}, {b.upper}] "
            f"(span {float(np.min(span)):.3e}); "
            "the model cannot represent a distribution on these bounds"
        )
    return lower, span, psi, dpsi


def normalize(params: MarginalNetParams, y, b: Bounds, record=None):
    """(F(y), f(y)) at points y inside [L, U], from one pass.

    Given a list, record gets the pass's layers (see ``_psi``) for ``normalize_adjoint``.
    """
    a, shape = _as_column(params, y)
    lower, span, psi, dpsi = _pass(params, params.effective_weights(), b, a, True, record=record)
    return ((psi[..., 2:, :] - lower) / span).reshape(shape), (dpsi / span).reshape(shape)


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
    dens = (dpsi / span).reshape(shape)
    out = np.where((y >= b.lower) & (y <= b.upper), dens, 0.0)
    return float(out) if out.ndim == 0 else out


def _hermite(x0, x1, h, f0, f1):
    """Coefficients of x(t) = c0 + t (c1 + t (c2 + t c3)) on each CDF table bracket.

    x(t) is the inverse cubic Hermite interpolant (Fritsch & Carlson 1980) at
    F = F0 + t h: it runs from x0 at F0 to x1 at F0 + h with end slopes dx/dF
    of 1 / f0 and 1 / f1. Written with s = 1 - t, it is
    s^2 (1 + 2t) x0 + t^2 (3 - 2t) x1 + t s (s h / f0 - t h / f1). A zero
    density gives coefficients that are not finite.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        m0, m1 = h / f0, h / f1
        dx = x1 - x0
        return x0, m0, 3.0 * dx - 2.0 * m0 - m1, m0 + m1 - 2.0 * dx


def _guide(top):
    """The bracket lookup's tables for CDF tables top (rows, nodes), nondecreasing from 0.

    A guide table (Chen & Asau 1974; Devroye 1986, ch. III): p's [0, 1] is cut
    into GUIDE_CELLS equal cells, and cell c of row r holds the flat index
    r (nodes - 1) + j of the last interval j whose left F is <= c / GUIDE_CELLS.
    As GUIDE_CELLS is a power of 2, top[j] <= c / GUIDE_CELLS exactly when
    ceil(top[j] GUIDE_CELLS) <= c, so one bincount of those ceilings, offset
    by row, and its running sum give every cell of every row. Also returns F
    at each interval's right node, flat, with the last interval's taken as
    inf, so that no point steps out of its row.
    """
    rows = len(top)
    cells = np.ceil(top[:, :-1] * GUIDE_CELLS).astype(np.intp)
    cells += (GUIDE_CELLS + 1) * np.arange(rows)[:, None]
    first = np.cumsum(np.bincount(cells.ravel(), minlength=rows * (GUIDE_CELLS + 1))) - 1
    right = top[:, 1:].copy()
    right[:, -1] = np.inf
    return first, right.ravel()


def _brackets(guide, p):
    """Per p (rows, k), the flat index of its bracket in ``_guide``'s tables.

    That is r (nodes - 1) + j, with j the last interval whose left F is <= p:
    ``np.searchsorted(top[r], p, side="right") - 1``, short of the last node
    where p = 1 lands. Each p starts at its cell's entry and steps right while
    the next node's F is still <= p. Every comparison is exact, so the index
    is the search's even on flat stretches of F.
    """
    first, right = guide
    cell = (p * GUIDE_CELLS).astype(np.intp)  # floor: p * GUIDE_CELLS is exact
    cell += (GUIDE_CELLS + 1) * np.arange(len(p))[:, None]
    i = first[cell]
    while True:
        up = right[i] <= p
        if not up.any():
            return i
        i += up


def _settle(params, weights, b: Bounds, lower, span, bracket, p):
    """Quantiles (rows, k) of p (rows, k) from one check pass and Newton (see ``inverse_cdf``).

    ``bracket`` holds per point its bracket's left node (also the start's c0),
    the start's c1 to c3, F at the left node, the rise in F and the right node.
    """
    lo, c1, c2, c3, f0, h, hi = bracket
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # h > 0 where p is live
        t = (p - f0) / h
        start = lo + t * (c1 + t * (c2 + t * c3))
    off = ~((start >= lo) & (start <= hi))  # not finite, or outside the bracket
    if off.any():
        start[off] = lo[off] + 0.5 * (hi[off] - lo[off])
    # as points for the net: (k, 1) for a shared set, (rows, k, 1) per row
    q, lo, hi, start = (v.reshape(lower.shape[:-2] + (-1, 1)) for v in (p, lo, hi, start))
    live = (q > 0.0) & (q < 1.0)
    x = np.where(live, start, np.where(q >= 1.0, b.upper, b.lower))
    psi, _ = _psi(params, weights, x, False)
    live &= np.abs(_pinned((psi - lower) / span, x, b) - q) > INVERT_TOL
    step = old = hi - lo  # |last step| and |step before last|
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
    return x.reshape(p.shape)


def inverse_cdf(params: MarginalNetParams, p, b: Bounds):
    """Quantile function on [L, U]: a Hermite start, one check, then safeguarded Newton.

    Takes probabilities in [0, 1] shaped like ``normalized_cdf``'s points;
    p = 0 and p = 1 give the exact bounds. One pass gives F and f on the CDF
    table, with psi(L) and psi(U). Each p starts on the inverse cubic Hermite
    interpolant (``_hermite``) of the adjacent nodes whose F brackets it, or at
    their midpoint where that start is not finite or leaves the bracket. One
    pass without the derivative checks the starts, a block of points at a time
    (``numerics.row_blocks``), so a call of one block makes two passes. Each
    block looks its brackets up in a guide table built once per call
    (``_guide``, ``_brackets``), the same brackets as a binary search of the
    table's running maximum, so nothing the size of all points is kept. Points
    it leaves live run safeguarded Newton (``rtsafe``): each step gets F and f
    from one pass, and a point bisects its bracket when the Newton point is
    not finite, leaves the bracket or fails to halve the step before last.
    Settled points keep their y and ride along: each value depends only on its
    own point, so they change no other point's bits. Stops once
    |F(y) - p| <= 1e-10 everywhere, F as ``normalized_cdf`` gives it, and
    reports the offending bracket if 200 steps are not enough.
    """
    p_arr = np.asarray(p, dtype=np.float64)
    if not np.all((p_arr >= 0.0) & (p_arr <= 1.0)):  # NaN fails both
        raise ContractError("probabilities must lie in [0, 1]")
    q, shape = _as_column(params, p_arr)
    weights, nodes = params.effective_weights(), table_nodes(b)
    lower, span, psi, dpsi = _pass(params, weights, b, q[..., :0, :], deriv=True, table=True)
    table = _pinned(((psi - lower) / span).reshape(-1, TABLE_INTERVALS + 1), nodes, b)
    flat = q.reshape(len(table), -1)  # each table row's p: (1, m) shared, (n, k) per row
    # brackets by the table's running maximum, which rises even where rounding leaves F
    # unsorted by an ulp
    guide = _guide(np.maximum.accumulate(table, axis=-1))
    # per table interval, row by row: the start's coefficients, F at its left node, its
    # rise in F and its right node, side by side so that one gather serves a point
    xs = np.broadcast_to(nodes, table.shape)
    f, h = (dpsi / span).reshape(table.shape), np.diff(table)
    coef = np.stack(_hermite(xs[:, :-1], xs[:, 1:], h, f[:, :-1], f[:, 1:])
                    + (table[:, :-1], h, xs[:, 1:])).reshape(7, -1)
    x = np.empty(flat.shape)
    for cols in row_blocks(flat.shape[-1], len(flat)):
        block = flat[:, cols]
        x[:, cols] = _settle(params, weights, b, lower, span,
                             np.take(coef, _brackets(guide, block), axis=1), block)
    out = x.reshape(shape)
    return float(out) if out.ndim == 0 else out
