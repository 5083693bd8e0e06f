"""Joint CDF/density built from marginal CDF units and pairwise correlations.

The joint CDF over D dimensions is the product of the D marginal CDFs times
the average, over all D*(D-1)/2 dimension pairs (d, i), of the bracket

    C_di * (1 - F_d) * (1 - F_i) + 1,

with each effective correlation C_di = tanh(raw_di) in (-1, 1). Averaging
over pairs (rather than summing) is what keeps the construction a valid
CDF for every parameter value: the upper corner evaluates to exactly 1 and
the implied density stays positive because the per-pair perturbations
|C_di (1 - 2u_d) (1 - 2u_i)| < 1 average to something strictly above -1.

Differentiating through all coordinates gives the closed-form density

    c(u) = 1 + mean over pairs of C_di * (1 - 2 u_d) * (1 - 2 u_i)

on the unit cube, bounded by (0, 2), and the joint density is c at the
marginal CDF values times the product of marginal densities. One core,
``_density``, evaluates it for ``joint_pdf``'s points and for ``grid_pdf``'s
tensor grids, where each marginal factor runs once per axis value.
``combine`` forms the product, for training's density node as well, and
``combine_adjoint`` is its hand-written adjoint. A finite difference
mixed-partial oracle is included so the closed form can always be checked
against the CDF it claims to differentiate.

A model holds either one shared parameter set or a block of n per-row sets
(see ``marginal``). A per-row model takes exactly n points, shape (n, D),
and evaluates point i under parameter row i.
"""

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, ContractError, EvaluationError
from .marginal import inverse_cdf, normalize, normalized_cdf

MAX_DIM = 12  # pairs grow quadratically; desk-scale cap


def n_pairs(dim):
    return dim * (dim - 1) // 2


def pair_indices(dim):
    """Row-major upper-triangular order: (0,1), (0,2), ..., (1,2), ..."""
    return list(itertools.combinations(range(dim), 2))


@dataclass
class CorrelationParams:
    """Unconstrained pairwise parameters, (pairs,) or (n, pairs) per row.

    tanh squashes them into (-1, 1).
    """

    raw: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.raw, dtype=np.float64)
        self.raw = raw.reshape((1,)) if raw.ndim == 0 else raw
        if self.raw.ndim > 2:
            raise ContractError("correlations carry at most one leading row axis")

    @property
    def rows(self):
        return self.raw.shape[0] if self.raw.ndim == 2 else None

    def effective(self):
        return np.tanh(self.raw)


@dataclass
class JdanModel:
    """D marginal CDF units, pairwise correlations and per-dimension bounds."""

    dim: int
    marginals: list
    correlations: CorrelationParams
    bounds: list = field(default_factory=list)

    def __post_init__(self):
        if self.dim < 2:
            raise ContractError("joint models need at least 2 dimensions")
        if self.dim > MAX_DIM:
            raise ContractError(f"dimension {self.dim} exceeds the supported cap {MAX_DIM}")
        if len(self.marginals) != self.dim or len(self.bounds) != self.dim:
            raise ContractError("need one marginal net and one bounds pair per dimension")
        if self.correlations.raw.shape[-1] != n_pairs(self.dim):
            raise ContractError(
                f"expected {n_pairs(self.dim)} correlation parameters, "
                f"got {self.correlations.raw.shape[-1]}"
            )
        if any(m.rows != self.rows for m in self.marginals):
            raise ContractError("marginals and correlations disagree on the parameter rows")

    @property
    def rows(self):
        """Number of per-row parameter sets, or None for one shared set."""
        return self.correlations.rows

    def take(self, rows):
        """The parameter rows selected by `rows`; a shared model is returned as is."""
        if self.rows is None:
            return self
        return JdanModel(
            dim=self.dim,
            marginals=[m.take(rows) for m in self.marginals],
            correlations=CorrelationParams(raw=self.correlations.raw[rows]),
            bounds=self.bounds,
        )

    def box_lower(self):
        return np.array([b.lower for b in self.bounds])

    def box_upper(self):
        return np.array([b.upper for b in self.bounds])


def _as_points(y, dim, rows=None):
    y = np.asarray(y, dtype=np.float64)
    scalar = y.ndim == 1
    pts = np.atleast_2d(y)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ContractError(f"points must have {dim} coordinates, got shape {y.shape}")
    if rows is not None and pts.shape[0] != rows:
        raise ContractError(f"{rows} parameter rows need {rows} points, got {pts.shape[0]}")
    return pts, scalar


def marginal_cdf_values(model: JdanModel, y):
    """Per-dimension CDF values F_d(y_d), clamping to the box."""
    pts, scalar = _as_points(y, model.dim, model.rows)
    u = np.column_stack(
        [normalized_cdf(model.marginals[d], pts[:, d], model.bounds[d]) for d in range(model.dim)]
    )
    return u[0] if scalar else u


def _pair_mean(corr: CorrelationParams, cols):
    """Mean over pairs (d, i) of C_di * v_d * v_i, one value per point; cols are the D columns v_d."""
    pairs = pair_indices(len(cols))
    if corr.raw.shape[-1] != len(pairs):
        raise ContractError("correlation size does not match point dimension")
    if corr.rows is not None and corr.rows != cols[0].shape[0]:
        raise ContractError(f"{corr.rows} correlation rows need {corr.rows} points")
    c = corr.effective()
    s = None
    for k, (d, i) in enumerate(pairs):
        term = c[..., k] * (cols[d] * cols[i])
        s = term if s is None else s + term
    return s / len(pairs)


def copula_cdf(corr: CorrelationParams, u):
    """The combiner itself, evaluated on unit-cube coordinates."""
    u = np.asarray(u, dtype=np.float64)
    pts = np.atleast_2d(u)
    out = pts.prod(axis=1) * (1.0 + _pair_mean(corr, list((1.0 - pts).T)))
    return float(out[0]) if u.ndim == 1 else out


def copula_density(corr: CorrelationParams, u):
    """Mixed partial of the combiner over all coordinates; lies in (0, 2).

    u is a plain array of unit-cube points, (n, D) or one point (D,).
    """
    u = np.asarray(u, dtype=np.float64)
    pts = np.atleast_2d(u)
    out = 1.0 + _pair_mean(corr, list((1.0 - 2.0 * pts).T))
    return float(out[0]) if u.ndim == 1 else out


def joint_cdf(model: JdanModel, y):
    """Joint CDF at y; coordinates are clamped into the box first."""
    return copula_cdf(model.correlations, marginal_cdf_values(model, y))


def _density(model: JdanModel, cols):
    """Joint density at the points the D columns y_d make when broadcast together.

    Marginal d runs once per entry of column d.
    """
    box = [np.clip(y, b.lower, b.upper) for y, b in zip(cols, model.bounds)]
    cdfs, pdfs = zip(*(normalize(m, y, b) for y, m, b in zip(box, model.marginals, model.bounds)))
    dens = combine(model.correlations, cdfs, pdfs)
    inside = functools.reduce(np.logical_and, [y == c for y, c in zip(box, cols)])
    if not inside.all():
        dens = dens * inside
    return dens


def combine(corr: CorrelationParams, cdfs, pdfs):
    """c(F) times the marginal densities, multiplied in dimension order: the joint density."""
    dens = 1.0 + _pair_mean(corr, [1.0 - 2.0 * f for f in cdfs])
    for pdf in pdfs:
        dens = dens * pdf
    return dens


def _tanh_slope(c):
    """d tanh(raw) / d raw, from c = tanh(raw)."""
    return 1.0 - c * c


def combine_adjoint(corr: CorrelationParams, cdfs, pdfs, g):
    """Gradients of the raw correlations, the D CDF values and the D densities.

    g is the gradient of ``combine``'s density, and all arrays are plain.
    With v_d = 1 - 2 F_d, C = tanh(raw) and c = 1 + mean over pairs
    k = (d, i) of C_k v_d v_i, the density is c times the product of the f_d.
    Each f_d's gradient takes the product of the other densities, never the
    density over f_d, since f can be 0. A shared set (one row of
    correlations) sums over the points.
    """
    pairs, dim = pair_indices(len(cdfs)), len(cdfs)
    c = corr.effective()
    v = [1.0 - 2.0 * f for f in cdfs]
    before, after = [1.0] * dim, [1.0] * dim  # products of the densities below and above d
    for d in range(1, dim):
        before[d] = before[d - 1] * pdfs[d - 1]
        after[dim - 1 - d] = after[dim - d] * pdfs[dim - d]
    g_mean = g * before[-1] * pdfs[-1] / len(pairs)  # the gradient of each pair term
    g_c = g * (1.0 + _pair_mean(corr, v))
    g_pdfs = [g_c * lo * hi for lo, hi in zip(before, after)]
    g_v = [0.0] * dim
    for k, (d, i) in enumerate(pairs):
        g_v[d] = g_v[d] + c[..., k] * v[i]
        g_v[i] = g_v[i] + c[..., k] * v[d]
    g_raw = np.stack([g_mean * v[d] * v[i] for d, i in pairs], axis=-1) * _tanh_slope(c)
    return (g_raw if corr.rows is not None else g_raw.sum(axis=0),
            [-2.0 * g_mean * gv for gv in g_v], g_pdfs)


def joint_pdf(model: JdanModel, y):
    """Joint density: copula density at the CDF values times marginal densities.

    Points outside the box have density 0. Training's density node runs the
    same kernels, ``normalize`` and ``combine``, and differentiates them
    with their hand-written adjoints (see ``training``).
    """
    pts, scalar = _as_points(y, model.dim, model.rows)
    dens = _density(model, list(pts.T))
    return float(dens[0]) if scalar else dens


def grid_pdf(model: JdanModel, axes):
    """Joint density on the tensor grid of D coordinate axes, flat in C order.

    Axis d is a 1-D array of y_d values, one value for a fixed dimension; the
    last axis varies fastest. Each density has the bits ``joint_pdf`` gives at
    its point, since every plain marginal value depends only on its point.
    """
    if model.rows is not None:
        raise ContractError("a grid takes one shared parameter set, not per-row sets")
    if len(axes) != model.dim:
        raise ContractError(f"a grid needs {model.dim} axes, got {len(axes)}")
    cols = [np.asarray(a, dtype=np.float64).reshape([-1 if k == d else 1 for k in range(model.dim)])
            for d, a in enumerate(axes)]
    return _density(model, cols).reshape(-1)


def mixed_partial_fd(model: JdanModel, y, h):
    """Central-difference estimate of the all-coordinates mixed partial of the CDF.

    h is the absolute step, finite and positive, either a scalar shared by
    every dimension or one step per dimension. The 2^D stencil with signs
    (-1)^(#minus sides) agrees with joint_pdf to O(h^2); it exists purely to
    cross-check the closed form.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size != model.dim:
        raise ContractError("mixed_partial_fd expects a single point")
    steps = np.broadcast_to(np.asarray(h, dtype=np.float64), (model.dim,))
    if not np.all(np.isfinite(steps) & (steps > 0.0)):
        raise ContractError(f"finite-difference steps must be finite and positive, got {h!r}")
    lo, up = model.box_lower(), model.box_upper()
    if np.any(y - steps < lo) or np.any(y + steps > up):
        raise BracketError("stencil leaves the box; move the point inward or shrink h")
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=model.dim)))
    vals = joint_cdf(model, y[None, :] + signs * steps[None, :])
    weights = signs.prod(axis=1)
    return float((weights * vals).sum() / np.prod(2.0 * steps))


def _conditional_inverse(corr: CorrelationParams, v):
    """Unit-cube points from uniforms v (rows, n, D), row r under correlation row r.

    Every conditional law u_k | u_<k of the copula density is linear in u_k,
    so each coordinate inverts its conditional CDF in closed form (the
    conditional distribution method): with t_k the mean-over-all-pairs terms
    that pair k with an earlier coordinate and c the density of the first k-1,
    u_k solves u (1 + b) - b u^2 = v_k for b = t_k / c, and c then takes
    t_k (1 - 2 u_k). The map is elementwise along each row, so a row's points
    do not depend on the rows beside it. A shared ``corr`` serves every row.
    """
    dim = v.shape[-1]
    pairs = pair_indices(dim)
    c = np.reshape(corr.effective(), (-1, 1, len(pairs)))  # broadcasts over each row's points
    u, dens = v.copy(), 1.0  # u_1 = v_1, and the first coordinate's density is 1
    for k in range(1, dim):
        t = sum(c[..., j] * (1.0 - 2.0 * u[..., d])
                for j, (d, i) in enumerate(pairs) if i == k) / len(pairs)
        b, vk = t / dens, v[..., k]
        # both terms of either form are >= 0, so the root's argument never cancels
        root = np.sqrt(np.where(b >= 0.0, (1.0 - b) ** 2 + 4.0 * b * (1.0 - vk),
                                (1.0 + b) ** 2 - 4.0 * b * vk))
        u[..., k] = 2.0 * vk / (1.0 + b + root)
        dens = dens + t * (1.0 - 2.0 * u[..., k])
    if not np.all(np.isfinite(dens)):
        raise EvaluationError("the copula density is not finite")
    return u


def sample(model: JdanModel, n, seed):
    """Draw n rows from the joint density, reproducibly for a given seed.

    Each draw inverts the copula's conditional CDFs one coordinate at a time
    (``_conditional_inverse``), then pushes the point through each marginal
    quantile function. With one seed the result is (n, D) from a shared model.
    With a sequence of seeds it is (len(seed), n, D): block r is drawn with
    seed[r] from parameter row r (or the shared set), exactly as a one-seed
    call for that row would draw it, from n * D uniforms of that seed's stream.
    Each marginal inverts all its draws in one call.
    """
    if n < 1:
        raise ContractError("need at least one sample")
    single = np.ndim(seed) == 0
    seeds = [seed] if single else list(seed)
    if single and model.rows is not None:
        raise ContractError("a per-row model needs one seed per parameter row")
    if model.rows not in (None, len(seeds)):
        raise ContractError(f"{model.rows} parameter rows need {model.rows} seeds")
    rngs = [np.random.default_rng(s) for s in seeds]
    try:  # a MemoryError, or a ValueError when numpy refuses the shape outright
        v = np.stack([rng.uniform(size=(n, model.dim)) for rng in rngs])
    except (MemoryError, ValueError):
        raise ContractError(f"{len(seeds) * n} draws of dimension {model.dim} need "
                            f"{len(seeds) * n * model.dim * 8} bytes for their uniforms") from None
    u = _conditional_inverse(model.correlations, v)
    if single:
        u = u[0]
    return np.stack([inverse_cdf(m, u[..., d], b)
                     for d, (m, b) in enumerate(zip(model.marginals, model.bounds))], axis=-1)
