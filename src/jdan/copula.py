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
marginal CDF values times the product of marginal densities. A finite
difference mixed-partial oracle is included so the closed form can always
be checked against the CDF it claims to differentiate.

A model holds either one shared parameter set or a block of n per-row sets
(see ``marginal``). A per-row model takes exactly n points, shape (n, D),
and evaluates point i under parameter row i.
"""

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import BracketError, ContractError, EvaluationError
from .marginal import (
    Bounds,
    MarginalNetParams,
    inverse_cdf,
    normalized_cdf,
    normalized_pdf,
)

MAX_DIM = 12  # pairs grow quadratically; desk-scale cap
# a proper copula density accepts half the proposals, so a model that needs
# this many rounds has a non-finite density, not bad luck
MAX_REJECTION_ROUNDS = 50


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
        self.raw = np.atleast_1d(np.asarray(self.raw, dtype=np.float64))
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


def _pair_terms(corr: CorrelationParams, u):
    """(points, effective correlations, pairs) after checking their shapes agree."""
    pts = np.atleast_2d(u)
    pairs = pair_indices(pts.shape[1])
    if corr.raw.shape[-1] != len(pairs):
        raise ContractError("correlation size does not match point dimension")
    if corr.rows is not None and corr.rows != pts.shape[0]:
        raise ContractError(f"{corr.rows} correlation rows need {corr.rows} points")
    return pts, corr.effective(), pairs


def copula_cdf(corr: CorrelationParams, u):
    """The combiner itself, evaluated on unit-cube coordinates."""
    u = np.asarray(u, dtype=np.float64)
    scalar = u.ndim == 1
    pts, c, pairs = _pair_terms(corr, u)
    v = 1.0 - pts
    s = np.zeros(pts.shape[0])
    for k, (d, i) in enumerate(pairs):
        s += c[..., k] * v[:, d] * v[:, i]
    out = pts.prod(axis=1) * (1.0 + s / len(pairs))
    return float(out[0]) if scalar else out


def copula_density(corr: CorrelationParams, u):
    """Mixed partial of the combiner over all coordinates; lies in (0, 2)."""
    u = np.asarray(u, dtype=np.float64)
    scalar = u.ndim == 1
    pts, c, pairs = _pair_terms(corr, u)
    m = 1.0 - 2.0 * pts
    s = np.zeros(pts.shape[0])
    for k, (d, i) in enumerate(pairs):
        s += c[..., k] * m[:, d] * m[:, i]
    out = 1.0 + s / len(pairs)
    return float(out[0]) if scalar else out


def joint_cdf(model: JdanModel, y):
    """Joint CDF at y; coordinates are clamped into the box first."""
    return copula_cdf(model.correlations, marginal_cdf_values(model, y))


def joint_pdf(model: JdanModel, y):
    """Joint density: copula density at the CDF values times marginal densities."""
    pts, scalar = _as_points(y, model.dim, model.rows)
    u = marginal_cdf_values(model, pts)
    dens = copula_density(model.correlations, u)
    for d in range(model.dim):
        dens = dens * normalized_pdf(model.marginals[d], pts[:, d], model.bounds[d])
    return float(dens[0]) if scalar else dens


def mixed_partial_fd(model: JdanModel, y, h):
    """Central-difference estimate of the all-coordinates mixed partial of the CDF.

    h is the absolute step, either a scalar shared by every dimension or one
    step per dimension. The 2^D stencil with signs (-1)^(#minus sides) agrees
    with joint_pdf to O(h^2); it exists purely to cross-check the closed form.
    """
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 1 or y.size != model.dim:
        raise ContractError("mixed_partial_fd expects a single point")
    steps = np.broadcast_to(np.asarray(h, dtype=np.float64), (model.dim,))
    lo, up = model.box_lower(), model.box_upper()
    if np.any(y - steps < lo) or np.any(y + steps > up):
        raise BracketError("stencil leaves the box; move the point inward or shrink h")
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=model.dim)))
    vals = joint_cdf(model, y[None, :] + signs * steps[None, :])
    weights = signs.prod(axis=1)
    return float((weights * vals).sum() / np.prod(2.0 * steps))


def _accepted_uniforms(corr: CorrelationParams, dim, n, rngs):
    """(len(rngs), n, dim) unit-cube points; row r rejection-sampled with rngs[r].

    Row r is drawn from correlation row r of a per-row ``corr``, or from the
    shared density. Proposals are accepted against the copula density with
    the provable envelope constant 2 (acceptance rate one half), and every
    row consumes its own stream exactly as a one-row call would, so a row's
    points do not depend on which other rows are drawn with it. A density
    that never accepts (a non-finite one) raises EvaluationError after
    MAX_REJECTION_ROUNDS rounds.
    """
    rows = len(rngs)
    kept = [[] for _ in range(rows)]
    have = np.zeros(rows, dtype=int)
    for _ in range(MAX_REJECTION_ROUNDS):
        short = np.flatnonzero(have < n)
        if short.size == 0:
            return np.stack([np.concatenate(k, axis=0)[:n] for k in kept])
        counts = np.ceil((n - have[short]) * 2.2).astype(int) + 16
        u, coin = [], []
        for r, m in zip(short, counts):
            u.append(rngs[r].uniform(size=(m, dim)))
            coin.append(rngs[r].uniform(size=m))
        u = np.concatenate(u, axis=0)
        c = corr
        if corr.rows is not None:  # one correlation row per proposal
            c = CorrelationParams(raw=np.repeat(corr.raw[short], counts, axis=0))
        keep = np.concatenate(coin) < copula_density(c, u) / 2.0
        cuts = np.cumsum(counts)[:-1]
        for r, ur, kr in zip(short, np.split(u, cuts), np.split(keep, cuts)):
            kept[r].append(ur[kr])
            have[r] += int(kr.sum())
    raise EvaluationError(
        f"rejection sampling accepted too few proposals in {MAX_REJECTION_ROUNDS} rounds; "
        "the copula density is not finite"
    )


def sample(model: JdanModel, n, seed):
    """Draw n rows from the joint density, reproducibly for a given seed.

    Unit-cube proposals are rejection-sampled against the copula density,
    then pushed through each marginal quantile function. With one seed the
    result is (n, D) from a shared model. With a sequence of seeds it is
    (len(seed), n, D): block r is drawn with seed[r] from parameter row r
    (or the shared set), exactly as a one-seed call for that row would
    draw it, and all rows are inverted together.
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
    u = _accepted_uniforms(model.correlations, model.dim, n, rngs)
    if single:
        u = u[0]
    cols = [
        inverse_cdf(model.marginals[d], u[..., d], model.bounds[d]) for d in range(model.dim)
    ]
    return np.stack(cols, axis=-1)
