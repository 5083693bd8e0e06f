"""Probabilistic-forecast evaluation: log score, CRPS, PIT, energy score.

Every metric evaluates all rows at once: a conditional forecaster yields
one per-row parameter block for the rows' features, which is scored a
block of rows at a time (``numerics.row_blocks``). Every row is reduced on
its own, so no score depends on the block size.

Bounds policy: the model's support is fixed at training time. Test targets
outside it are excluded from the log score (and counted) and clamped to
the support for the CDF-based metrics, so a stray observation degrades the
scores instead of corrupting them with boundary densities. A target that is
not finite (NaN or +-inf) is refused with ContractError by every metric.
"""

import json
import numbers
from dataclasses import asdict, dataclass, field

import numpy as np

from .copula import joint_pdf, sample as copula_sample
from .data import clamp_to_bounds, in_bounds_mask
from .errors import ContractError
from .hypernet import Forecaster
from .marginal import normalized_cdf
from .numerics import kronrod, ks_statistic, row_blocks
from .training import LOG_EPS

CRPS_TOL = 1e-12       # |K15 - G7| allowed on each CRPS integral, per unit of bound width
CRPS_MAX_PANELS = 64   # the finest composite K15 a failing row falls back to


@dataclass
class MetricsReport:
    log_score: float
    crps: list
    pit_ks: list
    energy_score: float
    n_evaluated: int
    n_excluded: int = 0
    pit: np.ndarray = field(default=None, repr=False)  # (rows, D) PIT values; not in to_dict

    def to_dict(self):
        return {k: v for k, v in asdict(self).items() if k != "pit"}

    def to_json(self, **kw):
        return json.dumps(self.to_dict(), indent=2, **kw)

    def format_table(self):
        lines = [
            f"{'log score':<14}{self.log_score: .6f}",
            f"{'energy score':<14}"
            + (f"{self.energy_score: .6f}" if self.energy_score is not None else "  (skipped)"),
        ]
        for d, (c, k) in enumerate(zip(self.crps, self.pit_ks), start=1):
            ks_text = f"{k: .6f}" if k is not None else " (n < 20)"
            lines.append(f"{'y%d' % d:<14}CRPS { c: .6f}   PIT-KS {ks_text}")
        lines.append(f"{'evaluated':<14}{self.n_evaluated}   excluded {self.n_excluded}")
        return "\n".join(lines)


def _model_for_rows(fc: Forecaster, targets, features):
    """(model, target rows): per-row parameters if conditional, else the shared set."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if targets.shape[0] == 0:
        raise ContractError("no rows to score")
    bad = ~np.all(np.isfinite(targets), axis=-1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ContractError(f"target row {i} is not finite: {targets[i].tolist()}")
    model = fc.model_for(None if features is None else np.atleast_2d(features))
    if model.rows not in (None, len(targets)):
        raise ContractError(f"{model.rows} feature rows for {len(targets)} target rows")
    return model, targets


def log_score(fc: Forecaster, targets, features=None):
    """(mean log density, n_evaluated, n_excluded); higher is better.

    Equals -nll_loss on the same rows when none are excluded.
    """
    return _log_score(*_model_for_rows(fc, targets, features))


def _log_score(model, targets):
    keep = in_bounds_mask(targets, model.bounds)
    n = int(keep.sum())
    if n == 0:
        raise ContractError("no in-bounds rows to score")
    model, targets = model.take(keep), targets[keep]
    dens = np.empty(n)
    for rows in row_blocks(n):
        dens[rows] = joint_pdf(model.take(rows), targets[rows])
    value = float(np.mean(np.log(dens + LOG_EPS)))
    return value, n, keep.size - n


def crps_marginal(fc: Forecaster, targets, dim, features=None):
    """Mean over rows of the CRPS, the integral of (F(t) - step at y)^2 over the dim-th bounds.

    Per row it is int_L^U F^2 - 2 int_y^U F + (U - y) (Gneiting & Raftery
    2007), so no quadrature straddles the jump at y. Both integrals are taken
    by K15, checked by its embedded G7 to CRPS_TOL (U - L); a failing row
    takes composite K15 on 2, 4, ..., CRPS_MAX_PANELS panels until it passes,
    or keeps its finest value, as across a ReLU kink.
    """
    return _crps_marginal(*_model_for_rows(fc, targets, features), dim)


def _split_crps(params, b, y, panels):
    """(per-row CRPS, whether each row passes the check) by K15 on `panels` panels a side.

    A shared set's [L, U] nodes are every row's, and each of its values depends
    only on its point, so it takes them once, for the bits of every row.
    """
    def integrands(t):  # F^2 on [L, U] and F on [y, U], from one pass
        if params.rows is None:  # the first row's [L, U] nodes, then every row's [y, U] nodes
            cdf = normalized_cdf(params, np.concatenate([t[0, :1], t[1]]), b)
            return np.stack(np.broadcast_arrays(cdf[:1] ** 2, cdf[1:]))
        cdf = normalized_cdf(params, np.concatenate(t, axis=-1), b)
        return np.stack([cdf[:, :15 * panels] ** 2, cdf[:, 15 * panels:]])
    ends = np.stack([np.full_like(y, b.lower), y])  # where the two integrals start
    (whole, tail), err = kronrod(integrands, ends, b.upper, panels)
    return whole - 2.0 * tail + (b.upper - y), np.all(err <= CRPS_TOL * b.width, axis=0)


def _crps_marginal(model, targets, dim):
    b, m = model.bounds[dim], model.marginals[dim]
    y = clamp_to_bounds(targets, model.bounds)[:, dim]
    out, passed = np.empty(len(y)), np.zeros(len(y), dtype=bool)
    live, panels = np.arange(len(y)), 1  # the rows still to pass
    while live.size and panels <= CRPS_MAX_PANELS:
        for rows in row_blocks(live.size, 30 * panels + 2):
            i = live[rows]
            out[i], passed[i] = _split_crps(m.take(i), b, y[i], panels)
        live, panels = live[~passed[live]], 2 * panels
    return float(np.mean(out))


def pit_values(fc: Forecaster, targets, features=None):
    """Matrix of per-dimension PIT values: u[i, d] = CDF_d(y[i, d])."""
    return _pit_values(*_model_for_rows(fc, targets, features))


def _pit_values(model, targets):
    out = np.empty(targets.shape)
    for rows in row_blocks(len(targets)):
        block = model.take(rows)
        for d, (m, b) in enumerate(zip(block.marginals, block.bounds)):
            out[rows, d] = normalized_cdf(m, targets[rows, d], b)
    return out


def pit_ks(fc: Forecaster, targets, dim, features=None):
    """KS distance of the dim-th PIT sample to Uniform(0,1). Needs n >= 20."""
    targets = np.atleast_2d(targets)
    if targets.shape[0] < 20:
        raise ContractError("PIT calibration needs at least 20 rows")
    return ks_statistic(pit_values(fc, targets, features)[:, dim])


def energy_score(fc: Forecaster, targets, features=None, m_samples=200, seed=0):
    """Sample-based multivariate proper score; lower is better.

    Per row: mean ||s_j - y|| - (1/2m^2) sum ||s_j - s_k||, with the m
    forecast samples drawn from that row's model under a per-row child
    seed, so the result is deterministic in (seed, row order).

    The pair sum runs over the full m x m square, one coordinate at a time:
    each coordinate's differences are squared in place in a (rows, m, m)
    buffer and added in the order numpy's pairwise summation adds a norm's
    terms (left to right below 8 dimensions), and the square root is taken
    in place. Every distance is bitwise that of ``np.linalg.norm``, without
    its (rows, m, m, D) block. The memory is two m x m buffers (four from 8
    dimensions up) per row of a pair block, allocated before any sampling.
    """
    return _energy_score(*_model_for_rows(fc, targets, features), m_samples, seed)


def _summation_order(dim):
    """Coordinates as nested tuples, each summed left to right, in the order numpy's
    pairwise summation adds a contiguous axis of fewer than 16 terms (copula.MAX_DIM is 12)."""
    if dim < 8:
        return tuple(range(dim))
    return ((((0, 1), (2, 3)), ((4, 5), (6, 7))),) + tuple(range(8, dim))


def _buffers_for(order):
    """Buffers _add_squares needs: the running sum and one per pending operand."""
    if isinstance(order, int):
        return 1
    return max([_buffers_for(order[0])] + [1 + _buffers_for(o) for o in order[1:]])


def _add_squares(order, t, bufs):
    """bufs[0][i, j, k] = sum over the order's coordinates d of (t[i, j, d] - t[i, k, d])^2."""
    if isinstance(order, int):
        c = t[..., order]
        np.subtract(c[:, :, None], c[:, None, :], out=bufs[0])
        bufs[0] *= bufs[0]
        return
    _add_squares(order[0], t, bufs)
    for o in order[1:]:
        _add_squares(o, t, bufs[1:])
        bufs[0] += bufs[1]


def _energy_score(model, targets, m_samples, seed):
    if not isinstance(m_samples, numbers.Integral) or isinstance(m_samples, bool) or m_samples < 2:
        raise ContractError(f"energy score needs an integer m_samples >= 2, got {m_samples!r}")
    m = int(m_samples)
    n, dim = targets.shape
    order = _summation_order(dim)
    widest = min(n, row_blocks(n, m * m)[0].stop) if n else 0  # rows of the largest pair block
    count = _buffers_for(order)
    try:  # a ValueError when numpy refuses the shape outright
        bufs = [np.empty((widest, m, m)) for _ in range(count)]
    except (MemoryError, ValueError):
        raise ContractError(f"energy score with m_samples={m} needs "
                            f"{count * widest * m * m * 8} bytes for its pair distances") from None
    row_seeds = np.random.SeedSequence(seed).spawn(n)
    out = np.empty(n)
    for rows in row_blocks(n, m):
        s = copula_sample(model.take(rows), m, row_seeds[rows])
        d = s - targets[rows, None, :]
        d *= d
        to_obs = np.sqrt(d.sum(axis=-1)).mean(axis=-1)
        spread = np.empty_like(to_obs)
        for pairs in row_blocks(s.shape[0], m * m):
            t = s[pairs]
            r = t.shape[0]
            block = [b[:r] for b in bufs]
            _add_squares(order, t, block)
            np.sqrt(block[0], out=block[0])
            spread[pairs] = block[0].reshape(r, -1).sum(axis=-1)
        out[rows] = to_obs - spread / (2.0 * m**2)
    return float(np.mean(out))


def evaluate_forecaster(
    fc: Forecaster, targets, features=None, m_samples=200, seed=0, with_energy=True
):
    """Full metric battery as a MetricsReport, every metric on one model for the rows."""
    model, targets = _model_for_rows(fc, targets, features)
    ls, n_eval, n_excl = _log_score(model, targets)
    crps = [_crps_marginal(model, targets, d) for d in range(fc.arch.dim)]
    pit = _pit_values(model, targets)
    if targets.shape[0] >= 20:
        ks = [ks_statistic(pit[:, d]) for d in range(fc.arch.dim)]
    else:
        ks = [None] * fc.arch.dim  # the KS test needs n >= 20
    es = _energy_score(model, targets, m_samples, seed) if with_energy else None
    return MetricsReport(
        log_score=ls,
        crps=crps,
        pit_ks=ks,
        energy_score=es,
        n_evaluated=n_eval,
        n_excluded=n_excl,
        pit=pit,
    )
