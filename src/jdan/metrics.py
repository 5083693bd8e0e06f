"""Probabilistic-forecast evaluation: log score, CRPS, PIT, energy score.

Every metric evaluates all rows at once: a conditional forecaster yields
one per-row parameter block for the rows' features, which is scored in
fixed-size row chunks.

Bounds policy: the model's support is fixed at training time. Test targets
outside it are excluded from the log score (and counted) and clamped to
the support for the CDF-based metrics, so a stray observation degrades the
scores instead of corrupting them with boundary densities.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .copula import joint_pdf, sample as copula_sample
from .data import clamp_to_bounds, in_bounds_mask
from .errors import ContractError
from .hypernet import Forecaster
from .marginal import normalized_cdf
from .numerics import ks_statistic
from .training import LOG_EPS

CRPS_INTERVALS = 256  # total Simpson subintervals per observation
# Rows are scored in chunks of about this many evaluation points: one batched
# call per chunk is fast, and the chunk bounds the working memory.
CHUNK_POINTS = 16384


@dataclass
class MetricsReport:
    log_score: float
    crps: list
    pit_ks: list
    energy_score: float
    n_evaluated: int
    n_excluded: int = 0

    def to_dict(self):
        return {
            "log_score": self.log_score,
            "crps": list(self.crps),
            "pit_ks": list(self.pit_ks),
            "energy_score": self.energy_score,
            "n_evaluated": self.n_evaluated,
            "n_excluded": self.n_excluded,
        }

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


def _model_for_rows(fc: Forecaster, features, n):
    """One model for n rows: per-row parameters if conditional, else the shared set."""
    if fc.conditional and features is None:
        raise ContractError("conditional forecaster needs features")
    model = fc.model_for(np.atleast_2d(features) if fc.conditional else None)
    if model.rows not in (None, n):
        raise ContractError(f"{model.rows} feature rows for {n} target rows")
    return model


def _row_chunks(n, points_per_row):
    """Row slices holding about CHUNK_POINTS evaluation points each."""
    step = max(1, CHUNK_POINTS // points_per_row)
    return [slice(lo, min(lo + step, n)) for lo in range(0, n, step)]


def log_score(fc: Forecaster, targets, features=None):
    """(mean log density, n_evaluated, n_excluded); higher is better.

    Equals -nll_loss on the same rows when none are excluded.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    bounds = fc.arch.bounds
    keep = in_bounds_mask(targets, bounds)
    n_excluded = int((~keep).sum())
    targets = targets[keep]
    feats = None if features is None else np.atleast_2d(features)[keep]
    n = targets.shape[0]
    if n == 0:
        raise ContractError("no in-bounds rows to score")
    model = _model_for_rows(fc, feats, n)
    dens = np.empty(n)
    for rows in _row_chunks(n, 1):
        dens[rows] = joint_pdf(model.take(rows), targets[rows])
    value = float(np.mean(np.log(dens + LOG_EPS)))
    return value, n, n_excluded


def crps_marginal(fc: Forecaster, targets, dim, features=None):
    """Mean integral of (CDF(t) - step at y)^2 over the dim-th bounds.

    The integrand has a jump at the observation, so Simpson is applied
    separately below and above it (half the subintervals each); quadrature
    across the kink would waste its accuracy. Both halves of every row in a
    chunk are evaluated in one call.
    """
    targets = clamp_to_bounds(np.atleast_2d(targets), fc.arch.bounds)
    b = fc.arch.bounds[dim]
    n = targets.shape[0]
    model = _model_for_rows(fc, features, n)
    half = CRPS_INTERVALS // 2
    weights = np.ones(half + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    out = np.empty(n)
    for rows in _row_chunks(n, 2 * (half + 1)):
        y = targets[rows, dim]
        below_nodes = np.linspace(b.lower, y, half + 1, axis=-1)
        above_nodes = np.linspace(y, b.upper, half + 1, axis=-1)
        nodes = np.concatenate([below_nodes, above_nodes], axis=-1)
        cdf = normalized_cdf(model.take(rows).marginals[dim], nodes, b)
        below = (cdf[:, :half + 1] ** 2) @ weights * ((y - b.lower) / half / 3.0)
        above = ((cdf[:, half + 1:] - 1.0) ** 2) @ weights * ((b.upper - y) / half / 3.0)
        out[rows] = below + above
    return float(np.mean(out))


def pit_values(fc: Forecaster, targets, features=None):
    """Matrix of per-dimension PIT values: u[i, d] = CDF_d(y[i, d])."""
    targets = clamp_to_bounds(np.atleast_2d(targets), fc.arch.bounds)
    n, dimension = targets.shape
    model = _model_for_rows(fc, features, n)
    out = np.empty((n, dimension))
    for rows in _row_chunks(n, 1):
        part = model.take(rows)
        for d in range(dimension):
            out[rows, d] = normalized_cdf(part.marginals[d], targets[rows, d], fc.arch.bounds[d])
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
    """
    if m_samples < 2:
        raise ContractError("energy score needs m_samples >= 2")
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    n = targets.shape[0]
    model = _model_for_rows(fc, features, n)
    row_seeds = np.random.SeedSequence(seed).spawn(n)
    out = np.empty(n)
    for rows in _row_chunks(n, m_samples):
        s = copula_sample(model.take(rows), m_samples, row_seeds[rows])
        to_obs = np.linalg.norm(s - targets[rows, None, :], axis=-1).mean(axis=-1)
        spread = np.empty_like(to_obs)
        for pairs in _row_chunks(s.shape[0], m_samples**2):
            t = s[pairs]
            dist = np.linalg.norm(t[:, :, None, :] - t[:, None, :, :], axis=-1)
            spread[pairs] = dist.reshape(t.shape[0], -1).sum(axis=-1)
        out[rows] = to_obs - spread / (2.0 * m_samples**2)
    return float(np.mean(out))


def evaluate_forecaster(
    fc: Forecaster, targets, features=None, m_samples=200, seed=0, with_energy=True
):
    """Full metric battery as a MetricsReport."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    ls, n_eval, n_excl = log_score(fc, targets, features)
    crps = [crps_marginal(fc, targets, d, features) for d in range(fc.arch.dim)]
    if targets.shape[0] >= 20:
        pit = pit_values(fc, targets, features)
        ks = [ks_statistic(pit[:, d]) for d in range(fc.arch.dim)]
    else:
        ks = [None] * fc.arch.dim  # PIT needs n >= 20
    es = (
        energy_score(fc, targets, features, m_samples=m_samples, seed=seed)
        if with_energy
        else None
    )
    return MetricsReport(
        log_score=ls,
        crps=crps,
        pit_ks=ks,
        energy_score=es,
        n_evaluated=n_eval,
        n_excluded=n_excl,
    )
