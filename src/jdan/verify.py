"""The model invariants, one measure each, and the battery ``jdan verify`` runs.

A measure evaluates a model at the points its caller gives and returns the
worst value there; it judges nothing. ``battery`` draws points and holds the
numbers to verify's bounds, while the acceptance tests hold the same measures
to their own (exactly 0 on lower faces, where verify allows 1e-12): what counts
as a failure depends on the caller, so a bound is never a library parameter.
Pair (d, i) of the combiner, the other coordinates at 1, is an FGM copula
with parameter C_di / P, so samples have Spearman rho C_di / (3P) (Nelsen
2006, sec. 5.1.3).
"""

import numpy as np

from .copula import grid_pdf, joint_cdf, joint_pdf, mixed_partial_fd, n_pairs, sample
from .marginal import inverse_cdf, normalized_cdf
from .numerics import ks_statistic, simpson

DRAWS = 100_000
# false alarms of 1e-6 a dimension or pair: the KS tail 2 exp(-2 n D^2) (Massart 1990), and
# the normal tail of a sample rho, whose deviation is 1 / sqrt(n - 1) under independence
KS_BOUND = np.sqrt(np.log(2.0 / 1e-6) / 2.0 / DRAWS)
RHO_BOUND = 4.89 / np.sqrt(DRAWS - 1)


def face_cdf(model, points):
    """Largest |F| at the points with, in turn, each coordinate at its lower bound."""
    faces = np.repeat(np.atleast_2d(points), model.dim, axis=0)
    d = np.arange(len(faces)) % model.dim
    faces[np.arange(len(faces)), d] = model.box_lower()[d]
    return float(np.max(np.abs(joint_cdf(model, faces))))


def cdf_range(model, points):
    c = joint_cdf(model, points)
    return float(c.min()), float(c.max())


def min_pdf(model, points):
    return float(np.min(joint_pdf(model, points)))


def min_monotone_diff(model, a, b):
    """Smallest F(b) - F(a) over rows with b >= a coordinatewise."""
    return float(np.min(joint_cdf(model, b) - joint_cdf(model, a)))


def margin_error(model, grid):
    """Largest |F - F_d| with y_d along row d of grid (D, k) and the rest at upper bounds."""
    grid = np.asarray(grid, dtype=np.float64)
    ys = np.tile(model.box_upper(), (model.dim, grid.shape[1], 1))
    ys[range(model.dim), :, range(model.dim)] = grid
    joint = joint_cdf(model, ys.reshape(-1, model.dim)).reshape(grid.shape)
    marg = [normalized_cdf(m, g, b) for m, g, b in zip(model.marginals, grid, model.bounds)]
    return float(np.max(np.abs(joint - marg)))


def round_trip_error(model, ps):
    """Largest |F_d(Q_d(p)) - p| over row d of the probabilities ps (D, k)."""
    back = [normalized_cdf(m, inverse_cdf(m, q, b), b)
            for m, q, b in zip(model.marginals, ps, model.bounds)]
    return float(np.max(np.abs(back - ps)))


def fd_error(model, points):
    """Largest relative gap of the pdf to F's FD mixed partial, steps 1e-3 of each width."""
    h = 1e-3 * (model.box_upper() - model.box_lower())
    fd = np.array([mixed_partial_fd(model, y, h) for y in points])
    an = joint_pdf(model, points)
    scale = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-12)
    return float(np.max(np.abs(an - fd) / scale))


def simpson_mass(model, n):
    """Tensor-product Simpson integral of the density over the box, n (made even) cells an axis."""
    n += n % 2
    dens = grid_pdf(model, [np.linspace(b.lower, b.upper, n + 1) for b in model.bounds])
    dens = dens.reshape([n + 1] * model.dim)
    for b in reversed(model.bounds):  # integrate out the last axis each time
        dens = simpson(dens, (b.upper - b.lower) / n)
    return float(dens)


def mc_mass(model, points):
    """Monte Carlo integral of the density over the box, from uniform points in it."""
    volume = float(np.prod(model.box_upper() - model.box_lower()))
    return float(np.mean(joint_pdf(model, points))) * volume


def pit_ks(model, draws):
    """Largest KS distance of a dimension's PIT values F_d(y_d) at the draws to Uniform(0, 1)."""
    return max(ks_statistic(normalized_cdf(m, y, b))
               for m, y, b in zip(model.marginals, draws.T, model.bounds))


def spearman_gap(model, draws):
    """Largest |rho - C_di / (3P)| over pairs (d, i), rho the draws' Spearman rho (no ties)."""
    rho = np.corrcoef(np.argsort(np.argsort(draws, axis=0), axis=0), rowvar=False)
    target = model.correlations.effective() / (3 * n_pairs(model.dim))
    return float(np.max(np.abs(rho[np.triu_indices(model.dim, 1)] - target)))  # pairs' order


def battery(model, level, seed):
    """(check name, passed, detail) per invariant at verify's bounds; a NaN fails.

    The points come from one stream of `seed` in the order the checks run;
    "full" adds the density checks and the sampler's, on ``sample`` draws
    under `seed` (which raises EvaluationError if the copula density is not
    finite).
    """
    rng = np.random.default_rng(seed)
    lower, upper = model.box_lower(), model.box_upper()

    def box_points(n):
        return lower + (upper - lower) * rng.random((n, model.dim))

    corner, faces = face_cdf(model, lower), face_cdf(model, upper)
    gap = margin_error(model, upper[:, None])  # |F - 1| at the upper corner, as F_d(U_d) = 1
    pts = box_points(500)
    (lo, hi), low = cdf_range(model, pts), min_pdf(model, pts)
    a = box_points(2000 if level == "quick" else 10000)
    diff = min_monotone_diff(model, a, a + (upper - a) * rng.random(a.shape))
    margin = margin_error(model, np.linspace(lower, upper, 50).T)
    trip = round_trip_error(model, rng.random((model.dim, 50)))
    checks = [("lower corner cdf == 0", corner <= 1e-12, f"{corner:.3e}"),
              ("upper corner cdf == 1", gap <= 1e-12, f"{gap:.3e}"),
              ("lower faces cdf == 0", faces <= 1e-12, f"{faces:.3e}"),
              ("cdf within [0,1]", lo >= -1e-12 and hi <= 1 + 1e-12, f"range [{lo:.3e}, {hi:.6f}]"),
              ("pdf nonnegative", low >= 0.0, f"min {low:.3e}"),
              ("cdf monotone on random pairs", diff >= -1e-12, f"min diff {diff:.3e}"),
              ("margins reproduce marginal cdf", margin <= 1e-12, f"max {margin:.3e}"),
              ("quantile/cdf round trip", trip <= 1e-8, f"max {trip:.3e}")]
    if level == "full":
        fd = fd_error(model, lower + (upper - lower) * (0.05 + 0.9 * rng.random((25, model.dim))))
        checks.append(("density matches FD mixed partial", fd <= 1e-3, f"max rel {fd:.3e}"))
        if model.dim <= 3:
            mass = simpson_mass(model, 48)
            checks.append(("density integrates to 1 (simpson)", 0.999 <= mass <= 1.001,
                           f"{mass:.6f}"))
        elif model.dim == 4:
            mass = mc_mass(model, box_points(200000))
            checks.append(("density integrates to 1 (monte carlo)", 0.98 <= mass <= 1.02,
                           f"{mass:.4f}"))
        draws = sample(model, DRAWS, seed)
        ks, rho = pit_ks(model, draws), spearman_gap(model, draws)
        checks += [("draws' PIT uniform per dimension", ks <= KS_BOUND, f"max KS {ks:.3e}"),
                   ("draws' Spearman rho == C/(3P) per pair", rho <= RHO_BOUND,
                    f"max error {rho:.3e}")]
    return checks
