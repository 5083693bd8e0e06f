"""Maximum-likelihood fitting of the joint density model.

The objective is the evaluation code itself. ``nll_loss`` runs
``nfn_forward``, ``materialize`` and ``joint_pdf`` on plain arrays. For the
gradient, ``nll_grad`` runs the conditioning net with its parameters as
leaves of the reverse-mode tape in ``autodiff``, and the batch density as one
tape node (``_density_node``): its forward is the same evaluation code on
plain arrays, and its backward a hand-written adjoint. So one backward pass
yields exact gradients for every trainable array. ``grad_check`` compares
those against central finite differences and is the standing correctness
oracle.

The batch is vectorized as a single graph, so the "reduction" over
per-sample gradients is a sum in fixed index order: results are bitwise
reproducible for a given seed and batch order.
"""

import math
import numbers
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .copula import combine, combine_adjoint, joint_pdf
from .errors import (
    ConfigError,
    ContractError,
    DegenerateMarginalError,
    DomainError,
    EvaluationError,
    NonFiniteLossError,
    TrainingError,
)
from .hypernet import ArchitectureDescriptor, initialize_net, materialize, nfn_forward, raw_block
from .marginal import normalize, normalize_adjoint

LOG_EPS = 1e-12  # density can be exactly 0 on the support boundary


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 64
    max_epochs: int = 500
    patience: int = 20
    seed: int = 0
    grad_clip: float = 10.0
    validation_fraction: float = 0.2

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and positive")
        if not self.grad_clip > 0:  # NaN included; inf turns clipping off
            raise ConfigError("grad_clip must be positive")
        counts = (self.batch_size, self.max_epochs, self.patience)
        if not all(isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1
                   for v in counts):
            raise ConfigError("batch_size, max_epochs and patience must be integers >= 1")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")


@dataclass
class TrainReport:
    train_nll: list = field(default_factory=list)
    val_nll: list = field(default_factory=list)
    stopped_epoch: int = 0
    best_epoch: int = 0
    best_validation_nll: float = math.nan
    wall_time: float = 0.0


def _per_sample_loss(net, arch, targets, features):
    """Per-sample -log(joint_pdf + LOG_EPS), shape (n,).

    A plain array from the evaluation code, or a tape node when net's
    parameters are tape leaves; the density is then ``_density_node``.
    """
    targets = np.asarray(targets, dtype=np.float64)
    if targets.ndim != 2 or targets.shape[1] != arch.dim:
        raise ContractError("targets must be (n, dim)")
    if targets.shape[0] == 0:
        raise ContractError("batch must be nonempty")
    lower = np.array([b.lower for b in arch.bounds])
    upper = np.array([b.upper for b in arch.bounds])
    outside = ~((targets >= lower) & (targets <= upper))  # NaN is outside too
    if outside.any():
        bad, d = np.argwhere(outside)[0]
        raise ContractError(f"target sample {bad} lies outside bounds in dimension {d}")
    raw = nfn_forward(net, features)
    if isinstance(raw, ad.Tensor):
        dens = _density_node(raw, arch, targets)
    else:
        dens = joint_pdf(materialize(raw, arch), targets)
    return -ad.log(dens + LOG_EPS)


def _density_node(raw, arch, targets):
    """The joint density at in-box targets, (n,), as one tape node over the raw block.

    Its forward is the evaluation code on plain arrays: ``materialize``, one
    ``normalize`` pass per dimension over [L, U, y], and the combiner. Its
    backward is the hand-written adjoint: ``copula.combine_adjoint``, then
    ``marginal.normalize_adjoint`` per dimension, gathered into raw's shape.
    """
    model = materialize(ad.value(raw), arch)
    records = [[] for _ in model.marginals]
    cdfs, pdfs = zip(*(normalize(m, y, b, rec) for m, y, b, rec
                       in zip(model.marginals, targets.T, model.bounds, records)))

    def backward(g):
        g_corr, g_cdfs, g_pdfs = combine_adjoint(model.correlations, cdfs, pdfs, g)
        return raw_block([normalize_adjoint(*args) for args in zip(
            model.marginals, records, cdfs, pdfs, g_cdfs, g_pdfs)], g_corr)

    return ad.custom(raw, combine(model.correlations, cdfs, pdfs), backward)


def _check_finite(loss_vec):
    finite = np.isfinite(loss_vec)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise NonFiniteLossError(f"non-finite loss at sample {idx}", sample_index=idx)


def nll_loss(net, arch, targets, features=None):
    """Mean of -log(joint_pdf + 1e-12) over the batch."""
    vec = _per_sample_loss(net, arch, targets, features)
    _check_finite(vec)
    return float(vec.mean())


def nll_grad(net, arch, targets, features=None):
    """(loss, flat gradient) over net.parameters() in order, raveled."""
    leaves = [ad.leaf(p) for p in net.parameters()]
    vec = _per_sample_loss(net.with_parameters(leaves), arch, targets, features)
    _check_finite(vec.data)
    loss = ad.mean(vec)
    ad.backward(loss)
    grads = [
        np.zeros(leaf.data.size) if leaf.grad is None else leaf.grad.reshape(-1)
        for leaf in leaves
    ]
    return float(loss.data), np.concatenate(grads)


def flat_parameters(net) -> np.ndarray:
    return np.concatenate([p.reshape(-1) for p in net.parameters()])


def set_flat_parameters(net, vec):
    vec = np.asarray(vec, dtype=np.float64)
    params = net.parameters()
    if vec.size != sum(p.size for p in params):
        raise ContractError("flat vector length does not match the net")
    pos = 0
    for p in params:
        p[...] = vec[pos:pos + p.size].reshape(p.shape)
        pos += p.size


def grad_check(net, arch, targets, features=None, h=1e-5, max_coords=None, seed=0):
    """Max relative error of the tape gradient vs central finite differences.

    Coordinates with |analytic| <= 1e-8 are skipped (FD noise dominates
    there). When max_coords is given, a seeded random subset of that size
    is compared instead of every coordinate.
    """
    if h <= 0:
        raise ContractError("h must be positive")
    _, g = nll_grad(net, arch, targets, features)
    idx = np.arange(g.size)
    if max_coords is not None and g.size > max_coords:
        idx = np.random.default_rng(seed).choice(g.size, size=max_coords, replace=False)
    theta = flat_parameters(net)
    worst = 0.0
    for i in idx:
        if abs(g[i]) <= 1e-8:
            continue
        saved = theta[i]
        theta[i] = saved + h
        set_flat_parameters(net, theta)
        up = nll_loss(net, arch, targets, features)
        theta[i] = saved - h
        set_flat_parameters(net, theta)
        down = nll_loss(net, arch, targets, features)
        theta[i] = saved
        set_flat_parameters(net, theta)
        fd = (up - down) / (2.0 * h)
        worst = max(worst, abs(g[i] - fd) / max(abs(g[i]), abs(fd)))
    return worst


def _adam_update(theta, g, m, v, t, cfg: TrainConfig):
    norm = float(np.linalg.norm(g))
    if norm > cfg.grad_clip:
        g = g * (cfg.grad_clip / norm)
    m *= 0.9
    m += 0.1 * g
    v *= 0.999
    v += 0.001 * g * g
    mhat = m / (1.0 - 0.9 ** t)
    vhat = v / (1.0 - 0.999 ** t)
    theta -= cfg.learning_rate * mhat / (np.sqrt(vhat) + 1e-8)


def train(arch: ArchitectureDescriptor, targets, features=None, config=None, log=None):
    """Fit by Adam on mean NLL; returns (net, TrainReport).

    Deterministic for a fixed (config.seed, data): the split, the
    initialization, and every shuffle are drawn from spawned child
    streams of that one seed. Early stopping watches validation NLL and
    the returned parameters are the best-validation ones.
    """
    cfg = config or TrainConfig()
    targets = np.asarray(targets, dtype=np.float64)
    n = targets.shape[0]
    if features is not None:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[0] != n:
            raise ContractError("features and targets disagree on n")
    if arch.feature_dim > 0 and features is None:
        raise ContractError("a conditional architecture needs features")
    if n < 10 * cfg.batch_size:
        warnings.warn(
            f"only {n} samples for batch_size={cfg.batch_size}; "
            "recommend at least 10 batches per epoch",
            stacklevel=2,
        )
    ss_split, ss_init, ss_shuffle = np.random.SeedSequence(cfg.seed).spawn(3)
    perm = np.random.default_rng(ss_split).permutation(n)
    n_val = max(1, int(round(cfg.validation_fraction * n)))
    if n - n_val < 1:
        raise ConfigError("dataset too small for the requested validation fraction")
    val_idx, tr_idx = perm[:n_val], perm[n_val:]
    y_tr, y_val = targets[tr_idx], targets[val_idx]
    x_tr = features[tr_idx] if features is not None else None
    x_val = features[val_idx] if features is not None else None

    net = initialize_net(arch, ss_init)
    theta = flat_parameters(net)
    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    t = 0
    shuffle_rng = np.random.default_rng(ss_shuffle)
    report = TrainReport()
    best = nll_loss(net, arch, y_val, x_val)  # epoch-0 baseline
    best_theta = theta.copy()
    report.best_validation_nll = best
    since_best = 0
    start = time.perf_counter()
    n_tr = len(tr_idx)

    for epoch in range(1, cfg.max_epochs + 1):
        order = shuffle_rng.permutation(n_tr)
        epoch_loss = 0.0
        try:
            for lo in range(0, n_tr, cfg.batch_size):
                rows = order[lo:lo + cfg.batch_size]
                xb = x_tr[rows] if x_tr is not None else None
                loss, g = nll_grad(net, arch, y_tr[rows], xb)
                if not np.all(np.isfinite(g)):
                    raise NonFiniteLossError("non-finite gradient")
                t += 1
                _adam_update(theta, g, m, v, t, cfg)
                set_flat_parameters(net, theta)
                epoch_loss += loss * len(rows)
            val_nll = nll_loss(net, arch, y_val, x_val)
        except (NonFiniteLossError, DegenerateMarginalError, EvaluationError, DomainError) as exc:
            # a step broke evaluation (overflow, flattened marginal);
            # hand back the last good parameters with the partial report
            set_flat_parameters(net, best_theta)
            report.stopped_epoch = epoch
            report.wall_time = time.perf_counter() - start
            raise TrainingError(
                f"epoch {epoch}: {exc}; parameters restored to the best "
                "checkpoint so far",
                report=report,
            ) from exc
        train_nll = epoch_loss / n_tr
        report.train_nll.append(train_nll)
        report.val_nll.append(val_nll)
        report.stopped_epoch = epoch
        if log is not None:
            log(f"epoch {epoch:4d}  train nll {train_nll: .6f}  val nll {val_nll: .6f}")
        if val_nll < best:
            best = val_nll
            best_theta = theta.copy()
            report.best_epoch = epoch
            report.best_validation_nll = best
            since_best = 0
        else:
            since_best += 1
            if since_best >= cfg.patience:
                break
    set_flat_parameters(net, best_theta)
    report.wall_time = time.perf_counter() - start
    return net, report

