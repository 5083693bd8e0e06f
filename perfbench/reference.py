"""Independent numpy evaluation of a jdan-v1 model document.

The output checks compare the program's answers with this module. It reads
the JSON document itself and never imports jdan, so a defect in the code
under test cannot hide in its own reference. It covers what the benchmark's
models use: sigmoid hidden layers in the marginal nets and the hypernet.

Every quantity is evaluated for all rows at once. Parameters carry a leading
row axis: one entry per feature row for a conditional model, and a single
entry that broadcasts over the rows for an unconditional one.
"""

import itertools
import json

import numpy as np

WEIGHT_EPS = 1e-6  # positivity floor: effective weight = softplus(raw) + WEIGHT_EPS


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


class Model:
    """Joint density of one document, with per-row parameters for `features`."""

    def __init__(self, doc, features=None):
        if isinstance(doc, str):
            with open(doc, encoding="utf-8") as fh:
                doc = json.load(fh)
        arch = doc["architecture"]
        acts = set(arch["activations"]) | {doc.get("conditioning", {}).get("activation", "sigmoid")}
        if acts != {"sigmoid"}:
            raise ValueError(f"reference model supports sigmoid layers only, got {sorted(acts)}")
        self.dim = int(doc["dim"])
        self.lower = np.array([b["lower"] for b in doc["bounds"]], dtype=np.float64)
        self.upper = np.array([b["upper"] for b in doc["bounds"]], dtype=np.float64)
        self.pairs = list(itertools.combinations(range(self.dim), 2))
        sizes = [[1] + [int(w) for w in h] + [1] for h in arch["marginal_hidden"]]
        if int(arch.get("feature_dim", 0)) > 0:
            raw = self._hypernet(doc, np.atleast_2d(np.asarray(features, dtype=np.float64)))
        else:
            chunks = []
            for m in doc["marginals"]:
                chunks += [np.asarray(w, dtype=np.float64).ravel() for w in m["raw_weights"]]
                chunks += [np.asarray(b, dtype=np.float64).ravel() for b in m["biases"]]
            chunks.append(np.asarray(doc["correlations"]["raw"], dtype=np.float64).ravel())
            raw = np.concatenate(chunks)[None, :]
        self.rows = raw.shape[0]
        self.layers = []  # per dim: [(positive weights (r,out,in), biases (r,out)), ...]
        pos = 0
        for s in sizes:
            weights = []
            for a, b in zip(s[:-1], s[1:]):
                w = raw[:, pos:pos + a * b].reshape(-1, b, a)
                weights.append(np.logaddexp(0.0, w) + WEIGHT_EPS)
                pos += a * b
            biases = []
            for b in s[1:]:
                biases.append(raw[:, pos:pos + b])
                pos += b
            self.layers.append(list(zip(weights, biases)))
        self.corr = np.tanh(raw[:, pos:pos + len(self.pairs)])
        if pos + len(self.pairs) != raw.shape[1]:
            raise ValueError("parameter count does not match the architecture")
        self._psi_lo = [self._psi(d, self.lower[d]) for d in range(self.dim)]
        self._span = [self._psi(d, self.upper[d]) - self._psi_lo[d] for d in range(self.dim)]

    @staticmethod
    def _hypernet(doc, x):
        c = doc["conditioning"]
        if "feature_scaling" in doc:
            s = doc["feature_scaling"]
            x = (x - np.asarray(s["shift"])) / np.asarray(s["scale"])
        a = x
        last = len(c["weights"]) - 1
        for k, (w, b) in enumerate(zip(c["weights"], c["biases"])):
            z = a @ np.asarray(w, dtype=np.float64).T + np.asarray(b, dtype=np.float64)
            a = z if k == last else _sigmoid(z)
        return a

    def _psi(self, d, y, deriv=False):
        """Raw marginal net of dim d at y -> (rows, k), and d/dy if asked.

        y is (rows, k), or (1, k) / a scalar shared by every row.
        """
        y = np.asarray(y, dtype=np.float64)
        a = (y if y.ndim == 2 else y.reshape(1, -1))[..., None]
        da = np.ones_like(a)
        last = len(self.layers[d]) - 1
        for k, (w, b) in enumerate(self.layers[d]):
            wt = np.swapaxes(w, 1, 2)
            z = a @ wt + b[:, None, :]
            dz = da @ wt if deriv else None
            if k == last:
                a, da = z, dz
            else:
                a = _sigmoid(z)
                if deriv:
                    da = a * (1.0 - a) * dz
        return (a[..., 0], da[..., 0]) if deriv else a[..., 0]

    def cdf(self, d, y):
        """Normalized marginal CDF of dim d; y is (rows, k) or broadcasts to it."""
        y = np.asarray(y, dtype=np.float64)
        lo, hi = self.lower[d], self.upper[d]
        f = (self._psi(d, np.clip(y, lo, hi)) - self._psi_lo[d]) / self._span[d]
        return np.where(y <= lo, 0.0, np.where(y >= hi, 1.0, np.clip(f, 0.0, 1.0)))

    def pdf_marginal(self, d, y):
        y = np.asarray(y, dtype=np.float64)
        _, dpsi = self._psi(d, y, deriv=True)
        inside = (y >= self.lower[d]) & (y <= self.upper[d])
        return np.where(inside, dpsi / self._span[d], 0.0)

    def copula_density(self, u):
        """u: (rows, k, dim) unit-cube points -> (rows, k)."""
        s = 0.0
        for p, (d, i) in enumerate(self.pairs):
            s = s + self.corr[:, p, None] * (1.0 - 2.0 * u[..., d]) * (1.0 - 2.0 * u[..., i])
        return 1.0 + s / len(self.pairs)

    def log_density(self, y):
        """log joint pdf at one point per row; y is (rows, dim)."""
        y = np.atleast_2d(y)[:, None, :]
        u = np.stack([self.cdf(d, y[..., d]) for d in range(self.dim)], axis=-1)
        out = np.log(self.copula_density(u))
        for d in range(self.dim):
            out = out + np.log(self.pdf_marginal(d, y[..., d]))
        return out[:, 0]

    def pit(self, y):
        """(rows, dim) PIT values F_d(y_d), one point per row."""
        y = np.atleast_2d(y)
        return np.column_stack([self.cdf(d, y[:, d:d + 1])[:, 0] for d in range(self.dim)])

    def crps(self, y, d, intervals=512):
        """Per-row CRPS of dim d: Simpson on each side of the observation."""
        y = np.clip(np.atleast_2d(y)[:, d], self.lower[d], self.upper[d])[:, None]
        s = np.linspace(0.0, 1.0, intervals + 1)[None, :]
        w = np.ones(intervals + 1)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        w /= 3.0 * intervals
        below = self.lower[d] + (y - self.lower[d]) * s
        above = y + (self.upper[d] - y) * s
        f_below = self.cdf(d, below) ** 2
        f_above = (self.cdf(d, above) - 1.0) ** 2
        return ((y - self.lower[d])[:, 0] * (f_below @ w)
                + (self.upper[d] - y)[:, 0] * (f_above @ w))

    def quantile(self, d, p, steps=52):
        """Bisection inverse of cdf(d, .) for p of shape (rows, k)."""
        lo = np.full(p.shape, self.lower[d])
        hi = np.full(p.shape, self.upper[d])
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            left = self.cdf(d, mid) > p
            hi = np.where(left, mid, hi)
            lo = np.where(left, lo, mid)
        return 0.5 * (lo + hi)

    def sample(self, count, rng):
        """(rows, count, dim) draws: rejection on the copula, then quantiles."""
        u = np.empty((self.rows, count, self.dim))
        for r in range(self.rows):
            have = 0
            while have < count:
                prop = rng.random((2 * (count - have) + 16, self.dim))
                dens = self.copula_density(prop[None])[r]
                kept = prop[rng.random(prop.shape[0]) * 2.0 < dens][:count - have]
                u[r, have:have + kept.shape[0]] = kept
                have += kept.shape[0]
        return np.stack([self.quantile(d, u[..., d]) for d in range(self.dim)], axis=-1)


def energy_reference(doc, features, targets, m, replicates, seed, chunk=5):
    """Mean and Monte Carlo standard error of the program's energy-score estimator.

    The program reports, per row, mean_j |s_j - y| - sum_jk |s_j - s_k| / (2 m^2)
    from m draws, averaged over rows. This draws `replicates` independent sets
    of m per row, so the mean estimates that estimator's expectation and the
    spread across replicates gives the standard error of one program run.
    """
    targets = np.atleast_2d(targets)
    features = np.atleast_2d(features)
    rng = np.random.default_rng(seed)
    per_row = []
    for lo in range(0, targets.shape[0], chunk):
        model = Model(doc, features[lo:lo + chunk])
        draws = model.sample(m * replicates, rng).reshape(model.rows, replicates, m, -1)
        y = targets[lo:lo + chunk][:, None, None, :]
        to_obs = np.linalg.norm(draws - y, axis=-1).mean(axis=-1)
        pair = np.linalg.norm(draws[:, :, :, None, :] - draws[:, :, None, :, :], axis=-1)
        per_row.append(to_obs - pair.sum(axis=(-1, -2)) / (2.0 * m * m))
    es = np.concatenate(per_row)  # (rows, replicates)
    n = es.shape[0]
    se = float(np.sqrt(es.var(axis=1, ddof=1).sum()) / n)
    return float(es.mean()), se
