"""Multi-input positive-weighted networks and why they fail as joint CDFs.

A positive-weighted feedforward network with several inputs is monotone
nondecreasing in every coordinate, which is necessary for a joint CDF but
not sufficient: a joint CDF also needs nonnegative mixed partials across
all coordinate subsets. For sigmoid or tanh activations the second
derivative of the activation changes sign, and mixed second partials of
the network go negative for entirely ordinary parameter draws. This module
evaluates those mixed partials in closed form for two-layer networks and
finds such negative witnesses by seeded random search; for linear/ReLU the
mixed partial is identically zero, and for the exponential activation every
derivative of the activation is positive, so no witness can exist.
"""

from dataclasses import dataclass

import numpy as np

from .activations import KINDS, apply, curvature, slope
from .errors import ContractError, DomainError
from .marginal import positivity_map


@dataclass
class MisoNetParams:
    """Raw parameters of a multi-input scalar-output positive-weighted net.

    Unlike marginal units, the activation may differ per layer and is also
    applied to the output layer.
    """

    layer_sizes: list
    raw_weights: list
    biases: list
    activations: list

    def __post_init__(self):
        sizes = self.layer_sizes
        if sizes[-1] != 1:
            raise ContractError("miso nets produce one scalar output")
        n_layers = len(sizes) - 1
        if not (len(self.raw_weights) == len(self.biases) == len(self.activations) == n_layers):
            raise ContractError("need weights, biases and an activation per layer")
        for a in self.activations:
            if a not in KINDS:
                raise ContractError(f"unknown activation {a!r}")
        for k, (w, b) in enumerate(zip(self.raw_weights, self.biases)):
            if w.shape != (sizes[k + 1], sizes[k]) or b.shape != (sizes[k + 1],):
                raise ContractError(f"layer {k} parameter shape mismatch")

    @property
    def dim(self):
        return self.layer_sizes[0]


def miso_mixed_partial(params: MisoNetParams, y, p, q):
    """Closed-form second mixed partial for a net with exactly one hidden layer.

    With hidden pre-activations s = W1 y + b1, hidden output a = z1(s) and
    output pre-activation t = w2 a + b2:

        d2 out / dy_p dy_q = z2''(t) * (w2 . z1'(s) W1[:,p]) * (w2 . z1'(s) W1[:,q])
                           + z2'(t) * sum_l w2_l z1''(s_l) W1[l,p] W1[l,q]
    """
    if len(params.layer_sizes) != 3:
        raise ContractError("the closed form covers exactly one hidden layer")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (params.dim,):
        raise ContractError("miso_mixed_partial expects a single point")
    if not (0 <= p < params.dim and 0 <= q < params.dim) or p == q:
        raise ContractError("p and q must be distinct coordinate indices")
    w1 = positivity_map(params.raw_weights[0])
    w2 = positivity_map(params.raw_weights[1])[0]
    z1, z2 = params.activations
    s = w1 @ y + params.biases[0]
    a = apply(z1, s)
    t = float(w2 @ a + params.biases[1][0])
    d1s = slope(z1, s, a)
    gp = float(w2 @ (d1s * w1[:, p]))
    gq = float(w2 @ (d1s * w1[:, q]))
    curved = float(w2 @ (curvature(z1, s, a) * w1[:, p] * w1[:, q]))
    out = apply(z2, t)
    return float(curvature(z2, t, out) * gp * gq + slope(z2, t, out) * curved)


@dataclass
class Witness:
    """One parameter/input draw whose mixed partial is negative."""

    params: MisoNetParams
    y: np.ndarray
    p: int
    q: int
    value: float
    trial: int


def find_negative_witness(seed, max_trials=10000, activation="sigmoid", dim=2, hidden=4):
    """Random search for a negative mixed second partial.

    Raw parameters are drawn standard normal and inputs uniform on [-3, 3]^D;
    the same activation is used in both layers. Returns the first witness with
    value below -1e-8, or None once max_trials draws come up empty (which is
    the expected outcome for linear, relu and exp).
    """
    rng = np.random.default_rng(seed)
    sizes = [dim, hidden, 1]
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in range(max_trials):
            params = MisoNetParams(
                layer_sizes=sizes,
                raw_weights=[rng.standard_normal((hidden, dim)), rng.standard_normal((1, hidden))],
                biases=[rng.standard_normal(hidden), rng.standard_normal(1)],
                activations=[activation, activation],
            )
            y = rng.uniform(-3.0, 3.0, size=dim)
            for p in range(dim - 1):
                for q in range(p + 1, dim):
                    try:
                        value = miso_mixed_partial(params, y, p, q)
                    except DomainError:
                        # exp nets can overflow to inf mid-evaluation; an
                        # overflowed draw cannot certify a negative value
                        continue
                    if value < -1e-8:
                        return Witness(params=params, y=y, p=p, q=q, value=value, trial=trial)
    return None
