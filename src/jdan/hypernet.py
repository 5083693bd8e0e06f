"""Conditioning network and the raw-vector <-> model bijection.

All trainable quantities of a joint model live in one flat vector of
unconstrained reals, partitioned as: marginal 1 weight layers (row-major),
marginal 1 bias layers, marginal 2 weights, marginal 2 biases, ..., then
the pairwise correlation parameters. ``materialize`` reshapes such a
vector into a model (positivity/tanh squashes are applied downstream at
evaluation, so every finite raw vector yields a valid model), and
``raw_block`` concatenates raw parameters back in that order. A block of
n raw vectors, shape (n, P), becomes one model whose parameters carry a
leading row axis.

A ConditioningNet maps a forecast feature vector to that raw vector, which
makes the predicted joint density depend on the features. With input_dim 0
there is no network at all: the raw vector itself is the trainable object,
which is the plain density-estimation mode.
"""

import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import activations
from . import autodiff as ad
from .copula import MAX_DIM, CorrelationParams, JdanModel, n_pairs
from .errors import ConfigError, ContractError, EvaluationError
from .marginal import Bounds, MarginalNetParams
from .numerics import row_blocks

DEFAULT_MARGINAL_HIDDEN = [10, 10]
DEFAULT_HYPERNET_HIDDEN = [64, 64]
OUTPUT_INIT_SCALE = 0.1  # small raw outputs start near independence/uniformity


@dataclass
class ArchitectureDescriptor:
    """Static shape information: everything about a model except its numbers."""

    dim: int
    bounds: list
    marginal_hidden: list = None
    activations: list = None
    feature_dim: int = 0
    hypernet_hidden: list = None

    def __post_init__(self):
        if not 2 <= self.dim <= MAX_DIM:
            raise ContractError(f"dim must be in [2, {MAX_DIM}]")
        if len(self.bounds) != self.dim:
            raise ContractError("need one bounds pair per dimension")
        self.bounds = [b if isinstance(b, Bounds) else Bounds(*b) for b in self.bounds]
        if self.marginal_hidden is None:
            self.marginal_hidden = [list(DEFAULT_MARGINAL_HIDDEN) for _ in range(self.dim)]
        if self.activations is None:
            self.activations = ["sigmoid"] * self.dim
        if self.hypernet_hidden is None:
            self.hypernet_hidden = list(DEFAULT_HYPERNET_HIDDEN)
        if len(self.marginal_hidden) != self.dim or len(self.activations) != self.dim:
            raise ContractError("need hidden sizes and an activation per marginal")
        for name, nets in (("hypernet_hidden", [self.hypernet_hidden]),
                           ("marginal_hidden", self.marginal_hidden)):
            for widths in nets:
                if not isinstance(widths, (list, tuple)) or not all(
                        isinstance(w, numbers.Integral) and not isinstance(w, bool) and w >= 1
                        for w in widths):
                    raise ContractError(
                        f"{name} widths must be lists of positive integers, got {widths!r}")
        if not all(self.marginal_hidden):
            raise ContractError("every marginal needs a hidden layer")
        for a in self.activations:
            if a not in activations.KINDS:
                raise ContractError(f"unknown activation {a!r}")
        if self.feature_dim < 0:
            raise ContractError("feature_dim must be >= 0")

    def marginal_layer_sizes(self, d):
        return [1] + [int(w) for w in self.marginal_hidden[d]] + [1]

    def param_count(self):
        return self.partition()[1][1]

    def partition(self):
        """Index ranges of the flat raw vector, in serialization order."""
        spans = []
        pos = 0
        for d in range(self.dim):
            sizes = self.marginal_layer_sizes(d)
            w_spans, b_spans = [], []
            for a, b in zip(sizes[:-1], sizes[1:]):
                w_spans.append((pos, pos + a * b, (b, a)))
                pos += a * b
            for a, b in zip(sizes[:-1], sizes[1:]):
                b_spans.append((pos, pos + b))
                pos += b
            spans.append((w_spans, b_spans))
        corr_span = (pos, pos + n_pairs(self.dim))
        return spans, corr_span


def materialize(raw, arch: ArchitectureDescriptor) -> JdanModel:
    """Reshape a raw vector (P,), or a block of per-row vectors (n, P), into a model.

    Every finite raw vector is valid; a non-finite entry raises ConfigError.
    """
    raw = np.asarray(raw, dtype=np.float64)
    spans, corr_span = arch.partition()
    if raw.ndim not in (1, 2) or raw.shape[-1] != corr_span[1]:
        raise ContractError(
            f"raw parameters have shape {raw.shape}; architecture needs "
            f"({corr_span[1]},) or (n, {corr_span[1]})"
        )
    if not np.all(np.isfinite(raw)):
        raise ConfigError("raw parameters must be finite")
    lead = raw.shape[:-1]
    marginals = []
    for d, (w_spans, b_spans) in enumerate(spans):
        weights = [raw[..., a:b].reshape(lead + shape) for a, b, shape in w_spans]
        biases = [raw[..., a:b] for a, b in b_spans]
        marginals.append(
            MarginalNetParams(
                layer_sizes=arch.marginal_layer_sizes(d),
                raw_weights=weights,
                biases=biases,
                activation=arch.activations[d],
            )
        )
    corr = CorrelationParams(raw=raw[..., corr_span[0]:corr_span[1]])
    return JdanModel(dim=arch.dim, marginals=marginals, correlations=corr, bounds=list(arch.bounds))


def raw_block(marginals, corr):
    """Each marginal's (weights, biases) and then corr, concatenated in partition order.

    Arrays with a leading row axis give an (n, P) block, shared ones a (P,) vector.
    """
    chunks = []
    for weights, biases in marginals:
        chunks.extend(w.reshape(w.shape[:-2] + (-1,)) for w in weights)
        chunks.extend(biases)
    chunks.append(corr)
    return np.concatenate(chunks, axis=-1)


@dataclass
class ConditioningNet:
    """Feature-to-parameters network; input_dim 0 means a bare raw vector."""

    input_dim: int
    layer_sizes: list = field(default_factory=list)
    weights: list = field(default_factory=list)
    biases: list = field(default_factory=list)
    activation: str = "sigmoid"
    raw: np.ndarray = None

    def __post_init__(self):
        if self.activation not in activations.KINDS:
            raise ContractError(f"unknown activation {self.activation!r}")
        if self.input_dim == 0:
            if self.raw is None:
                raise ContractError("unconditional nets must carry a raw vector")
            self.raw = ad.array(self.raw).reshape((-1,))
        else:
            layers = len(self.layer_sizes) - 1
            if layers < 1 or not len(self.weights) == len(self.biases) == layers:
                raise ContractError(
                    f"hypernet needs one weight and bias per layer: {max(layers, 0)} layers, "
                    f"{len(self.weights)} weights, {len(self.biases)} biases")
            if self.layer_sizes[0] != self.input_dim:
                raise ContractError("first layer size must equal input_dim")
            for k, (w, b) in enumerate(zip(self.weights, self.biases)):
                want = (self.layer_sizes[k + 1], self.layer_sizes[k])
                if w.shape != want or b.shape != (self.layer_sizes[k + 1],):
                    raise ContractError(f"hypernet layer {k} parameter shape mismatch")

    @property
    def output_dim(self):
        return self.raw.size if self.input_dim == 0 else self.layer_sizes[-1]

    def parameters(self):
        """Trainable arrays, in a fixed order; mutated in place by optimizers."""
        if self.input_dim == 0:
            return [self.raw]
        out = []
        for w, b in zip(self.weights, self.biases):
            out.extend((w, b))
        return out

    def with_parameters(self, params):
        """The same net carrying `params`, in parameters() order (tape leaves, say)."""
        if self.input_dim == 0:
            return replace(self, raw=params[0])
        return replace(self, weights=list(params[0::2]), biases=list(params[1::2]))


def initialize_net(arch: ArchitectureDescriptor, seed) -> ConditioningNet:
    """Fresh network (or raw vector) with small raw outputs.

    Small initial raw values keep every marginal close to linear and all
    correlations near zero, a near-uniform, near-independence starting
    point that trains stably.
    """
    rng = np.random.default_rng(seed)
    p = arch.param_count()
    if arch.feature_dim == 0:
        return ConditioningNet(input_dim=0, raw=rng.normal(0.0, OUTPUT_INIT_SCALE, size=p))
    sizes = [arch.feature_dim] + [int(w) for w in arch.hypernet_hidden] + [p]
    weights, biases = [], []
    for k, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
        scale = 1.0 / np.sqrt(a)
        if k == len(sizes) - 2:
            scale *= OUTPUT_INIT_SCALE
        weights.append(rng.normal(0.0, scale, size=(b, a)))
        biases.append(np.zeros(b))
    return ConditioningNet(
        input_dim=arch.feature_dim, layer_sizes=sizes, weights=weights, biases=biases
    )


def _features(net, x):
    """x as the (F,) vector or (n, F) block net reads, or None for no features.

    The one feature check on every path. None and a block with no column, (0,)
    or (n, 0), mean no features: all an unconditional net takes, and what a
    conditional net refuses. A scalar is one feature. Other blocks need two
    axes at most, a row, net's feature count and finite values, else ContractError.
    """
    if x is not None:
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if x.ndim > 2 or (x.shape[-1] and not len(x)):
            raise ContractError("features must be a vector or a block of at least one row")
        x = x if x.shape[-1] else None
    if not net.input_dim:
        if x is not None:
            raise ContractError(f"an unconditional forecaster takes no features, got {x.shape[-1]}")
        return None
    if x is None:
        raise ContractError(f"a conditional forecaster needs features: {net.input_dim} per row")
    if x.shape[-1] != net.input_dim:
        raise ContractError(f"expected {net.input_dim} features, got {x.shape[-1]}")
    if not np.all(np.isfinite(x)):
        raise ContractError("features must be finite")
    return x


def nfn_forward(net: ConditioningNet, x):
    """Map features to the flat raw vector; (F,) -> (P,) or (n, F) -> (n, P).

    An unconditional net maps no features (see ``_features``) to its one raw
    vector (P,). The net's parameters may be tape nodes, and then so is the
    result. A non-finite result raises EvaluationError, and features so large
    that a layer overflows raise DomainError.
    """
    x = _features(net, x)
    if x is None:
        a = net.raw + np.zeros(net.raw.shape)  # a fresh array, or a tape node
    else:
        a = np.atleast_2d(x)
        last = len(net.weights) - 1
        with np.errstate(over="ignore", invalid="ignore"):  # activations.apply refuses the result
            for k, (w, b) in enumerate(zip(net.weights, net.biases)):
                pre = ad.affine(a, w, b)
                a = pre if k == last else activations.apply(net.activation, pre)
        if x.ndim == 1:
            a = a.reshape(a.shape[1:])
    if not np.all(np.isfinite(ad.value(a))):
        raise EvaluationError("the conditioning net emitted non-finite parameters")
    return a


class Forecaster:
    """Binds a conditioning net to an architecture: features in, model out."""

    def __init__(self, net: ConditioningNet, arch: ArchitectureDescriptor, feature_scaler=None):
        if net.output_dim != arch.param_count():
            raise ContractError(
                f"net emits {net.output_dim} parameters; architecture needs {arch.param_count()}"
            )
        if net.input_dim != arch.feature_dim:
            raise ContractError(f"net takes {net.input_dim} features; "
                                f"architecture has feature_dim {arch.feature_dim}")
        if feature_scaler is not None and feature_scaler.shift.size != net.input_dim:
            raise ContractError(f"feature_scaling has {feature_scaler.shift.size} columns "
                                f"for {net.input_dim} features")
        self.net = net
        self.arch = arch
        self.feature_scaler = feature_scaler
        self._fixed = materialize(net.raw, arch) if net.input_dim == 0 else None

    @property
    def conditional(self):
        return self.net.input_dim > 0

    def model_for(self, x=None) -> JdanModel:
        """The model for one feature vector (F,), or a per-row model for a block (n, F).

        Row i of a block gets the bits of a one-row call for x[i]. An
        unconditional forecaster returns its one shared model for no features
        (see ``_features``), and refuses any feature.
        """
        x = _features(self.net, x)  # before the scaler, which would broadcast a wrong width
        if x is None:
            return self._fixed
        if self.feature_scaler is not None:
            x = self.feature_scaler.transform(x)
        blocks = [x] if x.ndim == 1 else [x[rows] for rows in row_blocks(len(x))]
        return materialize(np.concatenate([nfn_forward(self.net, b) for b in blocks]), self.arch)
