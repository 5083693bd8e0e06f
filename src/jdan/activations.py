"""Activation functions with exact first and second derivatives.

Five kinds are supported: "sigmoid", "tanh", "linear", "relu" and "exp".
All of them have nonnegative first derivative everywhere, which is what
makes positive-weighted networks monotone. Only "exp" has nonnegative
derivatives of every order; it is offered for completeness but kept out
of default training setups because it explodes or vanishes easily.

``apply``, ``slope`` and ``curvature`` take ndarrays or tape nodes alike (see
``autodiff``), so the networks in ``marginal`` and ``hypernet`` run the same
code for evaluation and for training, and ``miso`` uses the same table.
"""

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DomainError

KINDS = ("sigmoid", "tanh", "linear", "relu", "exp")

# kind -> (z(x), z'(x) given x and z, z''(x) given x and z); the derivatives
# reuse the value where they can. ReLU uses the subgradient 0 at x = 0, which
# keeps z' deterministic and >= 0.
_TABLE = {
    "sigmoid": (ad.sigmoid, lambda x, z: z * (1.0 - z),
                lambda x, z: z * (1.0 - z) * (1.0 - 2.0 * z)),
    "tanh": (ad.tanh, lambda x, z: 1.0 - z * z, lambda x, z: -2.0 * z * (1.0 - z * z)),
    "linear": (lambda x: x, lambda x, z: 1.0, lambda x, z: 0.0),
    "relu": (ad.relu, lambda x, z: ad.step(x), lambda x, z: 0.0),
    "exp": (ad.exp, lambda x, z: z, lambda x, z: z),
}


def apply(kind, x):
    """z(x) for an ndarray or a tape node; DomainError on non-finite input."""
    if kind not in KINDS:
        raise ContractError(f"unknown activation kind {kind!r}; expected one of {KINDS}")
    if not np.isfinite(ad.value(x)).all():
        raise DomainError(f"non-finite input to activation {kind!r}")
    return _TABLE[kind][0](x)


def slope(kind, x, z):
    """z'(x), given z = apply(kind, x); 1.0 stands for all ones (linear)."""
    return _TABLE[kind][1](x, z)


def curvature(kind, x, z):
    """z''(x), given z = apply(kind, x); 0.0 stands for all zeros (linear, relu).

    For sigmoid the sign equals the sign of (1 - 2*sigmoid(x)), so it is
    negative whenever the pre-activation is positive; tanh behaves the
    same way around zero. This sign flip is the root cause of why a
    multi-input positive-weighted network cannot serve as a joint CDF
    (see the miso module).
    """
    return _TABLE[kind][2](x, z)
