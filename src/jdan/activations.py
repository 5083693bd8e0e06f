"""Activation functions with exact first and second derivatives.

Five kinds are supported: "sigmoid", "tanh", "linear", "relu" and "exp".
All of them have nonnegative first derivative everywhere, which is what
makes positive-weighted networks monotone. Only "exp" has nonnegative
derivatives of every order; it is offered for completeness but kept out
of default training setups because it explodes or vanishes easily.

``apply`` takes ndarrays or tape nodes alike: on a node (``hypernet``'s
conditioning net runs on the tape in training) it gives one node whose
backward is g times ``slope``. ``slope`` and ``curvature`` take plain arrays
(``marginal``, ``copula``'s adjoint, ``miso``). This table is the only code
that writes an activation's value, slope or curvature.
"""

import numpy as np

from . import autodiff as ad
from .errors import ContractError, DomainError
from .numerics import sigmoid

KINDS = ("sigmoid", "tanh", "linear", "relu", "exp")

# kind -> (z(x), z'(x) given x and z, z''(x) given x and z); the derivatives
# reuse the value where they can. ReLU uses the subgradient 0 at x = 0, which
# keeps z' deterministic and >= 0.
_TABLE = {
    "sigmoid": (sigmoid, lambda x, z: z * (1.0 - z),
                lambda x, z: z * (1.0 - z) * (1.0 - 2.0 * z)),
    "tanh": (np.tanh, lambda x, z: 1.0 - z * z, lambda x, z: -2.0 * z * (1.0 - z * z)),
    "linear": (lambda x: x, lambda x, z: 1.0, lambda x, z: 0.0),
    "relu": (lambda x: np.maximum(x, 0.0), lambda x, z: np.heaviside(x, 0.0), lambda x, z: 0.0),
    "exp": (np.exp, lambda x, z: z, lambda x, z: z),
}


def apply(kind, x):
    """z(x) for an ndarray, or a tape node with backward g z'(x); DomainError on non-finite x."""
    if kind not in KINDS:
        raise ContractError(f"unknown activation kind {kind!r}; expected one of {KINDS}")
    xv = ad.value(x)
    if not np.isfinite(xv).all():
        raise DomainError(f"non-finite input to activation {kind!r}")
    z = _TABLE[kind][0](xv)
    return ad.custom(x, z, lambda g: g * slope(kind, xv, z))


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
