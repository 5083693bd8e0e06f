"""Minimal reverse-mode tape over numpy arrays.

Every op is array-generic: given only plain arrays (or numbers) it returns a
plain ndarray and records nothing; given at least one ``Tensor`` it returns a
``Tensor`` wired into the graph. One body of model code therefore serves both
numpy evaluation and training. Build the graph by passing leaves created with
``leaf()``, call ``backward`` on a scalar result, and read ``.grad`` off the
leaves.

Gradients broadcast the numpy way and are summed back onto each parent's
shape. Only nodes that (transitively) depend on a leaf receive gradients;
plain-array arguments are constants and are not kept on the tape.
"""

import numpy as np

from .numerics import sigmoid as _sigmoid_np


class Tensor:
    __slots__ = ("data", "grad", "parents", "bwd", "needs")
    # numpy defers `ndarray <op> Tensor` to the Tensor's reflected operator
    __array_ufunc__ = None

    def __init__(self, data, parents=(), bwd=(), needs=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.parents = parents  # tape nodes this one was computed from
        self.bwd = bwd          # one upstream-gradient -> parent-gradient map per parent
        self.needs = needs

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def reshape(self, shape):
        return reshape(self, shape)

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, idx):
        return getitem(self, idx)


def leaf(data):
    """Wrap a parameter array (not copied) as a gradient-receiving leaf."""
    return Tensor(data, needs=True)


def value(x):
    """The numbers behind x: a Tensor's data, anything else as is."""
    return x.data if isinstance(x, Tensor) else x


def array(x):
    """A Tensor unchanged; anything else as a float64 ndarray."""
    return x if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def _node(out, *edges):
    """`out` as a tape node, or plain `out` when no argument is a Tensor.

    Each edge is (argument, map from the upstream gradient to that
    argument's gradient). Only arguments that need gradients are kept.
    """
    parents, bwd, taped = [], [], False
    for x, f in edges:
        if isinstance(x, Tensor):
            taped = True
            if x.needs and f is not None:
                parents.append(x)
                bwd.append(f)
    if not taped:
        return out
    return Tensor(out, tuple(parents), tuple(bwd), bool(parents))


def _unbroadcast(g, shape):
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def add(a, b):
    av, bv = value(a), value(b)
    return _node(np.add(av, bv),
                 (a, lambda g: _unbroadcast(g, np.shape(av))),
                 (b, lambda g: _unbroadcast(g, np.shape(bv))))


def sub(a, b):
    av, bv = value(a), value(b)
    return _node(np.subtract(av, bv),
                 (a, lambda g: _unbroadcast(g, np.shape(av))),
                 (b, lambda g: _unbroadcast(-g, np.shape(bv))))


def mul(a, b):
    av, bv = value(a), value(b)
    return _node(np.multiply(av, bv),
                 (a, lambda g: _unbroadcast(g * bv, np.shape(av))),
                 (b, lambda g: _unbroadcast(g * av, np.shape(bv))))


def div(a, b):
    av, bv = value(a), value(b)
    return _node(np.divide(av, bv),
                 (a, lambda g: _unbroadcast(g / bv, np.shape(av))),
                 (b, lambda g: _unbroadcast(-g * av / (bv * bv), np.shape(bv))))


def affine(a, w, b=None):
    """One layer, a @ swapaxes(w, -1, -2) + b[..., None, :].

    w is shared, (out, in), or per row, (n, out, in), with b (out,) or
    (n, out) to match; a is (m, in) or (n, k, in), and broadcasts the numpy
    matmul way. Without b there is no bias term.

    Plain arguments go through ``ordered_affine``, so each output depends
    only on its point and its row's parameters, never on the other points or
    rows in the call as a BLAS product's does. Tape nodes take the matmul.
    """
    if not any(isinstance(x, Tensor) for x in (a, w, b)):
        # one plane per input unit, the longer points axis last: the rows, when a block
        # holds fewer points per row than rows
        if w.ndim == 2:
            perm = back = (1, 0)
            wt, bt = w.T[:, :, None], (None if b is None else b[:, None])
        else:
            if a.ndim == 2:  # one set of points under every row's weights
                a = np.broadcast_to(a, w.shape[:1] + a.shape)
            rows_last = a.shape[1] < a.shape[0]
            perm, back = ((2, 1, 0), (2, 1, 0)) if rows_last else ((2, 0, 1), (1, 2, 0))
            wt = w.transpose(2, 1, 0)[:, :, None] if rows_last else w.transpose(2, 1, 0)[..., None]
            bt = None if b is None else (b.T[:, None] if rows_last else b.T[:, :, None])
        out = ordered_affine(np.ascontiguousarray(a.transpose(perm)), wt, bt)
        return out.transpose(back)
    av, wv = value(a), value(w)
    out = av @ np.swapaxes(wv, -1, -2)
    edges = [(a, lambda g: _unbroadcast(g @ wv, np.shape(av))),
             (w, lambda g: _unbroadcast(np.swapaxes(g, -1, -2) @ av, np.shape(wv)))]
    if b is not None:
        bv = value(b)
        out += bv[..., None, :]
        edges.append((b, lambda g: _unbroadcast(g.sum(axis=-2), np.shape(bv))))
    return _node(out, *edges)


def ordered_affine(at, wt, bt=None):
    """One plain layer with the points on the last axes: at (in, ...) -> (out, ...).

    wt[j] and bt broadcast against the plane at[j] to the output's shape.
    Every output sums its inputs in order j = 0, 1, ... and then adds bt, so
    each point's value depends on nothing but that point and its row's
    parameters, and a one-row shared set gives the bits of its row in a block.
    """
    out = wt[0] * at[0]
    if len(at) > 1:
        tmp = np.empty_like(out)
        for j in range(1, len(at)):
            out += np.multiply(wt[j], at[j], out=tmp)
    if bt is not None:
        out += bt
    return out


def reshape(a, shape):
    av = value(a)
    return _node(np.reshape(av, shape), (a, lambda g: g.reshape(np.shape(av))))


def broadcast_to(a, shape):
    av = value(a)
    return _node(np.broadcast_to(av, shape), (a, lambda g: _unbroadcast(g, np.shape(av))))


def custom(a, out, bwd):
    """out, computed from a outside the tape, as a node; bwd maps out's gradient to a's."""
    return _node(out, (a, bwd))


def getitem(a, idx):
    # idx must not select the same element twice (plain assignment below,
    # not scatter-add); ints, slices, Ellipsis and tuples of those are fine.
    av = value(a)

    def bwd(g):
        full = np.zeros_like(av)
        full[idx] = g
        return full

    return _node(av[idx], (a, bwd))


def mean(a):
    av = value(a)
    n = np.size(av)
    return _node(np.asarray(np.mean(av)), (a, lambda g: np.broadcast_to(g / n, np.shape(av)).copy()))


def log(a):
    av = value(a)
    return _node(np.log(av), (a, lambda g: g / av))


def exp(a):
    out = np.exp(value(a))
    return _node(out, (a, lambda g: g * out))


def tanh(a):
    out = np.tanh(value(a))
    return _node(out, (a, lambda g: g * (1.0 - out * out)))


def sigmoid(a):
    out = _sigmoid_np(value(a))
    return _node(out, (a, lambda g: g * out * (1.0 - out)))


def softplus(a):
    av = value(a)
    return _node(np.logaddexp(0.0, av), (a, lambda g: g * _sigmoid_np(av)))


def relu(a):
    av = value(a)
    return _node(np.maximum(av, 0.0), (a, lambda g: g * (av > 0)))


def step(a):
    """Heaviside with value 0 at 0; gradient defined as zero everywhere."""
    return _node((np.asarray(value(a)) > 0).astype(np.float64), (a, None))


def backward(root: Tensor):
    """Reverse accumulation from a scalar root into every leaf's .grad."""
    if root.data.size != 1:
        raise ValueError("backward expects a scalar root")
    order = []
    seen = set()
    todo = [(root, False)]
    while todo:
        node, expanded = todo.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.needs:
            continue
        seen.add(id(node))
        todo.append((node, True))
        for p in node.parents:
            todo.append((p, False))
    root.grad = np.ones_like(root.data)
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, f in zip(node.parents, node.bwd):
            g = f(node.grad)
            if parent.grad is None:
                parent.grad = np.array(g, dtype=np.float64, copy=True)
            else:
                parent.grad = parent.grad + g
    return root.grad
