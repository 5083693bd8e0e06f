"""Shared numerical helpers: the block rule, stable elementwise maps and small quadratures."""

import numpy as np

# points per block wherever a batched call meets many points (read at call time): small
# arrays reuse their memory
BLOCK_POINTS = 4096


def row_blocks(n, points_per_row=1):
    """Slices of n rows, each holding about BLOCK_POINTS points (at least one row)."""
    step = max(1, BLOCK_POINTS // points_per_row)
    return [slice(lo, lo + step) for lo in range(0, n, step)]


def sigmoid(x):
    """Numerically stable logistic function, elementwise: max(x >= 0, e) / (1 + e), e = exp(-|x|).

    The one exp never overflows. From 0 up the numerator is 1 exactly, as
    e <= 1 there, and below 0 it is e, bitwise exp(x): the two-branch
    formula's bits, with no select. It works in two fresh buffers laid out in
    memory like x, since later sums run in memory order, and a 0-d input
    gives a 0-d array.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x, out=np.empty_like(x))
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.greater_equal(x, 0.0, out=np.empty_like(x))  # 1.0 from 0 up, else 0.0
    np.maximum(out, e, out=out)
    e += 1.0
    out /= e
    return out


def simpson(values, h):
    """Composite Simpson rule over the last axis: an odd number of nodes h apart.

    Each row is reduced on its own, bitwise as if alone; h may be one value per row.
    """
    v = np.asarray(values, dtype=np.float64)
    ends = v[..., 0] + v[..., -1]
    return h / 3.0 * (ends + 4.0 * v[..., 1:-1:2].sum(axis=-1) + 2.0 * v[..., 2:-1:2].sum(axis=-1))


# QUADPACK's qk15 (Piessens et al. 1983) on [-1, 1]: the Kronrod nodes from 1 down to 0, their
# weights, and the weights of the 7-point Gauss rule, whose nodes are every other one
_XGK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
        0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
        0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
        0.207784955007898467600689403773245, 0.0)
_WGK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
        0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
        0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
        0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
KRONROD_NODES = np.concatenate([-np.array(_XGK), _XGK[-2::-1]])  # ascending
KRONROD_WEIGHTS = np.concatenate([_WGK, _WGK[-2::-1]])
GAUSS_WEIGHTS = np.concatenate([_WG, _WG[-2::-1]])  # at KRONROD_NODES[1::2]


def kronrod(f, a, b, panels):
    """(K15 of f over `panels` equal panels of [a, b], the panels' summed |K15 - G7|).

    f maps nodes shaped a.shape + (15 panels,) to values shaped like them. Each
    row is reduced on its own, bitwise as if alone.
    """
    h = (b - a) / panels
    mid = a[..., None] + h[..., None] * (np.arange(panels) + 0.5)
    v = f((mid[..., None] + 0.5 * h[..., None, None] * KRONROD_NODES).reshape(a.shape + (-1,)))
    v = v.reshape(v.shape[:-1] + (panels, 15))
    k, g = (v * KRONROD_WEIGHTS).sum(axis=-1), (v[..., 1::2] * GAUSS_WEIGHTS).sum(axis=-1)
    return 0.5 * h * k.sum(axis=-1), 0.5 * h * np.abs(k - g).sum(axis=-1)


def composite_simpson(f, a, b, n):
    """Composite Simpson rule with n subintervals (n made even if odd)."""
    if b <= a:
        return 0.0
    n += n % 2
    return simpson(f(np.linspace(a, b, n + 1)), (b - a) / n)


def ks_statistic(u):
    """Kolmogorov-Smirnov distance of a sample to Uniform(0, 1)."""
    u = np.sort(np.asarray(u, dtype=np.float64))
    n = u.size
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - u), np.max(u - (grid - 1.0 / n))))
