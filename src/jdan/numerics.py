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
    """Numerically stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    e = np.exp(-np.abs(x))  # exp(-x) for x >= 0, exp(x) below: never overflows
    out = np.where(x >= 0, 1.0, e)
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
