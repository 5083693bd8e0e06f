"""The exact bytes of ``'%.17g' % v`` for blocks of float64 values, by numpy arithmetic.

A value whose 17-digit decimal exponent X lies in [-4, 16] prints in fixed
notation, and its 17 significant digits are the integer
D = round-half-even(|v| 10^(16 - X)). With 16 - X <= 20, 10^(16 - X) is an
exact double, so Veltkamp's split and Dekker's product (Dekker 1971, "A
floating-point technique for extending the available precision") give the
product exactly as hi + lo. Since hi >= 10^16 > 2^53 is an even integer,
D = hi + rint(lo) rounds the exact product half to even, as Python's
correctly rounded formatting does. X is floor(log10 |v|), checked against
the exact product, since log10 can be one off next to a power of ten; the
check also keeps D below 10^17, so no rounding carries into X. The digits
come from a table of 4-digit ASCII groups.

Every other value (exponent notation, +-0, inf, nan, or a failed check) is
formatted by one ``%`` call per block and scattered into place.
"""

import numpy as np

WIDTH = 25  # bytes per cell: the longest text, as in -1.2345678901234567e-308, and a separator
_CELL = np.dtype((np.void, WIDTH))  # one value's cell as a single item

_POW = 10.0 ** np.arange(21)  # exact doubles
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for 53-bit doubles


def _split(a):
    """(high, low) halves of a, each of at most 26 significant bits, summing to a exactly."""
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


_POW_HIGH, _POW_LOW = _split(_POW)
# the ASCII of "0000" to "9999" as one 4-byte word each, and each group's trailing zeros
_GROUPS = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
_DIGITS = np.ascontiguousarray(_GROUPS).view(np.uint32)[:, 0]
_ZEROS = np.logical_and.accumulate(_GROUPS[:, ::-1] == ord("0"), axis=1).sum(axis=1,
                                                                            dtype=np.uint8)
_PREFIX = np.arange(WIDTH) <= np.arange(WIDTH)[:, None]  # row k: a cell's bytes up to column k
_ZERO_POINT = np.frombuffer(b"0.000", np.uint8)  # what precedes the digits when X < 0


def _digits(a, x):
    """(D, whether X was right) of positive values a with exponents x = floor(log10 a)."""
    s = 16 - x
    hi = a * _POW[s]
    a_high, a_low = _split(a)
    p_high, p_low = _POW_HIGH[s], _POW_LOW[s]
    lo = ((a_high * p_high - hi) + a_high * p_low + a_low * p_high) + a_low * p_low
    # hi + lo >= 10^16 exactly; and with hi < 10^17, a multiple of 16 whose lo is at most 8,
    # hi + lo <= 10^17 - 8, so D has 17 digits and X needs no carry
    ok = ((hi > 1e16) | ((hi == 1e16) & (lo >= 0))) & (hi < 1e17)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), ok


def _ascii(d):
    """The (m, 17) ASCII digits of the 17-digit integers d, and how many precede their trailing
    zeros."""
    lead = d // 10**16
    rest = d - lead * 10**16
    upper = (rest // 10**8).astype(np.uint32)
    groups = upper // 10**4, upper % 10**4, *np.divmod((rest - upper * 10**8).astype(np.uint32),
                                                        10**4)
    digits = np.empty((len(d), 20), np.uint8)  # the leading digit at column 3, groups as words 1-4
    words = digits.view(np.uint32)
    for j, g in enumerate(groups, start=1):
        words[:, j] = _DIGITS.take(g)
    digits[:, 3] = lead + ord("0")
    trailing = _ZEROS.take(groups[0])
    for g in groups[1:]:
        zeros = _ZEROS.take(g)
        trailing = zeros + (zeros == 4) * trailing
    return digits[:, 3:], 17 - trailing


def _fixed(text, end, values):
    """Render the values in fixed notation into their rows of text and end; their indices."""
    with np.errstate(divide="ignore"):  # log10(0) = -inf fails the range test
        x = np.floor(np.log10(np.abs(values)))
    rows = np.flatnonzero((x >= -4) & (x <= 16))
    if not rows.size:
        return rows
    x = x[rows].astype(np.intp)
    d, ok = _digits(np.abs(values[rows]), x)
    rows, d, x = rows[ok], d[ok], x[ok]
    neg = np.signbit(values[rows])
    # laid out by (X, sign) group, each group a run of rows in sorted order
    key = ((x + 4) * 2 + neg).astype(np.uint8)
    order = np.argsort(key, kind="stable")
    rows, d, x, neg = rows[order], d[order], x[order], neg[order]
    starts = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=42))))
    digits, kept = _ascii(d)
    # sign, integer part or "0.000", then "." and the fraction's kept digits, if any
    end[rows] = neg + np.maximum(kept, x + 1) + (kept > x + 1) - np.minimum(x, 0)
    out = np.empty((len(d), WIDTH), np.uint8)
    for k in np.flatnonzero(starts[1:] > starts[:-1]):
        e, o = k // 2 - 4, k % 2  # X, and the sign's width
        cell, dig = out[starts[k]:starts[k + 1]], digits[starts[k]:starts[k + 1]]
        if o:
            cell[:, 0] = ord("-")
        if e >= 0:
            cell[:, o:o + e + 1] = dig[:, :e + 1]
            cell[:, o + e + 1] = ord(".")
            cell[:, o + e + 2:o + 18] = dig[:, e + 1:]
        else:
            cell[:, o:o + 1 - e] = _ZERO_POINT[:1 - e]
            cell[:, o + 1 - e:o + 18 - e] = dig
    text[rows] = out.view(_CELL)[:, 0]
    return rows


def _percent(text, end, rows, values):
    """Render values into the given rows of text and end by one '%' call."""
    raw = np.frombuffer((("%.17g\n" * len(values)) % tuple(values.tolist())).encode("ascii"),
                        np.uint8)
    stops = np.flatnonzero(raw == ord("\n"))
    end[rows] = np.diff(stops, prepend=-1) - 1
    cells = np.empty((len(rows), WIDTH), np.uint8)
    cells[_PREFIX.take(end[rows], axis=0)] = raw  # each newline lands on its separator's column
    text[rows] = cells.view(_CELL)[:, 0]


def cells(values):
    """(text, end) of float64 values: a WIDTH-byte cell per value, whose first end
    bytes are the ASCII of ``'%.17g' % v`` and whose other bytes mean nothing."""
    values = np.asarray(values, dtype=np.float64)
    flat = values.ravel()
    text = np.empty(flat.size, _CELL)
    end = np.empty(flat.size, np.intp)
    rest = np.ones(flat.size, dtype=bool)
    rest[_fixed(text, end, flat)] = False
    rest = np.flatnonzero(rest)
    if rest.size:
        _percent(text, end, rest, flat[rest])
    return text.reshape(values.shape), end.reshape(values.shape)


def lines(text, end):
    """The str of a (rows, columns) block of cells: a row's cells joined by ',', each
    row ended by a newline. Writes the separators into the cells."""
    flat = np.ascontiguousarray(text).view(np.uint8).reshape(-1)
    stops = np.arange(0, flat.size, WIDTH) + end.ravel()
    flat[stops] = ord(",")
    flat[stops[end.shape[-1] - 1::end.shape[-1]]] = ord("\n")
    return flat[_PREFIX.take(end.ravel(), axis=0).ravel()].tobytes().decode("ascii")
