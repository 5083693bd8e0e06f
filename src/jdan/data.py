"""CSV ingestion, lagged-feature construction, bounds fitting, scaling.

Policy notes. Rows with a missing or non-finite value in any used column
are dropped and counted, never imputed. Lags are taken over the post-drop
row sequence, i.e. gaps are treated as contiguous; proper gap handling is
a data-preparation concern upstream of this library.
"""

import csv
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError,
    ContractError,
    CsvParseError,
    DegenerateDimensionError,
    EmptyDatasetError,
    MissingColumnError,
)
from .marginal import Bounds


@dataclass
class ColumnScaler:
    """Per-column affine map x -> (x - shift) / scale."""

    shift: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        self.shift = np.asarray(self.shift, dtype=np.float64).reshape(-1)
        self.scale = np.asarray(self.scale, dtype=np.float64).reshape(-1)
        if self.shift.shape != self.scale.shape:
            raise ContractError("shift and scale must have equal length")
        if np.any(self.scale == 0.0):
            raise ContractError("scale entries must be nonzero")

    @classmethod
    def fit(cls, x):
        """Mean/std scaler; constant columns get scale 1 so they pass through."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        shift = x.mean(axis=0)
        scale = x.std(axis=0)
        scale[scale == 0.0] = 1.0
        return cls(shift=shift, scale=scale)

    def transform(self, x):
        """The map on x; a value it overflows becomes inf, which the feature check refuses."""
        with np.errstate(over="ignore"):
            return (np.asarray(x, dtype=np.float64) - self.shift) / self.scale


@dataclass
class LoadSpec:
    feature_columns: list = field(default_factory=list)
    target_columns: list = field(default_factory=list)
    lag_windows: list = field(default_factory=list)

    def __post_init__(self):
        if not self.target_columns:
            raise ContractError("at least one target column is required")
        names = list(self.feature_columns) + list(self.target_columns)
        if len(set(names)) != len(names):
            raise ContractError("feature and target columns must be distinct")
        if not all(isinstance(l, numbers.Integral) and not isinstance(l, bool)
                   for l in self.lag_windows):
            raise ConfigError(f"lag windows must be integers, got {self.lag_windows!r}")
        self.lag_windows = [int(l) for l in self.lag_windows]
        if any(l < 1 for l in self.lag_windows):
            raise ContractError("lag windows must be >= 1")
        if len(set(self.lag_windows)) != len(self.lag_windows):
            raise ContractError("duplicate lag window")


@dataclass
class Dataset:
    features: np.ndarray       # (n, F); F may be 0
    targets: np.ndarray        # (n, D)
    feature_names: list = field(default_factory=list)
    target_names: list = field(default_factory=list)
    n_dropped: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.features.ndim != 2 or self.targets.ndim != 2:
            raise ContractError("features and targets must be 2-D")
        if self.features.shape[0] != self.targets.shape[0]:
            raise ContractError("features and targets disagree on n")

    @property
    def n(self):
        return self.targets.shape[0]

    @property
    def dim(self):
        return self.targets.shape[1]


def _parse_cell(text, row_number, column):
    text = text.strip()
    if text == "":
        return None  # missing
    try:
        value = float(text)
    except ValueError:
        raise CsvParseError(
            f"row {row_number}, column {column!r}: cannot parse {text!r} as a number",
            row=row_number,
            column=column,
        ) from None
    return value if math.isfinite(value) else None


def load_csv(path, spec: LoadSpec) -> Dataset:
    """Read a headered CSV into a Dataset using the LoadSpec column lists.

    Lagged copies of the *target* columns (lag_windows steps back) are
    appended to the features, named like "y1_lag2". The first max(lag)
    usable rows are consumed by lagging.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise EmptyDatasetError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        used = list(spec.feature_columns) + list(spec.target_columns)
        missing = [c for c in used if c not in header]
        if missing:
            raise MissingColumnError(f"{path}: missing column(s) {', '.join(missing)}")
        col_idx = {c: header.index(c) for c in used}
        rows = []
        n_dropped = 0
        for row_number, cells in enumerate(reader, start=2):
            if not cells or all(c.strip() == "" for c in cells):
                continue
            values = []
            ok = True
            for c in used:
                if col_idx[c] >= len(cells):
                    ok = False
                    break
                v = _parse_cell(cells[col_idx[c]], row_number, c)
                if v is None:
                    ok = False
                    break
                values.append(v)
            if ok:
                rows.append(values)
            else:
                n_dropped += 1
    if not rows:
        raise EmptyDatasetError(f"{path}: no usable rows")
    table = np.asarray(rows, dtype=np.float64)
    n_feat = len(spec.feature_columns)
    feats = table[:, :n_feat]
    targs = table[:, n_feat:]

    feature_names = list(spec.feature_columns)
    if spec.lag_windows:
        max_lag = max(spec.lag_windows)
        if table.shape[0] <= max_lag:
            raise EmptyDatasetError(f"{path}: not enough rows for lag {max_lag}")
        lag_blocks = []
        for lag in spec.lag_windows:
            lag_blocks.append(targs[max_lag - lag:table.shape[0] - lag])
            feature_names += [f"{t}_lag{lag}" for t in spec.target_columns]
        feats = np.hstack([feats[max_lag:]] + lag_blocks)
        targs = targs[max_lag:]
    return Dataset(
        features=feats,
        targets=targs,
        feature_names=feature_names,
        target_names=list(spec.target_columns),
        n_dropped=n_dropped,
    )


def fit_bounds(targets, margin=0.05):
    """Per-dimension [min - margin*range, max + margin*range]."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if margin < 0:
        raise ContractError("margin must be >= 0")
    out = []
    for d in range(targets.shape[1]):
        col = targets[:, d]
        lo, hi = float(col.min()), float(col.max())
        if hi <= lo:
            raise DegenerateDimensionError(
                f"target dimension {d} is constant; cannot fit bounds"
            )
        pad = margin * (hi - lo)
        out.append(Bounds(lo - pad, hi + pad))
    return out


def in_bounds_mask(targets, bounds):
    """Boolean row mask: every coordinate within its bounds."""
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    mask = np.ones(targets.shape[0], dtype=bool)
    for d, b in enumerate(bounds):
        mask &= (targets[:, d] >= b.lower) & (targets[:, d] <= b.upper)
    return mask


def clamp_to_bounds(targets, bounds):
    targets = np.array(np.atleast_2d(np.asarray(targets, dtype=np.float64)))
    for d, b in enumerate(bounds):
        targets[:, d] = np.clip(targets[:, d], b.lower, b.upper)
    return targets
