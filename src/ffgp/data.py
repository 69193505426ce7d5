"""Dataset ingestion, standardization, k-fold partitions, metrics, generators.

CSV handling is deliberately minimal: numeric tables, comma or whitespace
delimited, optional single header row, no quoting.  Rows containing
non-finite values are dropped (with a count kept on the Dataset); cells that
do not parse as numbers at all are a hard parse error.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, InsufficientDataError, ParseError


@dataclass(frozen=True)
class Standardization:
    """Per-column location/scale for X and y; constant columns get scale 1."""

    x_mean: np.ndarray
    x_std: np.ndarray
    y_mean: float
    y_std: float

    def apply_x(self, X: np.ndarray) -> np.ndarray:
        return (np.asarray(X, dtype=float) - self.x_mean) / self.x_std

    def apply_y(self, y: np.ndarray) -> np.ndarray:
        return (np.asarray(y, dtype=float) - self.y_mean) / self.y_std

    def undo_y(self, y_std_units) -> np.ndarray:
        return np.asarray(y_std_units, dtype=float) * self.y_std + self.y_mean

    def undo_y_var(self, var_std_units) -> np.ndarray:
        return np.asarray(var_std_units, dtype=float) * self.y_std**2

    @classmethod
    def identity(cls, d: int) -> "Standardization":
        return cls(x_mean=np.zeros(d), x_std=np.ones(d), y_mean=0.0, y_std=1.0)


def fit_standardization(X: np.ndarray, y: np.ndarray) -> Standardization:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    x_std = X.std(axis=0)
    x_std = np.where(x_std > 0.0, x_std, 1.0)
    y_std = float(y.std())
    return Standardization(
        x_mean=X.mean(axis=0),
        x_std=x_std,
        y_mean=float(y.mean()),
        y_std=y_std if y_std > 0.0 else 1.0,
    )


@dataclass(frozen=True)
class Dataset:
    """Immutable numeric regression table."""

    X: np.ndarray
    y: np.ndarray
    feature_names: list = field(default_factory=list)
    n_rejected: int = 0

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]


def _split_line(line: str) -> list:
    return [c for c in (line.split(",") if "," in line else line.split()) if c != ""]


def _read_table(path):
    """Parse a numeric table: (header names or None, finite rows, n_rejected).

    A header row is auto-detected (a first line that fails to parse
    numerically).  With no data rows the table is (0, 0); when every row
    has a non-finite cell it is (0, n_cols).
    """
    with open(path) as fh:
        lines = [ln for ln in (raw.strip() for raw in fh) if ln]
    names = None
    if lines:
        first = _split_line(lines[0])
        try:
            [float(c) for c in first]
        except ValueError:
            names = first
            lines = lines[1:]
    if not lines:
        return names, np.zeros((0, 0)), 0

    n_cols = len(_split_line(lines[0]))
    rows = []
    for i, ln in enumerate(lines):
        cells = _split_line(ln)
        if len(cells) != n_cols:
            raise ParseError(f"{path}: row {i + 1} has {len(cells)} cells, expected {n_cols}")
        try:
            rows.append([float(c) for c in cells])
        except ValueError:
            for j, c in enumerate(cells):
                try:
                    float(c)
                except ValueError:
                    raise ParseError(
                        f"{path}: row {i + 1}, column {j + 1}: cannot parse {c!r}"
                    ) from None
    table = np.asarray(rows, dtype=float)
    finite = np.isfinite(table).all(axis=1)
    return names, table[finite], int(table.shape[0] - np.count_nonzero(finite))


def load_csv(path, target_column=None) -> Dataset:
    """Read a numeric table; default target is the last column.

    target_column may be an integer index or a header name.  A header row is
    auto-detected (first line that fails to parse numerically).
    """
    names, table, rejected = _read_table(path)
    if table.shape[0] == 0:
        raise ParseError(f"{path}: no finite data rows" if rejected else f"{path}: no data rows")
    if table.shape[1] < 2:
        raise DimensionError(f"{path}: need at least 2 columns (features + target)")

    if target_column is None:
        t_idx = table.shape[1] - 1
    elif isinstance(target_column, str):
        if names is None or target_column not in names:
            raise ParseError(f"{path}: no column named {target_column!r}")
        t_idx = names.index(target_column)
    else:
        t_idx = int(target_column)
        if not (-table.shape[1] <= t_idx < table.shape[1]):
            raise DimensionError(f"target column {t_idx} out of range for {table.shape[1]} columns")
        t_idx %= table.shape[1]

    keep = [j for j in range(table.shape[1]) if j != t_idx]
    feature_names = [names[j] for j in keep] if names else []
    return Dataset(
        X=table[:, keep], y=table[:, t_idx], feature_names=feature_names, n_rejected=rejected
    )


def load_feature_csv(path):
    """Read a feature-only table (no target column).

    Returns (X, n_rejected); a file with no data rows yields a (0, 0)
    matrix and one whose rows are all non-finite a (0, n_cols) matrix, so
    callers can emit empty output instead of failing.
    """
    _, table, rejected = _read_table(path)
    return table, rejected


def kfold_partitions(n: int, k: int = 10, seed: int = 0) -> list:
    """Seeded shuffle into k near-equal disjoint (train, test) index pairs."""
    if n < k:
        raise InsufficientDataError(f"need n >= k, got n={n}, k={k}")
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    sizes = np.full(k, n // k)
    sizes[: n % k] += 1
    folds = []
    stop = np.cumsum(sizes)
    start = stop - sizes
    for a, b in zip(start, stop):
        test = np.sort(perm[a:b])
        train = np.sort(np.concatenate((perm[:a], perm[b:])))
        folds.append((train, test))
    return folds


def rmse(predictions, targets) -> float:
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape or predictions.ndim != 1:
        raise DimensionError(f"shape mismatch: {predictions.shape} vs {targets.shape}")
    if predictions.size < 1:
        raise DimensionError("need at least one prediction")
    return float(np.sqrt(np.mean((predictions - targets) ** 2)))


# ---- synthetic generators --------------------------------------------------


def make_cosine(n: int = 500, freq: float = 6.0, noise_std: float = 0.1, x_max: float = 10.0, seed: int = 0):
    """1-D y = cos(freq * x) + noise: a pure spectral peak at |freq|."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, x_max, n)
    y = np.cos(freq * x) + noise_std * rng.standard_normal(n)
    return x[:, None], y


def make_surrogate(n: int = 1503, seed: int = 101, noise_std: float = 0.15):
    """Airfoil-shaped synthetic benchmark: 5 inputs on unequal scales.

    Two inputs carry most of the signal at very different lengthscales (one
    fine oscillation, one medium wave), one is smooth and mild, two are
    near-inert.  A single isotropic lengthscale cannot serve the fine and
    coarse structure at once while the inert inputs dilute its distances;
    anisotropic spectral kernels prune the inert inputs and resolve both
    scales, which is the qualitative structure of the airfoil noise table.
    """
    rng = np.random.default_rng(seed)
    x1 = rng.uniform(0.0, 10.0, n)
    x2 = rng.uniform(0.0, 6.0, n)
    x3 = rng.uniform(0.0, 4.0, n)
    x4 = rng.uniform(-1.0, 1.0, n)
    x5 = rng.uniform(0.0, 2.0, n)
    y = (
        0.7 * np.sin(2.0 * np.pi * x1 / 1.6)
        + 2.0 * np.sin(2.0 * np.pi * x2 / 3.6)
        + 1.4 * np.tanh((x3 - 2.0) / 0.9)
        + 0.15 * x4
        + noise_std * rng.standard_normal(n)
    )
    return np.column_stack([x1, x2, x3, x4, x5]), y


def make_smooth(n: int, d: int = 4, noise_std: float = 0.1, seed: int = 0):
    """Smooth additive synthetic data of arbitrary size (scaling runs)."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, size=(n, d))
    coef = 1.0 + 0.5 * np.arange(d)
    y = np.sin(X @ (coef / np.sqrt(d))) + 0.3 * np.tanh(X[:, 0]) + noise_std * rng.standard_normal(n)
    return X, y


def save_csv(path, X: np.ndarray, y: np.ndarray, feature_names=None) -> None:
    """Write a dataset the way load_csv reads it (target last)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    with open(path, "w") as fh:
        if feature_names:
            fh.write(",".join(list(feature_names) + ["target"]) + "\n")
        for row, t in zip(X, y):
            fh.write(",".join(f"{v:.17g}" for v in row) + f",{t:.17g}\n")
