"""Price series loading, validation, splitting and walk-forward fold planning.

All ranges are half-open ``(start, end)`` index pairs into the series; splits
are computed on indices, never on timestamps, so irregular sampling (market
closures, missing bars) needs no special casing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    InfeasibleFoldPlan,
    MissingColumn,
    MissingFile,
    NonMonotonicTimestamp,
    NonPositivePrice,
    SeriesTooShort,
    UnparsableRow,
)

IndexRange = tuple[int, int]


@dataclass(frozen=True)
class PriceSeries:
    """Timestamped close prices of a single asset.

    ``timestamps`` are epoch seconds (int64, strictly increasing) and
    ``close`` strictly positive float64 prices.
    """

    asset_id: str
    timestamps: np.ndarray
    close: np.ndarray

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        close = np.asarray(self.close, dtype=np.float64)
        if ts.shape != close.shape or ts.ndim != 1:
            raise ValueError("timestamps and close must be 1-D arrays of equal length")
        if len(close) < 2:
            raise SeriesTooShort(f"need at least 2 rows, got {len(close)}")
        if np.any(np.diff(ts) <= 0):
            raise NonMonotonicTimestamp(int(np.argmax(np.diff(ts) <= 0)) + 2)
        if np.any(close <= 0):
            raise NonPositivePrice(int(np.argmax(close <= 0)) + 1)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "close", close)

    def __len__(self) -> int:
        return len(self.close)

    @cached_property
    def log_close(self) -> np.ndarray:
        return np.log(self.close)

    @cached_property
    def log_returns(self) -> np.ndarray:
        """log_returns[t] = ln close[t+1] - ln close[t]; length N - 1."""
        return np.diff(self.log_close)


@dataclass(frozen=True)
class DataSplit:
    """Contiguous, ordered train/eval/test index ranges (half-open)."""

    train: IndexRange
    eval: IndexRange
    test: IndexRange

    def __post_init__(self):
        for name, (lo, hi) in self.as_dict().items():
            if lo < 0 or hi < lo:
                raise ValueError(f"bad {name} range ({lo}, {hi})")
        if not (self.train[1] <= self.eval[0] and self.eval[1] <= self.test[0]):
            raise ValueError("ranges must be ordered train < eval < test")

    def as_dict(self) -> dict[str, IndexRange]:
        return {"train": self.train, "eval": self.eval, "test": self.test}

    def range_for(self, name: str) -> IndexRange:
        return self.as_dict()[name]


@dataclass(frozen=True)
class FoldPlan:
    """Anchored walk-forward folds: every train range starts at index 0 and
    train ends strictly increase."""

    folds: tuple[DataSplit, ...]

    def __post_init__(self):
        if not self.folds:
            raise InfeasibleFoldPlan("no folds")
        ends = [f.train[1] for f in self.folds]
        if any(f.train[0] != 0 for f in self.folds):
            raise InfeasibleFoldPlan("all train ranges must start at 0")
        if any(b <= a for a, b in zip(ends, ends[1:])):
            raise InfeasibleFoldPlan("train ends must strictly increase")

    def __len__(self) -> int:
        return len(self.folds)


def _parse_timestamp(text: str) -> int:
    """Accepts integer epoch seconds or ISO-8601; naive datetimes are UTC."""
    t = text.strip()
    try:
        return int(t)
    except ValueError:
        pass
    dt = datetime.fromisoformat(t)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def load_csv(path: str | Path, column_map: dict[str, str] | None = None, asset_id: str | None = None) -> PriceSeries:
    """Load a close-price CSV with one header row.

    ``column_map`` maps the canonical names ``timestamp``/``close`` to the
    actual column headers; extra columns are ignored.  Row numbers in errors
    are 1-based data rows (header excluded).
    """
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    mapping = {"timestamp": "timestamp", "close": "close"}
    mapping.update(column_map or {})

    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        for canonical in ("timestamp", "close"):
            if mapping[canonical] not in fields:
                raise MissingColumn(f"column {mapping[canonical]!r} not in header {fields}")
        ts_key, close_key = mapping["timestamp"], mapping["close"]
        timestamps: list[int] = []
        closes: list[float] = []
        for row_no, row in enumerate(reader, start=1):
            try:
                ts = _parse_timestamp(row[ts_key])
                price = float(row[close_key])
            except (ValueError, TypeError) as exc:
                raise UnparsableRow(row_no, f"row {row_no}: {exc}") from exc
            if not math.isfinite(price):
                raise UnparsableRow(row_no, f"row {row_no}: non-finite close")
            if price <= 0:
                raise NonPositivePrice(row_no)
            if timestamps and ts <= timestamps[-1]:
                raise NonMonotonicTimestamp(row_no)
            timestamps.append(ts)
            closes.append(price)

    if len(closes) < 2:
        raise SeriesTooShort(f"{path} has {len(closes)} data rows, need at least 2")
    return PriceSeries(asset_id or path.stem, np.array(timestamps, dtype=np.int64), np.array(closes))


def make_split(series: PriceSeries, fractions: tuple[float, float, float] = (0.64, 0.16, 0.20)) -> DataSplit:
    """Split by index into train/eval/test of the given fractions.

    Boundaries are floor(f1*N) and floor((f1+f2)*N), so the default
    fractions give [0, 0.64N), [0.64N, 0.80N), [0.80N, N).
    """
    f1, f2, f3 = fractions
    if min(f1, f2, f3) <= 0:
        raise ValueError("all fractions must be > 0")
    if abs(f1 + f2 + f3 - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {f1 + f2 + f3}")
    n = len(series)
    if n < 10:
        raise SeriesTooShort(f"need at least 10 rows to split, got {n}")
    b1 = math.floor(f1 * n)
    b2 = math.floor((f1 + f2) * n)
    return DataSplit((0, b1), (b1, b2), (b2, n))


def walk_forward_folds(series: PriceSeries, n_folds: int, eval_frac: float, test_frac: float) -> FoldPlan:
    """Plan anchored walk-forward folds.

    Fold k (1-based) trains on [0, N*k//(n_folds+1)) with eval and test
    windows of floor(eval_frac*N) and floor(test_frac*N) rows immediately
    after.  Raises InfeasibleFoldPlan if any range would be empty or run
    past the series end.
    """
    if n_folds < 1:
        raise InfeasibleFoldPlan("n_folds must be >= 1")
    n = len(series)
    eval_len = math.floor(eval_frac * n)
    test_len = math.floor(test_frac * n)
    if eval_len < 1 or test_len < 1:
        raise InfeasibleFoldPlan(f"empty eval/test window for N={n}")
    folds = []
    prev_end = 0
    for k in range(1, n_folds + 1):
        train_end = n * k // (n_folds + 1)
        if train_end <= prev_end:
            raise InfeasibleFoldPlan(f"fold {k} train range empty or not growing")
        eval_end = train_end + eval_len
        test_end = eval_end + test_len
        if test_end > n:
            raise InfeasibleFoldPlan(f"fold {k} runs past the series end ({test_end} > {n})")
        folds.append(DataSplit((0, train_end), (train_end, eval_end), (eval_end, test_end)))
        prev_end = train_end
    return FoldPlan(tuple(folds))
