"""Price series loading, validation, splitting and walk-forward fold planning.

All ranges are half-open ``(start, end)`` index pairs into the series; splits
are computed on indices, never on timestamps, so irregular sampling (market
closures, missing bars) needs no special casing.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from functools import cached_property
from itertools import islice
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
_CHUNK_ROWS = 2048  # rows load_csv parses per batch


@dataclass(frozen=True)
class PriceSeries:
    """Timestamped close prices of a single asset.

    ``timestamps`` are epoch seconds (int64, strictly increasing) and
    ``close`` finite, strictly positive float64 prices.
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
        if np.any(ts[1:] <= ts[:-1]):
            raise NonMonotonicTimestamp(int(np.argmax(ts[1:] <= ts[:-1])) + 2)
        priced = np.isfinite(close) & (close > 0)
        if not np.all(priced):
            raise NonPositivePrice(int(np.argmin(priced)) + 1)
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
        return {name: getattr(self, name) for name in RANGE_NAMES}

    def range_for(self, name: str) -> IndexRange:
        return self.as_dict()[name]


# The range names, in split order: what `eval_range`, `--range` and `report` accept.
RANGE_NAMES = tuple(f.name for f in fields(DataSplit))


def _parse_timestamp(text: str | None) -> int:
    """Accepts integer epoch seconds or ISO-8601; naive datetimes are UTC."""
    if text is None:
        raise ValueError("no timestamp field")
    t = text.strip()
    try:
        value = int(t)
    except ValueError:
        dt = datetime.fromisoformat(t)
        value = int((dt.replace(tzinfo=timezone.utc) if dt.tzinfo is None else dt).timestamp())
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"timestamp {t!r} is outside the int64 range")
    return value


def _parse_chunk(ts_text: list, close_text: list, parts: list) -> tuple[np.ndarray, np.ndarray]:
    """Parse and check the data rows that follow the chunks already in ``parts``.

    Raises the first bad row's error, checking each row in the row loop's
    order: timestamp parse, close parse, non-finite close, non-positive
    close, then a timestamp not above the previous row's.
    """
    row_no = sum(len(ts) for ts, _ in parts)
    try:
        try:
            ts = np.array(list(map(int, ts_text)), dtype=np.int64)
        except (ValueError, TypeError, OverflowError):  # ISO-8601 rows, or whitespace only strip() removes
            ts = np.array(list(map(_parse_timestamp, ts_text)), dtype=np.int64)
        close = np.array(list(map(float, close_text)))
    except (ValueError, TypeError):
        for k, (t, c) in enumerate(zip(ts_text, close_text)):
            try:
                _parse_timestamp(t)
                float(c)
            except (ValueError, TypeError) as exc:
                _parse_chunk(ts_text[:k], close_text[:k], parts)  # an earlier row's error wins
                raise UnparsableRow(row_no + k + 1, f"row {row_no + k + 1}: {exc}") from exc
    bad = ~(np.isfinite(close) & (close > 0))
    bad[:1] |= ts[:1] <= (parts[-1][0][-1] if parts else -math.inf)
    bad[1:] |= ts[1:] <= ts[:-1]
    if bad.any():
        i = int(np.argmax(bad))
        row = row_no + i + 1
        if not math.isfinite(close[i]):
            raise UnparsableRow(row, f"row {row}: non-finite close")
        raise NonPositivePrice(row) if close[i] <= 0 else NonMonotonicTimestamp(row)
    return ts, close


def load_csv(path: str | Path, column_map: dict[str, str] | None = None, asset_id: str | None = None) -> PriceSeries:
    """Load a close-price CSV with one header row.

    ``column_map`` maps the canonical names ``timestamp``/``close`` to the
    actual column headers.  Errors name the first bad row in file order as a
    1-based data row (header and blank lines excluded).  README.md states
    the full contract; rows are parsed _CHUNK_ROWS at a time.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    mapping = {"timestamp": "timestamp", "close": "close", **(column_map or {})}
    parts: list[tuple[np.ndarray, np.ndarray]] = []
    fields = None
    try:
        # An undecodable byte reads as a lone surrogate: it fails a mapped field's parse at its row.
        with open(path, newline="", errors="surrogateescape") as fh:
            reader = csv.reader(fh)
            fields = next(reader, None) or []
            column = {name: i for i, name in enumerate(fields)}  # the last of a duplicated name wins
            for canonical in ("timestamp", "close"):
                if mapping[canonical] not in column:
                    raise MissingColumn(f"column {mapping[canonical]!r} not in header {fields}")
            ts_col, close_col = column[mapping["timestamp"]], column[mapping["close"]]
            rows = filter(None, reader)  # csv.reader yields [] for a blank line
            while True:
                chunk = []
                try:
                    chunk.extend(islice(rows, _CHUNK_ROWS))
                finally:  # the rows read before a read error are still checked, and their error wins
                    if chunk:
                        if min(map(len, chunk)) <= max(ts_col, close_col):  # short rows read missing fields as None
                            chunk = [row + [None] * len(fields) for row in chunk]
                        parts.append(_parse_chunk([r[ts_col] for r in chunk], [r[close_col] for r in chunk], parts))
                if len(chunk) < _CHUNK_ROWS:
                    break
    except csv.Error as exc:  # a line the reader cannot take, such as a field over csv.field_size_limit()
        if fields is None:
            raise MissingColumn(f"unreadable header: {exc}") from exc
        row = sum(len(ts) for ts, _ in parts) + 1
        raise UnparsableRow(row, f"row {row}: {exc}") from exc

    n_rows = sum(len(ts) for ts, _ in parts)
    if n_rows < 2:
        raise SeriesTooShort(f"{path} has {n_rows} data rows, need at least 2")
    ts, close = map(np.concatenate, zip(*parts))
    return PriceSeries(asset_id or path.stem, ts, close)


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


def walk_forward_folds(series: PriceSeries, n_folds: int, eval_frac: float, test_frac: float) -> tuple[DataSplit, ...]:
    """Anchored walk-forward folds: every train range starts at index 0 and train ends strictly increase.

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
    return tuple(folds)
