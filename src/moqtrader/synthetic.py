"""Deterministic synthetic price generators for experiments and tests."""

from __future__ import annotations

import numpy as np

from .errors import InvalidValue
from .market_data import PriceSeries

KINDS = ("sine", "trend", "random-walk")
_BAR_SECONDS = 3600


def generate_synthetic(
    kind: str,
    length: int,
    *,
    base: float = 100.0,
    amplitude: float = 0.1,
    period: float = 50.0,
    drift: float = 0.0,
    seed: int = 0,
    asset_id: str | None = None,
) -> PriceSeries:
    """Build a PriceSeries of the requested kind, deterministic under seed.

    sine:        z_t = base * (1 + amplitude * sin(2*pi*t/period))
    trend:       z_t = base * exp(drift * t)
    random-walk: z_t = base * exp(cumsum of N(drift, amplitude^2) steps)
    """
    if kind not in KINDS:
        raise InvalidValue("synthetic_kind", f"{kind!r} not one of {KINDS}")
    if length < 2:
        raise InvalidValue("synthetic_length", "must be >= 2")
    if not base > 0:
        raise InvalidValue("synthetic_base", "must be > 0")

    t = np.arange(length, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):  # inf closes, or nan where +inf meets -inf, fail at their row
        if kind == "sine":
            if not (0.0 <= amplitude < 1.0):
                raise InvalidValue("synthetic_amplitude", "sine amplitude must be in [0, 1)")
            if not period > 0:
                raise InvalidValue("synthetic_period", "must be > 0")
            close = base * (1.0 + amplitude * np.sin(2.0 * np.pi * t / period))
        elif kind == "trend":
            close = base * np.exp(drift * t)
        else:
            if not amplitude >= 0:
                raise InvalidValue("synthetic_amplitude", "random-walk step std must be >= 0")
            rng = np.random.default_rng(seed)
            steps = drift + amplitude * rng.standard_normal(length - 1)
            close = base * np.exp(np.concatenate(([0.0], np.cumsum(steps))))

    timestamps = np.arange(length, dtype=np.int64) * _BAR_SECONDS
    return PriceSeries(asset_id or f"synthetic-{kind}", timestamps, close)
