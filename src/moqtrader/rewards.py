"""The four per-step reward components and their fixed-order vector.

Component order (lr, alr, sr, powc) is a public contract shared by weight
vectors, replay storage, reports and the CLI.  `reward_matrix` computes many
steps with the scalar functions' operations in their order, so its rows equal
`reward_vector` bit for bit.  Window sums run left to right from 0.0: `sum()`
compensates its rounding from Python 3.12 on.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

import numpy as np

REWARD_COMPONENTS = ("lr", "alr", "sr", "powc")
REWARD_INDEX = {name: i for i, name in enumerate(REWARD_COMPONENTS)}

# Sharpe denominators below this count as degenerate and yield 0.
STD_FLOOR = 1e-12


class RewardVector(NamedTuple):
    lr: float
    alr: float
    sr: float
    powc: float


class ReturnTrace(NamedTuple):
    """Rolling window of the most recent per-step portfolio log-returns.

    Steps before the window has filled are padded with zeros (the
    neutral-equivalent return), so ALR/SR are defined from step one.
    """

    returns: tuple[float, ...]


class CloseEvent(NamedTuple):
    """A position closed on this step: its sign and the log of the two execution prices."""

    position_sign: int  # +1 closed a long, -1 closed a short
    open_log_price: float
    close_log_price: float


def reward_lr(trace: ReturnTrace) -> float:
    """Last portfolio log-return in the window."""
    return trace.returns[-1]


def reward_alr(trace: ReturnTrace, window: int) -> float:
    """Arithmetic mean of the last `window` portfolio log-returns."""
    total = 0.0
    for x in trace.returns[-window:]:
        total += x
    return total / window


def reward_sr(trace: ReturnTrace, window: int) -> float:
    """Non-annualized Sharpe ratio over the last `window` returns.

    Uses the population standard deviation; returns 0 when the std is
    below STD_FLOOR (all-zero neutral stretches, constant windows, L=1).
    """
    tail = trace.returns[-window:]
    mean = reward_alr(trace, window)
    squares = 0.0
    for x in tail:
        d = x - mean
        squares += d * d
    std = math.sqrt(squares / window)
    if std < STD_FLOOR:
        return 0.0
    return mean / std


def reward_powc(close_event: Optional[CloseEvent]) -> float:
    """Profit-only-when-closed: the full log-return of the trade just closed.

    Emitted on the step whose action closes the position, valued at the
    execution close price; 0 on every other step.
    """
    if close_event is None:
        return 0.0
    return close_event.position_sign * (close_event.close_log_price - close_event.open_log_price)


def reward_vector(trace: ReturnTrace, close_event: Optional[CloseEvent], window: int) -> RewardVector:
    """Assemble the four components in their fixed order."""
    return RewardVector(
        lr=reward_lr(trace),
        alr=reward_alr(trace, window),
        sr=reward_sr(trace, window),
        powc=reward_powc(close_event),
    )


def reward_matrix(history: np.ndarray, last: np.ndarray, powc: np.ndarray) -> np.ndarray:
    """Reward vectors (..., m, 4) of m candidate final returns `last` (..., m), with POWC `powc`
    (..., m), after windows whose earlier returns are `history` (..., window - 1), oldest first.
    Sums run column by column, in the scalar functions' order."""
    window, columns = history.shape[-1] + 1, np.moveaxis(history, -1, 0)
    total = np.zeros(history.shape[:-1])
    for column in columns:
        total += column
    mean = (total[..., None] + last) / window
    squares = np.zeros_like(mean)
    for column in (*columns[..., None], last):
        d = column - mean
        squares += d * d
    std = np.sqrt(squares / window)
    sr = np.divide(mean, std, out=np.zeros_like(mean), where=~(std < STD_FLOOR))
    return np.stack((last, mean, sr, powc), axis=-1)
