"""Reference results the benchmark checks moqtrader's outputs against.

Written from the documented semantics, not from moqtrader's code: a numpy
greedy rollout that reads checkpoint arrays with ``np.load`` and does the MLP
forward itself, the buy-and-hold closed form, the sine market formula and
the number of network updates a training config implies.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Action id -> target position (Buy -> Long, Sell -> Short, Hold -> Neutral);
# LP omits Sell.
TARGETS = {"LP": (1, 0), "LSP": (1, -1, 0)}

# Per-step returns whose population std is below this give a Sharpe ratio of 0.
STD_FLOOR = 1e-12


@dataclass(frozen=True)
class Rollout:
    """Greedy-policy results over one index range."""

    total_profit: float
    sharpe: float
    trades: int
    long_exposure: float


def read_checkpoint(path: str | Path) -> tuple[list[tuple[np.ndarray, np.ndarray]], dict]:
    """Layer (weights, bias) pairs and the meta dict of a checkpoint file."""
    with np.load(Path(path), allow_pickle=False) as data:
        header = json.loads(str(data["header"]))
        layers = [(data[f"w{i}"], data[f"b{i}"]) for i in range(len(header["widths"]) - 1)]
    return layers, header["meta"]


def mlp(layers: list[tuple[np.ndarray, np.ndarray]], x: np.ndarray) -> np.ndarray:
    """Rectified hidden layers, affine output layer."""
    for w, b in layers[:-1]:
        x = np.maximum(x @ w + b, 0.0)
    w, b = layers[-1]
    return x @ w + b


def sharpe(returns: np.ndarray) -> float:
    std = float(np.std(returns))
    return 0.0 if std < STD_FLOOR else float(np.mean(returns)) / std


def greedy_rollout(
    layers, close: np.ndarray, range_: tuple[int, int], *, mode: str, lookback: int,
    weights, gamma: float | None, fee: float,
) -> Rollout:
    """Walk the greedy policy over [lo, hi): one step per close from lo + lookback to hi - 2.

    The network input is the lookback log-returns before the step, the
    current position, the weight vector and (when gamma is given) gamma.
    """
    lo, hi = range_
    n = hi - lo - lookback - 1
    logret = np.diff(np.log(close))
    windows = np.lib.stride_tricks.sliding_window_view(logret, lookback)[lo : lo + n]
    cond = np.asarray([*weights] + ([] if gamma is None else [gamma]), dtype=np.float64)
    targets = TARGETS[mode]
    greedy = {}
    for pos in set(targets):
        x = np.concatenate((windows, np.full((n, 1), float(pos)), np.tile(cond, (n, 1))), axis=1)
        greedy[pos] = mlp(layers, x).argmax(axis=1)

    held = np.empty(n)
    legs = np.empty(n)
    pos = 0
    for t in range(n):
        new = targets[greedy[pos][t]]
        legs[t] = abs(new - pos)  # a long <-> short flip pays two legs
        held[t] = pos = new
    lr = held * logret[lo + lookback : hi - 1] + legs * math.log(1.0 - fee)
    return Rollout(
        total_profit=float(np.exp(lr.sum()) - 1.0),
        sharpe=sharpe(lr),
        trades=int(np.count_nonzero(legs)),
        long_exposure=float(np.mean(held == 1)),
    )


def buy_and_hold_profit(close: np.ndarray, range_: tuple[int, int], *, lookback: int, fee: float) -> float:
    """Profit of buying at close[lo + lookback] and holding to close[hi - 1]."""
    lo, hi = range_
    return math.exp(math.log(close[hi - 1]) - math.log(close[lo + lookback]) + math.log(1.0 - fee)) - 1.0


def sine_close(length: int, *, base: float, amplitude: float, period: float) -> np.ndarray:
    """The documented sine market: base * (1 + amplitude * sin(2 pi t / period))."""
    t = np.arange(length, dtype=np.float64)
    return base * (1.0 + amplitude * np.sin(2.0 * np.pi * t / period))


def split_ranges(length: int, fractions=(0.64, 0.16, 0.20)) -> dict[str, tuple[int, int]]:
    """Index split: [0, floor(f1 N)), [floor(f1 N), floor((f1+f2) N)), the rest."""
    b1 = math.floor(fractions[0] * length)
    b2 = math.floor((fractions[0] + fractions[1]) * length)
    return {"train": (0, b1), "eval": (b1, b2), "test": (b2, length)}


def updates_by_episode(
    *, episodes: int, eval_every: int, episode_len: int, per_step: int,
    batchsize: int, whiten: bool, max_age: int,
) -> dict[int, int]:
    """Cumulative network updates at the end of every evaluated episode.

    Every step pushes ``per_step`` replay entries; a step of a fitting
    episode (a multiple of eval_every) makes one update once the replay
    holds at least batchsize entries (and 2, for a covariance, with
    whitening on).  An entry is evicted once more than max_age updates
    have happened since it was pushed.
    """
    min_len = max(batchsize, 2) if whiten else batchsize
    births: deque[list[int]] = deque()  # [birth update, entries], oldest first
    length = updates = 0
    out = {}

    def evict():
        nonlocal length
        while births and updates - births[0][0] > max_age:
            length -= births.popleft()[1]

    for episode in range(1, episodes + 1):
        fitting = episode % eval_every == 0
        for _ in range(episode_len):
            if births and births[-1][0] == updates:
                births[-1][1] += per_step
            else:
                births.append([updates, per_step])
            length += per_step
            evict()
            if fitting and length >= min_len:
                updates += 1
                evict()
        if fitting:
            out[episode] = updates
    return out
