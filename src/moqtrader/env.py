"""Deterministic single-asset trading environment.

Actions name the position to hold next (target-position semantics):
`Mode.targets` maps action ids to positions, Buy -> Long, Sell -> Short and
Hold -> Neutral.  A trade occurs exactly when the target differs from the
current position.  Position changes execute at the current close price; the
new position is held over (t, t+1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum
from functools import cached_property

import numpy as np

from .errors import EpisodeExhausted, InvalidActionForMode, RangeTooShort
from .market_data import IndexRange, PriceSeries
from .rewards import RewardVector, reward_matrix, reward_vector


class Position(IntEnum):
    LONG = 1
    SHORT = -1
    NEUTRAL = 0


class Mode(Enum):
    """Action-space mode: long-only (LP) or long-and-short (LSP).

    `targets` is the one action -> position table: action id a leads to
    targets[a] from any position, so position index j in it is also the id
    of the action that leads there.
    """

    LP = "LP"
    LSP = "LSP"

    @property
    def targets(self) -> tuple[Position, ...]:
        if self is Mode.LP:
            return (Position.LONG, Position.NEUTRAL)
        return (Position.LONG, Position.SHORT, Position.NEUTRAL)

    @property
    def n_actions(self) -> int:
        return len(self.targets)


@dataclass(frozen=True)
class EnvState:
    """Cursor into the series plus everything the next step depends on.

    ret_window holds the most recent window-1 portfolio log-returns
    (zero-padded at episode start); trade_anchor is the index of the last
    position change, absent while neutral since the start; end is the
    episode's exclusive end index.
    """

    cursor: int
    position: Position
    trade_anchor: int | None
    ret_window: tuple[float, ...]
    end: int


@dataclass(frozen=True)
class StepOutcome:
    next_state: EnvState
    reward: RewardVector
    done: bool


class TradingEnv:
    """Replayable environment over an immutable PriceSeries.

    It holds no episode: `reset` returns a start state that carries the
    episode's end, and `transition` is pure in the state argument, so a runner
    threads the state from step to step and a counterfactual (hindsight) step
    never advances the episode.
    """

    def __init__(self, series: PriceSeries, mode: Mode, *, lookback: int, reward_window: int, fee: float = 0.0):
        if lookback < 1:
            raise ValueError("lookback must be >= 1")
        if reward_window < 1:
            raise ValueError("reward_window must be >= 1")
        if not 0.0 <= fee < 1.0:
            raise ValueError("fee must be in [0, 1)")
        self.mode = mode
        self.lookback = lookback
        self.reward_window = reward_window
        self.fee = fee
        self._fee_log = math.log1p(-fee)
        self.target_signs = np.array([position.value for position in mode.targets])
        self.log_close = series.log_close
        self.log_returns = series.log_returns

    def reset(self, range_: IndexRange, *, episode_len: int | None = None,
              rng: np.random.Generator | None = None) -> EnvState:
        """Start an episode over `range_`; returns its start state.

        Given episode_len, the episode takes a random sub-range instead, whose
        start rng draws uniformly from all starts that fit lookback +
        episode_len steps + 1 terminal price.
        """
        lo, hi = range_
        span = hi - lo
        self.steps_in(range_)
        if episode_len is not None:
            need = self.lookback + episode_len + 1
            if need > span:
                raise RangeTooShort(f"episode needs {need} rows, range has {span}")
            lo += int(rng.integers(0, span - need + 1))
            hi = lo + need
        return EnvState(lo + self.lookback, Position.NEUTRAL, None, (0.0,) * (self.reward_window - 1), hi)

    @cached_property
    def windows(self) -> np.ndarray:
        """The lookback log-returns a network sees at each cursor: row t - lookback for cursor t (a view)."""
        return np.lib.stride_tricks.sliding_window_view(self.log_returns, self.lookback)

    def transition(self, state: EnvState, action_id: int) -> StepOutcome:
        """One step from `state`."""
        t = state.cursor
        if t + 1 >= state.end:
            raise EpisodeExhausted(f"cursor {t} is at the episode end")
        if not 0 <= action_id < self.mode.n_actions:
            raise InvalidActionForMode(f"action id {action_id} invalid for mode {self.mode.value}")
        new_pos = self.mode.targets[action_id]
        trade = new_pos is not state.position

        lr = float(new_pos.value) * float(self.log_returns[t])
        powc = 0.0
        if trade:
            flip = state.position.value * new_pos.value == -1
            lr += (2 if flip else 1) * self._fee_log
            if state.position is not Position.NEUTRAL:  # a close: the trade's full log-return
                powc = state.position.value * (float(self.log_close[t]) - float(self.log_close[state.trade_anchor]))

        window = state.ret_window + (lr,)
        reward = reward_vector(window, powc, self.reward_window)
        next_state = EnvState(t + 1, new_pos, t if trade else state.trade_anchor, window[1:], state.end)
        return StepOutcome(next_state, reward, t + 1 == state.end - 1)

    def outcomes(self, cursors, candidates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Reward vectors (E, n, m, 4) of candidate actions (E, n, m) along E trajectories of n steps, in arrays.

        Trajectory e starts at cursors[e] as `reset` returns it and takes candidates[e, t, 0] at step t;
        its portfolio log-returns (E, n) come first.  Each vector is `transition`'s, bit for bit.
        """
        n, held = candidates.shape[1], self.target_signs[candidates[:, :, 0]]
        before = np.concatenate((np.zeros_like(held[:, :1]), held[:, :-1]), axis=1)[:, :, None]  # sign before each step
        entered = np.maximum.accumulate(np.where(held != before[..., 0], np.arange(n), -1), axis=1)  # last change <= t
        at = np.add.outer(cursors, np.arange(n))  # each step's cursor
        after = self.target_signs[candidates]
        lr = after * self.log_returns[at][:, :, None]
        trade = after != before
        lr[trade] += (np.where(before * after == -1, 2, 1) * self._fee_log)[trade]
        padded = np.concatenate((np.zeros((len(lr), self.reward_window - 1)), lr[:, :-1, 0]), axis=1)
        history = np.lib.stride_tricks.sliding_window_view(padded, self.reward_window - 1, axis=1)
        powc = np.zeros_like(lr)
        e, t, a = np.nonzero(trade & (before != 0))  # closes: position at t was entered at entered[t - 1]
        powc[e, t, a] = before[e, t, 0] * (self.log_close[at[e, t]] - self.log_close[at[e, entered[e, t - 1]]])
        return lr[:, :, 0], reward_matrix(history, lr, powc)

    def steps_in(self, range_: IndexRange) -> int:
        """Number of steps a full pass over `range_` yields; RangeTooShort when it yields none."""
        lo, hi = range_
        if hi - lo < self.lookback + 2:
            raise RangeTooShort(f"range length {hi - lo} < lookback + 2 = {self.lookback + 2}")
        return hi - lo - self.lookback - 1
