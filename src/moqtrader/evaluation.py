"""Greedy-policy rollouts, metrics, benchmarks and checkpoint selection.

`vectorized_rollout` is the route every evaluation takes, on the caller's
`TradingEnv`: it batch-evaluates the network per trading position over the
whole range (`q_table`), walks it (`TradingEnv.greedy_walk`) and takes the
rewards from the environment's array kernel, so its trace equals
the greedy step loop's (tests/scalar_reference.py) bit for bit.  Buy-and-hold
has one closed form, `_buy_and_hold_benchmark`, equal to the always-long
environment rollout bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from .env import Position, TradingEnv
from .errors import Diverged, EmptyCheckpointList, RangeTooShort
from .market_data import DataSplit, IndexRange
from .qnet import BLOCK_ROWS, QNetwork, build_input, row_blocks
from .rewards import STD_FLOOR

@dataclass(frozen=True)
class EvaluationReport:
    """Metrics of one policy over one index range, plus the buy-and-hold bar."""

    range_id: str
    range: IndexRange
    total_reward: float
    total_profit: float
    sharpe: float
    long_exposure: float
    trades: int
    buy_and_hold_profit: float
    buy_and_hold_sharpe: float

    def to_dict(self) -> dict:
        return {**asdict(self), "range": list(self.range)}


# The metric fields, in report order (every field after range_id and range).
METRIC_FIELDS = tuple(f.name for f in fields(EvaluationReport))[2:]


@dataclass(frozen=True)
class PositionTrace:
    """Per-step record of a rollout, one entry per environment step."""

    positions: np.ndarray
    actions: np.ndarray
    portfolio_log_returns: np.ndarray
    reward_vectors: np.ndarray


def _sharpe(log_returns: np.ndarray) -> float:
    std = float(np.std(log_returns))
    if std < STD_FLOOR:
        return 0.0
    return float(np.mean(log_returns)) / std


def _report_from_trace(
    trace: PositionTrace, env: TradingEnv, range_: IndexRange, weights: np.ndarray, range_id: str
) -> EvaluationReport:
    benchmark = _buy_and_hold_benchmark(env, range_)
    scalars = trace.reward_vectors @ weights
    lr = trace.portfolio_log_returns
    return EvaluationReport(
        range_id=range_id,
        range=range_,
        total_reward=float(scalars.sum()),
        total_profit=float(np.exp(lr.sum()) - 1.0),
        sharpe=_sharpe(lr),
        long_exposure=float(np.mean(trace.positions == Position.LONG.value)),
        trades=int(np.count_nonzero(np.diff(trace.positions, prepend=0))),
        buy_and_hold_profit=benchmark[0],
        buy_and_hold_sharpe=benchmark[1],
    )


def _buy_and_hold_benchmark(env: TradingEnv, range_: IndexRange) -> tuple[float, float]:
    """Profit and Sharpe of the always-long policy, in closed form.

    The log-returns are built element for element as the environment
    builds them, so the result equals an always-long rollout exactly.
    """
    lo, hi = range_
    lr = 1.0 * env.log_returns[lo + env.lookback : hi - 1]
    lr[0] += math.log1p(-env.fee)  # the opening buy is the only trade leg
    return float(np.exp(lr.sum()) - 1.0), _sharpe(lr)


def q_table(net: QNetwork, env: TradingEnv, range_: IndexRange, weights: np.ndarray, gamma: float,
            include_gamma: bool) -> np.ndarray:
    """Q-values (steps, positions, actions) of net over range_ on one conditioning, forwarded per `row_blocks` block."""
    lo, n = range_[0], env.steps_in(range_)
    table = np.empty((n, len(env.mode.targets), net.widths[-1]))
    # One block's buffer, of the builder's width: a net of another width fails its forward.
    inputs = build_input(env.windows[lo : lo + min(n, BLOCK_ROWS + 1)], weights, gamma, include_gamma)
    for start, stop in row_blocks(n):
        for j, position in enumerate(env.mode.targets):
            table[start:stop, j] = net.forward(build_input(env.windows[lo + start : lo + stop], weights, gamma,
                                                           include_gamma, position.value, out=inputs[: stop - start]))
    return table


def vectorized_rollout(
    net: QNetwork, env: TradingEnv, range_: IndexRange, weights: np.ndarray, gamma: float, *,
    include_gamma: bool = False, range_id: str = "range",
) -> tuple[np.ndarray, PositionTrace, EvaluationReport]:
    """Fast greedy rollout over range_ of env's series: one batched network evaluation per trading position.

    The lookback evolution over a fixed price range is fully predictable, so
    Q-values for every (step, position) pair are computed up front (`q_table`);
    the greedy trajectory is then reconstructed by walking that table.  The
    resulting trace matches the environment's step loop exactly.
    """
    lo, hi = range_
    n = env.steps_in(range_)
    if n < 1:
        raise RangeTooShort(f"range length {hi - lo} < lookback + 2 = {env.lookback + 2}")
    table = q_table(net, env, range_, weights, gamma, include_gamma)
    if not np.isfinite(table).all():
        raise Diverged(f"non-finite Q-values on {range_id} range {list(range_)}")
    actions = env.greedy_walk(table.argmax(axis=2), [-1] * n, n)
    lr, rewards = env.outcomes([lo + env.lookback], actions[None, :, None])
    trace = PositionTrace(
        positions=env.target_signs[actions].astype(np.int8),
        actions=actions,
        portfolio_log_returns=lr[0],
        reward_vectors=rewards[0, :, 0],
    )
    return table, trace, _report_from_trace(trace, env, range_, weights, range_id)


def evaluate_split(
    net: QNetwork, env: TradingEnv, split: DataSplit, *, weights: np.ndarray, gamma: float, include_gamma: bool
) -> tuple[dict[str, EvaluationReport], np.ndarray]:
    """Reports for the train/eval/test ranges of one split of env's series, and the train range's Q-table."""
    def rollout(name: str) -> tuple[np.ndarray, PositionTrace, EvaluationReport]:
        return vectorized_rollout(net, env, ranges[name], weights, gamma, include_gamma=include_gamma, range_id=name)

    ranges = split.as_dict()
    table, train = rollout("train")[::2]  # only the reports and this table outlive their range's rollout
    return {"train": train, "eval": rollout("eval")[2], "test": rollout("test")[2]}, table


_METRIC_ATTR = {"sharpe": "sharpe", "profit": "total_profit"}


def select_best_checkpoint(checkpoints: Sequence, metric: str = "sharpe", range_id: str = "eval"):
    """Argmax of the metric on the given range; ties go to the earliest episode."""
    if not checkpoints:
        raise EmptyCheckpointList("no checkpoints to select from")
    attr = _METRIC_ATTR[metric]
    best = checkpoints[0]
    best_value = getattr(best.reports[range_id], attr)
    for ck in checkpoints[1:]:
        value = getattr(ck.reports[range_id], attr)
        if value > best_value:
            best, best_value = ck, value
    return best
