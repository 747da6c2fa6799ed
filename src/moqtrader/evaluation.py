"""Greedy-policy rollouts, metrics, benchmarks and the walk-forward driver.

`vectorized_rollout` is the route every evaluation takes: it batch-evaluates
the network per trading position over the whole range and then walks the
resulting Q-table.  `run_policy` steps the environment one action at a time
and is kept as the scalar reference; the two must agree action-for-action.
Buy-and-hold has one closed form, `_buy_and_hold_benchmark`, which equals
the always-long environment rollout bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .env import EnvState, Mode, Position, TradingEnv, position_transition
from .errors import Diverged, EmptyCheckpointList, RangeTooShort
from .market_data import DataSplit, FoldPlan, IndexRange, PriceSeries
from .qnet import QNetwork, build_input
from .rewards import STD_FLOOR

METRIC_FIELDS = (
    "total_reward",
    "total_profit",
    "sharpe",
    "long_exposure",
    "trades",
    "buy_and_hold_profit",
    "buy_and_hold_sharpe",
)


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
        return {
            "range_id": self.range_id,
            "range": [self.range[0], self.range[1]],
            "total_reward": self.total_reward,
            "total_profit": self.total_profit,
            "sharpe": self.sharpe,
            "long_exposure": self.long_exposure,
            "trades": self.trades,
            "buy_and_hold_profit": self.buy_and_hold_profit,
            "buy_and_hold_sharpe": self.buy_and_hold_sharpe,
        }


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


def _rollout(
    series: PriceSeries,
    range_: IndexRange,
    mode: Mode,
    fee: float,
    policy: Callable[[np.ndarray, EnvState], int],
    *,
    lookback: int,
    reward_window: int,
) -> PositionTrace:
    env = TradingEnv(series, mode, lookback=lookback, reward_window=reward_window, fee=fee)
    state = env.reset(range_)
    positions, actions, log_rets, vectors = [], [], [], []
    while True:
        feats = env.state_features(state)
        action = policy(feats, state)
        outcome = env.step(action)
        positions.append(int(outcome.next_state.position.value))
        actions.append(action)
        log_rets.append(outcome.reward.lr)
        vectors.append(outcome.reward)
        state = outcome.next_state
        if outcome.done:
            break
    return PositionTrace(
        positions=np.array(positions, dtype=np.int8),
        actions=np.array(actions, dtype=np.int8),
        portfolio_log_returns=np.array(log_rets),
        reward_vectors=np.array(vectors),
    )


def _report_from_trace(
    trace: PositionTrace,
    series: PriceSeries,
    range_: IndexRange,
    fee: float,
    lookback: int,
    weights: np.ndarray,
    range_id: str,
) -> EvaluationReport:
    benchmark = _buy_and_hold_benchmark(series, range_, fee, lookback)
    scalars = trace.reward_vectors @ weights
    lr = trace.portfolio_log_returns
    trades = _count_trades(trace.positions)
    return EvaluationReport(
        range_id=range_id,
        range=range_,
        total_reward=float(scalars.sum()),
        total_profit=float(np.exp(lr.sum()) - 1.0),
        sharpe=_sharpe(lr),
        long_exposure=float(np.mean(trace.positions == Position.LONG.value)),
        trades=trades,
        buy_and_hold_profit=benchmark[0],
        buy_and_hold_sharpe=benchmark[1],
    )


def _count_trades(positions: np.ndarray) -> int:
    if len(positions) == 0:
        return 0
    prev = np.concatenate(([0], positions[:-1]))
    return int(np.count_nonzero(positions != prev))


def _greedy_policy(net: QNetwork, weights: np.ndarray, gamma: float, include_gamma: bool):
    def policy(feats: np.ndarray, state: EnvState) -> int:
        q = net.forward(build_input(feats, weights, gamma, include_gamma))
        return int(np.argmax(q))

    return policy


def _buy_and_hold_benchmark(series: PriceSeries, range_: IndexRange, fee: float, lookback: int) -> tuple[float, float]:
    """Profit and Sharpe of the always-long policy, in closed form.

    The log-returns are built element for element as the environment
    builds them, so the result equals an always-long rollout exactly.
    """
    lo, hi = range_
    lr = 1.0 * series.log_returns[lo + lookback : hi - 1]
    lr[0] += math.log1p(-fee)  # the opening buy is the only trade leg
    return float(np.exp(lr.sum()) - 1.0), _sharpe(lr)


def run_policy(
    net: QNetwork,
    series: PriceSeries,
    range_: IndexRange,
    weights: np.ndarray,
    gamma: float,
    mode: Mode,
    fee: float = 0.0,
    *,
    lookback: int,
    reward_window: int,
    include_gamma: bool = False,
    range_id: str = "range",
) -> tuple[PositionTrace, EvaluationReport]:
    """Deterministic greedy rollout of the network over one index range."""
    trace = _rollout(
        series, range_, mode, fee, _greedy_policy(net, weights, gamma, include_gamma),
        lookback=lookback, reward_window=reward_window,
    )
    return trace, _report_from_trace(trace, series, range_, fee, lookback, weights, range_id)


def buy_and_hold(
    series: PriceSeries,
    range_: IndexRange,
    fee: float = 0.0,
    *,
    lookback: int,
    reward_window: int,
    mode: Mode = Mode.LSP,
    weights: np.ndarray | None = None,
    range_id: str = "range",
) -> EvaluationReport:
    """Metrics of the always-long policy entering at the range start."""
    if weights is None:
        weights = np.array([1.0, 0.0, 0.0, 0.0])
    trace = _rollout(
        series, range_, mode, fee, lambda feats, state: 0,
        lookback=lookback, reward_window=reward_window,
    )
    return _report_from_trace(trace, series, range_, fee, lookback, weights, range_id)


def vectorized_rollout(
    net: QNetwork,
    series: PriceSeries,
    range_: IndexRange,
    weights: np.ndarray,
    gamma: float,
    mode: Mode,
    fee: float = 0.0,
    *,
    lookback: int,
    reward_window: int,
    include_gamma: bool = False,
    range_id: str = "range",
) -> tuple[np.ndarray, PositionTrace, EvaluationReport]:
    """Fast greedy rollout: one batched network evaluation per trading position.

    The lookback evolution over a fixed price range is fully predictable, so
    Q-values for every (step, position) pair are computed up front; the
    greedy trajectory is then reconstructed by walking that table.  The
    resulting trace matches `run_policy` exactly.
    """
    lo, hi = range_
    n = hi - lo - lookback - 1
    if n < 1:
        raise RangeTooShort(f"range length {hi - lo} < lookback + 2 = {lookback + 2}")
    log_returns = series.log_returns
    log_close = series.log_close

    lb = np.lib.stride_tricks.sliding_window_view(log_returns, lookback)[lo : lo + n]
    positions = mode.positions
    extra = 5 if include_gamma else 4
    inputs = np.empty((n, lookback + 1 + extra))
    inputs[:, :lookback] = lb
    inputs[:, lookback + 1 : lookback + 5] = weights
    if include_gamma:
        inputs[:, lookback + 5] = gamma
    q_table = np.empty((n, len(positions), mode.n_actions))
    for j, pos in enumerate(positions):
        inputs[:, lookback] = float(pos.value)
        q_table[:, j, :] = net.forward(inputs)
    if not np.isfinite(q_table).all():
        raise Diverged(f"non-finite Q-values on {range_id} range {list(range_)}")
    greedy = q_table.argmax(axis=2).ravel().tolist()  # flat (no per-step lists): entry t * width + j
    width = len(positions)

    # The walk runs on plain ints: column j of the Q-table is positions[j].
    sign = [pos.value for pos in positions]
    column_after = [positions.index(position_transition(Position.NEUTRAL, a, mode)) for a in range(mode.n_actions)]
    fee_log = math.log1p(-fee)

    j = positions.index(Position.NEUTRAL)
    anchor = -1
    actions = np.empty(n, dtype=np.int8)
    pos_arr = np.empty(n, dtype=np.int8)
    legs = np.zeros(n, dtype=np.int8)
    closes: list[tuple[int, int, int, int]] = []  # (step, sign, anchor_idx, close_idx)
    for t in range(n):
        a = greedy[t * width + j]
        k = column_after[a]
        if k != j:
            legs[t] = 2 if sign[j] * sign[k] == -1 else 1
            if sign[j] != 0:
                closes.append((t, sign[j], anchor, lo + lookback + t))
            anchor = lo + lookback + t
        actions[t] = a
        pos_arr[t] = sign[k]
        j = k

    step_returns = log_returns[lo + lookback : hi - 1]
    lr = pos_arr.astype(np.float64) * step_returns
    if fee != 0.0:
        lr = lr + legs.astype(np.float64) * fee_log
    powc = np.zeros(n)
    for t, sign, open_idx, close_idx in closes:
        powc[t] = sign * (log_close[close_idx] - log_close[open_idx])

    padded = np.concatenate((np.zeros(reward_window - 1), lr))
    windows = np.lib.stride_tricks.sliding_window_view(padded, reward_window)
    means = windows.mean(axis=1)
    stds = windows.std(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sr = np.where(stds < STD_FLOOR, 0.0, means / np.where(stds < STD_FLOOR, 1.0, stds))
    vectors = np.column_stack((lr, means, sr, powc))

    trace = PositionTrace(
        positions=pos_arr,
        actions=actions,
        portfolio_log_returns=lr,
        reward_vectors=vectors,
    )
    report = _report_from_trace(trace, series, range_, fee, lookback, weights, range_id)
    return q_table, trace, report


def evaluate_split(
    net: QNetwork,
    series: PriceSeries,
    split: DataSplit,
    *,
    weights: np.ndarray,
    gamma: float,
    mode: Mode,
    fee: float,
    lookback: int,
    reward_window: int,
    include_gamma: bool,
) -> dict[str, EvaluationReport]:
    """Reports for the train/eval/test ranges of one split."""
    reports = {}
    for name, range_ in split.as_dict().items():
        _, _, report = vectorized_rollout(
            net, series, range_, weights, gamma, mode, fee,
            lookback=lookback, reward_window=reward_window,
            include_gamma=include_gamma, range_id=name,
        )
        reports[name] = report
    return reports


_METRIC_ATTR = {"sharpe": "sharpe", "profit": "total_profit", "total_profit": "total_profit"}


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


@dataclass(frozen=True)
class FoldResult:
    fold: int
    seed: int
    best_episode: int
    reports: dict[str, EvaluationReport]

    def to_dict(self) -> dict:
        return {
            "fold": self.fold,
            "seed": self.seed,
            "best_episode": self.best_episode,
            "reports": {name: r.to_dict() for name, r in self.reports.items()},
        }


def run_walk_forward(
    cfg,
    series: PriceSeries,
    plan: FoldPlan,
    *,
    eval_weights: np.ndarray | None = None,
    eval_gamma: float | None = None,
    metric: str = "sharpe",
) -> list[FoldResult]:
    """Train independently per fold and report the best checkpoint's metrics.

    Fold k trains with a fresh seed derived from the master seed and the
    fold index, selects its best checkpoint on the fold's eval range, and
    reports that network on all three ranges.
    """
    from dataclasses import replace as dc_replace

    from . import agent

    results = []
    for index, split in enumerate(plan.folds):
        seed = agent.fold_seed(cfg.seed, index)
        fold_cfg = dc_replace(cfg, seed=seed)
        outcome = agent.train(fold_cfg, series, split, eval_weights=eval_weights, eval_gamma=eval_gamma)
        best = select_best_checkpoint(outcome.checkpoints, metric=metric, range_id="eval")
        results.append(FoldResult(fold=index, seed=seed, best_episode=best.episode, reports=best.reports))
    return results
