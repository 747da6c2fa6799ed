"""Greedy-policy rollouts, metrics, benchmarks and checkpoint selection.

`greedy_chooser` is the one route to a frozen network's greedy choices, for
evaluations and frozen training stretches alike, and the one owner of row
batching: a memoizing int8 choice table whose forwards take at most
`BLOCK_ROWS` rows, padded to whole `TILE_ROWS`-row tiles, so that a choice
does not depend on the rows grouped with it.  `walk_rounds` is the one walk
of a frozen policy, in Jacobi rounds that forward only the rows the walk can
visit.  `vectorized_rollout`, the route every evaluation takes on the
caller's `TradingEnv`, walks it and takes the rewards from the environment's
array kernel, so its trace equals the greedy step loop's
(tests/scalar_reference.py) bit for bit.  Buy-and-hold has one closed form,
`_buy_and_hold_benchmark`."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .env import Position, TradingEnv
from .errors import Diverged, EmptyCheckpointList, ShapeMismatch
from .market_data import DataSplit, IndexRange
from .qnet import QNetwork, build_input
from .rewards import STD_FLOOR

TILE_ROWS = 8  # rows per tile of a chooser forward: as wide as any tested BLAS kernel's, so rows round independently
BLOCK_ROWS = 128 * TILE_ROWS  # rows per chooser forward at most: below the output layer's BLAS kernel switch
SWEEP = 8  # passes of a walk's first round, each guessing from the choices of the passes before it


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


# The metric fields, in report order (every field after range_id and range).
METRIC_FIELDS = tuple(f.name for f in fields(EvaluationReport))[2:]
# Checkpoint-selection metric -> the report field it maximizes: what `report_metric` and `--metric` accept.
SELECTION_METRICS = {"sharpe": "sharpe", "profit": "total_profit"}


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


def greedy_chooser(net: QNetwork, env: TradingEnv, rows: np.ndarray, weights: np.ndarray, gamma, include_gamma: bool,
                   where: str):
    """(choose, table): net's int8 (len(rows), n_actions) greedy choice table at env.windows rows `rows`, -1 where
    nothing has been chosen, and choose(idx, positions), which forwards the (idx, position index) pairs still at -1,
    each once, and returns their entries.  weights and gamma are one value for all rows or one per row.  The pairs go
    as one stream of blocks of at most BLOCK_ROWS rows, each row with its position's code, through one buffer that
    `build_input` allocates at the builder's width (so a net of another input width raises ShapeMismatch), padded to
    whole TILE_ROWS-row tiles: a row's Q-values do not depend on the rows beside it.  Another output width raises
    ShapeMismatch, non-finite Q-values Diverged naming `where`."""
    if net.widths[-1] != env.mode.n_actions:
        raise ShapeMismatch(f"network outputs {net.widths[-1]} Q-values vs {env.mode.n_actions} actions of mode "
                            f"{env.mode.value}")
    table = np.full((len(rows), env.mode.n_actions), -1, dtype=np.int8)
    weights, gamma = np.broadcast_to(weights, (len(rows), 4)), np.broadcast_to(gamma, len(rows))
    inputs = build_input(np.broadcast_to(0.0, (-(-min(table.size, BLOCK_ROWS) // TILE_ROWS) * TILE_ROWS,
                                               env.lookback)), 0.0, 0.0, include_gamma)

    def choose(idx: np.ndarray, positions: np.ndarray) -> np.ndarray:
        asked = np.zeros(table.shape, dtype=bool)
        asked[idx, positions] = True
        at = np.flatnonzero(asked & (table < 0))  # each pair still at -1, once, row by row
        for start in range(0, len(at), BLOCK_ROWS):
            block, j = np.divmod(at[start : start + BLOCK_ROWS], table.shape[1])
            k = len(block)
            build_input(env.windows[rows[block]], weights[block], gamma[block], include_gamma, env.target_signs[j],
                        out=inputs[:k])
            q = net.forward(inputs[: k + -k % TILE_ROWS])[:k]  # the tail padded with finite rows left in the buffer
            if not np.isfinite(q).all():
                raise Diverged(f"non-finite Q-values on {where}")
            table[block, j] = q.argmax(axis=1)
        return table[idx, positions]
    return choose, table


def walk_rounds(env: TradingEnv, n: int, choose, forced: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The int8 actions of len(forced) steps walked as episodes of n steps, each from neutral, and the position index
    each step starts from.  Step t takes forced[t] when that is >= 0, else choose([t], [j]): its greedy choice at the
    position index j it holds, which after action a is a.  Only the greedy steps are chosen at, in Jacobi rounds until
    every guess is confirmed: the first in SWEEP passes, pass r over the steps t % SWEEP == r, each guessing its
    predecessor's action once that is forced or chosen, else neutral; then each step whose predecessor's choice moved,
    at that choice.  Rounds go on while each at least halves the wrong guesses, so choose is called at most SWEEP +
    ceil(log2 n) + 1 times; when one falls short, every greedy step is chosen at every position, walked step by step."""
    neutral, width, forced = env.mode.targets.index(Position.NEUTRAL), env.mode.n_actions, np.asarray(forced)
    taken = forced.astype(np.int8)  # and each greedy step's choice at its guess
    first = np.arange(len(taken)) % n == 0  # an episode's first step, which stands at neutral
    guess = np.full(len(taken), neutral, dtype=np.int8)
    moved, wrong, passes = np.flatnonzero(taken < 0), math.inf, SWEEP  # the steps to choose at, wrong guesses (no bar)
    while len(moved):
        for now in filter(len, (moved[moved % passes == r] for r in range(passes))):  # no call for an empty pass
            guess[now] = np.where(first[now] | (taken[now - 1] < 0), guess[now], taken[now - 1])  # once it has one
            taken[now] = choose(now, guess[now])
        after = moved[moved < len(taken) - 1] + 1
        after = after[~first[after] & (forced[after] < 0)]  # the greedy steps that follow in an episode
        moved, passes = after[taken[after - 1] != guess[after]], 1
        if 2 * len(moved) > wrong:
            steps = np.flatnonzero(forced < 0)
            table = np.zeros((len(taken), width), dtype=np.int8)
            table[steps] = choose(np.repeat(steps, width), np.tile(np.arange(width), len(steps))).reshape(-1, width)
            greedy, actions = table.tolist(), taken.tolist()  # greedy[t][j]: step t's choice at position j
            for t in steps.tolist():
                actions[t] = greedy[t][actions[t - 1] if t % n else neutral]
            taken = np.array(actions, dtype=np.int8)
            break
        wrong = len(moved)
    return taken, np.where(first, neutral, np.roll(taken, 1))


def vectorized_rollout(net: QNetwork, env: TradingEnv, range_: IndexRange, weights: np.ndarray, gamma: float, *,
                       include_gamma: bool = False,
                       range_id: str = "range") -> tuple[np.ndarray, PositionTrace, EvaluationReport]:
    """Greedy rollout over range_ of env's series: its choice table, trace and report.  `walk_rounds` forwards only
    the (step, position) rows its guesses visit, each once; the trace matches the environment's step loop exactly."""
    lo, n = range_[0], env.steps_in(range_)
    choose, table = greedy_chooser(net, env, np.arange(lo, lo + n), weights, gamma, include_gamma,
                                   f"{range_id} range {list(range_)}")
    actions, _ = walk_rounds(env, n, choose, np.full(n, -1))
    lr, rewards = env.outcomes([lo + env.lookback], actions[None, :, None])
    trace = PositionTrace(env.target_signs[actions].astype(np.int8), actions, lr[0], rewards[0, :, 0])
    return table, trace, _report_from_trace(trace, env, range_, weights, range_id)


def evaluate_split(net: QNetwork, env: TradingEnv, split: DataSplit, *, weights: np.ndarray, gamma: float,
                   include_gamma: bool) -> dict[str, EvaluationReport]:
    """Reports for the train/eval/test ranges of one split of env's series."""
    return {name: vectorized_rollout(net, env, range_, weights, gamma, include_gamma=include_gamma, range_id=name)[2]
            for name, range_ in split.as_dict().items()}


def select_best_checkpoint(checkpoints: Sequence, metric: str = "sharpe", range_id: str = "eval"):
    """Argmax of the metric on the given range; ties go to the earliest episode, as `max` keeps its first maximum."""
    if not checkpoints:
        raise EmptyCheckpointList("no checkpoints to select from")
    attr = SELECTION_METRICS[metric]
    return max(checkpoints, key=lambda ck: getattr(ck.reports[range_id], attr))
