"""Scalar reference routes: the environment stepped one action at a time.

The engine computes greedy evaluations and frozen-network training
episodes in arrays, and draws a fitting episode's conditioning before its
first step.  These step loops compute the same things with
`TradingEnv.transition`, per-step draws and one-row forwards of
`state_features`, and the tests hold the engine's runners to them bit for bit.
`load_csv_rows` is the row-by-row CSV loader that `load_csv`'s column
parse is held to, in its result and in its errors.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Callable

import numpy as np

from moqtrader import agent
from moqtrader.env import EnvState, TradingEnv
from moqtrader.errors import (
    MissingColumn,
    MissingFile,
    NonMonotonicTimestamp,
    NonPositivePrice,
    SeriesTooShort,
    UnparsableRow,
)
from moqtrader.evaluation import EvaluationReport, PositionTrace, _report_from_trace
from moqtrader.market_data import IndexRange, PriceSeries, _parse_timestamp
from moqtrader.qnet import QNetwork, bellman_targets, build_input
from moqtrader.replay import ReplayBuffer, compute_whitening, whiten_batch


def state_features(env: TradingEnv, state: EnvState) -> np.ndarray:
    """Network-facing features: lookback log-returns then position code."""
    t = state.cursor
    feats = np.empty(env.lookback + 1)
    feats[: env.lookback] = env.log_returns[t - env.lookback : t]
    feats[env.lookback] = float(state.position.value)
    return feats


def rollout(env: TradingEnv, range_: IndexRange, policy: Callable[[np.ndarray, EnvState], int]) -> PositionTrace:
    """Step the environment over range_ with the policy's action at each state."""
    state = env.reset(range_)
    positions, actions, log_rets, vectors = [], [], [], []
    while True:
        feats = state_features(env, state)
        action = policy(feats, state)
        outcome = env.transition(state, action)
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


def greedy_policy(net: QNetwork, weights: np.ndarray, gamma: float, include_gamma: bool):
    def policy(feats: np.ndarray, state: EnvState) -> int:
        q = net.forward(build_input(feats, weights, gamma, include_gamma))
        return int(np.argmax(q))

    return policy


def run_policy(
    net: QNetwork,
    env: TradingEnv,
    range_: IndexRange,
    weights: np.ndarray,
    gamma: float,
    *,
    include_gamma: bool = False,
    range_id: str = "range",
) -> tuple[PositionTrace, EvaluationReport]:
    """Greedy rollout of the network over one range, one one-row forward per step."""
    trace = rollout(env, range_, greedy_policy(net, weights, gamma, include_gamma))
    return trace, _report_from_trace(trace, env, range_, weights, range_id)


def buy_and_hold(
    env: TradingEnv, range_: IndexRange, *, weights: np.ndarray | None = None, range_id: str = "range"
) -> EvaluationReport:
    """Metrics of the always-long policy entering at the range start, by environment rollout."""
    if weights is None:
        weights = np.array([1.0, 0.0, 0.0, 0.0])
    trace = rollout(env, range_, lambda feats, state: 0)
    return _report_from_trace(trace, env, range_, weights, range_id)


def act_epsilon_greedy(
    net: QNetwork,
    feats: np.ndarray,
    weights: np.ndarray,
    gamma: float,
    tol: float,
    rng: np.random.Generator,
    *,
    n_actions: int,
    include_gamma: bool,
) -> int:
    """Random action with probability tol, otherwise greedy (ties -> lowest id)."""
    action = agent.explore_action(rng, tol, n_actions)
    if action >= 0:
        return action
    q = net.forward(build_input(feats, weights, gamma, include_gamma))
    return int(np.argmax(q))


def augment_experiences(
    env: TradingEnv,
    state: EnvState,
    feats: np.ndarray,
    real_action: int,
    net: QNetwork,
    cfg: "agent.TrainConfig",
    rng: np.random.Generator,
    buffer: ReplayBuffer,
) -> None:
    """Push k counterfactual experiences from the same pre-step state.

    Each draws fresh (w', gamma'), picks an action (re-sampled epsilon-greedy
    under the new conditioning, or the real action when configured to
    replay), and evaluates the deterministic one-step outcome without
    advancing the real episode.
    """
    for _ in range(cfg.k):
        w = np.asarray(cfg.pin_weights, dtype=np.float64) if cfg.pin_weights is not None else agent.sample_weights(rng)
        gamma = agent.sample_gamma(rng, cfg.gamma_range) if cfg.generalize_gamma else cfg.gamma
        if cfg.hindsight_action == agent.HINDSIGHT_RESAMPLE:
            action = act_epsilon_greedy(
                net, feats, w, gamma, cfg.tol, rng,
                n_actions=cfg.n_actions, include_gamma=cfg.generalize_gamma,
            )
        else:
            action = real_action
        outcome = env.transition(state, action)
        buffer.push(state, action, gamma, w, outcome)


def step_loop(run: "agent._Learner", state: EnvState, fit: bool) -> None:
    """A training episode from state, one step at a time, with per-step draws and one-row forwards.

    Per step: draw the weights and gamma, act epsilon-greedily, step the
    environment, push the experience and its k counterfactuals, then, with
    fit, update the network once the replay holds a batch.
    """
    cfg, env, buffer, net, streams = run.cfg, run.env, run.buffer, run.net, run.streams
    include_gamma, fixed = cfg.generalize_gamma, agent.training_weights(cfg)
    min_fit_len = max(cfg.batchsize, 2) if cfg.whiten else cfg.batchsize
    while True:
        w = fixed if fixed is not None else agent.sample_weights(streams["weights"])
        gamma = agent.sample_gamma(streams["gamma"], cfg.gamma_range) if include_gamma else cfg.gamma
        feats = state_features(env, state)
        action = act_epsilon_greedy(
            net, feats, w, gamma, cfg.tol, streams["explore"],
            n_actions=cfg.n_actions, include_gamma=include_gamma,
        )
        outcome = env.transition(state, action)
        run.env_steps += 1
        buffer.push(state, action, gamma, w, outcome)
        if cfg.multi_reward and cfg.k > 0:
            augment_experiences(env, state, feats, action, net, cfg, streams["augment"], buffer)

        if fit and len(buffer) >= min_fit_len:
            batch = buffer.sample_batch(cfg.batchsize, streams["batch"])
            if cfg.whiten:
                batch = whiten_batch(batch, compute_whitening(buffer, cfg.eigen_floor))
            inputs, targets = bellman_targets(batch, net, run.target, cfg.alpha, include_gamma=include_gamma)
            net.fit_batch(inputs, targets, cfg.learn_rate)
            run.updates += 1
            buffer.advance_updates(1)
            if run.updates % cfg.sync_period == 0:
                run.target.copy_params_from(net)

        state = outcome.next_state
        if outcome.done:
            return


def frozen_episode(run: "agent._Learner", state: EnvState) -> None:
    """The step loop of a frozen-network training episode (`agent._frozen_episode`)."""
    step_loop(run, state, fit=False)


def fit_episode(run: "agent._Learner", state: EnvState) -> None:
    """The step loop of a fitting training episode (`agent._fit_episode`)."""
    step_loop(run, state, fit=True)


def load_csv_rows(path: str | Path, column_map: dict[str, str] | None = None, asset_id: str | None = None) -> PriceSeries:
    """`load_csv` as a `csv.DictReader` loop that checks each row as it reads it."""
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
