"""Scalar reference routes: the environment stepped one action at a time.

The engine computes greedy evaluations and frozen-network training
episodes in arrays.  These step loops compute the same things with
`TradingEnv.step`/`transition` and one-row forwards, and the tests hold the
array routes to them bit for bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from moqtrader import agent
from moqtrader.env import EnvState, Mode, TradingEnv
from moqtrader.evaluation import EvaluationReport, PositionTrace, _report_from_trace
from moqtrader.market_data import IndexRange, PriceSeries
from moqtrader.qnet import QNetwork, build_input


def rollout(
    series: PriceSeries,
    range_: IndexRange,
    mode: Mode,
    fee: float,
    policy: Callable[[np.ndarray, EnvState], int],
    *,
    lookback: int,
    reward_window: int,
) -> PositionTrace:
    """Step the environment over range_ with the policy's action at each state."""
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


def greedy_policy(net: QNetwork, weights: np.ndarray, gamma: float, include_gamma: bool):
    def policy(feats: np.ndarray, state: EnvState) -> int:
        q = net.forward(build_input(feats, weights, gamma, include_gamma))
        return int(np.argmax(q))

    return policy


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
    """Greedy rollout of the network over one range, one one-row forward per step."""
    trace = rollout(
        series, range_, mode, fee, greedy_policy(net, weights, gamma, include_gamma),
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
    """Metrics of the always-long policy entering at the range start, by environment rollout."""
    if weights is None:
        weights = np.array([1.0, 0.0, 0.0, 0.0])
    trace = rollout(series, range_, mode, fee, lambda feats, state: 0, lookback=lookback, reward_window=reward_window)
    return _report_from_trace(trace, series, range_, fee, lookback, weights, range_id)


def frozen_episode(run: "agent._Learner", state: EnvState) -> None:
    """The step loop a frozen-network training episode ran before it was batched.

    Per step: draw the weights and gamma, act epsilon-greedily, step the
    environment, push the experience and its k counterfactuals.
    """
    cfg, env, streams = run.cfg, run.env, run.streams
    fixed = agent.training_weights(cfg)
    while True:
        w = fixed if fixed is not None else agent.sample_weights(streams["weights"])
        gamma = agent.sample_gamma(streams["gamma"], cfg.gamma_range) if cfg.generalize_gamma else cfg.gamma
        feats = env.state_features(state)
        action = agent.act_epsilon_greedy(
            run.net, feats, w, gamma, cfg.tol, streams["explore"],
            n_actions=cfg.n_actions, include_gamma=cfg.generalize_gamma,
        )
        outcome = env.step(action)
        run.env_steps += 1
        run.buffer.push(state, action, gamma, w, outcome)
        if cfg.multi_reward and cfg.k > 0:
            agent.augment_experiences(env, state, feats, action, run.net, cfg, streams["augment"], run.buffer)
        state = outcome.next_state
        if outcome.done:
            return
