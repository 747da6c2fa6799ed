"""Scalar reference routes: the environment stepped one action at a time.

The engine computes greedy evaluations and frozen-network training
episodes in arrays, and draws a fitting episode's conditioning before its
first step.  These step loops compute the same things with
`TradingEnv.transition`, per-step draws and one-row forwards of
`state_features`, and the tests hold the engine's runners to them bit for bit.
`load_csv_rows` is the row-by-row CSV loader that `load_csv`'s column
parse is held to, in its result and in its errors.

The step loop fits the network through the update path that
`QNetwork.td_update` replaced: `whiten_batch`, `bellman_targets`, then
`fit_batch`, which runs the online forward a second time in `gradients`.
`batch_of` builds a `qnet.Batch` from state rows with `np.hstack`, as that
path did.
`table_walk` walks a rollout's full Q-table step by step (`walk_table`),
the route that `evaluation.walk_rounds` is held to.
`replay_rows` gathers a replay's live rows in order, which the tests read
and the engine, which only samples, does not.
`unblocked_forward` runs a batch as one matrix product per layer, the
forward that `QNetwork.forward`'s row blocks are held to.
`new_rows` reads a greedy chooser's forwards: the rows each one adds, and
its tail padding.
`params_equal` and `format_config` are test helpers that nothing in the
engine calls.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Callable

import numpy as np

from moqtrader import agent, config
from moqtrader.env import EnvState, Position, TradingEnv
from moqtrader.errors import (
    MissingColumn,
    MissingFile,
    NonMonotonicTimestamp,
    NonPositivePrice,
    SeriesTooShort,
    UnparsableRow,
)
from moqtrader.evaluation import TILE_ROWS, EvaluationReport, PositionTrace, _report_from_trace
from moqtrader.market_data import IndexRange, PriceSeries, _parse_timestamp
from moqtrader.qnet import Batch, QNetwork, build_input
from moqtrader.replay import ReplayBuffer, compute_whitening, scalar_rewards


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
        q = net.forward(build_input(feats[:-1], weights, gamma, include_gamma, feats[-1]))
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


def table_walk(net: QNetwork, env: TradingEnv, range_: IndexRange, weights: np.ndarray, gamma: float,
               include_gamma: bool = False) -> np.ndarray:
    """The greedy walk's actions by the full-table route: per position code, one forward of every step's row of
    range_, then the argmaxes walked from neutral by `walk_table`."""
    lo, n = range_[0], env.steps_in(range_)
    table = np.stack([net.forward(build_input(env.windows[lo : lo + n], weights, gamma, include_gamma,
                                              position.value)).argmax(axis=1) for position in env.mode.targets], axis=1)
    return walk_table(env, table, [-1] * n, n)


def walk_table(env: TradingEnv, table: np.ndarray, forced, n: int) -> np.ndarray:
    """Walks of n steps each from neutral over table[t, j], step t's greedy action at position index j: step t takes
    forced[t], or where that is negative its choice at the position held, which after action a is position a."""
    actions = []
    for t, a in enumerate(forced):
        j = env.mode.targets.index(Position.NEUTRAL) if t % n == 0 else actions[-1]
        actions.append(int(table[t, j]) if a < 0 else int(a))
    return np.array(actions, dtype=np.int8)


def buy_and_hold(
    env: TradingEnv, range_: IndexRange, *, weights: np.ndarray | None = None, range_id: str = "range"
) -> EvaluationReport:
    """Metrics of the always-long policy entering at the range start, by environment rollout."""
    if weights is None:
        weights = np.array([1.0, 0.0, 0.0, 0.0])
    trace = rollout(env, range_, lambda feats, state: 0)
    return _report_from_trace(trace, env, range_, weights, range_id)


def explore_action(rng: np.random.Generator, tol: float, n_actions: int) -> int:
    """The random action taken with probability tol, else -1 (act greedily), as `agent.draw_conditioning` draws slot 0."""
    return int(rng.integers(n_actions)) if rng.random() < tol else -1


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
    action = explore_action(rng, tol, n_actions)
    if action >= 0:
        return action
    q = net.forward(build_input(feats[:-1], weights, gamma, include_gamma, feats[-1]))
    return int(np.argmax(q))


def augment_experiences(
    env: TradingEnv,
    state: EnvState,
    feats: np.ndarray,
    real_action: int,
    net: QNetwork,
    cfg: "agent.TrainConfig",
    streams: dict[str, np.random.Generator],
    buffer: ReplayBuffer,
) -> None:
    """Push k counterfactual experiences from the same pre-step state.

    Each draws fresh (w', gamma'), picks an action (re-sampled epsilon-greedy
    under the new conditioning, or the real action when configured to
    replay), and evaluates the deterministic one-step outcome without
    advancing the real episode.  Every draw is one scalar call on its own
    stream: `augment` for w', `augment_gamma` for gamma', and for a resampled
    action `augment_explore` for the explore decision and `augment_action`
    for the random action, which is drawn whether or not the slot explores.
    """
    fixed = agent.training_weights(cfg)
    for _ in range(cfg.k):
        w = fixed if fixed is not None else agent.sample_weights(streams["augment"], 1)[0]
        gamma = cfg.gamma
        if cfg.generalize_gamma:
            gamma = agent.sample_gamma(streams["augment_gamma"], cfg.gamma_range, 1)[0]
        action = real_action
        if cfg.hindsight_action == agent.HINDSIGHT_RESAMPLE:
            explored = streams["augment_explore"].random() < cfg.tol
            action = int(streams["augment_action"].integers(cfg.mode.n_actions))
            if not explored:
                row = build_input(feats[:-1], w, gamma, cfg.generalize_gamma, feats[-1])
                action = int(np.argmax(net.forward(row)))
        outcome = env.transition(state, action)
        push_experience(buffer, state, action, gamma, w, outcome)


def push_experience(buffer: ReplayBuffer, state: EnvState, action: int, gamma: float, weights, outcome) -> None:
    """One experience of taking action from state under (weights, gamma), as a one-row push."""
    buffer.push({"cursor": state.cursor, "position": state.position, "action": [action], "gamma": gamma,
                 "weights": [weights], "reward": [outcome.reward], "terminal": outcome.done})


def replay_rows(buffer: ReplayBuffer, idx=None, include_gamma: bool = False) -> Batch:
    """The buffer's live rows at positions idx (0 = oldest, -1 = newest), or all of them in order."""
    live = np.arange(buffer._lo, buffer._hi)
    return buffer._gather(live if idx is None else live[idx], include_gamma)


def new_rows(forwards: list[np.ndarray]) -> np.ndarray:
    """The input rows that a greedy chooser's forwards (their inputs, in call order) forwarded for the first time.

    Each forward must take whole TILE_ROWS-row tiles: its new rows first,
    distinct, then fewer than TILE_ROWS rows of padding, each one forwarded
    before or one of the block buffer's initial all-zero rows.  So no row is
    forwarded twice but as padding.
    """
    seen, new = {np.zeros(len(forwards[0][0])).tobytes()} if forwards else set(), []
    for x in forwards:
        keys = [row.tobytes() for row in x]
        k = sum(key not in seen for key in keys)
        assert len(x) % TILE_ROWS == 0 and len(x) - k < TILE_ROWS, len(x)
        assert len(set(keys[:k])) == k and not seen.intersection(keys[:k]) and seen.issuperset(keys[k:])
        seen.update(keys)
        new.append(x[:k])
    return np.concatenate(new) if new else np.empty((0, 0))


def params_equal(a: QNetwork, b: QNetwork) -> bool:
    return a.widths == b.widths and all(
        np.array_equal(x, y) for x, y in zip(a.weights + a.biases, b.weights + b.biases)
    )


def format_config(cfg: "config.RunConfig") -> str:
    """Render a RunConfig in the flat dialect; config.parse_config inverts this."""
    lines = [f"{key} = {json.dumps(value)}" for key, value in config.to_flat_dict(cfg).items()]
    return "\n".join(lines) + "\n"


def batch_of(state, next_state, gamma, weights, reward, action, terminal, include_gamma: bool = False) -> Batch:
    """A minibatch of the given rows; network inputs are state, weights and (with include_gamma) gamma."""
    gamma, weights = np.asarray(gamma, dtype=np.float64), np.asarray(weights, dtype=np.float64)
    conditioning = (weights, gamma[:, None]) if include_gamma else (weights,)
    inputs = np.stack((np.hstack((state, *conditioning)), np.hstack((next_state, *conditioning))))
    return Batch(inputs, gamma, weights, np.asarray(reward, dtype=np.float64), np.asarray(action), np.asarray(terminal))


def whiten_batch(batch: Batch, inv_sqrt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rescaled rewards r~ = Sigma^(-1/2) r / ||w|| and scalar rewards w . r~, in fresh arrays."""
    norms = np.linalg.norm(batch.weights, axis=1)
    rescaled = (batch.reward @ inv_sqrt) / norms[:, None]
    return rescaled, np.einsum("ij,ij->i", batch.weights, rescaled)


def bellman_targets(
    batch: Batch, rewards: np.ndarray, net: QNetwork, target: QNetwork, alpha: float
) -> tuple[np.ndarray, np.ndarray]:
    """The batch's input rows and per-example regression targets for one update.

    For the taken action the target blends the current estimate with the
    one-step return, (1-alpha)*Q(s)[a] + alpha*(r + gamma*max Q_target(s'));
    terminal transitions drop the bootstrap term.  Non-taken actions keep
    the current outputs so they receive no gradient pressure.
    """
    inputs = batch.inputs[0]
    q_now = net.forward(inputs)
    q_next = target.forward(batch.inputs[1]).max(axis=1)
    targets = q_now.copy()
    rows = np.arange(len(inputs))
    live = np.where(batch.terminal, 0.0, 1.0)
    returns = rewards + live * batch.gamma * q_next
    targets[rows, batch.action] = (1.0 - alpha) * q_now[rows, batch.action] + alpha * returns
    return inputs, targets


def unblocked_forward(net: QNetwork, x: np.ndarray) -> np.ndarray:
    """`QNetwork.forward` of a batch as one matrix product per layer over all its rows."""
    for layer, (w, b) in enumerate(zip(net.weights, net.biases)):
        x = x @ w + b
        if layer < len(net.weights) - 1:
            x = np.maximum(x, 0.0)
    return x


def loss(net: QNetwork, inputs: np.ndarray, targets: np.ndarray) -> float:
    """Mean-squared error over all batch entries and actions."""
    return float(np.mean((net.forward(inputs) - targets) ** 2))


def gradients(net: QNetwork, inputs: np.ndarray, targets: np.ndarray) -> tuple[float, list, list]:
    """Backprop from a fresh forward: (loss, dL/dW per layer, dL/db per layer)."""
    acts = [inputs]  # each layer's input
    for w, b in zip(net.weights[:-1], net.biases[:-1]):
        acts.append(np.maximum(acts[-1] @ w + b, 0.0))
    pred = acts[-1] @ net.weights[-1] + net.biases[-1]
    delta = 2.0 * (pred - targets) / pred.size
    grads_w, grads_b = [None] * len(net.weights), [None] * len(net.biases)
    for layer in range(len(net.weights) - 1, -1, -1):
        grads_w[layer] = acts[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ net.weights[layer].T) * (acts[layer] > 0.0)
    return float(np.mean((pred - targets) ** 2)), grads_w, grads_b


def fit_batch(net: QNetwork, inputs: np.ndarray, targets: np.ndarray, learn_rate: float) -> float:
    """One SGD (or momentum) step on the batch; returns the pre-step loss."""
    loss_, grads_w, grads_b = gradients(net, inputs, targets)
    if net._velocity is None:  # a network's first step, as td_update allocates it
        net._velocity = np.zeros_like(net._params)
    vel_w, vel_b = net._layer_views(net._velocity)
    for i in range(len(net.weights)):
        vel_w[i][...] = net.momentum * vel_w[i] - learn_rate * grads_w[i]
        vel_b[i][...] = net.momentum * vel_b[i] - learn_rate * grads_b[i]
        net.weights[i] += vel_w[i]
        net.biases[i] += vel_b[i]
    return loss_


def step_loop(run: "agent.TrainResult", state: EnvState, fit: bool) -> None:
    """A training episode from state, one step at a time, with per-step draws and one-row forwards.

    Per step: draw the weights and gamma, act epsilon-greedily, step the
    environment, push the experience and its k counterfactuals, then, with
    fit, update the network once the replay holds a batch.
    """
    cfg, env, buffer, net, streams = run.cfg, run.env, run.replay, run.net, run.streams
    include_gamma, fixed = cfg.generalize_gamma, agent.training_weights(cfg)
    min_fit_len = max(cfg.batchsize, 2) if cfg.whiten else cfg.batchsize
    while True:
        w = fixed if fixed is not None else agent.sample_weights(streams["weights"], 1)[0]
        gamma = agent.sample_gamma(streams["gamma"], cfg.gamma_range, 1)[0] if include_gamma else cfg.gamma
        feats = state_features(env, state)
        action = act_epsilon_greedy(
            net, feats, w, gamma, cfg.tol, streams["explore"],
            n_actions=cfg.mode.n_actions, include_gamma=include_gamma,
        )
        outcome = env.transition(state, action)
        run.env_steps += 1
        push_experience(buffer, state, action, gamma, w, outcome)
        if cfg.multi_reward and cfg.k > 0:
            augment_experiences(env, state, feats, action, net, cfg, streams, buffer)

        if fit and len(buffer) >= min_fit_len:
            batch = buffer.sample_batch(cfg.batchsize, streams["batch"], include_gamma)
            if cfg.whiten:
                _, rewards = whiten_batch(batch, compute_whitening(buffer, cfg.eigen_floor))
            else:
                rewards = scalar_rewards(batch)
            inputs, targets = bellman_targets(batch, rewards, net, run.target, cfg.alpha)
            fit_batch(net, inputs, targets, cfg.learn_rate)
            run.updates += 1
            buffer.advance_updates(1)
            if run.updates % cfg.sync_period == 0:
                run.target.copy_params_from(net)

        state = outcome.next_state
        if outcome.done:
            return


def frozen_episode(run: "agent.TrainResult", state: EnvState) -> None:
    """The step loop of one frozen-network training episode."""
    step_loop(run, state, fit=False)


def frozen_stretch(run: "agent.TrainResult", range_: IndexRange, episodes: int) -> None:
    """`agent._frozen_stretch` as one step-loop episode per episode, each reset as training resets it.

    The step loop makes every greedy choice with its own forward.
    """
    for _ in range(episodes):
        frozen_episode(run, agent._reset(run, range_))


def fit_episode(run: "agent.TrainResult", state: EnvState) -> None:
    """The step loop of a fitting training episode (`agent._fit_episode`)."""
    step_loop(run, state, fit=True)


def load_csv_rows(path: str | Path, column_map: dict[str, str] | None = None, asset_id: str | None = None) -> PriceSeries:
    """`load_csv` as a `csv.DictReader` loop that checks each row as it reads it.

    Undecodable bytes read as lone surrogates, and a line the reader cannot
    take fails as `UnparsableRow` at its row, as in `load_csv`.
    """
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    mapping = {"timestamp": "timestamp", "close": "close"}
    mapping.update(column_map or {})

    timestamps: list[int] = []
    closes: list[float] = []
    fields = None
    try:
        with open(path, newline="", errors="surrogateescape") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            for canonical in ("timestamp", "close"):
                if mapping[canonical] not in fields:
                    raise MissingColumn(f"column {mapping[canonical]!r} not in header {fields}")
            ts_key, close_key = mapping["timestamp"], mapping["close"]
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
    except csv.Error as exc:
        if fields is None:
            raise MissingColumn(f"unreadable header: {exc}") from exc
        raise UnparsableRow(len(closes) + 1, f"row {len(closes) + 1}: {exc}") from exc

    if len(closes) < 2:
        raise SeriesTooShort(f"{path} has {len(closes)} data rows, need at least 2")
    return PriceSeries(asset_id or path.stem, np.array(timestamps, dtype=np.int64), np.array(closes))
