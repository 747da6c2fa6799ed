"""Training loop: epsilon-greedy interaction, random weight/discount sampling,
hindsight augmentation with counterfactual experiences, and checkpointing.

All randomness flows through named streams split from one master seed, so
toggling one feature (say, hindsight augmentation) cannot perturb another
stream's draws: the visited trajectory is invariant to k.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import evaluation
from .env import Mode, TradingEnv
from .errors import InvalidValue
from .market_data import DataSplit, PriceSeries
from .qnet import (
    QNetwork,
    TargetNetwork,
    bellman_targets,
    build_input,
    save_checkpoint,
    sync_target,
)
from .replay import Experience, ReplayBuffer, compute_whitening, whiten_batch
from .rewards import REWARD_COMPONENTS, REWARD_INDEX, RewardVector

log = logging.getLogger(__name__)

STREAM_NAMES = ("init", "env", "explore", "weights", "gamma", "batch", "augment")

HINDSIGHT_RESAMPLE = "resample"
HINDSIGHT_REPLAY = "replay"


@dataclass(frozen=True)
class TrainConfig:
    """Everything one training run depends on.  See README for the key table."""

    mode: Mode = Mode.LSP
    multi_reward: bool = True
    reward: str = "lr"
    generalize_gamma: bool = False
    gamma: float = 0.95
    gamma_range: tuple[float, float] = (0.5, 0.999)
    alpha: float = 1.0
    tol: float = 0.1
    batchsize: int = 64
    k: int = 3
    episodes: int = 100
    eval_every: int = 1
    reward_window: int = 20
    lookback: int = 30
    episode_len: int = 500
    random_access: bool = False
    fee: float = 0.0
    max_age: int = 2000
    hidden: tuple[int, ...] = (64, 64)
    learn_rate: float = 0.001
    momentum: float = 0.0
    sync_period: int = 100
    whiten: bool = True
    eigen_floor: float = 1e-8
    hindsight_action: str = HINDSIGHT_RESAMPLE
    pin_weights: tuple[float, float, float, float] | None = None
    seed: int = 0

    @property
    def n_actions(self) -> int:
        return self.mode.n_actions

    @property
    def input_width(self) -> int:
        return self.lookback + 1 + 4 + (1 if self.generalize_gamma else 0)

    @property
    def widths(self) -> tuple[int, ...]:
        return (self.input_width, *self.hidden, self.n_actions)

    def eval_episode_set(self) -> tuple[int, ...]:
        """Evenly spaced episodes that train the network and get checkpoints."""
        return tuple(range(self.eval_every, self.episodes + 1, self.eval_every))

    def validate(self) -> None:
        checks = [
            (self.reward in REWARD_COMPONENTS, "reward", f"must be one of {REWARD_COMPONENTS}"),
            (0.0 < self.gamma < 1.0, "gamma", "must be in (0, 1)"),
            (0.0 < self.gamma_range[0] <= self.gamma_range[1] < 1.0, "gamma_range", "must be within (0, 1)"),
            (0.0 < self.alpha <= 1.0, "alpha", "must be in (0, 1]"),
            (0.0 < self.tol < 1.0, "tol", "must be in (0, 1)"),
            (self.batchsize >= 1, "batchsize", "must be >= 1"),
            (self.k >= 0, "k", "must be >= 0"),
            (self.episodes >= 1, "episodes", "must be >= 1"),
            (self.eval_every >= 1, "eval_every", "must be >= 1"),
            (self.reward_window >= 1, "reward_window", "must be >= 1"),
            (self.lookback >= 1, "lookback", "must be >= 1"),
            (self.episode_len >= 1, "episode_len", "must be >= 1"),
            (0.0 <= self.fee < 1.0, "fee", "must be in [0, 1)"),
            (self.max_age >= 0, "max_age", "must be >= 0"),
            (all(h >= 1 for h in self.hidden), "hidden", "hidden widths must be >= 1"),
            (self.learn_rate > 0.0, "learn_rate", "must be > 0"),
            (0.0 <= self.momentum < 1.0, "momentum", "must be in [0, 1)"),
            (self.sync_period >= 1, "sync_period", "must be >= 1"),
            (self.eigen_floor > 0.0, "eigen_floor", "must be > 0"),
            (
                self.hindsight_action in (HINDSIGHT_RESAMPLE, HINDSIGHT_REPLAY),
                "hindsight_action",
                f"must be {HINDSIGHT_RESAMPLE} or {HINDSIGHT_REPLAY}",
            ),
            (self.seed >= 0, "seed", "must be >= 0"),
        ]
        for ok, key, reason in checks:
            if not ok:
                raise InvalidValue(key, reason)
        if self.pin_weights is not None:
            validate_weights(np.asarray(self.pin_weights, dtype=np.float64))


@dataclass
class Checkpoint:
    """Network snapshot for one evaluated episode plus its metrics."""

    episode: int
    net: QNetwork
    reports: dict[str, "evaluation.EvaluationReport"]
    path: Path | None = None


@dataclass
class TrainResult:
    net: QNetwork
    checkpoints: list[Checkpoint]
    replay: ReplayBuffer
    env_steps: int
    updates: int


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent named generators split deterministically from one seed."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {name: np.random.default_rng(child) for name, child in zip(STREAM_NAMES, children)}


def fold_seed(master_seed: int, fold_index: int) -> int:
    """Fresh master seed for one walk-forward fold."""
    return int(np.random.SeedSequence([master_seed, fold_index]).generate_state(1, dtype=np.uint64)[0])


def validate_weights(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (4,) or np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9:
        raise InvalidValue("weights", f"{w!r} is not on the unit 4-simplex")
    return w


def one_hot_weights(reward: str) -> np.ndarray:
    w = np.zeros(4)
    w[REWARD_INDEX[reward]] = 1.0
    return w


def uniform_weights() -> np.ndarray:
    return np.full(4, 0.25)


def eval_conditioning(
    cfg: TrainConfig, weights: Sequence[float] | None = None, gamma: float | None = None
) -> tuple[np.ndarray, float]:
    """The weights and gamma a greedy evaluation conditions on.

    An unset weight vector defaults to uniform weights for a multi-reward
    run and to the one-hot trained reward otherwise; an unset gamma to the
    midpoint of gamma_range when gamma is an input, else the fixed gamma.
    """
    if weights is None:
        weights = uniform_weights() if cfg.multi_reward else one_hot_weights(cfg.reward)
    if gamma is None:
        gamma = 0.5 * (cfg.gamma_range[0] + cfg.gamma_range[1]) if cfg.generalize_gamma else cfg.gamma
    return validate_weights(weights), gamma


def sample_weights(rng: np.random.Generator) -> np.ndarray:
    """Uniform draw on the 4-simplex via normalized exponential variates."""
    draws = rng.exponential(1.0, size=4)
    return draws / draws.sum()


def sample_gamma(rng: np.random.Generator, gamma_range: tuple[float, float]) -> float:
    lo, hi = gamma_range
    if lo == hi:
        return lo
    return float(rng.uniform(lo, hi))


def act_epsilon_greedy(
    net: QNetwork,
    state_features: np.ndarray,
    weights: np.ndarray,
    gamma: float,
    tol: float,
    rng: np.random.Generator,
    *,
    n_actions: int,
    include_gamma: bool,
) -> int:
    """Random action with probability tol, otherwise greedy (ties -> lowest id)."""
    if rng.uniform() < tol:
        return int(rng.integers(n_actions))
    q = net.forward(build_input(state_features, weights, gamma, include_gamma))
    return int(np.argmax(q))


def _scalar(weights: np.ndarray, vec: RewardVector) -> float:
    return float(weights[0] * vec.lr + weights[1] * vec.alr + weights[2] * vec.sr + weights[3] * vec.powc)


def augment_experiences(
    env: TradingEnv,
    state,
    state_features: np.ndarray,
    real_action: int,
    net: QNetwork,
    cfg: TrainConfig,
    rng: np.random.Generator,
) -> list[Experience]:
    """k counterfactual experiences from the same pre-step state.

    Each draws fresh (w', gamma'), picks an action (re-sampled epsilon-greedy
    under the new conditioning, or the real action when configured to
    replay), and evaluates the deterministic one-step outcome without
    advancing the real environment.
    """
    extras = []
    for _ in range(cfg.k):
        w = np.asarray(cfg.pin_weights, dtype=np.float64) if cfg.pin_weights is not None else sample_weights(rng)
        gamma = sample_gamma(rng, cfg.gamma_range) if cfg.generalize_gamma else cfg.gamma
        if cfg.hindsight_action == HINDSIGHT_RESAMPLE:
            action = act_epsilon_greedy(
                net, state_features, w, gamma, cfg.tol, rng,
                n_actions=cfg.n_actions, include_gamma=cfg.generalize_gamma,
            )
        else:
            action = real_action
        outcome = env.transition(state, action)
        extras.append(
            Experience(
                state=state_features,
                gamma=gamma,
                weights=w,
                raw_reward=outcome.reward,
                scalar_reward=_scalar(w, outcome.reward),
                action=action,
                next_state=env.state_features(outcome.next_state),
                terminal=outcome.done,
            )
        )
    return extras


def train(
    cfg: TrainConfig,
    series: PriceSeries,
    split: DataSplit,
    *,
    out_dir: str | Path | None = None,
    eval_weights: Sequence[float] | None = None,
    eval_gamma: float | None = None,
) -> TrainResult:
    """Run the full training loop over cfg.episodes episodes.

    Episodes in the evaluation set S (see eval_episode_set) perform one
    network update per step and produce a checkpoint with train/eval/test
    metrics; other episodes only collect experience.  When out_dir is given,
    checkpoints and a metrics.jsonl line per evaluated episode are written
    as the run progresses (plus wall-clock timings in timing.log, which is
    kept out of metrics.jsonl so reruns reproduce it bit-exactly).
    """
    cfg.validate()
    streams = rng_streams(cfg.seed)
    include_gamma = cfg.generalize_gamma

    net = QNetwork(cfg.widths, seed=streams["init"], momentum=cfg.momentum)
    target = TargetNetwork(net.clone())
    buffer = ReplayBuffer(cfg.max_age)
    env = TradingEnv(series, cfg.mode, lookback=cfg.lookback, reward_window=cfg.reward_window, fee=cfg.fee)

    eval_weights, eval_gamma = eval_conditioning(cfg, eval_weights, eval_gamma)

    single_w = None
    if cfg.pin_weights is not None:
        single_w = np.asarray(cfg.pin_weights, dtype=np.float64)
    elif not cfg.multi_reward:
        single_w = one_hot_weights(cfg.reward)

    out_path = Path(out_dir) if out_dir is not None else None
    metrics_fh = timing_fh = None
    if out_path is not None:
        out_path.mkdir(parents=True, exist_ok=True)
        metrics_fh = open(out_path / "metrics.jsonl", "w")
        timing_fh = open(out_path / "timing.log", "w")

    eval_set = set(cfg.eval_episode_set())
    checkpoints: list[Checkpoint] = []
    env_steps = updates = 0
    min_fit_len = max(cfg.batchsize, 2) if cfg.whiten else cfg.batchsize
    started = time.perf_counter()

    try:
        for episode in range(1, cfg.episodes + 1):
            state = env.reset(
                split.train,
                random_access=cfg.random_access,
                episode_len=cfg.episode_len if cfg.random_access else None,
                rng=streams["env"],
            )
            fitting = episode in eval_set
            while True:
                if single_w is not None:
                    w = single_w
                else:
                    w = sample_weights(streams["weights"])
                gamma = sample_gamma(streams["gamma"], cfg.gamma_range) if include_gamma else cfg.gamma
                feats = env.state_features(state)
                action = act_epsilon_greedy(
                    net, feats, w, gamma, cfg.tol, streams["explore"],
                    n_actions=cfg.n_actions, include_gamma=include_gamma,
                )
                outcome = env.step(action)
                env_steps += 1
                buffer.push(
                    Experience(
                        state=feats,
                        gamma=gamma,
                        weights=w,
                        raw_reward=outcome.reward,
                        scalar_reward=_scalar(w, outcome.reward),
                        action=action,
                        next_state=env.state_features(outcome.next_state),
                        terminal=outcome.done,
                    )
                )
                if cfg.multi_reward and cfg.k > 0:
                    for extra in augment_experiences(env, state, feats, action, net, cfg, streams["augment"]):
                        buffer.push(extra)

                if fitting and len(buffer) >= min_fit_len:
                    batch = buffer.sample_batch(cfg.batchsize, streams["batch"])
                    if cfg.whiten:
                        stats = compute_whitening(buffer, cfg.eigen_floor)
                        batch = whiten_batch(batch, stats)
                        if log.isEnabledFor(logging.DEBUG):
                            scalars = [exp.scalar_reward for exp in batch]
                            log.debug("minibatch whitened scalar variance: %.6f", float(np.var(scalars, ddof=1)))
                    inputs, targets = bellman_targets(batch, net, target, cfg.alpha, include_gamma=include_gamma)
                    net.fit_batch(inputs, targets, cfg.learn_rate)
                    updates += 1
                    buffer.advance_updates(1)
                    target.note_update()
                    sync_target(net, target, cfg.sync_period)

                state = outcome.next_state
                if outcome.done:
                    break

            if fitting:
                reports = evaluation.evaluate_split(
                    net, series, split,
                    weights=eval_weights, gamma=eval_gamma, mode=cfg.mode, fee=cfg.fee,
                    lookback=cfg.lookback, reward_window=cfg.reward_window,
                    include_gamma=include_gamma,
                )
                ck = Checkpoint(episode=episode, net=net.clone(), reports=reports)
                if out_path is not None:
                    ck.path = out_path / f"checkpoint_{episode}.bin"
                    save_checkpoint(
                        ck.path,
                        ck.net,
                        meta={
                            "episode": episode,
                            "mode": cfg.mode.value,
                            "generalize_gamma": include_gamma,
                            "lookback": cfg.lookback,
                            "reward_window": cfg.reward_window,
                        },
                    )
                    line = {
                        "episode": episode,
                        "env_steps": env_steps,
                        "updates": updates,
                        **{name: report.to_dict() for name, report in reports.items()},
                    }
                    metrics_fh.write(json.dumps(line) + "\n")
                    timing_fh.write(f"episode {episode}: {time.perf_counter() - started:.3f}s elapsed\n")
                checkpoints.append(ck)
    finally:
        if metrics_fh is not None:
            metrics_fh.close()
        if timing_fh is not None:
            timing_fh.close()

    return TrainResult(net=net, checkpoints=checkpoints, replay=buffer, env_steps=env_steps, updates=updates)
