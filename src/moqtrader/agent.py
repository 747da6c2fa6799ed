"""Training loop: epsilon-greedy interaction, random weight/discount sampling,
hindsight augmentation with counterfactual experiences, checkpointing, and
the walk-forward driver that trains once per fold.

All randomness flows through named streams split from one master seed, so
toggling one feature (say, hindsight augmentation) cannot perturb another
stream's draws: the visited trajectory is invariant to k.
"""

from __future__ import annotations

import contextlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import evaluation
from .env import EnvState, Mode, TradingEnv
from .errors import Diverged, InvalidValue
from .market_data import DataSplit, IndexRange, PriceSeries
from .qnet import QNetwork, build_input, input_width, save_checkpoint
from .replay import ReplayBuffer, compute_whitening, scalar_rewards, whiten_rewards
from .rewards import REWARD_COMPONENTS, REWARD_INDEX

STREAM_NAMES = ("init", "env", "explore", "weights", "gamma", "batch",
                "augment", "augment_gamma", "augment_explore", "augment_action")  # the counterfactuals' draws, by kind

HINDSIGHT_RESAMPLE = "resample"
HINDSIGHT_REPLAY = "replay"
# Exploration entries of an experience besides a random action: act greedily, replay the real action.
GREEDY, REPLAYED = -1, -2
# Bounds that validation puts on a network's parameters, on k and on lookback and reward_window, before allocating.
MAX_PARAMS, MAX_K, MAX_WINDOW = 10**8, 10**4, 10**4


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
    def slots(self) -> int:
        """Experiences per step: the real one plus, in multi-reward runs, k counterfactuals."""
        return 1 + (self.k if self.multi_reward else 0)

    @property
    def widths(self) -> tuple[int, ...]:
        return (input_width(self.lookback, self.generalize_gamma), *self.hidden, self.mode.n_actions)

    @property
    def checkpoint_meta(self) -> dict:
        """The training geometry a checkpoint records and `backtest` checks, in the checkpoint's key order."""
        return {"mode": self.mode.value, "generalize_gamma": self.generalize_gamma,
                "lookback": self.lookback, "reward_window": self.reward_window}

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
            (0 <= self.k <= MAX_K, "k", f"must be in [0, {MAX_K}]"),
            (self.episodes >= 1, "episodes", "must be >= 1"),
            (self.eval_every >= 1, "eval_every", "must be >= 1"),
            (1 <= self.reward_window <= MAX_WINDOW, "reward_window", f"must be in [1, {MAX_WINDOW}]"),
            (1 <= self.lookback <= MAX_WINDOW, "lookback", f"must be in [1, {MAX_WINDOW}]"),
            (self.episode_len >= 1, "episode_len", "must be >= 1"),
            (0.0 <= self.fee < 1.0, "fee", "must be in [0, 1)"),
            (self.max_age >= 0, "max_age", "must be >= 0"),
            (all(h >= 1 for h in self.hidden), "hidden", "hidden widths must be >= 1"),
            (sum(a * b + b for a, b in zip(self.widths, self.widths[1:])) <= MAX_PARAMS, "hidden",
             f"the network must have at most {MAX_PARAMS} parameters"),
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
            *((math.isfinite(getattr(self, key)), key, "must be finite") for key in ("learn_rate", "eigen_floor")),
        ]
        for ok, key, reason in checks:
            if not ok:
                raise InvalidValue(key, reason)
        if self.pin_weights is not None:
            validate_weights(self.pin_weights, key="pin_weights")


@dataclass
class Checkpoint:
    """Network snapshot for one evaluated episode plus its metrics."""

    episode: int
    net: QNetwork
    reports: dict[str, "evaluation.EvaluationReport"]
    path: Path | None = None


@dataclass
class TrainResult:
    """A training run: what the episode runners share and advance, and the checkpoints `train` takes."""

    cfg: TrainConfig
    streams: dict[str, np.random.Generator]
    net: QNetwork
    target: QNetwork
    env: TradingEnv
    replay: ReplayBuffer
    checkpoints: list[Checkpoint] = field(default_factory=list)
    env_steps: int = 0
    updates: int = 0
    episode: int = 0


def rng_streams(seed: int) -> dict[str, np.random.Generator]:
    """Independent named generators split deterministically from one seed."""
    children = np.random.SeedSequence(seed).spawn(len(STREAM_NAMES))
    return {name: np.random.default_rng(child) for name, child in zip(STREAM_NAMES, children)}


def fold_seed(master_seed: int, fold_index: int) -> int:
    """Fresh master seed for one walk-forward fold."""
    return int(np.random.SeedSequence([master_seed, fold_index]).generate_state(1, dtype=np.uint64)[0])


def validate_weights(w: Sequence[float], key: str = "weights") -> np.ndarray:
    """w as a float64 array; InvalidValue(key) unless it lies on the unit 4-simplex."""
    w = np.asarray(w, dtype=np.float64)
    if not (w.shape == (4,) and np.all(w >= 0) and abs(float(w.sum()) - 1.0) <= 1e-9):
        raise InvalidValue(key, "must lie on the unit 4-simplex")
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


def training_weights(cfg: TrainConfig) -> np.ndarray | None:
    """The fixed weights of a pinned or single-reward run; None when each step draws its own."""
    if cfg.pin_weights is not None:
        return np.asarray(cfg.pin_weights, dtype=np.float64)
    return None if cfg.multi_reward else one_hot_weights(cfg.reward)


def sample_weights(rng: np.random.Generator, n: int | tuple[int, ...]) -> np.ndarray:
    """An array of shape n of uniform draws on the 4-simplex, via normalized exponential variates."""
    draws = rng.exponential(1.0, size=(*np.atleast_1d(n), 4))
    return draws / draws.sum(axis=-1, keepdims=True)


def sample_gamma(rng: np.random.Generator, gamma_range: tuple[float, float], n: int | tuple[int, ...]) -> np.ndarray:
    """An array of shape n of discounts uniform on gamma_range; a one-point range draws nothing."""
    lo, hi = gamma_range
    if lo == hi:
        return np.full(n, lo)
    return lo + (hi - lo) * rng.random(n)


def draw_conditioning(cfg: TrainConfig, streams: dict, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights (n, m, 4), gammas (n, m) and exploration entries (n, m) of n steps' m experiences.

    Slot 0 is the real experience: one call each for weights and gamma, step by
    step for explore, whose decisions and random actions interleave.  Slots 1..k,
    its counterfactuals, take one array call per draw kind, each on its own stream.
    """
    m, n_actions, fixed = cfg.slots, cfg.mode.n_actions, training_weights(cfg)
    weights, gamma, explore = np.empty((n, m, 4)), np.full((n, m), cfg.gamma), np.full((n, m), REPLAYED)
    weights[:, 0] = fixed if fixed is not None else sample_weights(streams["weights"], n)
    if cfg.generalize_gamma:
        gamma[:, 0] = sample_gamma(streams["gamma"], cfg.gamma_range, n)
    random, integers = streams["explore"].random, streams["explore"].integers  # a random action with probability tol
    explore[:, 0] = [integers(n_actions) if random() < cfg.tol else GREEDY for _ in range(n)]
    if m > 1:  # single-reward and k = 0 runs call nothing on the augment streams
        cf = (n, m - 1)
        weights[:, 1:] = cfg.pin_weights if cfg.pin_weights is not None else sample_weights(streams["augment"], cf)
        if cfg.generalize_gamma:
            gamma[:, 1:] = sample_gamma(streams["augment_gamma"], cfg.gamma_range, cf)
        if cfg.hindsight_action == HINDSIGHT_RESAMPLE:
            explored = streams["augment_explore"].random(cf) < cfg.tol
            explore[:, 1:] = np.where(explored, streams["augment_action"].integers(n_actions, size=cf), GREEDY)
    return weights, gamma, explore


def _reset(run: TrainResult, range_: IndexRange) -> EnvState:
    """The next training episode over range_, reset on the env stream."""
    episode_len = run.cfg.episode_len if run.cfg.random_access else None
    return run.env.reset(range_, episode_len=episode_len, rng=run.streams["env"])


def _fit_episode(run: TrainResult, state: EnvState) -> None:
    """The episode from its start state, one step at a time, fitting the network after every step.

    One forward over a step's m rows, built into one buffer, gives the greedy
    choices of its real and counterfactual experiences, made only when one of
    them acts greedily.
    """
    cfg, env, buffer, net = run.cfg, run.env, run.replay, run.net
    lo, n = state.cursor - cfg.lookback, state.end - state.cursor - 1  # its first window row and its steps
    weights, gamma, explore = draw_conditioning(cfg, run.streams, n)
    rows = np.empty((weights.shape[1], cfg.widths[0]))
    min_fit_len = max(cfg.batchsize, 2) if cfg.whiten else cfg.batchsize
    for t, codes in enumerate(explore.tolist()):
        if GREEDY in codes:
            build_input(env.windows[lo + t], weights[t], gamma[t], cfg.generalize_gamma, state.position.value,
                        out=rows)
            greedy = net.forward(rows).argmax(axis=1).tolist()
            codes = [a if code == GREEDY else code for code, a in zip(codes, greedy)]
        actions = [codes[0] if code == REPLAYED else code for code in codes]
        outcomes = {a: env.transition(state, a) for a in set(actions)}
        buffer.push({"cursor": state.cursor, "position": state.position, "action": actions, "gamma": gamma[t],
                     "weights": weights[t], "reward": [outcomes[a].reward for a in actions],
                     "terminal": outcomes[actions[0]].done})
        run.env_steps += 1
        if len(buffer) >= min_fit_len:
            batch = buffer.sample_batch(cfg.batchsize, run.streams["batch"], cfg.generalize_gamma)
            rewards = whiten_rewards(batch, compute_whitening(buffer, cfg.eigen_floor)) if cfg.whiten else scalar_rewards(batch)
            loss = net.td_update(run.target, batch, rewards, alpha=cfg.alpha, learn_rate=cfg.learn_rate)
            if not math.isfinite(loss):
                raise Diverged(f"non-finite loss at update {run.updates + 1}, in episode {run.episode}")
            run.updates += 1
            buffer.advance_updates(1)
            if run.updates % cfg.sync_period == 0:
                run.target.copy_params_from(net)
        state = outcomes[actions[0]].next_state


def _frozen_stretch(run: TrainResult, range_: IndexRange, episodes: int) -> None:
    """`episodes` consecutive episodes of the frozen network over range_ in arrays, with the step loop's replay rows.

    Chunks of them (at least one episode, at most env.steps_in(range_) rows of
    steps x m) take one `draw_conditioning`, since each draw kind has its own
    stream, one `outcomes` call and one push.  `evaluation.walk_rounds` walks
    the real experiences with slot 0's exploration entries forced, and a
    greedy counterfactual is chosen at the position its step starts from, all
    through one `evaluation.greedy_chooser`.  Under fixed conditioning (pinned
    or single-reward weights, one gamma) a row depends only on (cursor,
    position), so one chooser over range_'s rows, built on the first chunk's
    draw, serves every chunk and slot; under drawn conditioning each chunk
    builds one over its rows, index t * m + slot.
    """
    cfg, env, lookback = run.cfg, run.env, run.cfg.lookback
    fixed = training_weights(cfg) is not None and (not cfg.generalize_gamma or cfg.gamma_range[0] == cfg.gamma_range[1])
    n = cfg.episode_len if cfg.random_access else env.steps_in(range_)  # steps per episode
    m, where = cfg.slots, f"train range {list(range_)}"
    per_chunk = max(1, env.steps_in(range_) // max(n * m, 1))  # a range of no step fails at its reset
    for done in range(0, episodes, per_chunk):
        cursors = np.array([_reset(run, range_).cursor for _ in range(min(per_chunk, episodes - done))])
        windows = np.add.outer(cursors - lookback, np.arange(n)).ravel()  # each step's row of env.windows
        weights, gamma, explore = draw_conditioning(cfg, run.streams, len(windows))
        if not fixed:  # one chooser per chunk, over its (step, slot) rows
            choose, _ = evaluation.greedy_chooser(run.net, env, np.repeat(windows, m), weights.reshape(-1, 4),
                                                  gamma.ravel(), cfg.generalize_gamma, where)
        elif not done:  # one for the stretch, over range_'s rows
            choose, _ = evaluation.greedy_chooser(run.net, env, range_[0] + np.arange(env.steps_in(range_)),
                                                  weights[0, 0], gamma[0, 0], cfg.generalize_gamma, where)
        index = np.repeat(windows[:, None] - range_[0], m, 1) if fixed else np.arange(len(windows) * m).reshape(-1, m)
        actions, before = evaluation.walk_rounds(env, n, lambda t, j: choose(index[t, 0], j), explore[:, 0])
        taken = np.where(explore == REPLAYED, actions[:, None], explore)
        taken[:, 0] = actions
        t, slot = np.nonzero(taken == GREEDY)
        taken[t, slot] = choose(index[t, slot], before[t])
        _, rewards = env.outcomes(cursors, taken.reshape(len(cursors), n, m))
        run.replay.push({
            "cursor": np.repeat(windows + lookback, m),
            "position": np.repeat(env.target_signs[before], m),
            "action": taken.ravel(),
            "gamma": gamma.ravel(),
            "weights": weights.reshape(-1, 4),
            "reward": rewards.reshape(-1, 4),
            "terminal": np.repeat(np.arange(len(windows)) % n == n - 1, m),
        })
        run.env_steps += len(windows)


class _RunWriter:
    """A run's checkpoints, metrics.jsonl and timing.log (none without an out_dir).

    Line-buffered logs keep every evaluated episode through a crash; wall-clock
    times stay out of metrics.jsonl, so reruns reproduce it.
    """

    def __init__(self, out_dir: str | Path | None, cfg: TrainConfig, files: contextlib.ExitStack):
        self.path, self.started = (None if out_dir is None else Path(out_dir)), time.perf_counter()
        self.meta = cfg.checkpoint_meta
        if self.path is not None:
            self.path.mkdir(parents=True, exist_ok=True)
            self.metrics = files.enter_context(open(self.path / "metrics.jsonl", "w", buffering=1))
            self.timing = files.enter_context(open(self.path / "timing.log", "w", buffering=1))

    def write(self, ck: Checkpoint, env_steps: int, updates: int) -> None:
        if self.path is None:
            return
        ck.path = self.path / f"checkpoint_{ck.episode}.bin"
        save_checkpoint(ck.path, ck.net, meta={"episode": ck.episode, **self.meta})
        reports = {name: report.to_dict() for name, report in ck.reports.items()}
        self.metrics.write(json.dumps({"episode": ck.episode, "env_steps": env_steps, "updates": updates, **reports}) + "\n")
        self.timing.write(f"episode {ck.episode}: {time.perf_counter() - self.started:.3f}s elapsed\n")


def train(
    cfg: TrainConfig, series: PriceSeries, split: DataSplit, *, out_dir: str | Path | None = None,
    eval_weights: Sequence[float] | None = None, eval_gamma: float | None = None,
) -> TrainResult:
    """Run the full training loop over cfg.episodes episodes.

    Episodes in the evaluation set S (see eval_episode_set) perform one
    network update per step and produce a checkpoint with train/eval/test
    metrics; other episodes only collect experience, with the network
    frozen, so they run as batched rollouts.  When out_dir is given,
    checkpoints and a metrics.jsonl line per evaluated episode are written
    as the run progresses (plus wall-clock timings in timing.log).
    """
    cfg.validate()
    streams = rng_streams(cfg.seed)
    net = QNetwork(cfg.widths, seed=streams["init"], momentum=cfg.momentum)
    env = TradingEnv(series, cfg.mode, lookback=cfg.lookback, reward_window=cfg.reward_window, fee=cfg.fee)
    run = TrainResult(cfg, streams, net, net.clone(), env, ReplayBuffer(cfg.max_age, env))
    eval_weights, eval_gamma = eval_conditioning(cfg, eval_weights, eval_gamma)

    with contextlib.ExitStack() as files:
        writer = _RunWriter(out_dir, cfg, files)
        fitted = cfg.eval_episode_set()
        for last, episode in zip((0, *fitted), (*fitted, cfg.episodes + 1)):
            _frozen_stretch(run, split.train, episode - last - 1)
            if episode > cfg.episodes:
                break
            run.episode = episode
            _fit_episode(run, _reset(run, split.train))
            reports = evaluation.evaluate_split(net, env, split, weights=eval_weights, gamma=eval_gamma,
                                                include_gamma=cfg.generalize_gamma)
            ck = Checkpoint(episode=episode, net=net.clone(), reports=reports)
            writer.write(ck, run.env_steps, run.updates)
            run.checkpoints.append(ck)
    return run


@dataclass(frozen=True)
class FoldResult:
    fold: int
    seed: int
    best_episode: int
    reports: dict[str, "evaluation.EvaluationReport"]

    def to_dict(self) -> dict:
        return {**asdict(self), "reports": {name: r.to_dict() for name, r in self.reports.items()}}


def run_walk_forward(
    cfg: TrainConfig, series: PriceSeries, folds: Sequence[DataSplit], *,
    eval_weights: Sequence[float] | None = None, eval_gamma: float | None = None, metric: str = "sharpe",
) -> list[FoldResult]:
    """Train independently per fold and report the best checkpoint's metrics.

    Fold k trains with a fresh seed derived from the master seed and the
    fold index, selects its best checkpoint on the fold's eval range, and
    reports that network on all three ranges.
    """
    results = []
    for index, split in enumerate(folds):
        seed = fold_seed(cfg.seed, index)
        outcome = train(replace(cfg, seed=seed), series, split, eval_weights=eval_weights, eval_gamma=eval_gamma)
        best = evaluation.select_best_checkpoint(outcome.checkpoints, metric=metric, range_id="eval")
        results.append(FoldResult(fold=index, seed=seed, best_episode=best.episode, reports=best.reports))
    return results
