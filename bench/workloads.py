"""The benchmark's workloads: the inputs each one generates from its seed, the
command line of one operation, and the checks run on every operation's outputs.

A workload has ``make_inputs(seed, workdir)``, ``argv()`` (one call of
``moqtrader.cli.main``), ``before_op()`` (removes the previous operation's
outputs, untimed) and ``check()``, which returns the environment steps of
the operation just run and every failed check.  The checks compare the
outputs with the reference evaluator, closed forms and counts derived from
the generated config, never with stored copies of earlier output.
"""

from __future__ import annotations

import json
import math
import shutil
from pathlib import Path

import numpy as np

import reference

# Relative tolerance of float comparisons against the reference; the absolute
# floor only matters for values within 1e-12 of zero.
REL_TOL = 1e-9
ABS_TOL = 1e-12

# Criterion 8's single-objective configuration, one seed and 100 episodes.
SO_TRAIN = {
    "synthetic_kind": "sine", "synthetic_length": 5000, "synthetic_period": 50, "synthetic_amplitude": 0.1,
    "mode": "LSP", "multi_reward": False, "reward": "lr", "k": 0,
    "episodes": 100, "eval_every": 50, "episode_len": 200, "random_access": True,
    "lookback": 30, "reward_window": 20, "batchsize": 64, "max_age": 2000,
    "hidden": [128, 64], "learn_rate": 0.1, "tol": 0.3, "sync_period": 100, "gamma": 0.95,
}
# The same market and network with the paper's multi-objective training:
# LP, hindsight k = 3, whitening, discount generalization, 30 episodes.
MO_TRAIN = {
    "synthetic_kind": "sine", "synthetic_length": 5000, "synthetic_period": 50, "synthetic_amplitude": 0.1,
    "mode": "LP", "multi_reward": True, "k": 3, "whiten": True, "generalize_gamma": True,
    "episodes": 30, "eval_every": 15, "episode_len": 200, "random_access": True,
    "lookback": 30, "reward_window": 20, "batchsize": 64, "max_age": 2000,
    "hidden": [128, 64], "learn_rate": 0.1, "tol": 0.3, "sync_period": 100,
}

BACKTEST_ROWS = 25_000
BACKTEST_CHECKPOINTS = 8
BACKTEST_STEP_STD = 0.01
BACKTEST = {
    "mode": "LSP", "multi_reward": True, "generalize_gamma": True, "lookback": 30, "reward_window": 20,
    "hidden": [128, 64], "fee": 0.0003, "report_metric": "sharpe", "eval_range": "test",
}
DEFAULT_GAMMA_RANGE = (0.5, 0.999)


def write_config(path: Path, values: dict) -> None:
    path.write_text("".join(f"{key} = {json.dumps(value)}\n" for key, value in values.items()))


def eval_conditioning(cfg: dict) -> tuple[list[float], float | None]:
    """The documented evaluation defaults: weights, and gamma when it is a network input."""
    if "eval_weights" in cfg:
        weights = list(cfg["eval_weights"])
    elif cfg.get("multi_reward", True):
        weights = [0.25] * 4
    else:
        weights = [1.0 if name == cfg.get("reward", "lr") else 0.0 for name in ("lr", "alr", "sr", "powc")]
    if not cfg.get("generalize_gamma", False):
        return weights, None
    lo, hi = cfg.get("gamma_range", DEFAULT_GAMMA_RANGE)
    return weights, 0.5 * (lo + hi)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def compare_report(where: str, report: dict, expected: reference.Rollout) -> list[str]:
    problems = []
    for field in ("total_profit", "sharpe", "long_exposure"):
        if not close(report[field], getattr(expected, field)):
            problems.append(f"{where}: {field} {report[field]!r} != reference {getattr(expected, field)!r}")
    if report["trades"] != expected.trades:
        problems.append(f"{where}: trades {report['trades']} != reference {expected.trades}")
    return problems


def check_range(where: str, report: dict, range_: tuple[int, int], close_prices, cfg: dict) -> list[str]:
    problems = []
    if tuple(report["range"]) != range_:
        problems.append(f"{where}: range {report['range']} != {list(range_)}")
    bh = reference.buy_and_hold_profit(close_prices, range_, lookback=cfg["lookback"], fee=cfg.get("fee", 0.0))
    if not close(report["buy_and_hold_profit"], bh):
        problems.append(f"{where}: buy_and_hold_profit {report['buy_and_hold_profit']!r} != closed form {bh!r}")
    return problems


class TrainWorkload:
    def __init__(self, cfg: dict):
        self.base_cfg = cfg
        self.first_metrics: bytes | None = None

    def make_inputs(self, seed: int, workdir: Path) -> None:
        self.cfg = {**self.base_cfg, "seed": int(np.random.default_rng(seed).integers(2**31))}
        self.config_path = workdir / "train.cfg"
        self.out = workdir / "out"
        workdir.mkdir(parents=True, exist_ok=True)
        write_config(self.config_path, self.cfg)

    def argv(self) -> list[str]:
        return ["train", "--config", str(self.config_path), "--out", str(self.out)]

    def before_op(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)

    def _expected_updates(self) -> dict[int, int]:
        cfg = self.cfg
        multi = cfg.get("multi_reward", True)
        return reference.updates_by_episode(
            episodes=cfg["episodes"], eval_every=cfg["eval_every"], episode_len=cfg["episode_len"],
            per_step=1 + (cfg["k"] if multi else 0), batchsize=cfg["batchsize"],
            whiten=cfg.get("whiten", True), max_age=cfg["max_age"],
        )

    def check(self) -> tuple[int, list[str]]:
        cfg = self.cfg
        raw = (self.out / "metrics.jsonl").read_bytes()
        lines = [json.loads(line) for line in raw.decode().splitlines()]
        prices = reference.sine_close(
            cfg["synthetic_length"], base=100.0, amplitude=cfg["synthetic_amplitude"], period=cfg["synthetic_period"],
        )
        ranges = reference.split_ranges(len(prices))
        weights, gamma = eval_conditioning(cfg)
        updates = self._expected_updates()
        problems = []

        if self.first_metrics is None:
            self.first_metrics = raw
        elif raw != self.first_metrics:
            problems.append("metrics.jsonl differs from the first operation's")
        episodes = [line["episode"] for line in lines]
        if episodes != sorted(updates):
            problems.append(f"evaluated episodes {episodes} != {sorted(updates)}")
        checkpoints = sorted(p.name for p in self.out.glob("checkpoint_*.bin"))
        if checkpoints != sorted(f"checkpoint_{e}.bin" for e in updates):
            problems.append(f"checkpoint files {checkpoints} != one per evaluated episode")

        for line in lines:
            episode = line["episode"]
            where = f"episode {episode}"
            if line["env_steps"] != episode * cfg["episode_len"]:
                problems.append(f"{where}: env_steps {line['env_steps']} != {episode} x {cfg['episode_len']}")
            if line["updates"] != updates.get(episode):
                problems.append(f"{where}: updates {line['updates']} != derived {updates.get(episode)}")
            for name, range_ in ranges.items():
                problems += check_range(f"{where} {name}", line[name], range_, prices, cfg)
            path = self.out / f"checkpoint_{episode}.bin"
            if path.exists():
                layers, _ = reference.read_checkpoint(path)
                expected = reference.greedy_rollout(
                    layers, prices, ranges["test"], mode=cfg["mode"], lookback=cfg["lookback"],
                    weights=weights, gamma=gamma, fee=cfg.get("fee", 0.0),
                )
                problems += compare_report(f"{where} test", line["test"], expected)
        return (lines[-1]["env_steps"] if lines else 0), problems


class BacktestWorkload:
    def __init__(self):
        self.first_report: bytes | None = None
        self.expected: tuple[int, reference.Rollout] | None = None

    def make_inputs(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.runs = workdir / "run"
        self.runs.mkdir(exist_ok=True)
        self.csv = workdir / "prices.csv"

        steps = BACKTEST_STEP_STD * rng.standard_normal(BACKTEST_ROWS - 1)
        self.prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(steps))))
        epoch = 1_600_000_000 + 3600 * np.arange(BACKTEST_ROWS, dtype=np.int64)
        with open(self.csv, "w") as fh:
            fh.write("timestamp,close\n")
            fh.writelines(f"{t},{p!r}\n" for t, p in zip(epoch.tolist(), self.prices.tolist()))

        weights = rng.dirichlet(np.ones(4))
        self.cfg = {**BACKTEST, "data_csv": str(self.csv), "eval_weights": [float(w) for w in weights]}
        self.config_path = workdir / "backtest.cfg"
        write_config(self.config_path, self.cfg)

        lookback = self.cfg["lookback"]
        widths = [lookback + 1 + 4 + 1, *self.cfg["hidden"], len(reference.TARGETS[self.cfg["mode"]])]
        for i in range(BACKTEST_CHECKPOINTS):
            episode = 25 * (i + 1)
            arrays = {}
            for layer, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):
                bound = 1.0 / math.sqrt(fan_in)
                arrays[f"w{layer}"] = rng.uniform(-bound, bound, size=(fan_in, fan_out))
                arrays[f"b{layer}"] = rng.uniform(-bound, bound, size=fan_out)
            # Scale the return inputs to unit size, so that the policies trade.
            arrays["w0"][:lookback] /= BACKTEST_STEP_STD
            header = {
                "version": 1, "widths": widths, "momentum": 0.0,
                "meta": {"episode": episode, "mode": self.cfg["mode"], "generalize_gamma": True,
                         "lookback": lookback, "reward_window": self.cfg["reward_window"]},
            }
            with open(self.runs / f"checkpoint_{episode}.bin", "wb") as fh:
                np.savez(fh, header=np.array(json.dumps(header)), **arrays)

        # Every checkpoint is evaluated on all three ranges, then the best one on eval_range.
        per_range = {name: hi - lo - lookback - 1 for name, (lo, hi) in reference.split_ranges(BACKTEST_ROWS).items()}
        self.steps = BACKTEST_CHECKPOINTS * sum(per_range.values()) + per_range[self.cfg["eval_range"]]

    def argv(self) -> list[str]:
        return ["backtest", "--config", str(self.config_path), "--out", str(self.runs),
                "--metric", "sharpe", "--range", self.cfg["eval_range"]]

    def before_op(self) -> None:
        (self.runs / "report.json").unlink(missing_ok=True)

    def _reference(self) -> tuple[int, reference.Rollout]:
        """Best checkpoint by eval-range Sharpe (ties: earliest episode) and its rollout."""
        cfg = self.cfg
        weights, gamma = eval_conditioning(cfg)
        ranges = reference.split_ranges(len(self.prices))
        kwargs = dict(mode=cfg["mode"], lookback=cfg["lookback"], weights=weights, gamma=gamma, fee=cfg["fee"])
        candidates = []
        for path in self.runs.glob("checkpoint_*.bin"):
            layers, meta = reference.read_checkpoint(path)
            candidates.append((meta["episode"], layers))
        candidates.sort(key=lambda c: c[0])
        best_episode, best_layers, best_sharpe = None, None, -math.inf
        for episode, layers in candidates:
            value = reference.greedy_rollout(layers, self.prices, ranges["eval"], **kwargs).sharpe
            if value > best_sharpe:
                best_episode, best_layers, best_sharpe = episode, layers, value
        rollout = reference.greedy_rollout(best_layers, self.prices, ranges[cfg["eval_range"]], **kwargs)
        return best_episode, rollout

    def check(self) -> tuple[int, list[str]]:
        raw = (self.runs / "report.json").read_bytes()
        payload = json.loads(raw)
        if self.expected is None:
            self.expected = self._reference()
        episode, rollout = self.expected
        problems = []
        if self.first_report is None:
            self.first_report = raw
        elif raw != self.first_report:
            problems.append("report.json differs from the first operation's")
        if payload["episode"] != episode or Path(payload["checkpoint"]).name != f"checkpoint_{episode}.bin":
            problems.append(f"selected {payload['checkpoint']} (episode {payload['episode']}), "
                            f"reference selects episode {episode}")
        range_ = reference.split_ranges(len(self.prices))[self.cfg["eval_range"]]
        problems += check_range("report", payload["report"], range_, self.prices, self.cfg)
        problems += compare_report("report", payload["report"], rollout)
        return self.steps, problems


WORKLOADS = {
    "mo_train": lambda: TrainWorkload(MO_TRAIN),
    "so_train": lambda: TrainWorkload(SO_TRAIN),
    "backtest": BacktestWorkload,
}
