"""In-memory span tracer that wraps moqtrader's public functions from outside.

Each wrapped name records one span (name, start, end, parent) per call.  A
module-level function is replaced in every moqtrader module that holds it,
so callers that imported it by name see the wrapper; a method is replaced
on its class.  A name that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

PACKAGE = "moqtrader"

# Extra counters: (args, kwargs, result) -> {metric name: value}.  A name
# ending in "_max" keeps the largest value of an operation, any other the sum.
Extra = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Layer:
    label: str
    module: str
    qualname: str  # "function" or "Class.method"
    extras: tuple[str, ...] = ()  # metric names that `extra` returns
    extra: Extra | None = None


def _rows(args, kwargs, result):
    x = args[1]
    return {"qnet.forward.rows": x.shape[0] if getattr(x, "ndim", 1) == 2 else 1}


def _file_bytes(args, kwargs, result):
    return {"qnet.save_checkpoint.bytes": Path(args[0]).stat().st_size}


LAYERS = (
    Layer("cli.main", "moqtrader.cli", "main"),
    Layer("config.parse_config", "moqtrader.config", "parse_config"),
    Layer("market_data.load_csv", "moqtrader.market_data", "load_csv", ("market_data.load_csv.rows",),
          lambda a, k, r: {"market_data.load_csv.rows": len(r)}),
    Layer("agent.train", "moqtrader.agent", "train"),
    Layer("agent.act_epsilon_greedy", "moqtrader.agent", "act_epsilon_greedy"),
    Layer("agent.augment_experiences", "moqtrader.agent", "augment_experiences"),
    Layer("env.transition", "moqtrader.env", "TradingEnv.transition"),
    Layer("env.state_features", "moqtrader.env", "TradingEnv.state_features"),
    Layer("rewards.reward_vector", "moqtrader.rewards", "reward_vector"),
    Layer("replay.push", "moqtrader.replay", "ReplayBuffer.push", ("replay.len_max",),
          lambda a, k, r: {"replay.len_max": len(a[0])}),
    Layer("replay.sample_batch", "moqtrader.replay", "ReplayBuffer.sample_batch"),
    Layer("replay.compute_whitening", "moqtrader.replay", "compute_whitening", ("replay.compute_whitening.rows",),
          lambda a, k, r: {"replay.compute_whitening.rows": len(a[0])}),
    Layer("replay.whiten_batch", "moqtrader.replay", "whiten_batch"),
    Layer("qnet.forward", "moqtrader.qnet", "QNetwork.forward", ("qnet.forward.rows",), _rows),
    Layer("qnet.fit_batch", "moqtrader.qnet", "QNetwork.fit_batch"),
    Layer("qnet.bellman_targets", "moqtrader.qnet", "bellman_targets"),
    Layer("qnet.save_checkpoint", "moqtrader.qnet", "save_checkpoint", ("qnet.save_checkpoint.bytes",), _file_bytes),
    Layer("qnet.load_checkpoint", "moqtrader.qnet", "load_checkpoint"),
    Layer("evaluation.evaluate_split", "moqtrader.evaluation", "evaluate_split"),
    Layer("evaluation.vectorized_rollout", "moqtrader.evaluation", "vectorized_rollout",
          ("evaluation.vectorized_rollout.steps",),
          lambda a, k, r: {"evaluation.vectorized_rollout.steps": len(r[1].positions)}),
    Layer("evaluation.run_policy", "moqtrader.evaluation", "run_policy", ("evaluation.run_policy.steps",),
          lambda a, k, r: {"evaluation.run_policy.steps": len(r[0].positions)}),
)


UNITS = {"calls": "count", "self_s": "s", "rows": "rows", "steps": "steps", "bytes": "bytes", "len_max": "entries"}


def layer_metric_names(layers=LAYERS) -> list[str]:
    names = []
    for layer in layers:
        names += [f"{layer.label}.calls", f"{layer.label}.self_s", *layer.extras]
    return names


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children (parent -1 = root)."""
    duration = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child], minlength=len(parent))
    return duration - covered


class Tracer:
    """Records spans of the wrapped layers while installed."""

    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.absent: list[str] = []
        self.absent_counters: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]
        self.counters: dict[str, float] = {}

    def reset(self) -> None:
        """Forget recorded spans and counters; installed wrappers keep recording."""
        for spans in (self.name, self.parent, self.start, self.end):
            spans.clear()
        self._stack[:] = [-1]
        self.counters.clear()

    def install(self) -> None:
        self.absent = []
        self.absent_counters = set()
        for index, layer in enumerate(self.layers):
            try:
                module = importlib.import_module(layer.module)
            except ImportError:
                self.absent.append(layer.label)
                continue
            owner_name, _, attr = layer.qualname.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(layer.label)
                continue
            wrapper = self._wrap(index, layer, original)
            if owner_name:
                self._patch(owner, attr, original, wrapper)
                continue
            for name, mod in list(sys.modules.items()):
                if name == PACKAGE or name.startswith(PACKAGE + "."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, original, wrapper) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, index: int, layer: Layer, fn):
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        extra = layer.extra

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if extra is not None:
                try:
                    values = extra(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The layer's signature or result changed shape: its
                    # counters are absent, the span itself is still recorded.
                    self.absent_counters.add(layer.label)
                else:
                    self._count(values)
            return result

        return wrapper

    def _count(self, values: dict) -> None:
        counters = self.counters
        for key, value in values.items():
            if key.endswith("_max"):
                counters[key] = max(counters.get(key, value), value)
            else:
                counters[key] = counters.get(key, 0) + value

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.asarray(self.name, dtype=np.int32),
            "parent": np.asarray(self.parent, dtype=np.int64),
            "start": np.asarray(self.start, dtype=np.float64),
            "end": np.asarray(self.end, dtype=np.float64),
        }

    def layer_metrics(self) -> dict[str, float]:
        """calls, self_s and extra counters of every layer over the recorded spans."""
        spans = self.arrays()
        own = self_times(spans["parent"], spans["start"], spans["end"])
        n = len(self.layers)
        calls = np.bincount(spans["name"], minlength=n)
        busy = np.bincount(spans["name"], weights=own, minlength=n)
        out = {}
        for index, layer in enumerate(self.layers):
            out[f"{layer.label}.calls"] = int(calls[index])
            out[f"{layer.label}.self_s"] = float(busy[index])
            for name in layer.extras:
                out[name] = self.counters.get(name, 0)
        return out

    def absent_metrics(self) -> list[str]:
        """Metric names whose layer, or whose extra counter, could not be recorded."""
        out = []
        for layer in self.layers:
            if layer.label in self.absent:
                out += layer_metric_names((layer,))
            elif layer.label in self.absent_counters:
                out += list(layer.extras)
        return out
