"""Feed-forward Q-value approximator over (state, weights, gamma) inputs.

A plain float64 MLP with rectifier hidden layers, trained by SGD (optional
momentum) on mean-squared error against Bellman targets.  Everything is
deterministic under the seeds it is given.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import ShapeMismatch
from .replay import Experience

CHECKPOINT_VERSION = 1


class QNetwork:
    """MLP mapping an input vector to one value per action.

    Hidden layers use max(0, .) activations; the output layer is affine.
    Parameters are initialized uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)].
    """

    def __init__(self, widths: Sequence[int], seed: int | np.random.Generator = 0, momentum: float = 0.0):
        widths = [int(w) for w in widths]
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError(f"bad layer widths {widths}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.widths = widths
        self.momentum = momentum
        rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        self.weights: list[np.ndarray] = []
        self.biases: list[np.ndarray] = []
        for fan_in, fan_out in zip(widths, widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            self.weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            self.biases.append(rng.uniform(-bound, bound, size=fan_out))
        self._vel_w = [np.zeros_like(w) for w in self.weights]
        self._vel_b = [np.zeros_like(b) for b in self.biases]

    @property
    def input_width(self) -> int:
        return self.widths[0]

    @property
    def output_width(self) -> int:
        return self.widths[-1]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values for one input vector or a batch of them."""
        x = np.asarray(x, dtype=np.float64)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.input_width:
            raise ShapeMismatch(f"input shape {x.shape} vs expected (*, {self.input_width})")
        # In-place bias and rectifier: the same arithmetic as h @ w + b, with
        # one temporary per layer instead of three.
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
        out = h @ self.weights[-1]
        out += self.biases[-1]
        return out[0] if single else out

    def _forward_cached(self, x: np.ndarray) -> list[np.ndarray]:
        acts = [x]
        h = x
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            h = np.maximum(h @ w + b, 0.0)
            acts.append(h)
        acts.append(h @ self.weights[-1] + self.biases[-1])
        return acts

    def loss(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """Mean-squared error over all batch entries and actions."""
        pred = self.forward(inputs)
        return float(np.mean((pred - targets) ** 2))

    def gradients(self, inputs: np.ndarray, targets: np.ndarray) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
        """Backprop: returns (loss, dL/dW per layer, dL/db per layer)."""
        x = np.asarray(inputs, dtype=np.float64)
        t = np.asarray(targets, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_width:
            raise ShapeMismatch(f"input shape {x.shape} vs expected (*, {self.input_width})")
        if t.shape != (x.shape[0], self.output_width):
            raise ShapeMismatch(f"target shape {t.shape} vs expected ({x.shape[0]}, {self.output_width})")
        acts = self._forward_cached(x)
        pred = acts[-1]
        loss = float(np.mean((pred - t) ** 2))
        delta = 2.0 * (pred - t) / pred.size
        grads_w: list[np.ndarray] = [None] * len(self.weights)  # type: ignore[list-item]
        grads_b: list[np.ndarray] = [None] * len(self.biases)  # type: ignore[list-item]
        for layer in range(len(self.weights) - 1, -1, -1):
            grads_w[layer] = acts[layer].T @ delta
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ self.weights[layer].T) * (acts[layer] > 0.0)
        return loss, grads_w, grads_b

    def fit_batch(self, inputs: np.ndarray, targets: np.ndarray, learn_rate: float) -> float:
        """One SGD step on the batch; returns the pre-step loss."""
        loss, grads_w, grads_b = self.gradients(inputs, targets)
        for i in range(len(self.weights)):
            self._vel_w[i] = self.momentum * self._vel_w[i] - learn_rate * grads_w[i]
            self._vel_b[i] = self.momentum * self._vel_b[i] - learn_rate * grads_b[i]
            self.weights[i] += self._vel_w[i]
            self.biases[i] += self._vel_b[i]
        return loss

    def clone(self) -> "QNetwork":
        other = QNetwork.__new__(QNetwork)
        other.widths = list(self.widths)
        other.momentum = self.momentum
        other.weights = [w.copy() for w in self.weights]
        other.biases = [b.copy() for b in self.biases]
        other._vel_w = [v.copy() for v in self._vel_w]
        other._vel_b = [v.copy() for v in self._vel_b]
        return other

    def copy_params_from(self, other: "QNetwork") -> None:
        if other.widths != self.widths:
            raise ShapeMismatch(f"widths {other.widths} vs {self.widths}")
        for mine, theirs in zip(self.weights, other.weights):
            mine[...] = theirs
        for mine, theirs in zip(self.biases, other.biases):
            mine[...] = theirs

    def params_equal(self, other: "QNetwork") -> bool:
        return self.widths == other.widths and all(
            np.array_equal(a, b) for a, b in zip(self.weights + self.biases, other.weights + other.biases)
        )


@dataclass
class TargetNetwork:
    """Lag-synchronized parameter snapshot of the online network."""

    net: QNetwork
    staleness: int = 0

    def note_update(self) -> None:
        self.staleness += 1


def sync_target(net: QNetwork, target: TargetNetwork, period: int) -> TargetNetwork:
    """Hard-copy the online parameters once staleness reaches the period."""
    if period < 1:
        raise ValueError("sync period must be >= 1")
    if target.staleness >= period:
        target.net.copy_params_from(net)
        target.staleness = 0
    return target


def build_input(state: np.ndarray, weights: np.ndarray, gamma: float, include_gamma: bool) -> np.ndarray:
    """Assemble one network input row: features, weight vector, optional gamma."""
    if include_gamma:
        return np.concatenate((state, weights, (gamma,)))
    return np.concatenate((state, weights))


def build_batch_inputs(batch: Sequence[Experience], include_gamma: bool, next_state: bool = False) -> np.ndarray:
    rows = [
        build_input(exp.next_state if next_state else exp.state, exp.weights, exp.gamma, include_gamma)
        for exp in batch
    ]
    return np.stack(rows)


def bellman_targets(
    batch: Sequence[Experience],
    net: QNetwork,
    target: TargetNetwork,
    alpha: float,
    *,
    include_gamma: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-example regression targets for one update.

    For the taken action the target blends the current estimate with the
    one-step return, (1-alpha)*Q(s)[a] + alpha*(r + gamma*max Q_target(s'));
    terminal transitions drop the bootstrap term.  Non-taken actions keep
    the current outputs so they receive no gradient pressure.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    inputs = build_batch_inputs(batch, include_gamma)
    next_inputs = build_batch_inputs(batch, include_gamma, next_state=True)
    q_now = net.forward(inputs)
    q_next = target.net.forward(next_inputs).max(axis=1)
    targets = q_now.copy()
    rows = np.arange(len(batch))
    actions = np.array([exp.action for exp in batch])
    rewards = np.array([exp.scalar_reward for exp in batch])
    gammas = np.array([exp.gamma for exp in batch])
    live = np.array([0.0 if exp.terminal else 1.0 for exp in batch])
    returns = rewards + live * gammas * q_next
    targets[rows, actions] = (1.0 - alpha) * q_now[rows, actions] + alpha * returns
    return inputs, targets


def save_checkpoint(path: str | Path, net: QNetwork, meta: dict | None = None) -> None:
    """Write a versioned binary checkpoint; float64 params round-trip exactly."""
    payload = {
        "version": CHECKPOINT_VERSION,
        "widths": net.widths,
        "momentum": net.momentum,
        "meta": meta or {},
    }
    arrays = {f"w{i}": w for i, w in enumerate(net.weights)}
    arrays.update({f"b{i}": b for i, b in enumerate(net.biases)})
    buf = io.BytesIO()
    np.savez(buf, header=np.array(json.dumps(payload)), **arrays)
    Path(path).write_bytes(buf.getvalue())


def load_checkpoint(path: str | Path) -> tuple[QNetwork, dict]:
    """Read a checkpoint back; returns the network and its stored meta dict."""
    with np.load(Path(path), allow_pickle=False) as data:
        payload = json.loads(str(data["header"]))
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
        net = QNetwork(payload["widths"], seed=0, momentum=payload["momentum"])
        for i in range(len(net.weights)):
            net.weights[i] = data[f"w{i}"]
            net.biases[i] = data[f"b{i}"]
    return net, payload["meta"]
