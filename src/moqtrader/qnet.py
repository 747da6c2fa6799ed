"""Feed-forward Q-value approximator over (state, weights, gamma) inputs.

A plain float64 MLP with rectifier hidden layers, trained by SGD (optional
momentum) on mean-squared error against Bellman targets.  Everything is
deterministic under the seeds it is given.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidValue, ShapeMismatch
from .replay import Transitions

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

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values for one input vector or a batch of them."""
        x = np.asarray(x, dtype=np.float64)
        for out in self._layers(x[None, :] if x.ndim == 1 else x):
            pass  # each layer's output is released once the next one is computed
        return out[0] if x.ndim == 1 else out

    def _layers(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """Yields each layer's output for a batch of input rows, the network's output last.

        The bias and rectifier apply in place: the arithmetic of h @ w + b with
        one temporary per layer instead of three.
        """
        if x.ndim != 2 or x.shape[1] != self.input_width:
            raise ShapeMismatch(f"input shape {x.shape} vs expected (*, {self.input_width})")
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w
            x += b
            if layer < len(self.weights) - 1:
                np.maximum(x, 0.0, out=x)
            yield x

    def td_update(self, target: "QNetwork", batch: Transitions, rewards: np.ndarray, *,
                  alpha: float, learn_rate: float, include_gamma: bool) -> float:
        """One SGD (or momentum) step on a replay minibatch; returns the pre-step loss.

        The loss is the mean-squared error over every row and action against
        the Bellman targets.  The taken action's target is
        (1-alpha)*Q(s)[a] + alpha*(r + gamma*max Q_target(s')), without the
        bootstrap term on terminal rows; the other actions' residuals are exactly 0.
        """
        conditioning = (batch.weights, batch.gamma[:, None]) if include_gamma else (batch.weights,)
        inputs = np.hstack((batch.state, *conditioning))
        *acts, q_now = inputs, *self._layers(inputs)  # each layer's input, then the output
        q_next = target.forward(np.hstack((batch.next_state, *conditioning))).max(axis=1)
        rows = np.arange(len(batch))
        returns = rewards + np.where(batch.terminal, 0.0, 1.0) * batch.gamma * q_next
        targets = q_now.copy()
        targets[rows, batch.action] = (1.0 - alpha) * q_now[rows, batch.action] + alpha * returns
        residuals = q_now - targets
        loss = float(np.mean(residuals ** 2))
        delta = 2.0 * residuals / residuals.size
        for layer in range(len(self.weights) - 1, -1, -1):
            grad_w, grad_b = acts[layer].T @ delta, delta.sum(axis=0)
            if layer > 0:  # the layer's weights before this step
                delta = (delta @ self.weights[layer].T) * (acts[layer] > 0.0)
            self._vel_w[layer] = self.momentum * self._vel_w[layer] - learn_rate * grad_w
            self._vel_b[layer] = self.momentum * self._vel_b[layer] - learn_rate * grad_b
            self.weights[layer] += self._vel_w[layer]
            self.biases[layer] += self._vel_b[layer]
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


def build_input(state: np.ndarray, weights: np.ndarray, gamma: float, include_gamma: bool) -> np.ndarray:
    """Assemble one network input row: features, weight vector, optional gamma."""
    if include_gamma:
        return np.concatenate((state, weights, (gamma,)))
    return np.concatenate((state, weights))


def save_checkpoint(path: str | Path, net: QNetwork, meta: dict | None = None) -> None:
    """Write a versioned binary checkpoint; float64 params round-trip exactly.

    The bytes go to a temporary file beside the target, which is then
    renamed over it, so a crash never leaves a truncated checkpoint.
    """
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
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        partial.write_bytes(buf.getvalue())
        os.replace(partial, path)
    finally:
        partial.unlink(missing_ok=True)


def load_checkpoint(path: str | Path) -> tuple[QNetwork, dict]:
    """Read a checkpoint back; returns the network and its stored meta dict.

    A file that is not a readable checkpoint of this version, or whose
    arrays do not fit its widths, raises InvalidValue("checkpoint") naming it.
    """
    try:
        with np.load(Path(path), allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
        payload = json.loads(str(arrays.get("header", "")))
        if payload.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {payload.get('version')}")
        net = QNetwork(payload["widths"], seed=0, momentum=payload["momentum"])
        for kind, params in (("w", net.weights), ("b", net.biases)):
            for i, init in enumerate(params):
                params[i] = arrays.get(f"{kind}{i}", np.empty(0))
                if params[i].shape != init.shape:
                    raise ValueError(f"array {kind}{i} is missing or not of shape {init.shape}")
        return net, payload["meta"]
    except (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError, zipfile.BadZipFile) as exc:
        raise InvalidValue("checkpoint", f"{path}: {exc}") from exc
