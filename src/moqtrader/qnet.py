"""Feed-forward Q-value approximator over (state, weights, gamma) inputs.

A plain float64 MLP with rectifier hidden layers, trained by SGD (optional
momentum) on mean-squared error against Bellman targets.  Everything is
deterministic under the seeds it is given.
"""

from __future__ import annotations

import copy
import io
import json
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidValue, ShapeMismatch

CHECKPOINT_VERSION = 1


@dataclass(slots=True)
class Batch:
    """Replay rows gathered as the TD update reads them, one row per experience."""

    inputs: np.ndarray  # (2, n, input width): network inputs of the states, then of the next states
    gamma: np.ndarray
    weights: np.ndarray  # (n, 4)
    reward: np.ndarray  # (n, 4) raw reward vectors
    action: np.ndarray
    terminal: np.ndarray


def input_width(lookback: int, include_gamma: bool) -> int:
    """The width of a network input row (see build_input)."""
    return lookback + 5 + include_gamma


def build_input(returns, weights, gamma, include_gamma: bool, position=0, out: np.ndarray | None = None) -> np.ndarray:
    """Network input rows: the lookback log-returns, the position code, the 4 reward weights, then gamma when
    include_gamma.  Broadcasts over the arguments' leading axes; writes into out, and returns it, when given."""
    lookback = np.shape(returns)[-1]
    if out is None:
        rows = np.broadcast_shapes(np.shape(returns)[:-1], np.shape(position), np.shape(weights)[:-1], np.shape(gamma))
        out = np.empty((*rows, input_width(lookback, include_gamma)))
    out[..., :lookback] = returns
    out[..., lookback] = position
    out[..., lookback + 1 : lookback + 5] = weights
    if include_gamma:
        out[..., -1] = gamma
    return out


class QNetwork:
    """MLP mapping an input vector to one value per action.

    Hidden layers use max(0, .) activations; the output layer is affine.
    Parameters are initialized uniformly in [-1/sqrt(fan_in), +1/sqrt(fan_in)],
    or all 0 with seed None.  `weights` and `biases` are views of one flat
    array (w0, b0, w1, b1, ...), so one array operation steps every layer.
    """

    def __init__(self, widths: Sequence[int], seed: int | np.random.Generator | None = 0, momentum: float = 0.0):
        widths = [int(w) for w in widths]
        if len(widths) < 2 or any(w < 1 for w in widths):
            raise ValueError(f"bad layer widths {widths}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        self.widths = widths
        self.momentum = momentum
        rng = seed if seed is None or isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
        draws = []
        for fan_in, fan_out in zip(widths, widths[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            for n in (fan_in * fan_out, fan_out):
                draws.append(np.zeros(n) if rng is None else rng.uniform(-bound, bound, size=n))
        self._adopt(np.concatenate(draws))

    def _adopt(self, params: np.ndarray) -> None:
        """Hold flat params with per-layer views; the first td_update adds the gradient and velocity arrays."""
        self._params, self._grad, self._velocity = params, None, None
        self.weights, self.biases = self._layer_views(params)

    def _layer_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        parts = np.split(flat, np.cumsum([n for a, b in zip(self.widths, self.widths[1:]) for n in (a * b, b)])[:-1])
        return [w.reshape(fan_in, -1) for w, fan_in in zip(parts[0::2], self.widths)], parts[1::2]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values for one input vector or a batch of them, as one matrix product per layer."""
        x = np.asarray(x, dtype=np.float64)
        for q in self._layers(np.atleast_2d(x)):
            pass  # each layer's output is released once the next one is computed
        return q[0] if x.ndim == 1 else q

    def _layers(self, x: np.ndarray) -> Iterator[np.ndarray]:
        """Yields each layer's output for a batch of input rows, the network's output last.

        The bias and rectifier apply in place: the arithmetic of h @ w + b with
        one temporary per layer instead of three.
        """
        if x.ndim != 2 or x.shape[1] != self.widths[0]:
            raise ShapeMismatch(f"input shape {x.shape} vs expected (*, {self.widths[0]})")
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            x = x @ w
            x += b
            if layer < len(self.weights) - 1:
                np.maximum(x, 0.0, out=x)
            yield x

    def td_update(self, target: "QNetwork", batch: Batch, rewards: np.ndarray, *, alpha: float,
                  learn_rate: float) -> float:
        """One SGD (or momentum) step on a replay minibatch; returns the pre-step loss.

        The loss is the mean-squared error over every row and action against
        the Bellman targets.  The taken action's target is
        (1-alpha)*Q(s)[a] + alpha*(r + gamma*max Q_target(s')), without the
        bootstrap term on terminal rows; the other actions' residuals are exactly 0.
        In-place steps and bare ufunc reductions do the plain expressions' arithmetic.
        """
        if self._grad is None:  # only a trained network holds a gradient and a velocity
            grad, self._velocity = np.empty_like(self._params), np.zeros_like(self._params)
            self._grad = (grad, *self._layer_views(grad))
        grad, grad_w, grad_b = self._grad
        now, after = batch.inputs
        *acts, q_now = now, *self._layers(now)  # each layer's input, then the output
        returns = np.where(batch.terminal, 0.0, batch.gamma)
        returns *= np.maximum.reduce(target.forward(after), axis=1)
        returns += rewards
        returns *= alpha
        rows = np.arange(len(returns))
        taken = q_now[rows, batch.action]
        blend = taken * (1.0 - alpha)
        blend += returns
        delta = q_now - q_now  # 0 off the taken actions (NaN where Q is not finite)
        delta[rows, batch.action] = taken - blend
        loss = float(np.add.reduce(np.square(delta), axis=None)) / delta.size
        delta *= 2.0
        delta /= delta.size
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts[layer].T, delta, out=grad_w[layer])
            np.add.reduce(delta, axis=0, out=grad_b[layer])
            if layer > 0:  # the layer's weights before this step
                delta = delta @ self.weights[layer].T
                delta *= acts[layer] > 0.0
        self._velocity *= self.momentum
        grad *= learn_rate
        self._velocity -= grad
        self._params += self._velocity
        return loss

    def clone(self) -> "QNetwork":
        """A copy of the parameters alone, as a target or a checkpoint needs; one that trains starts at 0 velocity."""
        other = copy.copy(self)  # widths and momentum
        other._adopt(self._params.copy())
        return other

    def copy_params_from(self, other: "QNetwork") -> None:
        if other.widths != self.widths:
            raise ShapeMismatch(f"widths {other.widths} vs {self.widths}")
        self._params[...] = other._params


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
        widths = [int(w) for w in payload["widths"]]
        for i, (fan_in, fan_out) in enumerate(zip(widths, widths[1:])):  # before QNetwork allocates the widths
            for name, shape in ((f"w{i}", (fan_in, fan_out)), (f"b{i}", (fan_out,))):
                if arrays.get(name, np.empty(0)).shape != shape:
                    raise ValueError(f"array {name} is missing or not of shape {shape}")
        net = QNetwork(widths, seed=None, momentum=payload["momentum"])
        for kind, params in (("w", net.weights), ("b", net.biases)):
            for i, param in enumerate(params):
                param[...] = arrays[f"{kind}{i}"]
        return net, payload["meta"]
    except (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError, zipfile.BadZipFile) as exc:
        raise InvalidValue("checkpoint", f"{path}: {exc}") from exc
