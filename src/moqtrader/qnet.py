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
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import InvalidValue, ShapeMismatch
from .replay import Batch

CHECKPOINT_VERSION = 1
BLOCK_ROWS = 1024  # rows per block of a large forward: a multiple of the matrix product's 4-row tile (see row_blocks)


def row_blocks(n: int) -> list[tuple[int, int]]:
    """(start, stop) of BLOCK_ROWS-row blocks over n rows, so that a row's bytes do not depend on its block: all
    but the last span whole 4-row tiles, and a one-row remainder, which numpy hands to gemv, joins the one before."""
    stops = [*range(BLOCK_ROWS, n - 1, BLOCK_ROWS), n]
    return list(zip([0, *stops], stops))


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

    def _adopt(self, params: np.ndarray, velocity: np.ndarray | None = None) -> None:
        """Hold flat params and velocity (0 by default), each with per-layer views; td_update adds a gradient array."""
        self._params, self._grad = params, None
        self._velocity = np.zeros_like(params) if velocity is None else velocity
        (self.weights, self.biases), (self._vel_w, self._vel_b) = map(self._layer_views, (params, self._velocity))

    def _layer_views(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        parts = np.split(flat, np.cumsum([n for a, b in zip(self.widths, self.widths[1:]) for n in (a * b, b)])[:-1])
        return [w.reshape(fan_in, -1) for w, fan_in in zip(parts[0::2], self.widths)], parts[1::2]

    @property
    def input_width(self) -> int:
        return self.widths[0]

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Action values for one input vector or a batch of them, computed per `row_blocks` block into one array."""
        x = np.asarray(x, dtype=np.float64)
        rows = np.atleast_2d(x)
        out = np.empty((len(rows), self.widths[-1]))
        for start, stop in row_blocks(len(rows)):  # through _layers, so that a block is no forward call of its own
            for q in self._layers(rows[start:stop]):
                pass  # each layer's output is released once the next one is computed
            out[start:stop] = q
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

    def td_update(self, target: "QNetwork", batch: Batch, rewards: np.ndarray, *, alpha: float,
                  learn_rate: float) -> float:
        """One SGD (or momentum) step on a replay minibatch; returns the pre-step loss.

        The loss is the mean-squared error over every row and action against
        the Bellman targets.  The taken action's target is
        (1-alpha)*Q(s)[a] + alpha*(r + gamma*max Q_target(s')), without the
        bootstrap term on terminal rows; the other actions' residuals are exactly 0.
        In-place steps and bare ufunc reductions do the plain expressions' arithmetic.
        """
        if self._grad is None:  # only a trained network holds a gradient array
            self._grad = np.empty_like(self._params)
            self._grad_w, self._grad_b = self._layer_views(self._grad)
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
            np.matmul(acts[layer].T, delta, out=self._grad_w[layer])
            np.add.reduce(delta, axis=0, out=self._grad_b[layer])
            if layer > 0:  # the layer's weights before this step
                delta = delta @ self.weights[layer].T
                delta *= acts[layer] > 0.0
        self._velocity *= self.momentum
        self._grad *= learn_rate
        self._velocity -= self._grad
        self._params += self._velocity
        return loss

    def clone(self) -> "QNetwork":
        other = copy.copy(self)  # widths and momentum
        other._adopt(self._params.copy(), self._velocity.copy())
        return other

    def copy_params_from(self, other: "QNetwork") -> None:
        if other.widths != self.widths:
            raise ShapeMismatch(f"widths {other.widths} vs {self.widths}")
        self._params[...] = other._params


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
        net = QNetwork(payload["widths"], seed=None, momentum=payload["momentum"])
        for kind, params in (("w", net.weights), ("b", net.biases)):
            for i, param in enumerate(params):
                loaded = arrays.get(f"{kind}{i}", np.empty(0))
                if loaded.shape != param.shape:
                    raise ValueError(f"array {kind}{i} is missing or not of shape {param.shape}")
                param[...] = loaded
        return net, payload["meta"]
    except (OSError, EOFError, ValueError, KeyError, TypeError, AttributeError, zipfile.BadZipFile) as exc:
        raise InvalidValue("checkpoint", f"{path}: {exc}") from exc
