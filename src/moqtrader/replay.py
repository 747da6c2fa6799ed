"""Age-bounded experience replay with covariance whitening at sampling time.

Experiences are stored as columns of indices and conditioning, not
features: `rows` rebuilds the state and next-state features (the lookback
log-returns before the cursor, then the position code) from the series.  The
stored raw rewards are never modified; whitening is applied to sampled
copies.  Element age is measured in network updates since insertion, and
the same bound applies to single- and multi-reward runs (multi-reward
replays are simply longer).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .env import EnvState, StepOutcome, TradingEnv
from .errors import BufferTooSmall

DEFAULT_EIGEN_FLOOR = 1e-8

# Column name -> (dtype, shape of one row).
_COLUMNS = {
    "_cursor": (np.int32, ()),
    "_position": (np.int8, ()),
    "_next_position": (np.int8, ()),
    "_action": (np.int8, ()),
    "_gamma": (np.float64, ()),
    "_weights": (np.float64, (4,)),
    "_reward": (np.float64, (4,)),
    "_terminal": (np.bool_, ()),
    "_birth": (np.int64, ()),
}
_MIN_ROOM = 1024


@dataclass(frozen=True)
class Transitions:
    """Replay rows gathered into arrays, one row per experience."""

    state: np.ndarray  # (n, lookback + 1): lookback log-returns, then position code
    gamma: np.ndarray
    weights: np.ndarray  # (n, 4)
    raw_reward: np.ndarray  # (n, 4)
    scalar_reward: np.ndarray
    action: np.ndarray
    next_state: np.ndarray
    terminal: np.ndarray
    birth_update: np.ndarray

    def __len__(self) -> int:
        return len(self.gamma)


@dataclass(frozen=True)
class WhiteningStats:
    """Sample mean/covariance of the replay's raw rewards and Sigma^(-1/2)."""

    mean: np.ndarray
    covariance: np.ndarray
    inv_sqrt: np.ndarray


class ReplayBuffer:
    """Insertion-ordered store whose elements never outlive max_age updates.

    A row holds the pre-step cursor and position code, the next position
    code, action, gamma, weights, raw reward, terminal flag and insertion
    update: 88 bytes.  Live rows are [lo, hi) of the columns; eviction
    advances lo, and a push into full columns compacts the live rows into
    fresh columns with room for a third more (at least 1,024) rows.

    Reward moments are shifted sums S1 = sum(r - c), S2 = sum((r - c)(r - c)^T)
    (Chan, Golub & LeVeque 1979), c being the live mean at the last exact
    recomputation.  Rows pushed or evicted since the last query are folded
    in as blocks; each compaction recomputes the sums exactly from the live
    rows, which bounds the rounding drift.
    """

    def __init__(self, max_age: int, env: TradingEnv):
        if max_age < 0:
            raise ValueError("max_age must be >= 0")
        self.max_age = max_age
        self.update_counter = 0
        # Row t - lookback is log_returns[t - lookback : t + 1]: the returns of
        # the state at cursor t, then of the state at t + 1, share all but one.
        # A series too short for one state keeps no rows (env.reset rejects it).
        returns = env.log_returns if len(env.log_returns) > env.lookback else np.zeros(env.lookback + 1)
        self._spans = np.lib.stride_tricks.sliding_window_view(returns, env.lookback + 1)
        for name, (dtype, shape) in _COLUMNS.items():
            setattr(self, name, np.empty((_MIN_ROOM, *shape), dtype))
        self._lo = self._hi = 0
        self._recompute_moments()

    def __len__(self) -> int:
        return self._hi - self._lo

    def push(self, state: EnvState, action: int, gamma: float, weights: np.ndarray, outcome: StepOutcome) -> None:
        """Append the experience of taking action from state under (weights, gamma)."""
        if self._hi == len(self._gamma):
            self._compact()
        i = self._hi
        self._cursor[i] = state.cursor
        self._position[i] = state.position
        self._next_position[i] = outcome.next_state.position
        self._action[i] = action
        self._gamma[i] = gamma
        self._weights[i] = weights
        self._reward[i] = outcome.reward
        self._terminal[i] = outcome.done
        self._birth[i] = self.update_counter
        self._hi = i + 1

    def push_block(self, columns: dict[str, np.ndarray]) -> None:
        """Append rows born now, given as columns keyed by `_COLUMNS` name without the underscore.

        Slices split where the columns fill up, so compactions (and with them
        the reward moments) fall on the same rows as with one push per row.
        """
        if set(columns) != {name[1:] for name in _COLUMNS} - {"birth"}:
            raise ValueError(f"push_block needs the columns {sorted(name[1:] for name in _COLUMNS)} but birth")
        done, total = 0, len(columns["gamma"])
        while done < total:
            if self._hi == len(self._gamma):
                self._compact()
            size = min(len(self._gamma) - self._hi, total - done)
            for name, values in columns.items():
                getattr(self, "_" + name)[self._hi : self._hi + size] = values[done : done + size]
            self._birth[self._hi : self._hi + size] = self.update_counter
            self._hi, done = self._hi + size, done + size

    def advance_updates(self, n: int) -> None:
        if n < 0:
            raise ValueError("n must be >= 0")
        self.update_counter += n
        # Births never decrease, so the over-age rows are a prefix.
        self._lo += int(np.searchsorted(self._birth[self._lo : self._hi], self.update_counter - self.max_age))

    def _compact(self) -> None:
        live = len(self)
        capacity = live + max(live // 3, _MIN_ROOM)
        for name in _COLUMNS:
            old = getattr(self, name)
            new = np.empty((capacity, *old.shape[1:]), old.dtype)
            new[:live] = old[self._lo : self._hi]
            setattr(self, name, new)
        self._lo, self._hi = 0, live
        self._recompute_moments()

    def _recompute_moments(self) -> None:
        live = self._reward[self._lo : self._hi]
        self._shift = live.mean(axis=0) if len(live) else np.zeros(4)
        deviations = live - self._shift
        self._sum = deviations.sum(axis=0)
        self._sum_sq = deviations.T @ deviations
        self._summed_lo, self._summed_hi = self._lo, self._hi

    def reward_moments(self) -> tuple[np.ndarray, np.ndarray]:
        """Mean and sample covariance (ddof 1) of the live raw reward vectors.

        Costs O(rows pushed or evicted since the last call), not O(len).
        """
        lo, hi = self._lo, self._hi
        if hi - lo < 2:
            raise BufferTooSmall("need at least 2 experiences to estimate covariance")
        if self._summed_hi <= lo:  # every summed row has left
            self._recompute_moments()
        else:
            if hi > self._summed_hi:
                added = self._reward[self._summed_hi : hi] - self._shift
                self._sum += added.sum(axis=0)
                self._sum_sq += added.T @ added
            if lo > self._summed_lo:
                evicted = self._reward[self._summed_lo : lo] - self._shift
                self._sum -= evicted.sum(axis=0)
                self._sum_sq -= evicted.T @ evicted
            self._summed_lo, self._summed_hi = lo, hi
        n = hi - lo
        offset = self._sum / n
        covariance = (self._sum_sq - n * np.outer(offset, offset)) / (n - 1)
        return self._shift + offset, covariance

    def rows(self, idx: np.ndarray | None = None) -> Transitions:
        """Live rows at positions idx (0 = oldest, -1 = newest), or all of them in order."""
        live = np.arange(self._lo, self._hi)
        return self._gather(live if idx is None else live[idx])

    def sample_batch(self, batchsize: int, rng: np.random.Generator) -> Transitions:
        """Uniform sample without replacement; deterministic under the rng."""
        n = len(self)
        if batchsize < 1 or batchsize > n:
            raise BufferTooSmall(f"batchsize {batchsize} vs buffer length {n}")
        return self._gather(self._lo + rng.choice(n, size=batchsize, replace=False))

    def _gather(self, rows: np.ndarray) -> Transitions:
        lookback = self._spans.shape[1] - 1
        spans = self._spans[self._cursor[rows] - lookback]
        state = np.empty((len(rows), lookback + 1))
        state[:, :lookback] = spans[:, :-1]
        state[:, lookback] = self._position[rows]
        next_state = np.empty_like(state)
        next_state[:, :lookback] = spans[:, 1:]
        next_state[:, lookback] = self._next_position[rows]
        w, r = self._weights.take(rows, axis=0), self._reward.take(rows, axis=0)
        terms = w * r  # summed in component order: w0*r0 + w1*r1 + w2*r2 + w3*r3
        return Transitions(
            state=state,
            gamma=self._gamma[rows],
            weights=w,
            raw_reward=r,
            scalar_reward=terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3],
            action=self._action[rows],
            next_state=next_state,
            terminal=self._terminal[rows],
            birth_update=self._birth[rows],
        )


def compute_whitening(buffer: ReplayBuffer, eigen_floor: float = DEFAULT_EIGEN_FLOOR) -> WhiteningStats:
    """Covariance over all raw rewards in the replay and its inverse square root.

    Eigenvalues are clamped to at least eigen_floor before inversion, which
    bounds the amplification of near-degenerate components (POWC is sparse
    and regularly makes the covariance near-singular).
    """
    mean, cov = buffer.reward_moments()
    eigvals, eigvecs = np.linalg.eigh(cov)
    eigvals = np.maximum(eigvals, eigen_floor)
    inv_sqrt = (eigvecs / np.sqrt(eigvals)) @ eigvecs.T
    inv_sqrt = 0.5 * (inv_sqrt + inv_sqrt.T)
    return WhiteningStats(mean=mean, covariance=cov, inv_sqrt=inv_sqrt)


def whiten_batch(batch: Transitions, stats: WhiteningStats) -> Transitions:
    """Rescale a sampled batch: r~ = Sigma^(-1/2) r / ||w||, scalar = w . r~.

    Returns fresh arrays; the buffer's stored originals are untouched.
    """
    norms = np.linalg.norm(batch.weights, axis=1)
    rescaled = (batch.raw_reward @ stats.inv_sqrt) / norms[:, None]
    scalars = np.einsum("ij,ij->i", batch.weights, rescaled)
    return replace(batch, raw_reward=rescaled, scalar_reward=scalars)
