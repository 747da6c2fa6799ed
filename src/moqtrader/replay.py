"""Age-bounded experience replay with covariance whitening at sampling time.

Experiences are stored as columns of indices and conditioning, not
features: `qnet.build_input` rebuilds a gathered `qnet.Batch`'s state and
next-state network inputs from the series.  The stored raw rewards are
never modified; whitening rescales a sampled batch's scalar rewards.
Element age counts the caller's network updates since insertion (a push
gives its rows' birth, `evict` the count now), and the same bound applies
to single- and multi-reward runs (multi-reward replays are simply longer).
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import _umath_linalg

from .env import TradingEnv
from .errors import BufferTooSmall
from .qnet import Batch, build_input, input_width

# Column name -> (dtype, shape of one row).
_COLUMNS = {
    "_cursor": (np.int32, ()),
    "_position": (np.int8, ()),
    "_action": (np.int8, ()),
    "_gamma": (np.float64, ()),
    "_weights": (np.float64, (4,)),
    "_reward": (np.float64, (4,)),
    "_terminal": (np.bool_, ()),
    "_birth": (np.int64, ()),
}
_PUSHED = {name[1:] for name in _COLUMNS}  # the columns a push gives
_MIN_ROOM = 1024


class ReplayBuffer:
    """Insertion-ordered store whose elements never outlive max_age updates.

    A row holds the pre-step cursor and position code, action, gamma,
    weights, raw reward, terminal flag and insertion update: 87 bytes.  The
    next position code is the action's target, `env.target_signs[action]`.
    Live rows are [lo, hi) of the columns; eviction advances lo, and a push
    into full columns compacts the live rows into fresh columns with room
    for a third more (at least 1,024) rows.

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
        self._env = env  # whose windows the gather reads
        for name, (dtype, shape) in _COLUMNS.items():
            setattr(self, name, np.empty((_MIN_ROOM, *shape), dtype))
        self._lo = self._hi = 0
        self._recompute_moments()

    def __len__(self) -> int:
        return self._hi - self._lo

    def push(self, columns: dict) -> None:
        """Append rows, as columns keyed by `_COLUMNS` name without the underscore; `birth` is the update count now.

        `action` holds one entry per row; any other column may be a scalar that stands for every row.
        Slices split where the columns fill up, so compactions (and the reward moments) fall as with one push per row.
        """
        if columns.keys() != _PUSHED:
            raise ValueError(f"push needs the columns {sorted(_PUSHED)}")
        done, total = 0, len(columns["action"])
        while done < total:
            if self._hi == len(self._gamma):
                self._compact()
            size = min(len(self._gamma) - self._hi, total - done)
            for name, values in columns.items():
                if size < total and hasattr(values, "__len__"):  # a split block's part of a column
                    values = values[done : done + size]
                getattr(self, "_" + name)[self._hi : self._hi + size] = values
            self._hi, done = self._hi + size, done + size

    def evict(self, updates: int) -> None:
        """Drop the rows born more than max_age updates before `updates`."""
        # Births never decrease, so the over-age rows are a prefix: none while the oldest row is young enough.
        if self._lo < self._hi and self._birth[self._lo] < updates - self.max_age:
            self._lo += int(np.searchsorted(self._birth[self._lo : self._hi], updates - self.max_age))

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
                self._sum += np.add.reduce(added, axis=0)
                self._sum_sq += added.T @ added
            if lo > self._summed_lo:
                evicted = self._reward[self._summed_lo : lo] - self._shift
                self._sum -= np.add.reduce(evicted, axis=0)
                self._sum_sq -= evicted.T @ evicted
            self._summed_lo, self._summed_hi = lo, hi
        n = hi - lo
        offset = self._sum / n
        return self._shift + offset, (self._sum_sq - n * np.multiply.outer(offset, offset)) / (n - 1)

    def sample_rows(self, batchsize: int, rng: np.random.Generator) -> np.ndarray:
        """Positions (0 = oldest) of a uniform sample without replacement; deterministic under the rng."""
        n = len(self)
        if batchsize < 1 or batchsize > n:
            raise BufferTooSmall(f"batchsize {batchsize} vs buffer length {n}")
        return rng.choice(n, batchsize, False)  # size, replace: positional, which numpy parses faster

    def sample_batch(self, batchsize: int, rng: np.random.Generator, include_gamma: bool = False) -> Batch:
        """The live rows at sample_rows(batchsize, rng), gathered with gamma as an input or not."""
        return self._gather(self._lo + self.sample_rows(batchsize, rng), include_gamma)

    def _gather(self, rows: np.ndarray, include_gamma: bool) -> Batch:
        """Each row's state and next-state network inputs, built into one (2, rows, input width) array."""
        windows, at = self._env.windows, self._cursor[rows] - self._env.lookback  # the state's row, then at + 1
        weights, gamma, action = self._weights[rows], self._gamma[rows], self._action[rows]
        inputs = np.empty((2, len(rows), input_width(windows.shape[1], include_gamma)))
        build_input(windows[at], weights, gamma, include_gamma, self._position[rows], out=inputs[0])
        build_input(windows[at + 1], weights, gamma, include_gamma, self._env.target_signs[action], out=inputs[1])
        return Batch(inputs, gamma, weights, self._reward[rows], action, self._terminal[rows])


def scalar_rewards(batch: Batch) -> np.ndarray:
    """The batch's unwhitened scalar rewards w . r, summed in component order: w0*r0 + w1*r1 + w2*r2 + w3*r3."""
    terms = batch.weights * batch.reward
    return terms[:, 0] + terms[:, 1] + terms[:, 2] + terms[:, 3]


def compute_whitening(buffer: ReplayBuffer, eigen_floor: float) -> np.ndarray:
    """Sigma^(-1/2) of the covariance over all raw rewards in the replay.

    Eigenvalues are clamped to at least eigen_floor before inversion, which
    bounds the amplification of near-degenerate components (POWC is sparse
    and regularly makes the covariance near-singular).  `eigh_lo` is np.linalg.eigh's gufunc.
    """
    _, cov = buffer.reward_moments()
    eigvals, eigvecs = _umath_linalg.eigh_lo(cov)
    inv_sqrt = (eigvecs / np.sqrt(np.maximum(eigvals, eigen_floor))) @ eigvecs.T
    return 0.5 * (inv_sqrt + inv_sqrt.T)


def whiten_rewards(batch: Batch, inv_sqrt: np.ndarray) -> np.ndarray:
    """Whitened scalar rewards of a sampled batch: w . r~, with r~ = Sigma^(-1/2) r / ||w||.

    ||w|| sums squares as np.linalg.norm does; the batch and the stored raw rewards are left untouched.
    """
    norms = np.sqrt(np.add.reduce(np.square(batch.weights), axis=1, keepdims=True))
    return np.einsum("ij,ij->i", batch.weights, (batch.reward @ inv_sqrt) / norms)
