import math
import tracemalloc

import numpy as np
import pytest

import scalar_reference
from scalar_reference import replay_rows
from moqtrader import agent
from moqtrader.agent import TrainConfig
from moqtrader.env import EnvState, Mode, Position, StepOutcome, TradingEnv
from moqtrader.errors import BufferTooSmall
from moqtrader.qnet import QNetwork
from moqtrader.replay import _COLUMNS, ReplayBuffer, compute_whitening, scalar_rewards, whiten_rewards
from moqtrader.rewards import RewardVector
from moqtrader.synthetic import generate_synthetic

EIGEN_FLOOR = TrainConfig().eigen_floor  # the floor every training run passes by default

SERIES = generate_synthetic("random-walk", 60, amplitude=0.02, seed=3)
LOOKBACK = 3
# Every pushed row is a Buy from the first state of the series: neutral, then long.
STATE = EnvState(cursor=LOOKBACK, position=Position.NEUTRAL, trade_anchor=None, ret_window=(0.0,), end=len(SERIES))
NEXT = EnvState(cursor=LOOKBACK + 1, position=Position.LONG, trade_anchor=LOOKBACK, ret_window=(0.0,), end=len(SERIES))


def make_buffer(max_age):
    return ReplayBuffer(max_age, TradingEnv(SERIES, Mode.LSP, lookback=LOOKBACK, reward_window=2))


def push(buffer, reward=(0.0, 0.0, 0.0, 0.0), weights=(1.0, 0.0, 0.0, 0.0), action=0, gamma=0.9):
    scalar_reference.push_experience(buffer, STATE, action, gamma, np.asarray(weights, dtype=np.float64),
                                     StepOutcome(NEXT, RewardVector(*reward), False))


def fill(buffer, rewards, weights=(1.0, 0.0, 0.0, 0.0)):
    for r in rewards:
        push(buffer, r, weights)
    return buffer


def lr_column(buffer):
    return replay_rows(buffer).reward[:, 0].tolist()


class TestBuffer:
    def test_push_and_order(self):
        buf = make_buffer(max_age=10)
        push(buf, (1, 0, 0, 0))
        assert len(buf) == 1
        push(buf, (2, 0, 0, 0))
        assert lr_column(buf) == [1.0, 2.0]
        np.testing.assert_array_equal(replay_rows(buf).reward[:, 0], [1.0, 2.0])

    def test_age_boundary(self):
        buf = make_buffer(max_age=5)
        push(buf)
        buf.advance_updates(5)
        assert len(buf) == 1  # age == max_age is retained
        buf.advance_updates(1)
        assert len(buf) == 0  # age == max_age + 1 evicts

    def test_mixed_ages_evict_exact_prefix(self):
        # births 0..4, counter ends at 6: ages are 6,5,4,3,2 and exactly the
        # three over-age elements (> max_age 3) leave, oldest first
        buf = make_buffer(max_age=3)
        for i in range(5):
            push(buf, (float(i), 0, 0, 0))
            buf.advance_updates(1)
        buf.advance_updates(1)
        assert lr_column(buf) == [3.0, 4.0]
        assert np.all(buf.update_counter - buf._birth[buf._lo : buf._hi] <= 3)

    def test_advance_zero_is_identity(self):
        buf = fill(make_buffer(max_age=2), np.zeros((4, 4)))
        buf.advance_updates(0)
        assert len(buf) == 4

    def test_sample_whole_buffer(self):
        buf = fill(make_buffer(max_age=10), [[i, 0, 0, 0] for i in range(6)])
        batch = buf.sample_batch(6, np.random.default_rng(1))
        assert sorted(batch.reward[:, 0]) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]

    def test_sample_deterministic_under_seed(self):
        buf = fill(make_buffer(max_age=10), [[i, 0, 0, 0] for i in range(20)])
        a = buf.sample_batch(5, np.random.default_rng(7))
        b = buf.sample_batch(5, np.random.default_rng(7))
        assert a.reward[:, 0].tolist() == b.reward[:, 0].tolist()

    def test_rows_by_position(self):
        buf = fill(make_buffer(max_age=1), [[i, 0, 0, 0] for i in range(6)])
        buf.advance_updates(2)
        fill(buf, [[6, 0, 0, 0], [7, 0, 0, 0]])  # the first six rows are over age
        assert replay_rows(buf, [0, -1]).reward[:, 0].tolist() == [6.0, 7.0]
        with pytest.raises(IndexError):
            replay_rows(buf, [2])  # evicted and unwritten rows are out of reach

    def test_sample_too_small(self):
        buf = fill(make_buffer(max_age=10), np.zeros((3, 4)))
        with pytest.raises(BufferTooSmall):
            buf.sample_batch(4, np.random.default_rng(0))

    def test_sampling_marginals_uniform(self):
        buf = fill(make_buffer(max_age=10), [[i, 0, 0, 0] for i in range(10)])
        rng = np.random.default_rng(123)
        draws, batchsize = 100_000, 3
        # each row's reward is its position: a batch gathers the rows that the index draw picks
        batch = buf.sample_batch(batchsize, np.random.default_rng(5))
        assert batch.reward[:, 0].tolist() == buf.sample_rows(batchsize, np.random.default_rng(5)).tolist()
        counts = np.bincount(np.concatenate([buf.sample_rows(batchsize, rng) for _ in range(draws)]), minlength=10)
        p = batchsize / 10
        sigma = math.sqrt(p * (1 - p) / draws)
        np.testing.assert_allclose(counts / draws, p, atol=3 * sigma)

    def test_eviction_survives_compaction(self):
        # with max_age 0 each advance clears everything older than the step,
        # exercising the column compaction over 20k pushes
        buf = make_buffer(max_age=0)
        for i in range(20000):
            push(buf, (float(i), 0, 0, 0))
            buf.advance_updates(1)
            push(buf, (float(i), 1, 0, 0))
        assert len(buf) == 1
        rows = replay_rows(buf)
        assert [(r[0], r[1]) for r in rows.reward.tolist()] == [(19999.0, 1.0)]
        np.testing.assert_array_equal(rows.reward, [[19999.0, 1.0, 0.0, 0.0]])

    def test_bytes_per_live_entry(self):
        # An Experience object per entry cost ~965 B.  Once the replay
        # outgrows its minimum free room, it holds at most 128 B per live
        # entry, while growing and at a steady age-bounded length.
        rewards = np.random.default_rng(5).normal(size=(40_000, 4))
        worst = 0.0
        tracemalloc.start()
        try:
            buf = make_buffer(max_age=1000)
            step = {"cursor": LOOKBACK, "position": 0, "action": [0] * 4, "gamma": 0.9,
                    "weights": np.tile([1.0, 0.0, 0.0, 0.0], (4, 1)), "terminal": False}
            for reward in rewards.reshape(-1, 4, 4):  # four experiences a push, as a k = 3 fitting step makes
                buf.push({**step, "reward": reward})
                buf.advance_updates(1)
                if len(buf) >= 3 * 1024:
                    worst = max(worst, tracemalloc.get_traced_memory()[0] / len(buf))
        finally:
            tracemalloc.stop()
        assert len(buf) == 4 * 1000
        assert 90 < worst <= 128


def random_columns(rng, n):
    """n replay rows as columns: states of SERIES, any actions, rewards with a sparse last component."""
    reward = rng.normal(size=(n, 4))
    reward[:, 3] *= rng.uniform(size=n) < 0.05
    return {
        "cursor": rng.integers(LOOKBACK, len(SERIES) - 1, size=n),
        "position": rng.integers(-1, 2, size=n),
        "action": rng.integers(0, 3, size=n),
        "gamma": rng.uniform(0.5, 0.999, size=n),
        "weights": agent.sample_weights(rng, n),
        "reward": reward,
        "terminal": rng.uniform(size=n) < 0.01,
    }


def push_rows(buffer, columns):
    """The same rows through push, one experience at a time."""
    for i in range(len(columns["gamma"])):
        cursor = int(columns["cursor"][i])
        state = EnvState(cursor, Position(int(columns["position"][i])), None, (), len(SERIES))
        after = EnvState(cursor + 1, Mode.LSP.targets[int(columns["action"][i])], None, (), len(SERIES))
        outcome = StepOutcome(after, RewardVector(*columns["reward"][i].tolist()), bool(columns["terminal"][i]))
        scalar_reference.push_experience(buffer, state, int(columns["action"][i]), float(columns["gamma"][i]),
                                         columns["weights"][i], outcome)


class TestPushBlock:
    @pytest.mark.parametrize("blocks", [
        [7, 1, 300],  # within the first columns
        [1000, 24, 1],  # exactly filling the columns, then one more row
        [1000, 3000, 5000, 2000],  # blocks crossing one and several compactions, after evictions too
    ])
    def test_equals_repeated_push(self, blocks):
        rng = np.random.default_rng(sum(blocks))
        one, many = make_buffer(max_age=2), make_buffer(max_age=2)
        for size in blocks:
            columns = random_columns(rng, size)
            push_rows(one, columns)
            many.push(columns)
            for buf in (one, many):
                buf.advance_updates(1)  # evicts the block before last
            mean_one, cov_one = one.reward_moments()
            mean_many, cov_many = many.reward_moments()
            assert mean_one.tobytes() == mean_many.tobytes() and cov_one.tobytes() == cov_many.tobytes()
            assert (one._lo, one._hi, len(one._gamma)) == (many._lo, many._hi, len(many._gamma))
            for name in _COLUMNS:
                assert getattr(one, name)[one._lo : one._hi].tobytes() == getattr(many, name)[many._lo : many._hi].tobytes()

    def test_scalar_columns_apply_to_every_row(self):
        # one step's rows, its per-step values given once, straddling the first columns' end
        rng = np.random.default_rng(8)
        one, many = make_buffer(max_age=2), make_buffer(max_age=2)
        first = random_columns(rng, 1022)
        push_rows(one, first)
        many.push(first)
        scalars = {"cursor": LOOKBACK + 2, "position": -1, "terminal": True}
        step = {**random_columns(rng, 4), **scalars}
        push_rows(one, {**step, **{name: np.full(4, value) for name, value in scalars.items()}})
        many.push(step)
        assert (one._lo, one._hi, len(one._gamma)) == (many._lo, many._hi, len(many._gamma)) == (0, 1026, 2048)
        assert [m.tobytes() for m in one.reward_moments()] == [m.tobytes() for m in many.reward_moments()]
        for name in _COLUMNS:
            assert getattr(one, name)[: one._hi].tobytes() == getattr(many, name)[: many._hi].tobytes()

    def test_needs_every_column_but_birth(self):
        columns = random_columns(np.random.default_rng(0), 3)
        del columns["gamma"]
        with pytest.raises(ValueError):
            make_buffer(max_age=2).push(columns)


def record_episode(mode: Mode, k: int, hindsight_action: str):
    """Run one episode that pushes real and counterfactual experiences.

    Returns the buffer and, per pushed row, the env's own features of the
    pre-step state and of the state that row's action leads to.
    """
    series = generate_synthetic("sine", 120, amplitude=0.08, period=17.0)
    env = TradingEnv(series, mode, lookback=5, reward_window=4)
    cfg = TrainConfig(mode=mode, k=k, lookback=5, reward_window=4, hindsight_action=hindsight_action, tol=0.5)
    net = QNetwork(cfg.widths, seed=4)
    buffer = ReplayBuffer(10_000, env)
    rng, streams = np.random.default_rng(8), agent.rng_streams(8)
    state = env.reset((0, 120))
    expected = []
    while True:
        feats = scalar_reference.state_features(env, state)
        action = int(rng.integers(mode.n_actions))
        outcome = env.transition(state, action)
        scalar_reference.push_experience(buffer, state, action, 0.9, agent.uniform_weights(), outcome)
        scalar_reference.augment_experiences(env, state, feats, action, net, cfg, streams, buffer)
        for a in replay_rows(buffer).action[len(expected):]:
            expected.append((feats, scalar_reference.state_features(env, env.transition(state, int(a)).next_state)))
        state = outcome.next_state
        if outcome.done:
            return buffer, expected


class TestRebuiltStates:
    @pytest.mark.parametrize("mode", [Mode.LP, Mode.LSP])
    @pytest.mark.parametrize("hindsight_action", ["resample", "replay"])
    def test_states_equal_env_features(self, mode, hindsight_action):
        buffer, expected = record_episode(mode, k=3, hindsight_action=hindsight_action)
        rows = replay_rows(buffer)
        assert len(rows.action) == len(expected) == 4 * 114
        for i, (state, next_state) in enumerate(expected):
            assert rows.inputs[0, i, :6].tobytes() == state.tobytes()
            assert rows.inputs[1, i, :6].tobytes() == next_state.tobytes()
        assert rows.inputs[:, :, 6:].tobytes() == np.stack((rows.weights, rows.weights)).tobytes()
        assert rows.terminal.tolist() == [False] * (len(rows.action) - 4) + [True] * 4
        # sampled rows rebuild the same features as the full view
        idx = np.random.default_rng(2).choice(len(buffer), size=32, replace=False)
        sampled = replay_rows(buffer, idx)
        np.testing.assert_array_equal(sampled.inputs, rows.inputs[:, idx])
        with_gamma = replay_rows(buffer, idx, include_gamma=True)
        np.testing.assert_array_equal(with_gamma.inputs[:, :, :-1], sampled.inputs)
        np.testing.assert_array_equal(with_gamma.inputs[:, :, -1], np.stack((sampled.gamma, sampled.gamma)))

    def test_scalar_reward_is_weighted_sum_in_component_order(self):
        rng = np.random.default_rng(6)
        buf = make_buffer(max_age=10)
        weights = list(agent.sample_weights(rng, 50))
        rewards = rng.normal(size=(50, 4))
        for w, r in zip(weights, rewards):
            push(buf, r, weights=w)
        expected = [float(w[0] * r[0] + w[1] * r[1] + w[2] * r[2] + w[3] * r[3]) for w, r in zip(weights, rewards)]
        assert scalar_rewards(replay_rows(buf)).tolist() == expected


class TestRunningMoments:
    def test_match_np_cov_through_pushes_evictions_and_compactions(self, monkeypatch):
        # criterion 1's data (non-zero mean), with the last column made
        # sparse like POWC: non-zero on about one row in twenty
        rng = np.random.default_rng(1001)
        mix = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
        rewards = rng.normal(size=(10_000, 4)) @ mix + rng.normal(size=4)
        rewards[:, 3] *= rng.uniform(size=10_000) < 0.05

        compactions = []
        compact = ReplayBuffer._compact
        monkeypatch.setattr(ReplayBuffer, "_compact", lambda buf: (compactions.append(len(buf)), compact(buf)))
        buf = make_buffer(max_age=300)
        worst_cov = worst_var = worst_mean = 0.0
        for i, row in enumerate(rewards):
            push(buf, row)
            if i % 4 == 3:
                buf.advance_updates(1)  # evicts four rows per update once past max_age
            if i % 37 == 36 or i > 9_900:
                mean, cov = buf.reward_moments()
                live = replay_rows(buf).reward
                ref_cov, ref_mean = np.cov(live, rowvar=False), live.mean(axis=0)
                worst_cov = max(worst_cov, np.abs(cov - ref_cov).max() / np.abs(ref_cov).max())
                worst_mean = max(worst_mean, np.abs(mean - ref_mean).max() / np.abs(ref_mean).max())
                # each variance on its own scale, once the sparse column has a non-zero
                variances, ref_variances = np.diag(cov), np.diag(ref_cov)
                spread = ref_variances > 0
                worst_var = max(worst_var, np.abs(variances[spread] / ref_variances[spread] - 1.0).max())
        assert len(buf) == 4 * 300 and buf.update_counter == 2500
        assert len(compactions) >= 3
        print(f"worst relative error: covariance {worst_cov:.1e}, variances {worst_var:.1e}, mean {worst_mean:.1e}")
        assert worst_cov <= 1e-10 and worst_var <= 1e-10 and worst_mean <= 1e-10

    def test_emptied_replay_restarts_the_sums(self):
        # sums shifted by the mean of rows near 1e6 would lose the variance
        # of the small rows that replace them to cancellation
        rng = np.random.default_rng(3)
        buf = fill(make_buffer(max_age=0), 1e6 + rng.normal(size=(50, 4)))
        compute_whitening(buf, EIGEN_FLOOR)
        buf.advance_updates(1)  # everything summed so far leaves
        fill(buf, rng.normal(size=(50, 4)))
        mean, cov = buf.reward_moments()
        live = replay_rows(buf).reward
        np.testing.assert_allclose(cov, np.cov(live, rowvar=False), rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(mean, live.mean(axis=0), rtol=1e-12, atol=1e-15)


class TestWhitening:
    def test_identity_covariance_gives_identity_transform(self):
        # +-sqrt(3.5) * e_i for each axis has exact sample covariance I (ddof=1)
        c = math.sqrt(3.5)
        rewards = []
        for i in range(4):
            for sign in (c, -c):
                row = [0.0] * 4
                row[i] = sign
                rewards.append(row)
        buf = fill(make_buffer(10), rewards)
        inv_sqrt = compute_whitening(buf, EIGEN_FLOOR)
        np.testing.assert_allclose(buf.reward_moments()[1], np.eye(4), atol=1e-12)
        np.testing.assert_allclose(inv_sqrt, np.eye(4), atol=1e-9)

    def test_one_dimensional_variance_four_halves(self):
        # lr values (-2, 0, 2): sample variance 4, others degenerate at the floor
        buf = fill(make_buffer(10), [[-2, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0]])
        inv_sqrt = compute_whitening(buf, eigen_floor=1e-8)
        assert inv_sqrt[0, 0] == pytest.approx(0.5, abs=1e-9)
        rewards = whiten_rewards(replay_rows(fill(make_buffer(10), [[2.0, 0, 0, 0]])), inv_sqrt)
        assert rewards[0] == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_clamp(self):
        floor = 1e-8
        buf = fill(make_buffer(10), [[0.3, 0.1, -0.2, 0.0]] * 5)
        inv_sqrt = compute_whitening(buf, eigen_floor=floor)
        np.testing.assert_allclose(inv_sqrt, np.eye(4) / math.sqrt(floor), rtol=1e-9)

    def test_too_small(self):
        with pytest.raises(BufferTooSmall):
            compute_whitening(fill(make_buffer(10), [[1, 0, 0, 0]]), EIGEN_FLOOR)

    def test_whiten_batch_identity_stats_is_noop(self):
        buf = fill(make_buffer(10), [[0.1, 0.2, -0.3, 0.4]])
        batch = replay_rows(buf)
        rescaled, scalars = scalar_reference.whiten_batch(batch, np.eye(4))
        np.testing.assert_allclose(rescaled, batch.reward, atol=1e-15)
        assert scalars[0] == pytest.approx(scalar_rewards(batch)[0], abs=1e-15)
        rewards = whiten_rewards(batch, np.eye(4))
        assert rewards.tobytes() == scalars.tobytes()
        # the batch and the stored originals untouched
        assert batch.reward.tolist() == replay_rows(buf).reward.tolist() == [[0.1, 0.2, -0.3, 0.4]]

    def test_weight_direction_determines_output(self):
        rng = np.random.default_rng(21)
        buf = fill(make_buffer(100), rng.normal(size=(50, 4)))
        inv_sqrt = compute_whitening(buf, EIGEN_FLOOR)
        w = np.array([0.1, 0.2, 0.3, 0.4])
        reward = (0.3, -0.2, 0.5, 0.1)
        for scale in (1.0, 3.7, 0.01):
            out = whiten_rewards(replay_rows(fill(make_buffer(10), [reward], weights=scale * w)), inv_sqrt)
            if scale == 1.0:
                base = out[0]
            else:
                assert out[0] == pytest.approx(base, rel=1e-12)

    def test_unit_variance_projection(self):
        rng = np.random.default_rng(31)
        mix = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
        buf = fill(make_buffer(100_000), rng.normal(size=(5000, 4)) @ mix + rng.normal(size=4))
        inv_sqrt = compute_whitening(buf, eigen_floor=1e-8)
        assert np.linalg.eigvalsh(buf.reward_moments()[1]).min() > 100 * 1e-8
        rewards = replay_rows(buf).reward
        for _ in range(10):
            w = rng.normal(size=4)
            w /= np.linalg.norm(w)
            projected = rewards @ inv_sqrt @ w
            assert np.var(projected, ddof=1) == pytest.approx(1.0, abs=1e-6)

    def test_idempotent_on_whitened_replay(self):
        rng = np.random.default_rng(41)
        mix = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
        raw = rng.normal(size=(2000, 4)) @ mix
        buf = fill(make_buffer(100_000), raw)
        # unit-norm one-hot weights
        whitened, _ = scalar_reference.whiten_batch(replay_rows(buf), compute_whitening(buf, EIGEN_FLOOR))
        buf2 = fill(make_buffer(100_000), whitened)
        inv_sqrt2 = compute_whitening(buf2, EIGEN_FLOOR)
        np.testing.assert_allclose(buf2.reward_moments()[1], np.eye(4), atol=1e-9)
        np.testing.assert_allclose(inv_sqrt2, np.eye(4), atol=1e-6)
