import math

import numpy as np
import pytest

from moqtrader import agent
from moqtrader.agent import (
    TrainConfig,
    act_epsilon_greedy,
    one_hot_weights,
    rng_streams,
    sample_gamma,
    sample_weights,
    train,
    uniform_weights,
)
from moqtrader.env import Mode
from moqtrader.errors import InvalidValue
from moqtrader.market_data import make_split
from moqtrader.qnet import QNetwork, TargetNetwork, bellman_targets
from moqtrader.synthetic import generate_synthetic


def small_cfg(**overrides):
    base = dict(
        mode=Mode.LSP,
        multi_reward=True,
        episodes=2,
        eval_every=1,
        lookback=6,
        reward_window=4,
        batchsize=8,
        k=2,
        episode_len=30,
        random_access=True,
        max_age=50,
        hidden=(8,),
        tol=0.2,
        seed=5,
    )
    base.update(overrides)
    return TrainConfig(**base)


def sine_series(n=400):
    return generate_synthetic("sine", n, amplitude=0.08, period=40.0)


class TestSampling:
    def test_weights_on_simplex(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            w = sample_weights(rng)
            assert w.shape == (4,)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_weights_symmetric_mean(self):
        rng = np.random.default_rng(1)
        draws = np.stack([sample_weights(rng) for _ in range(100_000)])
        np.testing.assert_allclose(draws.mean(axis=0), 0.25, atol=0.01)

    def test_weights_deterministic(self):
        a = sample_weights(np.random.default_rng(2))
        b = sample_weights(np.random.default_rng(2))
        np.testing.assert_array_equal(a, b)

    def test_one_hot_weights(self):
        np.testing.assert_array_equal(one_hot_weights("lr"), [1, 0, 0, 0])
        np.testing.assert_array_equal(one_hot_weights("powc"), [0, 0, 0, 1])

    def test_gamma_degenerate_range(self):
        assert sample_gamma(np.random.default_rng(3), (0.9, 0.9)) == 0.9

    def test_gamma_uniform_mean(self):
        rng = np.random.default_rng(4)
        draws = [sample_gamma(rng, (0.5, 1.0)) for _ in range(100_000)]
        assert abs(np.mean(draws) - 0.75) < 0.005
        assert all(0.5 <= g < 1.0 for g in draws)


class TestActEpsilonGreedy:
    def constant_net(self, q_values):
        net = QNetwork([11, len(q_values)], seed=0)
        net.weights[0][...] = 0.0
        net.biases[0][...] = q_values
        return net

    def test_pure_exploration_uniform(self):
        net = self.constant_net([0.0, 0.0, 0.0])
        rng = np.random.default_rng(5)
        feats, w = np.zeros(6), uniform_weights()
        draws = 100_000
        counts = np.bincount(
            [act_epsilon_greedy(net, feats, w, 0.9, 1.0 - 1e-12, rng, n_actions=3, include_gamma=True) for _ in range(draws)],
            minlength=3,
        )
        sigma = math.sqrt((1 / 3) * (2 / 3) / draws)
        np.testing.assert_allclose(counts / draws, 1 / 3, atol=3 * sigma)

    def test_greedy_argmax(self):
        net = self.constant_net([1.0, 3.0, 2.0])
        a = act_epsilon_greedy(net, np.zeros(6), uniform_weights(), 0.9, 0.0,
                               np.random.default_rng(1), n_actions=3, include_gamma=True)
        assert a == 1  # Sell in LSP ordering

    def test_tie_breaks_to_lowest_id(self):
        net = self.constant_net([2.0, 2.0, 0.0])
        a = act_epsilon_greedy(net, np.zeros(6), uniform_weights(), 0.9, 0.0,
                               np.random.default_rng(1), n_actions=3, include_gamma=True)
        assert a == 0


class TestConfig:
    def test_validate_catches_bad_values(self):
        with pytest.raises(InvalidValue):
            small_cfg(gamma=1.5).validate()
        with pytest.raises(InvalidValue):
            small_cfg(alpha=0.0).validate()
        with pytest.raises(InvalidValue):
            small_cfg(reward="drawdown").validate()
        with pytest.raises(InvalidValue):
            small_cfg(pin_weights=(1.0, 1.0, 0.0, 0.0)).validate()

    def test_eval_episode_set(self):
        assert small_cfg(episodes=10, eval_every=5).eval_episode_set() == (5, 10)
        assert small_cfg(episodes=3, eval_every=1).eval_episode_set() == (1, 2, 3)

    def test_input_width(self):
        assert small_cfg(lookback=30).input_width == 35
        assert small_cfg(lookback=30, generalize_gamma=True).input_width == 36

    def test_stream_independence(self):
        streams = rng_streams(7)
        again = rng_streams(7)
        for name in streams:
            assert streams[name].uniform() == again[name].uniform()
        fresh = rng_streams(8)
        assert rng_streams(7)["explore"].uniform() != fresh["explore"].uniform()


class TestTrainLoop:
    def test_no_update_episodes_leave_network_at_init(self):
        series = sine_series()
        split = make_split(series)
        cfg = small_cfg(episodes=1, eval_every=2)  # S is empty
        result = train(cfg, series, split)
        expected = QNetwork(cfg.widths, seed=rng_streams(cfg.seed)["init"], momentum=cfg.momentum)
        assert result.net.params_equal(expected)
        assert result.updates == 0
        assert result.checkpoints == []

    def test_checkpoints_only_for_eval_episodes(self):
        series = sine_series()
        split = make_split(series)
        result = train(small_cfg(episodes=4, eval_every=2), series, split)
        assert [ck.episode for ck in result.checkpoints] == [2, 4]

    def test_seed_determinism(self):
        series = sine_series()
        split = make_split(series)
        a = train(small_cfg(), series, split)
        b = train(small_cfg(), series, split)
        assert a.net.params_equal(b.net)
        assert [ck.reports["eval"].to_dict() for ck in a.checkpoints] == [
            ck.reports["eval"].to_dict() for ck in b.checkpoints
        ]

    def test_replay_composition_multi_vs_single(self):
        series = sine_series()
        split = make_split(series)
        # S empty so no eviction interferes: every push is retained
        single = train(small_cfg(multi_reward=False, episodes=1, eval_every=2, k=3), series, split)
        multi = train(small_cfg(multi_reward=True, episodes=1, eval_every=2, k=3), series, split)
        assert len(multi.replay) == 4 * len(single.replay)
        assert single.env_steps == multi.env_steps == len(single.replay)

    def test_real_trajectory_invariant_to_k(self):
        series = sine_series()
        split = make_split(series)
        runs = {
            k: train(small_cfg(episodes=1, eval_every=2, k=k), series, split)
            for k in (0, 3)
        }
        real0 = [exp for exp in runs[0].replay]
        real3 = [exp for exp in runs[3].replay][:: 3 + 1]
        assert len(real0) == len(real3)
        for a, b in zip(real0, real3):
            np.testing.assert_array_equal(a.state, b.state)
            assert a.action == b.action
            assert a.scalar_reward == b.scalar_reward

    def test_one_hot_reduction_scalar_stream(self):
        series = sine_series()
        split = make_split(series)
        single = train(small_cfg(multi_reward=False, reward="lr", episodes=1, eval_every=2, k=3), series, split)
        pinned = train(
            small_cfg(multi_reward=True, pin_weights=(1.0, 0.0, 0.0, 0.0), episodes=1, eval_every=2, k=3),
            series, split,
        )
        stream_single = [exp.scalar_reward for exp in single.replay]
        stream_multi = [exp.scalar_reward for exp in pinned.replay][::4]
        assert stream_single == stream_multi
        for a, b in zip(single.replay, list(pinned.replay)[::4]):
            assert a.raw_reward == b.raw_reward
            assert a.action == b.action

    def test_one_hot_reduction_identical_training(self):
        # with k=0 and whitening off, pinned multi-reward is the single-reward
        # pipeline: identical batches, targets, parameters and metrics
        series = sine_series()
        split = make_split(series)
        w_eval = one_hot_weights("lr")
        single = train(small_cfg(multi_reward=False, reward="lr", whiten=False, k=0), series, split,
                       eval_weights=w_eval)
        pinned = train(
            small_cfg(multi_reward=True, pin_weights=(1.0, 0.0, 0.0, 0.0), whiten=False, k=0),
            series, split, eval_weights=w_eval,
        )
        assert single.net.params_equal(pinned.net)
        assert [ck.reports["train"].to_dict() for ck in single.checkpoints] == [
            ck.reports["train"].to_dict() for ck in pinned.checkpoints
        ]

    def test_one_hot_reduction_bellman_targets(self):
        series = sine_series()
        split = make_split(series)
        single = train(small_cfg(multi_reward=False, reward="lr", episodes=1, eval_every=2, k=3), series, split)
        pinned = train(
            small_cfg(multi_reward=True, pin_weights=(1.0, 0.0, 0.0, 0.0), episodes=1, eval_every=2, k=3),
            series, split,
        )
        net = QNetwork(small_cfg().widths, seed=1)
        target = TargetNetwork(net.clone())
        batch_single = list(single.replay)[:16]
        batch_multi = list(pinned.replay)[::4][:16]
        _, t_single = bellman_targets(batch_single, net, target, alpha=0.7, include_gamma=False)
        _, t_multi = bellman_targets(batch_multi, net, target, alpha=0.7, include_gamma=False)
        np.testing.assert_allclose(t_single, t_multi, atol=1e-12, rtol=0)

    def test_age_bound_after_training(self):
        series = sine_series()
        split = make_split(series)
        result = train(small_cfg(episodes=3, max_age=20), series, split)
        buf = result.replay
        assert all(buf.update_counter - exp.birth_update <= buf.max_age for exp in buf)

    def test_augment_counterfactual_matches_real_when_forced(self):
        from moqtrader.env import TradingEnv

        series = sine_series()
        env = TradingEnv(series, Mode.LSP, lookback=6, reward_window=4)
        state = env.reset((0, 200))
        feats = env.state_features(state)
        net = QNetwork([11, 3], seed=0)
        cfg = small_cfg(k=1, hindsight_action="replay", pin_weights=(1.0, 0.0, 0.0, 0.0))
        real = env.transition(state, 0)
        extras = agent.augment_experiences(env, state, feats, 0, net, cfg, np.random.default_rng(0))
        assert len(extras) == 1
        assert extras[0].action == 0
        assert extras[0].raw_reward == real.reward
        np.testing.assert_array_equal(extras[0].next_state[:6], env.state_features(real.next_state)[:6])
        # the real environment did not advance
        assert env.state.cursor == state.cursor

    def test_augment_k_zero(self):
        from moqtrader.env import TradingEnv

        series = sine_series()
        env = TradingEnv(series, Mode.LSP, lookback=6, reward_window=4)
        state = env.reset((0, 200))
        net = QNetwork([11, 3], seed=0)
        extras = agent.augment_experiences(env, state, env.state_features(state), 0, net, small_cfg(k=0),
                                           np.random.default_rng(0))
        assert extras == []

    def test_generalized_gamma_training(self):
        series = sine_series()
        split = make_split(series)
        cfg = small_cfg(generalize_gamma=True, gamma_range=(0.6, 0.99))
        assert cfg.input_width == 6 + 1 + 4 + 1
        a = train(cfg, series, split)
        b = train(cfg, series, split)
        assert a.net.params_equal(b.net)
        assert a.net.input_width == cfg.input_width
        gammas = {exp.gamma for exp in a.replay}
        assert len(gammas) > 1
        assert all(0.6 <= g < 0.99 for g in gammas)
        # evaluation defaults to the range midpoint
        assert a.checkpoints[-1].reports["eval"].range == split.eval

    def test_lp_mode_training(self):
        series = sine_series()
        split = make_split(series)
        result = train(small_cfg(mode=Mode.LP), series, split)
        assert result.net.output_width == 2
        assert all(exp.action in (0, 1) for exp in result.replay)
        # LP can never hold a short: next-state position feature is 0 or +1
        assert all(exp.next_state[-1] in (0.0, 1.0) for exp in result.replay)

    def test_hindsight_replay_action_mode(self):
        series = sine_series()
        split = make_split(series)
        result = train(small_cfg(hindsight_action="replay", episodes=1, eval_every=2, k=2), series, split)
        items = list(result.replay)
        for i in range(0, len(items), 3):  # real experience then k=2 extras
            real, extras = items[i], items[i + 1 : i + 3]
            assert all(extra.action == real.action for extra in extras)
            np.testing.assert_array_equal(extras[0].state, real.state)

    def test_metrics_and_checkpoint_files(self, tmp_path):
        series = sine_series()
        split = make_split(series)
        result = train(small_cfg(episodes=4, eval_every=2), series, split, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.glob("checkpoint_*.bin")) == ["checkpoint_2.bin", "checkpoint_4.bin"]
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        import json

        first = json.loads(lines[0])
        assert first["episode"] == 2
        assert set(first) == {"episode", "env_steps", "updates", "train", "eval", "test"}
        assert (tmp_path / "timing.log").exists()
        assert result.checkpoints[0].path == tmp_path / "checkpoint_2.bin"
