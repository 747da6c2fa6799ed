import json
import math
from dataclasses import asdict

import numpy as np
import pytest

import scalar_reference
from scalar_reference import bellman_targets, explore_action, new_rows, params_equal, replay_rows
from moqtrader import agent, evaluation
from moqtrader.agent import (
    TrainConfig,
    one_hot_weights,
    rng_streams,
    sample_gamma,
    sample_weights,
    train,
)
from moqtrader.env import Mode, TradingEnv
from moqtrader.errors import Diverged, InvalidValue, RangeTooShort
from moqtrader.market_data import make_split
from moqtrader.qnet import QNetwork, load_checkpoint
from moqtrader.replay import _COLUMNS, ReplayBuffer, compute_whitening, scalar_rewards, whiten_rewards
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
            w = sample_weights(rng, 1)[0]
            assert w.shape == (4,)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_weights_symmetric_mean(self):
        rng = np.random.default_rng(1)
        draws = sample_weights(rng, 100_000)
        np.testing.assert_allclose(draws.mean(axis=0), 0.25, atol=0.01)

    def test_weights_deterministic(self):
        a = sample_weights(np.random.default_rng(2), 1)
        b = sample_weights(np.random.default_rng(2), 1)
        np.testing.assert_array_equal(a, b)

    def test_one_hot_weights(self):
        np.testing.assert_array_equal(one_hot_weights("lr"), [1, 0, 0, 0])
        np.testing.assert_array_equal(one_hot_weights("powc"), [0, 0, 0, 1])

    def test_gamma_degenerate_range(self):
        assert sample_gamma(np.random.default_rng(3), (0.9, 0.9), 1).tolist() == [0.9]

    def test_gamma_uniform_mean(self):
        rng = np.random.default_rng(4)
        draws = sample_gamma(rng, (0.5, 1.0), 100_000)
        assert abs(np.mean(draws) - 0.75) < 0.005
        assert ((0.5 <= draws) & (draws < 1.0)).all()


class TestActEpsilonGreedy:
    """Epsilon-greedy acting: explore_action draws the random actions, and greedy slots take the argmax."""

    def test_pure_exploration_uniform(self):
        rng = np.random.default_rng(5)
        draws = 100_000
        counts = np.bincount([explore_action(rng, 1.0 - 1e-12, 3) for _ in range(draws)], minlength=3)
        sigma = math.sqrt((1 / 3) * (2 / 3) / draws)
        np.testing.assert_allclose(counts / draws, 1 / 3, atol=3 * sigma)

    @pytest.mark.parametrize("mode", [Mode.LSP, Mode.LP])
    def test_counterfactual_exploration_rate_and_uniform_actions(self, mode):
        cfg = small_cfg(mode=mode, k=3, tol=0.3)
        _, _, explore = agent.draw_conditioning(cfg, rng_streams(cfg.seed), 40_000)
        slots = explore[:, 1:].ravel()
        explored = slots[slots != agent.GREEDY]
        rate_sigma = math.sqrt(cfg.tol * (1 - cfg.tol) / len(slots))
        assert abs(len(explored) / len(slots) - cfg.tol) < 3 * rate_sigma
        p = 1 / cfg.mode.n_actions
        counts = np.bincount(explored, minlength=cfg.mode.n_actions)
        assert len(counts) == cfg.mode.n_actions
        np.testing.assert_allclose(counts / len(explored), p, atol=3 * math.sqrt(p * (1 - p) / len(explored)))

    def greedy_actions(self, q_values):
        """The actions of every greedy slot, real or counterfactual, in a fitting episode of a constant-Q network."""
        cfg = small_cfg(k=3, tol=0.4, batchsize=10_000)  # never a full batch, so the network stays constant
        run = learner(cfg, sine_series())
        run.net.weights[-1][...] = 0.0
        run.net.biases[-1][...] = q_values
        agent._fit_episode(run, run.env.reset((0, 200)))
        assert run.updates == 0
        _, _, explore = agent.draw_conditioning(cfg, rng_streams(cfg.seed), run.env_steps)
        actions = replay_rows(run.replay).action.reshape(explore.shape)
        assert np.count_nonzero(explore[:, 0] == agent.GREEDY) and np.count_nonzero(explore[:, 1:] == agent.GREEDY)
        return actions[explore == agent.GREEDY]

    def test_greedy_argmax(self):
        assert set(self.greedy_actions([1.0, 3.0, 2.0]).tolist()) == {1}  # Sell in LSP ordering

    def test_tie_breaks_to_lowest_id(self):
        assert set(self.greedy_actions([2.0, 2.0, 0.0]).tolist()) == {0}


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

    def test_validate_bounds_the_network_and_k_from_above(self):
        """Sizes that no allocation could hold are rejected at their bound, which the reason names."""
        small_cfg(k=agent.MAX_K).validate()
        with pytest.raises(InvalidValue, match=r"^invalid value for k: must be in \[0, 10000\]$"):
            small_cfg(k=agent.MAX_K + 1).validate()
        assert QNetwork(small_cfg(hidden=(2,)).widths)._params.size == 15 * 2 + 3  # 11 inputs, 3 actions: 15h + 3
        h = (agent.MAX_PARAMS - 3) // 15
        small_cfg(hidden=(h,)).validate()
        with pytest.raises(InvalidValue, match="^invalid value for hidden: the network must have at most 100000000 "):
            small_cfg(hidden=(h + 1,)).validate()
        small_cfg(lookback=agent.MAX_WINDOW, reward_window=agent.MAX_WINDOW).validate()  # one bound for both windows
        for key in ("lookback", "reward_window"):
            with pytest.raises(InvalidValue, match=rf"^invalid value for {key}: must be in \[1, 10000\]$"):
                small_cfg(**{key: agent.MAX_WINDOW + 1}).validate()

    def test_eval_episode_set(self):
        assert list(small_cfg(episodes=10, eval_every=5).eval_episode_set()) == [5, 10]
        assert list(small_cfg(episodes=3, eval_every=1).eval_episode_set()) == [1, 2, 3]

    def test_input_width(self):
        assert small_cfg(lookback=30).widths[0] == 35
        assert small_cfg(lookback=30, generalize_gamma=True).widths[0] == 36

    def test_stream_layout(self):
        """The first seven streams keep their names and spawn indices; the counterfactual streams follow."""
        assert agent.STREAM_NAMES[:7] == ("init", "env", "explore", "weights", "gamma", "batch", "augment")
        assert agent.STREAM_NAMES[7:] == ("augment_gamma", "augment_explore", "augment_action")
        streams = rng_streams(7)
        for index, child in enumerate(np.random.SeedSequence(7).spawn(7)):
            name = agent.STREAM_NAMES[index]
            assert streams[name].bit_generator.state == np.random.default_rng(child).bit_generator.state, name

    def test_array_draws_equal_single_calls(self):
        """One array call of each counterfactual draw equals as many single calls, end state included."""
        draws = {
            "exponential": (lambda rng: rng.exponential(1.0, size=(7, 3, 4)), lambda rng: rng.exponential(1.0, size=4)),
            "random": (lambda rng: rng.random((7, 3)), lambda rng: rng.random()),
            "integers": (lambda rng: rng.integers(3, size=(7, 3)), lambda rng: rng.integers(3)),
        }
        for name, (array_call, single_call) in draws.items():
            whole, single = np.random.default_rng(11), np.random.default_rng(11)
            expected = array_call(whole)
            got = np.array([single_call(single) for _ in range(7 * 3)]).reshape(expected.shape)
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes(), name
            assert single.bit_generator.state == whole.bit_generator.state, name

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
        assert params_equal(result.net, expected)
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
        assert params_equal(a.net, b.net)
        assert [asdict(ck.reports["eval"]) for ck in a.checkpoints] == [
            asdict(ck.reports["eval"]) for ck in b.checkpoints
        ]

    def test_replay_composition_multi_vs_single(self):
        series = sine_series()
        split = make_split(series)
        # S empty so no eviction interferes: every push is retained
        single = train(small_cfg(multi_reward=False, episodes=1, eval_every=2, k=3), series, split)
        multi = train(small_cfg(multi_reward=True, episodes=1, eval_every=2, k=3), series, split)
        assert len(multi.replay) == 4 * len(single.replay)
        assert single.env_steps == multi.env_steps == len(single.replay)

    @pytest.mark.parametrize("case", [
        dict(k=0, generalize_gamma=True),
        dict(multi_reward=False, k=3, generalize_gamma=True),
        dict(k=3, pin_weights=(0.1, 0.2, 0.3, 0.4), hindsight_action="replay"),
    ])
    def test_counterfactual_streams_untouched_without_counterfactual_draws(self, case, monkeypatch):
        series = sine_series()
        used = []

        def recorded_streams(seed):
            used.append(rng_streams(seed))
            return used[-1]

        monkeypatch.setattr(agent, "rng_streams", recorded_streams)
        for cfg in (small_cfg(episodes=3, **case), small_cfg(episodes=3, k=3, generalize_gamma=True)):
            train(cfg, series, make_split(series))
        fresh = rng_streams(small_cfg().seed)
        counterfactual = ("augment", "augment_gamma", "augment_explore", "augment_action")
        untouched = [used[0][name].bit_generator.state == fresh[name].bit_generator.state for name in counterfactual]
        drawn = [used[1][name].bit_generator.state == fresh[name].bit_generator.state for name in counterfactual]
        assert untouched == [True] * 4 and drawn == [False] * 4

    def test_real_trajectory_invariant_to_k(self):
        series = sine_series()
        split = make_split(series)
        runs = {
            k: train(small_cfg(episodes=1, eval_every=2, k=k), series, split)
            for k in (0, 3)
        }
        real0 = replay_rows(runs[0].replay)
        real3 = replay_rows(runs[3].replay, np.arange(0, len(runs[3].replay), 3 + 1))
        assert len(real0.action) == len(real3.action)
        np.testing.assert_array_equal(real0.inputs[0, :, :7], real3.inputs[0, :, :7])  # the states
        np.testing.assert_array_equal(real0.action, real3.action)
        np.testing.assert_array_equal(scalar_rewards(real0), scalar_rewards(real3))

    def test_one_hot_reduction_scalar_stream(self):
        series = sine_series()
        split = make_split(series)
        single = train(small_cfg(multi_reward=False, reward="lr", episodes=1, eval_every=2, k=3), series, split)
        pinned = train(
            small_cfg(multi_reward=True, pin_weights=(1.0, 0.0, 0.0, 0.0), episodes=1, eval_every=2, k=3),
            series, split,
        )
        rows_single = replay_rows(single.replay)
        rows_multi = replay_rows(pinned.replay, np.arange(0, len(pinned.replay), 4))
        assert scalar_rewards(rows_single).tolist() == scalar_rewards(rows_multi).tolist()
        assert rows_single.reward.tolist() == rows_multi.reward.tolist()
        assert rows_single.action.tolist() == rows_multi.action.tolist()

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
        assert params_equal(single.net, pinned.net)
        assert [asdict(ck.reports["train"]) for ck in single.checkpoints] == [
            asdict(ck.reports["train"]) for ck in pinned.checkpoints
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
        target = net.clone()
        batch_single = replay_rows(single.replay, np.arange(16))
        batch_multi = replay_rows(pinned.replay, np.arange(0, 64, 4))
        _, t_single = bellman_targets(batch_single, scalar_rewards(batch_single), net, target, alpha=0.7)
        _, t_multi = bellman_targets(batch_multi, scalar_rewards(batch_multi), net, target, alpha=0.7)
        np.testing.assert_allclose(t_single, t_multi, atol=1e-12, rtol=0)

    def test_age_bound_after_training(self):
        series = sine_series()
        split = make_split(series)
        result = train(small_cfg(episodes=3, max_age=20), series, split)
        buf = result.replay
        assert np.all(result.updates - buf._birth[buf._lo : buf._hi] <= buf.max_age)

    def test_augment_counterfactual_matches_real_when_forced(self):
        # a replayed counterfactual repeats its real row under its own conditioning
        series = sine_series()
        cfg = small_cfg(k=1, hindsight_action="replay", episodes=2, eval_every=2, max_age=10_000)
        result = train(cfg, series, make_split(series))  # one frozen, one fitting episode
        rows = replay_rows(result.replay)
        real, replayed = slice(0, None, 2), slice(1, None, 2)
        assert result.updates > 0 and len(rows.action) == 2 * result.env_steps
        assert rows.action[replayed].tolist() == rows.action[real].tolist()
        assert rows.reward[replayed].tobytes() == rows.reward[real].tobytes()
        states = rows.inputs[:, :, :7]  # each row's state, then its next state
        assert states[:, replayed].tobytes() == states[:, real].tobytes()

    def test_augment_k_zero(self):
        series = sine_series()
        result = train(small_cfg(k=0, episodes=2, eval_every=2, max_age=10_000), series, make_split(series))
        assert result.updates > 0
        assert len(result.replay) == result.env_steps  # one row per step

    def test_generalized_gamma_training(self):
        series = sine_series()
        split = make_split(series)
        cfg = small_cfg(generalize_gamma=True, gamma_range=(0.6, 0.99))
        assert cfg.widths[0] == 6 + 1 + 4 + 1
        a = train(cfg, series, split)
        b = train(cfg, series, split)
        assert params_equal(a.net, b.net)
        assert a.net.widths == list(cfg.widths)
        gammas = set(replay_rows(a.replay).gamma.tolist())
        assert len(gammas) > 1
        assert all(0.6 <= g < 0.99 for g in gammas)
        # evaluation defaults to the range midpoint
        assert a.checkpoints[-1].reports["eval"].range == split.eval

    def test_lp_mode_training(self):
        series = sine_series()
        split = make_split(series)
        result = train(small_cfg(mode=Mode.LP), series, split)
        assert result.net.widths[-1] == 2
        rows = replay_rows(result.replay)
        assert set(rows.action.tolist()) <= {0, 1}
        # LP can never hold a short: next-state position feature is 0 or +1
        assert set(rows.inputs[1, :, 6].tolist()) <= {0.0, 1.0}

    def test_hindsight_replay_action_mode(self):
        series = sine_series()
        split = make_split(series)
        result = train(small_cfg(hindsight_action="replay", episodes=1, eval_every=2, k=2), series, split)
        rows = replay_rows(result.replay)
        for i in range(0, len(rows.action), 3):  # real experience then k=2 extras
            assert all(rows.action[i + 1 : i + 3] == rows.action[i])
            np.testing.assert_array_equal(rows.inputs[0, i + 1, :7], rows.inputs[0, i, :7])

    def test_metrics_and_checkpoint_files(self, tmp_path):
        series = sine_series()
        split = make_split(series)
        result = train(small_cfg(episodes=4, eval_every=2), series, split, out_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.glob("checkpoint_*.bin")) == ["checkpoint_2.bin", "checkpoint_4.bin"]
        lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["episode"] == 2
        assert set(first) == {"episode", "env_steps", "updates", "train", "eval", "test"}
        assert (tmp_path / "timing.log").exists()
        assert result.checkpoints[0].path == tmp_path / "checkpoint_2.bin"

    def test_series_shorter_than_lookback(self):
        series = sine_series(20)
        with pytest.raises(RangeTooShort):
            train(small_cfg(lookback=30), series, make_split(series))

    def test_a_huge_episode_count_reaches_its_first_episode(self, monkeypatch):
        # train walks the evaluated episodes as it goes; a schedule built whole would not fit in memory
        class Reached(Exception):
            pass

        def first_fit(run, state):
            raise Reached

        monkeypatch.setattr(agent, "_fit_episode", first_fit)
        series = sine_series()
        with pytest.raises(Reached):
            train(small_cfg(episodes=10**12, eval_every=1), series, make_split(series))

    def test_train_range_of_no_step_fails_at_a_frozen_episode(self):
        series = sine_series(20)  # train range (0, 12): lookback 11 leaves no step
        with pytest.raises(RangeTooShort, match="range length 12 < lookback"):
            train(small_cfg(lookback=11, random_access=False, episodes=2, eval_every=2), series, make_split(series))


class TestTargetSync:
    """train copies the online parameters into the target every sync_period updates."""

    EPISODE_LEN = 30

    def run(self, episodes, sync_period):
        # batchsize <= k + 1 lets every step of every episode fit, so each
        # episode makes exactly EPISODE_LEN updates and a sync period that is
        # a multiple of it syncs at episode ends, where checkpoints are taken.
        cfg = small_cfg(episodes=episodes, eval_every=1, batchsize=3, k=2,
                        episode_len=self.EPISODE_LEN, sync_period=sync_period)
        result = train(cfg, sine_series(), make_split(sine_series()))
        assert result.updates == episodes * self.EPISODE_LEN
        return cfg, result

    def test_period_one_always_synced(self):
        _, result = self.run(episodes=2, sync_period=1)
        assert params_equal(result.target, result.net)
        assert result.updates % 1 == 0  # staleness 0

    def test_below_period_no_copy(self):
        cfg, result = self.run(episodes=1, sync_period=self.EPISODE_LEN + 1)
        initial = QNetwork(cfg.widths, seed=rng_streams(cfg.seed)["init"], momentum=cfg.momentum)
        assert params_equal(result.target, initial)
        assert not params_equal(result.target, result.net)
        assert result.updates % cfg.sync_period == self.EPISODE_LEN  # staleness

    def test_staleness_bounded_over_run(self):
        period = 2 * self.EPISODE_LEN
        for episodes in range(1, 6):
            cfg, result = self.run(episodes=episodes, sync_period=period)
            synced_at = result.updates // period * period
            assert result.updates - synced_at <= period
            if synced_at == 0:
                expected = QNetwork(cfg.widths, seed=rng_streams(cfg.seed)["init"], momentum=cfg.momentum)
            else:
                expected = result.checkpoints[synced_at // self.EPISODE_LEN - 1].net
            assert params_equal(result.target, expected)

    def test_forward_equal_after_copy(self):
        _, result = self.run(episodes=3, sync_period=self.EPISODE_LEN)
        x = np.random.default_rng(9).normal(size=result.net.widths[0])
        np.testing.assert_array_equal(result.net.forward(x), result.target.forward(x))
        # a TD update bootstraps from that target: the same step as from the online network
        batch = replay_rows(result.replay, np.arange(8))
        stepped = []
        for target in (result.target, result.net):
            net = result.net.clone()
            net.td_update(target, batch, scalar_rewards(batch), alpha=1.0, learn_rate=0.1)
            stepped.append(params(net))
        assert stepped[0] == stepped[1] and stepped[0] != params(result.net)


def test_crash_partway_keeps_complete_artifacts(tmp_path, monkeypatch):
    """A run that diverges after its first evaluation keeps that episode's line and checkpoint."""
    series = sine_series()
    cfg = small_cfg(episodes=4, eval_every=2)
    td_update = QNetwork.td_update
    on_disk = {}

    def poisoned_update(net, *args, **kwargs):
        # the first update after episode 2's checkpoint poisons the network
        if (tmp_path / "checkpoint_2.bin").exists() and not on_disk:
            on_disk["metrics"] = (tmp_path / "metrics.jsonl").read_text()
            net.weights[0][0, 0] = float("nan")
        return td_update(net, *args, **kwargs)

    monkeypatch.setattr(QNetwork, "td_update", poisoned_update)
    with pytest.raises(Diverged):
        train(cfg, series, make_split(series), out_dir=tmp_path)

    # the line was on disk while the run was still going, not only after close
    assert on_disk["metrics"].endswith("\n")
    lines = (tmp_path / "metrics.jsonl").read_text().splitlines()
    assert on_disk["metrics"].splitlines() == lines
    assert [json.loads(line)["episode"] for line in lines] == [2]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint_2.bin", "metrics.jsonl", "timing.log"]
    net, meta = load_checkpoint(tmp_path / "checkpoint_2.bin")
    assert meta["episode"] == 2 and np.isfinite(net.weights[0]).all()


class Recorder:
    """A stand-in network: every greedy action is 0, and each forward's input is kept."""

    def __init__(self, n_actions):
        self.n_actions = n_actions
        self.inputs = []

    def forward(self, x):
        self.inputs.append(np.array(x))
        return np.zeros(self.n_actions)


def learner(cfg, series, net=None):
    streams = rng_streams(cfg.seed)
    initial = QNetwork(cfg.widths, seed=streams["init"], momentum=cfg.momentum)  # draws from the init stream either way
    net = net if net is not None else initial
    target = net.clone() if isinstance(net, QNetwork) else net
    env = TradingEnv(series, cfg.mode, lookback=cfg.lookback, reward_window=cfg.reward_window, fee=cfg.fee)
    return agent.TrainResult(cfg, streams, net, target, env, ReplayBuffer(cfg.max_age, env))


def next_draws(streams):
    return {name: rng.random() for name, rng in streams.items()}


CONDITIONING_CASES = {
    "drawn weights and gamma, resample": dict(generalize_gamma=True),
    "pinned weights": dict(pin_weights=(0.1, 0.2, 0.3, 0.4), generalize_gamma=True),
    "one-point gamma range": dict(generalize_gamma=True, gamma_range=(0.9, 0.9)),
    "replayed counterfactual actions": dict(hindsight_action="replay", generalize_gamma=True),
    "no counterfactuals": dict(k=0),
    "single reward": dict(multi_reward=False, reward="sr"),
}


REPLAY_CASES = [
    dict(generalize_gamma=True),
    dict(mode=Mode.LP, generalize_gamma=True, gamma_range=(0.9, 0.9)),
    dict(fee=3e-4, hindsight_action="replay"),
    dict(mode=Mode.LP, fee=3e-4, pin_weights=(0.25, 0.25, 0.25, 0.25), reward_window=1),
    dict(k=0, reward_window=12),
    dict(multi_reward=False, reward="powc", random_access=False),  # the table is the episode's own forward
    dict(multi_reward=False, reward="lr"),  # one table, four 60-step episodes a chunk
    dict(pin_weights=(0.1, 0.2, 0.3, 0.4), generalize_gamma=True, gamma_range=(0.9, 0.9), episode_len=20),  # table, k = 3
    dict(generalize_gamma=True, episode_len=20),  # three 20-step episodes of 4 rows a step per chunk
]
STRETCHES = (1, 5, 2)  # frozen episodes between two fitting episodes; the train range holds 249 steps

CONCAT_CASES = {
    "single reward": dict(multi_reward=False, reward="sr"),
    "k = 3, drawn gamma": dict(generalize_gamma=True),
    "pinned weights, one-point gamma range": dict(pin_weights=(0.1, 0.2, 0.3, 0.4), generalize_gamma=True,
                                                  gamma_range=(0.9, 0.9)),
    "replayed counterfactual actions": dict(hindsight_action="replay", generalize_gamma=True),
}


def live_columns(buffer):
    return {name: getattr(buffer, name)[buffer._lo : buffer._hi].tobytes() for name in _COLUMNS}


def moments(buffer):
    return b"".join(m.tobytes() for m in buffer.reward_moments())


def params(net):
    return [p.tobytes() for p in net.weights + net.biases]


class TestFrozenEpisode:
    """A frozen episode's pre-drawn conditioning and replay rows equal the step loop's."""

    @pytest.mark.parametrize("case", CONDITIONING_CASES)
    def test_conditioning_equals_step_loop_draws(self, case):
        cfg = small_cfg(**{"k": 3, "tol": 0.4, **CONDITIONING_CASES[case]})
        series = sine_series()
        loop, drawn = learner(cfg, series, Recorder(cfg.mode.n_actions)), learner(cfg, series)
        state = loop.env.reset((0, 200))
        scalar_reference.frozen_episode(loop, state)
        n = loop.env_steps
        weights, gamma, explore = agent.draw_conditioning(cfg, drawn.streams, n)
        assert next_draws(loop.streams) == next_draws(drawn.streams)

        rows = replay_rows(loop.replay)
        assert weights.shape == (n, len(rows.action) // n, 4)
        assert rows.weights.tobytes() == weights.reshape(-1, 4).tobytes()
        assert rows.gamma.tobytes() == gamma.tobytes()
        # the stand-in's greedy action is 0, and each greedy choice made one forward
        expected_actions, expected_inputs = [], []
        for t in range(n):
            real = max(explore[t, 0], 0)
            for i, draw in enumerate(explore[t]):
                expected_actions.append(real if draw == agent.REPLAYED else max(draw, 0))
                if draw == agent.GREEDY:
                    expected_inputs.append(np.append(weights[t, i], gamma[t, i])[: 4 + cfg.generalize_gamma])
        assert rows.action.tolist() == expected_actions
        recorded = [x[cfg.lookback + 1 :].tobytes() for x in loop.net.inputs]
        assert recorded == [x.tobytes() for x in expected_inputs]

    @pytest.mark.parametrize("case", CONCAT_CASES)
    @pytest.mark.parametrize("sizes", [(7, 13), (1, 64), (50, 3)])
    def test_draws_of_a_concatenation_concatenate(self, case, sizes):
        """Each draw kind has its own stream, so one call for a + b steps equals the calls for a and b, bit for bit."""
        cfg = small_cfg(**{"k": 3, "tol": 0.4, **CONCAT_CASES[case]})
        whole_streams, part_streams = rng_streams(cfg.seed), rng_streams(cfg.seed)
        whole = agent.draw_conditioning(cfg, whole_streams, sum(sizes))
        parts = [agent.draw_conditioning(cfg, part_streams, n) for n in sizes]
        for drawn, *pieces in zip(whole, *parts):
            assert drawn.tobytes() == np.concatenate(pieces).tobytes()
        assert next_draws(whole_streams) == next_draws(part_streams)

    @pytest.mark.parametrize("case", REPLAY_CASES)
    def test_replay_rows_and_end_state_equal_step_loop(self, case):
        cfg = small_cfg(**{"episode_len": 60, "k": 3, "tol": 0.3, **case})
        series = generate_synthetic("random-walk", 400, amplitude=0.02, seed=9)
        net = QNetwork(cfg.widths, seed=4)
        net.weights[0][: cfg.lookback] *= 50.0  # return inputs at unit scale, so that greedy actions vary
        loop, batched = learner(cfg, series, net), learner(cfg, series, net)
        split = make_split(series)
        for episodes in STRETCHES:
            scalar_reference.frozen_stretch(loop, split.train, episodes)
            agent._frozen_stretch(batched, split.train, episodes)
            assert batched.env_steps == loop.env_steps
            for run in (loop, batched):  # ages the replay between stretches, as fitting would
                run.updates += 1
                run.replay.evict(run.updates)
            assert live_columns(batched.replay) == live_columns(loop.replay)
            assert moments(batched.replay) == moments(loop.replay)
        assert len(set(replay_rows(loop.replay).action.tolist())) == cfg.mode.n_actions
        assert next_draws(loop.streams) == next_draws(batched.streams)

    @pytest.mark.parametrize("case, table, chunks", [
        (dict(multi_reward=False, reward="lr"), True, [4, 3]),
        (dict(pin_weights=(0.1, 0.2, 0.3, 0.4), generalize_gamma=True, gamma_range=(0.9, 0.9), episode_len=20),
         True, [3, 3, 1]),
        (dict(generalize_gamma=True, episode_len=20), False, [3, 3, 1]),  # 3 x 20 steps x 4 rows <= 249 rows
        (dict(generalize_gamma=True, episode_len=100), False, [1] * 7),  # 400 rows: a chunk holds one episode
    ])
    def test_chunks_hold_the_rows_of_one_train_range_pass(self, case, table, chunks, monkeypatch):
        """Chunks hold at most steps_in(train) rows but at least one episode.  Fixed conditioning forwards only rows
        the episodes visit, each (row, position) once in the stretch, on that conditioning; drawn conditioning
        forwards each chunk's (step, slot) rows at most once per position: a greedy real step at one position or
        more, a counterfactual at the one its step starts from."""
        cfg = small_cfg(**{"episode_len": 60, "k": 3, "tol": 0.3, **case})
        series = generate_synthetic("random-walk", 400, amplitude=0.02, seed=9)
        run, split = learner(cfg, series), make_split(series)
        forward, outcomes, push = QNetwork.forward, TradingEnv.outcomes, ReplayBuffer.push
        chunk_forwards, starts, pushes = [[]], [], []  # each chunk's forward inputs, and its episodes' first cursors

        def recorded_outcomes(env, cursors, taken):
            starts.append(np.array(cursors))
            chunk_forwards.append([])
            return outcomes(env, cursors, taken)

        monkeypatch.setattr(QNetwork, "forward",
                            lambda net, x: chunk_forwards[-1].append(np.array(x)) or forward(net, x))
        monkeypatch.setattr(TradingEnv, "outcomes", recorded_outcomes)
        monkeypatch.setattr(ReplayBuffer, "push", lambda buf, columns: pushes.append(1) or push(buf, columns))
        agent._frozen_stretch(run, split.train, 7)
        assert [len(c) for c in starts] == chunks and len(pushes) == len(chunks) and chunk_forwards.pop() == []
        forwarded = [x for forwards in chunk_forwards for x in forwards]
        rows = new_rows(forwarded)
        if table:  # one chooser for the stretch: only visited rows on the fixed conditioning, however episodes overlap
            visited = np.unique(np.add.outer(np.concatenate(starts) - cfg.lookback, np.arange(cfg.episode_len)))
            assert {row[: cfg.lookback].tobytes() for row in rows} <= {run.env.windows[v].tobytes() for v in visited}
            assert len(rows) <= len(visited) * cfg.mode.n_actions <= 249 * cfg.mode.n_actions
            assert sum(map(len, forwarded)) <= 249 * cfg.mode.n_actions + (evaluation.TILE_ROWS - 1) * len(forwarded)
            fixed = (*agent.training_weights(cfg), cfg.gamma_range[0]) if cfg.generalize_gamma else (1.0, 0.0, 0.0, 0.0)
            assert set(map(tuple, rows[:, cfg.lookback + 1 :].tolist())) == {fixed}
        else:  # per chunk, its real steps at one position or more, its counterfactuals at one at most
            for episodes, forwards in zip(chunks, chunk_forwards):
                steps = episodes * cfg.episode_len
                assert steps <= len(new_rows(forwards)) <= steps * (cfg.mode.n_actions + cfg.k)
        assert run.env_steps == 7 * cfg.episode_len


class TestFitEpisode:
    """A fitting episode's replay rows, network and stream states equal the step loop's."""

    @pytest.mark.parametrize("case", [*REPLAY_CASES, dict(whiten=False), dict(sync_period=7, momentum=0.5)])
    def test_equals_step_loop(self, case):
        cfg = small_cfg(**{"episodes": 3, "episode_len": 60, "k": 3, "tol": 0.3, "batchsize": 16,
                           "sync_period": 25, **case})
        series = generate_synthetic("random-walk", 400, amplitude=0.02, seed=9)
        net = QNetwork(cfg.widths, seed=4, momentum=cfg.momentum)
        net.weights[0][: cfg.lookback] *= 50.0  # return inputs at unit scale, so that greedy actions vary
        loop, fitted = learner(cfg, series, net.clone()), learner(cfg, series, net.clone())
        split = make_split(series)
        for episode in range(cfg.episodes):
            states = [agent._reset(run, split.train) for run in (loop, fitted)]
            scalar_reference.fit_episode(loop, states[0])
            agent._fit_episode(fitted, states[1])
            assert (fitted.env_steps, fitted.updates) == (loop.env_steps, loop.updates)
            assert live_columns(fitted.replay) == live_columns(loop.replay)
            assert moments(fitted.replay) == moments(loop.replay)
            assert params(fitted.net) == params(loop.net)
            assert params(fitted.target) == params(loop.target)
        assert loop.updates > 0 and params(loop.net) != params(net)
        assert len(set(replay_rows(loop.replay).action.tolist())) == cfg.mode.n_actions
        assert next_draws(loop.streams) == next_draws(fitted.streams)


TD_CASES = {
    "LSP, momentum 0, alpha 1, whitened": dict(),
    "LP, momentum 0.5, alpha 0.7, gamma input, whitened": dict(mode=Mode.LP, momentum=0.5, alpha=0.7,
                                                              generalize_gamma=True),
    "LSP, momentum 0.5, alpha 0.7, gamma input, raw rewards": dict(momentum=0.5, alpha=0.7, generalize_gamma=True,
                                                                  whiten=False),
    "LP, momentum 0, alpha 1, raw rewards, two hidden layers": dict(mode=Mode.LP, whiten=False, hidden=(8, 6)),
    "single reward, whitened": dict(multi_reward=False, reward="sr", alpha=0.7, episode_len=30),
    "benchmark geometry: LP, hidden (128, 64), gamma input, whitened": dict(
        mode=Mode.LP, generalize_gamma=True, hidden=(128, 64), lookback=30, reward_window=20, batchsize=64,
        learn_rate=0.1, episode_len=20),
}


def velocities(net):
    return [v.tobytes() for views in net._layer_views(net._velocity) for v in views]


class TestTdUpdate:
    """td_update steps exactly as the update path it replaced: whiten_batch, bellman_targets, fit_batch."""

    @pytest.mark.parametrize("case", TD_CASES)
    def test_equals_old_update_path(self, case):
        cfg = small_cfg(**{"episode_len": 10, "k": 3, "tol": 0.3, "batchsize": 16, "sync_period": 20,
                           "max_age": 30, "learn_rate": 0.01, **TD_CASES[case]})
        series = generate_synthetic("random-walk", 400, amplitude=0.02, seed=9)
        net = QNetwork(cfg.widths, seed=4, momentum=cfg.momentum)
        new, old = learner(cfg, series, net.clone()), learner(cfg, series, net.clone())
        split = make_split(series)
        batches_with_terminal_rows = 0
        for update in range(1, 61):
            if update % 10 == 1:  # a frozen episode every 10 updates; max_age 30 evicts the older ones
                agent._frozen_stretch(new, split.train, 1)
                scalar_reference.frozen_stretch(old, split.train, 1)

            batch = new.replay.sample_batch(cfg.batchsize, new.streams["batch"], cfg.generalize_gamma)
            rewards = scalar_rewards(batch)
            if cfg.whiten:
                rewards = whiten_rewards(batch, compute_whitening(new.replay, cfg.eigen_floor))
            loss = new.net.td_update(new.target, batch, rewards, alpha=cfg.alpha, learn_rate=cfg.learn_rate)

            old_batch = old.replay.sample_batch(cfg.batchsize, old.streams["batch"], cfg.generalize_gamma)
            old_rewards = scalar_rewards(old_batch)
            if cfg.whiten:
                _, old_rewards = scalar_reference.whiten_batch(old_batch, compute_whitening(old.replay, cfg.eigen_floor))
            inputs, targets = bellman_targets(old_batch, old_rewards, old.net, old.target, cfg.alpha)
            old_loss = scalar_reference.fit_batch(old.net, inputs, targets, cfg.learn_rate)

            batches_with_terminal_rows += bool(batch.terminal.any())
            for run in (new, old):
                run.updates += 1
                run.replay.evict(run.updates)
                if update % cfg.sync_period == 0:
                    run.target.copy_params_from(run.net)
            assert loss.hex() == old_loss.hex()
            assert params(new.net) == params(old.net)
            assert velocities(new.net) == velocities(old.net)
            assert params(new.target) == params(old.target)
            assert live_columns(new.replay) == live_columns(old.replay)
            assert moments(new.replay) == moments(old.replay)
        assert batches_with_terminal_rows > 0 and params(new.net) != params(net)
        assert next_draws(new.streams) == next_draws(old.streams)


TRAIN_CASES = {
    "multi-reward LSP, drawn gamma": dict(generalize_gamma=True),
    "LP, fee, replayed counterfactuals": dict(mode=Mode.LP, fee=3e-4, hindsight_action="replay"),
    "single-reward POWC": dict(multi_reward=False, reward="powc"),
    "benchmark geometry: LP, hidden (128, 64), gamma input, whitened": dict(
        mode=Mode.LP, generalize_gamma=True, hidden=(128, 64), lookback=30, reward_window=20, batchsize=64,
        learn_rate=0.1, episode_len=40),
    "single-reward LSP, one Q-table per frozen network, stretches split 4 + 1": dict(
        multi_reward=False, reward="lr", episodes=12, eval_every=6),
    "pinned weights, k = 3, one-point gamma range, stretches split 3 + 2": dict(
        pin_weights=(0.1, 0.2, 0.3, 0.4), generalize_gamma=True, gamma_range=(0.9, 0.9), episode_len=20, episodes=12,
        eval_every=6),
    "single-reward SR over the whole train range": dict(multi_reward=False, reward="sr", random_access=False),
}


@pytest.mark.parametrize("case", TRAIN_CASES)
def test_train_artifacts_equal_step_loop_runs(case, tmp_path, monkeypatch):
    """train writes the same metrics.jsonl and checkpoints, byte for byte, with both runners as step loops."""
    cfg = small_cfg(**{"episodes": 6, "eval_every": 3, "episode_len": 60, "k": 3, "tol": 0.3, **TRAIN_CASES[case]})
    series = generate_synthetic("random-walk", 400, amplitude=0.02, seed=9)
    train(cfg, series, make_split(series), out_dir=tmp_path / "engine")
    monkeypatch.setattr(agent, "_fit_episode", scalar_reference.fit_episode)
    monkeypatch.setattr(agent, "_frozen_stretch", scalar_reference.frozen_stretch)
    train(cfg, series, make_split(series), out_dir=tmp_path / "reference")
    names = sorted(p.name for p in (tmp_path / "engine").iterdir() if p.name != "timing.log")
    assert names == sorted([*(f"checkpoint_{e}.bin" for e in cfg.eval_episode_set()), "metrics.jsonl"])
    assert len(names) == 3
    for name in names:
        assert (tmp_path / "engine" / name).read_bytes() == (tmp_path / "reference" / name).read_bytes(), name


PINNED = (0.1, 0.2, 0.3, 0.4)
TABLE_CASES = {  # training config, and whether its conditioning is fixed
    "single reward": (dict(multi_reward=False, reward="lr"), True),
    "pinned weights": (dict(pin_weights=PINNED), True),
    "pinned weights, one-point gamma range": (dict(pin_weights=PINNED, generalize_gamma=True, gamma_range=(0.9, 0.9)),
                                              True),
    "pinned weights, drawn gamma": (dict(pin_weights=PINNED, generalize_gamma=True), False),
    "drawn weights": (dict(), False),
}


@pytest.mark.parametrize("case", TABLE_CASES)
def test_a_fixed_conditioning_stretch_builds_one_table(case, monkeypatch):
    """Each frozen stretch with episodes under fixed conditioning builds one greedy chooser, over the train range's
    rows on its own conditioning; drawn conditioning builds one per chunk, over its (step, slot) rows with their own
    conditioning, with a counterfactual's rows chosen at one position at most.  Either way the stretch forwards each
    (row, position) pair it chooses at once, and no other."""
    overrides, fixed = TABLE_CASES[case]
    cfg = small_cfg(**{"episodes": 12, "eval_every": 6, "episode_len": 60, "k": 3, **overrides})  # 5 + 5 frozen
    series = generate_synthetic("random-walk", 400, amplitude=0.02, seed=9)
    split = make_split(series)
    stretch, chooser, stretches, choosers = agent._frozen_stretch, evaluation.greedy_chooser, [], []
    forward, forwarded = QNetwork.forward, []

    def recorded_stretch(run, range_, episodes):
        built, start = len(choosers), len(forwarded)
        monkeypatch.setattr(QNetwork, "forward", lambda net, x: forwarded.append(np.array(x)) or forward(net, x))
        stretch(run, range_, episodes)
        monkeypatch.setattr(QNetwork, "forward", forward)
        stretches.append((episodes, choosers[built:]))
        tables = [table for *_, table in choosers[built:]]
        assert len(new_rows(forwarded[start:])) == sum(np.count_nonzero(table >= 0) for table in tables)

    def recorded_chooser(*args):
        choose, table = chooser(*args)
        choosers.append((*args[2:5], table))
        return choose, table

    monkeypatch.setattr(agent, "_frozen_stretch", recorded_stretch)
    monkeypatch.setattr(evaluation, "greedy_chooser", recorded_chooser)
    train(cfg, series, split, eval_weights=(0.4, 0.3, 0.2, 0.1), eval_gamma=0.8)
    m, steps = 1 + cfg.k * cfg.multi_reward, split.train[1] - split.train[0] - cfg.lookback - 1
    per_stretch = 1 if fixed else 5  # 249 train steps hold one 60-step episode of 4 rows a step
    assert [(episodes, len(built)) for episodes, built in stretches] == [(5, per_stretch), (5, per_stretch), (0, 0)]
    assert len(forwarded) > 0
    for rows, w, gamma, table in (built for _, stretch_choosers in stretches for built in stretch_choosers):
        chosen = np.count_nonzero(table >= 0, axis=1)
        if fixed:
            np.testing.assert_array_equal(rows, np.arange(split.train[0], split.train[0] + steps))
            np.testing.assert_array_equal(w, agent.training_weights(cfg))
            assert gamma == (cfg.gamma_range[0] if cfg.generalize_gamma else cfg.gamma)
        else:
            assert len(rows) == cfg.episode_len * m and w.shape == (len(rows), 4) and np.shape(gamma) == (len(rows),)
            np.testing.assert_array_equal(rows, np.repeat(np.arange(rows[0], rows[0] + 60), m))  # (step, slot)
            assert (chosen.reshape(-1, m)[:, 1:] <= 1).all()
        assert chosen.any()


DIVERGED_ON_TRAIN = r"^non-finite Q-values on train range \[0, 240\]$"


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_fixed_conditioning_stretch_of_a_non_finite_net_diverges(bad):
    """A frozen stretch whose one greedy chooser meets non-finite Q-values raises Diverged instead of argmaxing them."""
    cfg = small_cfg(multi_reward=False, reward="lr", episode_len=60)
    run = learner(cfg, generate_synthetic("random-walk", 400, amplitude=0.02, seed=9))
    run.net.weights[0][0, 0] = bad
    with pytest.raises(Diverged, match=DIVERGED_ON_TRAIN), np.errstate(invalid="ignore"):
        agent._frozen_stretch(run, (0, 240), 2)
    assert len(run.replay) == 0


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_a_drawn_conditioning_stretch_of_a_non_finite_net_diverges(bad):
    """Drawn conditioning's per-chunk choosers check their Q-values as well: the stretch raises Diverged naming the
    train range before it pushes a replay row, not at the next fitting update."""
    cfg = small_cfg(episode_len=60)
    run = learner(cfg, generate_synthetic("random-walk", 400, amplitude=0.02, seed=9))
    run.net.weights[0][0, 0] = bad
    with pytest.raises(Diverged, match=DIVERGED_ON_TRAIN), np.errstate(invalid="ignore"):
        agent._frozen_stretch(run, (0, 240), 2)
    assert len(run.replay) == 0


def test_diverged_at_the_poisoned_update(monkeypatch):
    """A non-finite loss raises Diverged at its update, naming it and the episode, before any evaluation."""
    series = sine_series()
    td_update, evaluate_split = QNetwork.td_update, evaluation.evaluate_split
    updates, evaluated = [], []

    def poisoned_update(net, *args, **kwargs):
        updates.append(len(updates) + 1)
        if len(updates) == 40:  # episode 1 makes 28 updates, so this is episode 2's 12th
            net.weights[0][0, 0] = float("nan")
        return td_update(net, *args, **kwargs)

    def recorded_evaluation(net, *args, **kwargs):
        evaluated.append(np.isfinite(net.weights[0]).all())
        return evaluate_split(net, *args, **kwargs)

    monkeypatch.setattr(QNetwork, "td_update", poisoned_update)
    monkeypatch.setattr(evaluation, "evaluate_split", recorded_evaluation)
    with pytest.raises(Diverged, match=r"^non-finite loss at update 40, in episode 2$"):
        train(small_cfg(episodes=3, eval_every=1), series, make_split(series))
    assert updates[-1] == 40
    assert evaluated == [True]  # episode 1's evaluation only
