import tracemalloc

import numpy as np
import pytest
from scalar_reference import buy_and_hold, run_policy

from moqtrader import agent
from moqtrader.agent import TrainConfig, run_walk_forward, uniform_weights
from moqtrader.env import Mode, TradingEnv
from moqtrader.errors import Diverged, EmptyCheckpointList, RangeTooShort, ShapeMismatch
from moqtrader.evaluation import EvaluationReport, q_table, select_best_checkpoint, vectorized_rollout
from moqtrader.market_data import PriceSeries, walk_forward_folds
from moqtrader.qnet import QNetwork
from moqtrader.synthetic import generate_synthetic


def series_of(closes):
    closes = np.asarray(closes, dtype=np.float64)
    return PriceSeries("test", np.arange(len(closes), dtype=np.int64), closes)


def env_of(series, mode=Mode.LSP, fee=0.0, *, lookback, reward_window):
    return TradingEnv(series, mode, lookback=lookback, reward_window=reward_window, fee=fee)


def constant_policy_net(bias, n_inputs=11):
    net = QNetwork([n_inputs, len(bias)], seed=0)
    net.weights[0][...] = 0.0
    net.biases[0][...] = bias
    return net


def linear_100_to_150(lookback):
    # price is exactly 100 at the first actionable cursor and 150 at the end
    ramp = np.linspace(100.0, 150.0, 60)
    return series_of([100.0] * lookback + list(ramp))


class TestRunPolicy:
    def test_permanent_neutral(self):
        series = generate_synthetic("sine", 200, amplitude=0.05, period=25.0)
        net = constant_policy_net([0.0, 0.0, 1.0])  # argmax -> Hold
        env = env_of(series, lookback=6, reward_window=4)
        trace, report = run_policy(net, env, (0, 200), uniform_weights(), 0.95)
        assert report.total_profit == 0.0
        assert report.sharpe == 0.0
        assert report.long_exposure == 0.0
        assert report.trades == 0
        assert np.all(trace.positions == 0)

    def test_permanent_long_profit(self):
        series = linear_100_to_150(lookback=5)
        net = constant_policy_net([1.0, 0.0, 0.0], n_inputs=10)  # argmax -> Buy
        _, report = run_policy(net, env_of(series, lookback=5, reward_window=4), (0, len(series)),
                               uniform_weights(), 0.95)
        assert report.total_profit == pytest.approx(0.5, abs=1e-9)
        assert report.long_exposure == 1.0
        assert report.trades == 1

    def test_fee_reduces_profit_per_leg(self):
        series = linear_100_to_150(lookback=5)
        net = constant_policy_net([1.0, 0.0, 0.0], n_inputs=10)
        _, free = run_policy(net, env_of(series, fee=0.0, lookback=5, reward_window=4), (0, len(series)),
                             uniform_weights(), 0.95)
        _, paid = run_policy(net, env_of(series, fee=0.001, lookback=5, reward_window=4), (0, len(series)),
                             uniform_weights(), 0.95)
        assert paid.trades == free.trades == 1
        assert 1.0 + paid.total_profit == pytest.approx((1.0 + free.total_profit) * (1 - 0.001), rel=1e-12)

    def test_profit_consistency_with_simple_returns(self):
        series = generate_synthetic("random-walk", 300, amplitude=0.01, seed=3)
        net = QNetwork([11, 3], seed=4)
        env = env_of(series, lookback=6, reward_window=4)
        trace, report = run_policy(net, env, (0, 300), uniform_weights(), 0.95)
        product = np.prod(1.0 + (np.exp(trace.portfolio_log_returns) - 1.0))
        assert report.total_profit == pytest.approx(product - 1.0, abs=1e-9)


MODES_AND_FEES = [(Mode.LSP, 0.0), (Mode.LSP, 0.0004), (Mode.LP, 0.0), (Mode.LP, 0.001)]


class TestBuyAndHold:
    """The closed-form benchmark equals the always-long env rollout bit for bit."""

    def test_matches_price_ratio(self):
        series = linear_100_to_150(lookback=5)
        for mode, fee in MODES_AND_FEES:
            report = buy_and_hold(env_of(series, mode, fee, lookback=5, reward_window=4), (0, len(series)))
            assert report.total_profit == pytest.approx(1.5 * (1.0 - fee) - 1.0, abs=1e-9)
            assert report.buy_and_hold_profit == report.total_profit
            assert report.buy_and_hold_sharpe == report.sharpe

    def test_constant_prices(self):
        series = series_of([42.0] * 50)
        for mode in (Mode.LSP, Mode.LP):
            report = buy_and_hold(env_of(series, mode, lookback=5, reward_window=4), (0, 50))
            assert report.total_profit == 0.0
            assert report.sharpe == 0.0
            assert report.buy_and_hold_profit == report.total_profit
            assert report.buy_and_hold_sharpe == report.sharpe

    def test_equals_forced_long_run_policy_exactly(self):
        series = generate_synthetic("random-walk", 250, amplitude=0.02, seed=9)
        rng = np.random.default_rng(29)
        for mode, fee in MODES_AND_FEES:
            net = constant_policy_net([1.0] + [0.0] * (mode.n_actions - 1), n_inputs=12)
            env = env_of(series, mode, fee, lookback=7, reward_window=5)
            starts = rng.integers(0, 120, size=9)
            ranges = [(10, 240)] + [(int(lo), int(rng.integers(lo + 7 + 2, 251))) for lo in starts]
            for lo, hi in ranges:
                _, forced = run_policy(net, env, (lo, hi), uniform_weights(), 0.95)
                bnh = buy_and_hold(env, (lo, hi), weights=uniform_weights())
                assert bnh.to_dict() == forced.to_dict()
                assert bnh.trades == 1
                assert bnh.buy_and_hold_profit == bnh.total_profit
                assert bnh.buy_and_hold_sharpe == bnh.sharpe


class TestVectorizedRollout:
    def test_q_table_slices_match_mode(self):
        series = generate_synthetic("sine", 120, amplitude=0.05, period=30.0)
        lp_net = QNetwork([11, 2], seed=1)
        q, _, _ = vectorized_rollout(lp_net, env_of(series, Mode.LP, lookback=6, reward_window=4), (0, 120),
                                     uniform_weights(), 0.95)
        assert q.shape[1:] == (2, 2)
        lsp_net = QNetwork([11, 3], seed=1)
        q, _, _ = vectorized_rollout(lsp_net, env_of(series, Mode.LSP, lookback=6, reward_window=4), (0, 120),
                                     uniform_weights(), 0.95)
        assert q.shape[1:] == (3, 3)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_q_values_raise(self, bad):
        series = generate_synthetic("sine", 120, amplitude=0.05, period=30.0)
        net = QNetwork([11, 8, 3], seed=1)
        net.weights[0][0, 0] = bad
        with pytest.raises(Diverged), np.errstate(invalid="ignore"):
            vectorized_rollout(net, env_of(series, lookback=6, reward_window=4), (0, 120), uniform_weights(), 0.95)

    @pytest.mark.parametrize("width,include_gamma", [(11, True), (12, False)])
    def test_net_of_another_input_width_raises(self, width, include_gamma):
        series = generate_synthetic("sine", 120, amplitude=0.05, period=30.0)
        with pytest.raises(ShapeMismatch):  # lookback 6, position code and 4 weights make 11 inputs, 12 with gamma
            vectorized_rollout(QNetwork([width, 3], seed=1), env_of(series, lookback=6, reward_window=4), (0, 120),
                               uniform_weights(), 0.95, include_gamma=include_gamma)

    def test_series_shorter_than_lookback(self):
        env = env_of(series_of([100.0, 101.0, 102.0, 101.0]), lookback=6, reward_window=4)
        with pytest.raises(RangeTooShort):
            vectorized_rollout(QNetwork([11, 3], seed=1), env, (0, 4), uniform_weights(), 0.95)

    def test_leaves_the_episode_range_alone(self):
        """An evaluation between two steps of an episode leaves the episode's next outcome unchanged."""
        series = generate_synthetic("sine", 120, amplitude=0.05, period=30.0)
        net = QNetwork([11, 3], seed=1)
        fresh, env = env_of(series, lookback=6, reward_window=4), env_of(series, lookback=6, reward_window=4)
        state = env.transition(env.reset((10, 60)), 0).next_state
        expected = fresh.transition(fresh.transition(fresh.reset((10, 60)), 0).next_state, 1)
        for range_ in [(0, 120), (30, 90)]:
            _, trace_a, rep_a = vectorized_rollout(net, fresh, range_, uniform_weights(), 0.95)
            _, trace_b, rep_b = vectorized_rollout(net, env, range_, uniform_weights(), 0.95)
            np.testing.assert_array_equal(trace_a.actions, trace_b.actions)
            assert rep_a.to_dict() == rep_b.to_dict()
        assert env.transition(state, 1) == expected
        assert expected.next_state.end == 60

    @pytest.mark.parametrize("mode,fee", [(Mode.LSP, 0.0), (Mode.LSP, 0.0005), (Mode.LP, 0.0)])
    def test_equals_naive_on_random_nets(self, mode, fee):
        rng = np.random.default_rng(17)
        series = generate_synthetic("random-walk", 400, amplitude=0.015, seed=23)
        env = env_of(series, mode, fee, lookback=6, reward_window=4)
        for trial in range(20):
            net = QNetwork([11, 8, mode.n_actions], seed=int(rng.integers(1 << 30)))
            w = agent.sample_weights(rng)
            lo = int(rng.integers(0, 100))
            hi = int(rng.integers(lo + 20, 400))
            trace_a, rep_a = run_policy(net, env, (lo, hi), w, 0.9)
            _, trace_b, rep_b = vectorized_rollout(net, env, (lo, hi), w, 0.9)
            np.testing.assert_array_equal(trace_a.actions, trace_b.actions)
            np.testing.assert_array_equal(trace_a.positions, trace_b.positions)
            np.testing.assert_array_equal(trace_a.portfolio_log_returns, trace_b.portfolio_log_returns)
            np.testing.assert_array_equal(trace_a.reward_vectors, trace_b.reward_vectors)
            assert rep_a.to_dict() == rep_b.to_dict()


def test_q_table_holds_one_block_beside_the_table():
    """A range's traced peak is its table plus one block's inputs and activations (~1.8 MB here), whatever its length."""
    series = generate_synthetic("random-walk", 20_100, amplitude=0.01, seed=3)
    env = env_of(series, lookback=30, reward_window=20)
    net = QNetwork([36, 128, 64, 3], seed=1)
    env.windows  # the series' log-returns are computed once, before tracing
    tracemalloc.start()
    try:
        table = q_table(net, env, (0, len(series)), uniform_weights(), 0.9, True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (20_069, 3, 3)
    assert peak < table.nbytes + 3 * 2**20


def make_checkpoint(episode, sharpe, profit=0.0):
    report = EvaluationReport(
        range_id="eval", range=(0, 10), total_reward=0.0, total_profit=profit, sharpe=sharpe,
        long_exposure=0.0, trades=0, buy_and_hold_profit=0.0, buy_and_hold_sharpe=0.0,
    )
    return agent.Checkpoint(episode=episode, net=None, reports={"eval": report})


class TestSelectBest:
    def test_single(self):
        ck = make_checkpoint(1, 0.5)
        assert select_best_checkpoint([ck]) is ck

    def test_argmax(self):
        cks = [make_checkpoint(1, 0.1), make_checkpoint(2, 0.5), make_checkpoint(3, 0.3)]
        assert select_best_checkpoint(cks, metric="sharpe").episode == 2

    def test_tie_goes_to_earliest(self):
        cks = [make_checkpoint(4, 0.4), make_checkpoint(9, 0.4)]
        assert select_best_checkpoint(cks).episode == 4

    def test_profit_metric(self):
        cks = [make_checkpoint(1, 0.9, profit=0.1), make_checkpoint(2, 0.1, profit=0.7)]
        assert select_best_checkpoint(cks, metric="profit").episode == 2

    def test_empty(self):
        with pytest.raises(EmptyCheckpointList):
            select_best_checkpoint([])


class TestWalkForward:
    def cfg(self):
        return TrainConfig(
            mode=Mode.LSP, multi_reward=True, episodes=2, eval_every=1, lookback=6,
            reward_window=4, batchsize=8, k=1, episode_len=25, random_access=True,
            max_age=50, hidden=(8,), seed=3,
        )

    def test_fold_reports_and_determinism(self):
        series = generate_synthetic("sine", 700, amplitude=0.08, period=35.0)
        plan = walk_forward_folds(series, 3, 0.1, 0.1)
        results = run_walk_forward(self.cfg(), series, plan)
        again = run_walk_forward(self.cfg(), series, plan)
        assert len(results) == 3
        assert [r.to_dict() for r in results] == [r.to_dict() for r in again]
        for index, (result, split) in enumerate(zip(results, plan.folds)):
            assert result.fold == index
            assert result.reports["train"].range == split.train
            assert result.reports["eval"].range == split.eval
            assert result.reports["test"].range == split.test

    def test_single_fold_matches_manual_run(self):
        series = generate_synthetic("sine", 700, amplitude=0.08, period=35.0)
        plan = walk_forward_folds(series, 1, 0.1, 0.1)
        result = run_walk_forward(self.cfg(), series, plan, metric="sharpe")[0]

        from dataclasses import replace

        seed = agent.fold_seed(self.cfg().seed, 0)
        manual = agent.train(replace(self.cfg(), seed=seed), series, plan.folds[0])
        best = select_best_checkpoint(manual.checkpoints, metric="sharpe", range_id="eval")
        assert result.best_episode == best.episode
        assert result.reports["test"].to_dict() == best.reports["test"].to_dict()
