import ctypes
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from scalar_reference import buy_and_hold, new_rows, run_policy, table_walk, unblocked_forward, walk_table

from moqtrader import agent, evaluation
from moqtrader.agent import TrainConfig, run_walk_forward, uniform_weights
from moqtrader.env import Mode, Position, TradingEnv
from moqtrader.errors import Diverged, EmptyCheckpointList, RangeTooShort, ShapeMismatch
from moqtrader.evaluation import (
    BLOCK_ROWS,
    SWEEP,
    TILE_ROWS,
    EvaluationReport,
    greedy_chooser,
    select_best_checkpoint,
    vectorized_rollout,
    walk_rounds,
)
from moqtrader.market_data import PriceSeries, walk_forward_folds
from moqtrader.qnet import QNetwork, build_input
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
                assert asdict(bnh) == asdict(forced)
                assert bnh.trades == 1
                assert bnh.buy_and_hold_profit == bnh.total_profit
                assert bnh.buy_and_hold_sharpe == bnh.sharpe


class TestVectorizedRollout:
    def test_chooser_actions_match_mode(self):
        series = generate_synthetic("sine", 120, amplitude=0.05, period=30.0)
        for mode in (Mode.LP, Mode.LSP):
            net, env = QNetwork([11, mode.n_actions], seed=1), env_of(series, mode, lookback=6, reward_window=4)
            choose, table = greedy_chooser(net, env, np.arange(env.steps_in((0, 120))), uniform_weights(), 0.95,
                                           False, "range")
            assert table.shape == (113, mode.n_actions) and table.dtype == np.int8 and (table == -1).all()
            chosen = choose(*np.indices(table.shape).reshape(2, -1))
            assert chosen.dtype == np.int8
            np.testing.assert_array_equal(chosen, table.ravel())
            assert set(table.ravel().tolist()) <= set(range(mode.n_actions))
            choices, _, _ = vectorized_rollout(net, env, (0, 120), uniform_weights(), 0.95)
            assert choices.shape == table.shape and choices.dtype == np.int8
            forwarded = choices >= 0
            np.testing.assert_array_equal(choices[forwarded], table[forwarded])

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

    @pytest.mark.parametrize("outputs", [2, 4])
    def test_net_of_another_output_width_raises(self, outputs):
        series = generate_synthetic("sine", 120, amplitude=0.05, period=30.0)
        env = env_of(series, lookback=6, reward_window=4)  # LSP: 3 actions
        with pytest.raises(ShapeMismatch):
            vectorized_rollout(QNetwork([11, outputs], seed=1), env, (0, 120), uniform_weights(), 0.95)
        with pytest.raises(ShapeMismatch):
            greedy_chooser(QNetwork([11, outputs], seed=1), env, np.arange(113), uniform_weights(), 0.95, False,
                           "range")

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
            assert asdict(rep_a) == asdict(rep_b)
        assert env.transition(state, 1) == expected
        assert expected.next_state.end == 60

    @pytest.mark.parametrize("mode,fee", [(Mode.LSP, 0.0), (Mode.LSP, 0.0005), (Mode.LP, 0.0)])
    def test_equals_naive_on_random_nets(self, mode, fee):
        rng = np.random.default_rng(17)
        series = generate_synthetic("random-walk", 400, amplitude=0.015, seed=23)
        env = env_of(series, mode, fee, lookback=6, reward_window=4)
        for trial in range(20):
            net = QNetwork([11, 8, mode.n_actions], seed=int(rng.integers(1 << 30)))
            w = agent.sample_weights(rng, 1)[0]
            lo = int(rng.integers(0, 100))
            hi = int(rng.integers(lo + 20, 400))
            trace_a, rep_a = run_policy(net, env, (lo, hi), w, 0.9)
            _, trace_b, rep_b = vectorized_rollout(net, env, (lo, hi), w, 0.9)
            np.testing.assert_array_equal(trace_a.actions, trace_b.actions)
            np.testing.assert_array_equal(trace_a.positions, trace_b.positions)
            np.testing.assert_array_equal(trace_a.portfolio_log_returns, trace_b.portfolio_log_returns)
            np.testing.assert_array_equal(trace_a.reward_vectors, trace_b.reward_vectors)
            assert asdict(rep_a) == asdict(rep_b)


def position_net(slopes, biases):
    """A linear net over lookback 6 whose action values depend only on the position code p: slopes * p + biases."""
    net = constant_policy_net(biases)
    net.weights[0][6] = slopes  # the position code's row follows the lookback returns
    return net


# Crafted policies of LSP (actions Long, Short, Neutral) and LP (Long, Neutral): the walk each makes from neutral,
# and the rows its rollout forwards and the calls of choose it takes over n steps.  The first round's SWEEP passes
# guess right but at the steps t % SWEEP == 0 after the first, which guess neutral; a second round rechooses those
# whose predecessor stands elsewhere.
CRAFTED = {
    "LSP constant neutral": (Mode.LSP, position_net([0.0, 0.0, 0.0], [0.0, 0.0, 1.0]), lambda t: 2,
                             lambda n: (n, SWEEP)),
    "LSP holding": (Mode.LSP, position_net([1.0, -1.0, 0.0], [0.5, 0.0, -1.0]), lambda t: 0,  # buys, then keeps
                    lambda n: (n + (n - 1) // SWEEP, SWEEP + 1)),  # the wrong guesses again, at long: no fallback
    "LSP alternating": (Mode.LSP, position_net([-1.0, 1.0, 0.0], [0.5, 0.0, -1.0]), lambda t: t % 2,
                        lambda n: (n + (n - 1) // SWEEP, SWEEP + 1)),  # at short, choosing long again: no fallback
    "LP alternating": (Mode.LP, position_net([-1.0, 0.0], [0.5, 0.0]), lambda t: t % 2,
                       lambda n: (n, SWEEP)),  # steps t % SWEEP == 0 follow a neutral step: every guess is right
}


def varied_net(rng, mode, lookback, include_gamma, step_std):
    """A random net whose choices hang on the returns (scaled to unit size) and, more or less, on the position."""
    net = QNetwork([lookback + 5 + include_gamma, *[(8,), (16, 8)][rng.integers(2)], mode.n_actions],
                   seed=int(rng.integers(1 << 30)))
    net.weights[0][:lookback] /= step_std
    net.weights[0][lookback] *= 10.0 ** rng.uniform(-1.0, 1.5)
    return net


def spied_walks(monkeypatch):
    """Records each walk_rounds call's rounds: the number of rows its choose callback forwarded, per call, read from
    the table of the greedy chooser built last."""
    walks, walk, chooser, tables = [], evaluation.walk_rounds, evaluation.greedy_chooser, []

    def recorded_chooser(*args):
        choose, table = chooser(*args)
        tables.append(table)
        return choose, table

    def counted(env, n, choose, forced):
        walks.append([])
        table = tables[-1]

        def counted_choose(steps, positions):
            chosen = np.count_nonzero(table >= 0)
            actions = choose(steps, positions)
            walks[-1].append(np.count_nonzero(table >= 0) - chosen)
            return actions
        return walk(env, n, counted_choose, forced)

    monkeypatch.setattr(evaluation, "greedy_chooser", recorded_chooser)
    monkeypatch.setattr(evaluation, "walk_rounds", counted)
    return walks


def max_rounds(n):
    return SWEEP + math.ceil(math.log2(n)) + 1


def memo(table):
    """choose(steps, positions) over a synthetic choice table, memoizing as greedy_chooser does over a net, with the
    memo, the (step, position) pairs chosen at in order, and each call's count of new pairs."""
    choices, asked, rounds = np.full(table.shape, -1, dtype=np.int8), [], []

    def choose(steps, positions):
        pairs = list(zip(steps.tolist(), positions.tolist()))
        assert len(set(pairs)) == len(pairs)  # a round asks for no pair twice
        new = choices[steps, positions] < 0
        rounds.append(np.count_nonzero(new))
        asked.extend(zip(steps[new].tolist(), positions[new].tolist()))
        choices[steps[new], positions[new]] = table[steps[new], positions[new]]
        return choices[steps, positions]
    return choose, choices, asked, rounds


class TestWalkRounds:
    """The rounds' walk equals the full table's walk (`scalar_reference.table_walk`), within the rounds' bounds."""

    @pytest.mark.parametrize("mode,fee", [(Mode.LSP, 0.0), (Mode.LSP, 0.0005), (Mode.LP, 0.0), (Mode.LP, 0.0005)])
    def test_equals_the_table_walk_on_random_draws(self, mode, fee, monkeypatch):
        rng = np.random.default_rng(41)
        series = generate_synthetic("random-walk", 1500, amplitude=0.015, seed=5)
        env = env_of(series, mode, fee, lookback=6, reward_window=4)
        walks, full = spied_walks(monkeypatch), []
        for _ in range(100):
            include_gamma = bool(rng.integers(2))
            net = varied_net(rng, mode, 6, include_gamma, 0.015)
            lo = int(rng.integers(0, 300))
            hi = int(rng.integers(lo + 8, 1501))
            w, gamma = agent.sample_weights(rng, 1)[0], float(rng.uniform(0.5, 1.0))
            choices, trace, _ = vectorized_rollout(net, env, (lo, hi), w, gamma, include_gamma=include_gamma)
            np.testing.assert_array_equal(trace.actions, table_walk(net, env, (lo, hi), w, gamma, include_gamma))
            assert len(walks[-1]) <= max_rounds(env.steps_in((lo, hi)))
            full.append(np.count_nonzero(choices < 0) == 0)
        rounds = [len(r) for r in walks]
        assert min(rounds) == SWEEP and max(rounds) >= SWEEP + 2  # draws that need one round, and draws that need more
        assert any(full) and not all(full)  # draws that forward every row, and draws that do not

    @pytest.mark.parametrize("case", CRAFTED)
    def test_crafted_policies(self, case, monkeypatch):
        mode, net, action, cost = CRAFTED[case]
        env = env_of(generate_synthetic("random-walk", 300, amplitude=0.015, seed=5), mode, lookback=6,
                     reward_window=4)
        walks = spied_walks(monkeypatch)
        _, trace, _ = vectorized_rollout(net, env, (0, 300), uniform_weights(), 0.9)
        n = env.steps_in((0, 300))
        np.testing.assert_array_equal(trace.actions, [action(t) for t in range(n)])
        np.testing.assert_array_equal(trace.actions, table_walk(net, env, (0, 300), uniform_weights(), 0.9))
        assert (sum(walks[0]), len(walks[0])) == cost(n)

    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 1026, 1027, 2049, 2050])
    def test_lengths_about_the_block_fold(self, n):
        """One-step ranges, and ranges whose rows fill a block exactly, fold a one-row remainder or open a block."""
        rng = np.random.default_rng(n)
        series = generate_synthetic("random-walk", 2100, amplitude=0.015, seed=7)
        for mode in (Mode.LSP, Mode.LP):
            env = env_of(series, mode, lookback=6, reward_window=4)
            range_ = (3, 3 + n + 7)
            assert env.steps_in(range_) == n
            nets = [varied_net(rng, mode, 6, False, 0.015) for _ in range(3)]
            nets += [net for m, net, *_ in CRAFTED.values() if m is mode]
            for net in nets:
                _, trace, _ = vectorized_rollout(net, env, range_, uniform_weights(), 0.9)
                np.testing.assert_array_equal(trace.actions, table_walk(net, env, range_, uniform_weights(), 0.9))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 64, 1000])
    def test_bounds_on_synthetic_tables(self, n):
        """Every row is chosen at most once, P * n rows in all, in at most SWEEP + ceil(log2 n) + 1 calls; a call
        asks for no row twice."""
        rng = np.random.default_rng(n)
        env = env_of(series_of(np.linspace(100.0, 110.0, 20)), lookback=6, reward_window=4)  # only its mode is read
        # From neutral, buy on even steps and sell on odd ones; hold any other position: a round confirms one step.
        parity = np.where(np.arange(n)[:, None] % 2, [0, 1, 1], [0, 1, 0])
        tables = [parity, np.tile([1, 0, 0], (n, 1))]  # and alternating
        for dependent in (0.0, 0.02, 0.2, 0.5, 1.0):
            for _ in range(10):
                table = rng.integers(0, 3, (n, 3))
                fixed = rng.random(n) >= dependent
                table[fixed] = table[fixed, :1]  # a choice that does not depend on the position held
                tables.append(table)
        for table in tables:
            choose, choices, asked, rounds = memo(table)
            actions, before = walk_rounds(env, n, choose, np.full(n, -1))
            assert len(set(asked)) == len(asked) <= 3 * n
            assert sorted(asked) == sorted(zip(*map(np.ndarray.tolist, np.nonzero(choices >= 0))))
            assert len(rounds) <= max_rounds(n)
            np.testing.assert_array_equal(choices[choices >= 0], table[choices >= 0])
            np.testing.assert_array_equal(actions, walk_table(env, table, [-1] * n, n))
            np.testing.assert_array_equal(before, np.concatenate(([2], actions[:-1])))

    @pytest.mark.parametrize("mode", [Mode.LSP, Mode.LP])
    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 64, 1000])
    def test_first_round_guesses_from_fresh_choices(self, mode, n):
        """A policy that never goes neutral, whatever position it holds, is walked at about n + n / SWEEP pairs: in
        the first round's passes only the steps t % SWEEP == 0 after the first guess neutral wrongly (a walk whose
        first round guessed every step neutral chose 2n - 1)."""
        rng = np.random.default_rng(n)
        env = env_of(series_of(np.linspace(100.0, 110.0, 20)), mode, lookback=6, reward_window=4)
        never_neutral = [np.zeros(n, dtype=int), rng.integers(0, mode.n_actions - 1, n)]  # long, or long or short
        for table in (np.repeat(choices[:, None], mode.n_actions, 1) for choices in never_neutral):
            choose, _, asked, rounds = memo(table)
            actions, _ = walk_rounds(env, n, choose, np.full(n, -1))
            np.testing.assert_array_equal(actions, walk_table(env, table, [-1] * n, n))
            assert len(asked) <= n + math.ceil(n / SWEEP) and len(rounds) <= SWEEP + 1

    @pytest.mark.parametrize("mode", [Mode.LSP, Mode.LP])
    @pytest.mark.parametrize("n,episodes", [(1, 5), (7, 1), (7, 6), (60, 3)])
    def test_forced_steps_on_synthetic_tables(self, mode, n, episodes):
        """Walks of several episodes with forced steps equal the step-by-step walk.  Only greedy steps are chosen at,
        each episode starts from neutral, and the rounds keep their bound."""
        rng, P = np.random.default_rng(n * episodes), mode.n_actions
        neutral = mode.targets.index(Position.NEUTRAL)
        env = env_of(series_of(np.linspace(100.0, 110.0, 20)), mode, lookback=6, reward_window=4)
        steps = n * episodes
        for rate in (0.0, 0.1, 0.3, 0.7, 1.0):
            for dependent in (0.2, 1.0):
                table = rng.integers(0, P, (steps, P))
                fixed = rng.random(steps) >= dependent
                table[fixed] = table[fixed, :1]
                forced = np.where(rng.random(steps) < rate, rng.integers(0, P, steps), -1)
                choose, choices, asked, rounds = memo(table)
                actions, before = walk_rounds(env, n, choose, forced)
                np.testing.assert_array_equal(actions, walk_table(env, table, forced, n))
                assert actions.dtype == before.dtype == np.int8
                np.testing.assert_array_equal(before, [neutral if t % n == 0 else actions[t - 1] for t in range(steps)])
                assert all(forced[t] < 0 for t, _ in asked) and len(set(asked)) == len(asked)
                assert len(rounds) <= max_rounds(steps)
                assert (rounds == []) == (forced >= 0).all()  # an all-forced walk chooses nothing

    def test_crafted_forced_steps(self):
        """A greedy step after a forced one is chosen at the forced position in the first round, and one after a
        greedy step chosen in an earlier pass at that step's choice; an episode that follows a non-neutral step
        starts from neutral; a walk that falls short still walks the forced steps."""
        env = env_of(series_of(np.linspace(100.0, 110.0, 20)), lookback=6, reward_window=4)  # LSP: L, S, N
        short_keeps = np.tile([2, 1, 2], (6, 1))  # neutral from long or neutral, short from short
        choose, _, asked, rounds = memo(short_keeps)
        actions, before = walk_rounds(env, 3, choose, np.array([1, -1, -1, -1, 0, -1]))
        assert actions.tolist() == [1, 1, 1, 2, 0, 2] and before.tolist() == [2, 1, 1, 2, 2, 0]
        # the first round, one pass per step: step 1 at short and step 5 at long, after their forced steps; step 2
        # at short, step 1's choice in the pass before; step 3 at neutral, an episode's first
        assert asked == [(1, 1), (2, 1), (3, 2), (5, 0)] and rounds == [1, 1, 1, 1]
        alternate = np.tile([1, 0, 0], (40, 1))  # short from long or neutral, long from short: a choice per step
        forced = np.full(40, -1)
        forced[[5, 17, 18, 30]] = [2, 0, 2, 1]
        choose, choices, asked, rounds = memo(alternate)
        actions, _ = walk_rounds(env, 20, choose, forced)
        np.testing.assert_array_equal(actions, walk_table(env, alternate, forced, 20))
        assert (choices[forced < 0] >= 0).all() and (choices[forced >= 0] < 0).all()  # the fallback: every position

    def test_rollout_forwards_each_row_at_most_once(self, monkeypatch):
        rng = np.random.default_rng(3)
        series = generate_synthetic("random-walk", 3000, amplitude=0.015, seed=11)
        env = env_of(series, lookback=6, reward_window=4)
        forwarded, forward = [], QNetwork.forward
        monkeypatch.setattr(QNetwork, "forward", lambda net, x: forwarded.append(np.array(x)) or forward(net, x))
        walks = spied_walks(monkeypatch)
        nets = [varied_net(rng, Mode.LSP, 6, True, 0.015) for _ in range(8)]
        nets += [net for mode, net, *_ in CRAFTED.values() if mode is Mode.LSP]
        for net in nets:
            forwarded.clear()
            choices, _, _ = vectorized_rollout(net, env, (0, 3000), uniform_weights(), 0.9,
                                               include_gamma=net.widths[0] == 12)
            assert len(new_rows(forwarded)) == np.count_nonzero(choices >= 0) <= 3 * len(choices)
            assert len(walks[-1]) <= max_rounds(len(choices))


def test_chooser_holds_one_block_beside_its_table():
    """The chooser's traced peak over a range's every pair is its int8 table plus one block's inputs and activations
    and the asked pairs' flat indices (~2.35 MB here), whatever the range's length."""
    series = generate_synthetic("random-walk", 20_100, amplitude=0.01, seed=3)
    env = env_of(series, lookback=30, reward_window=20)
    net = QNetwork([36, 128, 64, 3], seed=1)
    env.windows  # the series' log-returns are computed once, before tracing
    rows = np.arange(env.steps_in((0, len(series))))
    steps, positions = np.indices((len(rows), 3)).reshape(2, -1)
    tracemalloc.start()
    try:
        choose, table = greedy_chooser(net, env, rows, uniform_weights(), 0.9, True, "range")
        chosen = choose(steps, positions)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (20_069, 3) and table.dtype == np.int8 and (table >= 0).all()
    assert chosen.shape == (20_069 * 3,) and chosen.dtype == np.int8
    assert peak < table.nbytes + chosen.nbytes + 5 * 2**19


def recorded_forwards(monkeypatch):
    """The inputs and outputs of every QNetwork.forward call from here on, as copies, in call order."""
    forwarded, forward = [], QNetwork.forward

    def recorded(net, x):
        q = forward(net, x)
        forwarded.append((np.array(x), q.copy()))
        return q

    monkeypatch.setattr(QNetwork, "forward", recorded)
    return forwarded


# Chooser nets of the bench's geometry: (widths, mode, include_gamma), with lookback 30 but for the last one's 31.
CHOOSER_NETS = {
    "LSP, gamma input": ((36, 128, 64, 3), Mode.LSP, True),
    "LP": ((35, 128, 64, 2), Mode.LP, False),
    "LSP, lookback 31, gamma input": ((37, 64, 64, 3), Mode.LSP, True),
}


class TestGreedyChooser:
    """The chooser's table is a memo, and a choice does not depend on the rows forwarded beside it."""

    def test_forwards_each_pair_once(self, monkeypatch):
        """Each (row, position) pair is forwarded once, within a call that repeats it and across calls, in one padded
        block of TILE_ROWS-row tiles per call whatever its positions; choose returns the table's entries."""
        series = generate_synthetic("random-walk", 200, amplitude=0.015, seed=5)
        env, net = env_of(series, lookback=6, reward_window=4), QNetwork([11, 8, 3], seed=2)
        net.weights[0][:6] /= 0.015
        choose, table = greedy_chooser(net, env, np.arange(10, 60), uniform_weights(), 0.9, False, "range")
        forwarded = recorded_forwards(monkeypatch)
        calls = [([5, 5, 7, 7, 7, 9], [0, 0, 0, 0, 1, 0]), ([9, 5, 11, 11, 11], [0, 0, 0, 2, 2]), ([11, 7], [2, 1])]
        forwards = [[TILE_ROWS], [TILE_ROWS], []]  # 4 new rows at positions 0 and 1, padded; 2 at 0 and 2; none
        for (idx, positions), expected in zip(calls, forwards):
            before = len(forwarded)
            chosen = choose(np.array(idx), np.array(positions))
            assert [len(x) for x, _ in forwarded[before:]] == expected
            assert chosen.dtype == np.int8
            np.testing.assert_array_equal(chosen, table[idx, positions])
        assert len(new_rows([x for x, _ in forwarded])) == np.count_nonzero(table >= 0) == 6
        for j, position in enumerate(env.mode.targets):
            at = np.flatnonzero(table[:, j] >= 0)
            inputs = build_input(env.windows[10 + at], uniform_weights(), 0.9, False, position.value)
            np.testing.assert_array_equal(table[at, j], unblocked_forward(net, inputs).argmax(axis=1))

    def test_per_row_conditioning(self):
        """Weights and gamma given per row condition each row as a one-conditioning chooser of that row does."""
        rng = np.random.default_rng(8)
        series = generate_synthetic("random-walk", 600, amplitude=0.015, seed=6)
        env = env_of(series, lookback=6, reward_window=4)
        net = varied_net(rng, Mode.LSP, 6, True, 0.015)
        rows, weights, gamma = rng.integers(0, 590, 300), agent.sample_weights(rng, 300), rng.uniform(0.5, 1.0, 300)
        choose, table = greedy_chooser(net, env, rows, weights, gamma, True, "range")
        choose(*np.indices(table.shape).reshape(2, -1))
        for i in range(0, 300, 7):
            one, _ = greedy_chooser(net, env, rows[i : i + 1], weights[i], gamma[i], True, "range")
            np.testing.assert_array_equal(one(np.zeros(3, dtype=int), np.arange(3)), table[i])
        assert len(set(map(tuple, table.tolist()))) > 1

    @pytest.mark.parametrize("widths,mode,include_gamma", CHOOSER_NETS.values(), ids=CHOOSER_NETS)
    def test_choices_do_not_depend_on_grouping(self, widths, mode, include_gamma, monkeypatch):
        """On the host BLAS each row's Q-values and choice are the same bytes chosen in one call, in 30 random
        groupings of calls and with 300 pairs chosen one at a time: every forward pads its block to whole
        TILE_ROWS-row tiles.  A BLAS whose rounding depends on more than a row's place in its tile fails here, not in
        a silently flipped argmax."""
        rng = np.random.default_rng(31)
        lookback = widths[0] - 5 - include_gamma
        series = generate_synthetic("random-walk", 3001 + lookback + 1, amplitude=0.01, seed=12)
        env, net = env_of(series, mode, lookback=lookback, reward_window=20), QNetwork(widths, seed=3)
        net.weights[0][:lookback] /= 0.01  # returns at unit scale, so that choices vary
        forwarded = recorded_forwards(monkeypatch)
        pairs = np.indices((3001, mode.n_actions)).reshape(2, -1)
        width, mix = widths[0], 2 * np.random.default_rng(0).integers(0, 2**62, widths[0], dtype=np.uint64) + 1

        def chosen(groups):
            del forwarded[:]
            choose, table = greedy_chooser(net, env, np.arange(3001), uniform_weights(), 0.9, include_gamma, "range")
            for group in groups:
                choose(*pairs[:, group])
            words = np.concatenate([np.concatenate(arrays) for arrays in zip(*forwarded)], axis=1).view(np.uint64)
            words = words[words[:, :width].any(axis=1)]  # less the block buffer's initial rows, all 0 and padding only
            inputs = words[:, :width]
            words = words[np.argsort((inputs ^ inputs >> 32) @ mix, kind="stable")]  # by a hash of the input's bytes
            repeat = (words[1:, :width] == words[:-1, :width]).all(axis=1)  # a padding row that copies an input row
            assert (words[1:][repeat] == words[:-1][repeat]).all()  # has its Q-value bytes
            words = words[np.r_[True, ~repeat]]
            assert len(words) == pairs.shape[1]  # each input row once, in an order that depends only on the inputs
            return table.tobytes(), words

        def assert_same(got, want):
            differ = np.count_nonzero((got[1] != want[1]).any(axis=1))
            assert differ == 0, f"{differ} of {len(want[1])} rows' Q-values differ"
            assert got[0] == want[0]

        whole = chosen([np.arange(pairs.shape[1])])
        for _ in range(30):
            order = rng.permutation(pairs.shape[1])
            cuts = np.sort(rng.choice(np.arange(1, len(order)), size=int(rng.integers(1, 40)), replace=False))
            assert_same(chosen(np.split(order, cuts)), whole)
        single = rng.choice(pairs.shape[1], 300, replace=False)  # each its own call, then the rest in one
        assert set(pairs[1, single].tolist()) == set(range(mode.n_actions))
        assert_same(chosen([*single[:, None], np.setdiff1d(np.arange(pairs.shape[1]), single)]), whole)
        assert len(set(whole[0])) == mode.n_actions

    @pytest.mark.parametrize("widths,mode,include_gamma", CHOOSER_NETS.values(), ids=CHOOSER_NETS)
    def test_mixed_positions_keep_each_rows_q_values(self, widths, mode, include_gamma, monkeypatch):
        """A call over rows at mixed positions forwards them in one block, row by row with each row's position code,
        and each row's Q-values are the same bytes as in a call for its position alone."""
        rng = np.random.default_rng(17)
        lookback = widths[0] - 5 - include_gamma
        series = generate_synthetic("random-walk", 1000 + lookback + 1, amplitude=0.01, seed=12)
        env, net = env_of(series, mode, lookback=lookback, reward_window=20), QNetwork(widths, seed=3)
        net.weights[0][:lookback] /= 0.01
        forwarded = recorded_forwards(monkeypatch)
        rows, positions = np.arange(1000), rng.integers(0, mode.n_actions, 1000)
        choose, mixed = greedy_chooser(net, env, rows, uniform_weights(), 0.9, include_gamma, "range")
        choose(rows, positions)
        (x, q), = forwarded
        np.testing.assert_array_equal(x[:, lookback], env.target_signs[positions])
        for j in range(mode.n_actions):
            del forwarded[:]
            choose, alone = greedy_chooser(net, env, rows, uniform_weights(), 0.9, include_gamma, "range")
            at = np.flatnonzero(positions == j)
            choose(at, np.full(len(at), j))
            assert forwarded[0][1][: len(at)].tobytes() == q[at].tobytes()
            np.testing.assert_array_equal(alone[at, j], mixed[at, j])

    @pytest.mark.parametrize("widths,mode,include_gamma", CHOOSER_NETS.values(), ids=CHOOSER_NETS)
    def test_padded_q_values_match_the_unpadded_forward(self, widths, mode, include_gamma, monkeypatch):
        """The padding is a declared numerical change against forwarding a block's rows alone: there the rows of
        a last, partial TILE_ROWS-row tile may round apart, within 1e-12 of the output's scale; every other row is the
        same bytes, and the argmaxes are the same here."""
        lookback = widths[0] - 5 - include_gamma
        series = generate_synthetic("random-walk", 3001 + lookback + 1, amplitude=0.01, seed=12)
        env, net = env_of(series, mode, lookback=lookback, reward_window=20), QNetwork(widths, seed=3)
        net.weights[0][:lookback] /= 0.01
        forwarded = recorded_forwards(monkeypatch)
        choose, table = greedy_chooser(net, env, np.arange(3001), uniform_weights(), 0.9, include_gamma, "range")
        stop = 3001
        for n in (1, 2, 3, 5, 6, 900, 1025, 1026):  # tails of every length, a block and a one- or two-row remainder
            j, before = n % mode.n_actions, len(forwarded)
            choose(np.arange(stop - n, stop), np.full(n, j))
            blocks = [(a, min(a + BLOCK_ROWS, n)) for a in range(0, n, BLOCK_ROWS)]
            assert len(forwarded) == before + len(blocks)
            for (x, padded), (a, b) in zip(forwarded[before:], blocks):
                rows = build_input(env.windows[stop - n + a : stop - n + b], uniform_weights(), 0.9, include_gamma,
                                   mode.targets[j].value)
                alone, k, head = unblocked_forward(net, rows), b - a, (b - a) // TILE_ROWS * TILE_ROWS
                assert len(x) == -(-k // TILE_ROWS) * TILE_ROWS and x[:k].tobytes() == rows.tobytes()
                assert padded[:head].tobytes() == alone[:head].tobytes()
                np.testing.assert_allclose(padded[:k], alone, rtol=1e-12, atol=1e-12 * np.abs(alone).max())
                np.testing.assert_array_equal(table[stop - n + a : stop - n + b, j], alone.argmax(axis=1))
            stop -= n


def blas_kernel() -> str | None:
    """The runtime kernel of numpy's bundled OpenBLAS, which `np.show_config` does not print (its "Haswell" is the
    build's label), or None when numpy runs another BLAS."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*.so"):
        for symbol in ("scipy_openblas_get_corename64_", "scipy_openblas_get_corename"):
            corename = getattr(ctypes.CDLL(str(path)), symbol, None)
            if corename is not None:
                corename.argtypes, corename.restype = [], ctypes.c_char_p
                return corename().decode()
    return None


def cpu_flags() -> set[str]:
    try:
        return {flag for line in Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("flags")
                for flag in line.partition(":")[2].split()}
    except OSError:
        return set()


# OpenBLAS kernels that OPENBLAS_CORETYPE selects for one process, and the /proc/cpuinfo flags each needs.
KERNELS = {
    "Prescott": {"pni"},
    "Nehalem": {"ssse3", "sse4_2"},
    "Sandybridge": {"avx"},
    "Haswell": {"avx2", "fma"},
    "SkylakeX": {"avx512f", "avx512cd", "avx512bw", "avx512dq", "avx512vl"},
}
CHILD = """import sys, pytest, test_evaluation as t
print(t.blas_kernel(), flush=True)
sys.exit(pytest.main(["-q", "-p", "no:cacheprovider", t.__file__ + "::TestGreedyChooser", "-k",
                      "grouping or mixed or padded"]))
"""


@pytest.fixture(scope="module")
def kernel_children():
    """One child process per kernel the CPU can run but this process does not, each rerunning the chooser's
    invariance tests under it, all started at once."""
    host, flags, children = blas_kernel(), cpu_flags(), {}
    path = os.pathsep.join([str(Path(__file__).parent), *sys.path])
    for kernel, needs in KERNELS.items() if host is not None else ():
        if kernel != host and needs <= flags:
            children[kernel] = subprocess.Popen([sys.executable, "-c", CHILD], stdout=subprocess.PIPE,
                                                stderr=subprocess.STDOUT, text=True,
                                                env={**os.environ, "OPENBLAS_CORETYPE": kernel, "PYTHONPATH": path})
    yield host, flags, children
    for child in children.values():
        child.kill()
        child.communicate()


@pytest.mark.parametrize("kernel", KERNELS)
def test_chooser_invariance_holds_on_every_kernel_of_the_host(kernel, kernel_children):
    """TestGreedyChooser's grouping, mixed-position and padding tests pass under each OpenBLAS kernel the CPU's flags
    allow, each run in a child process whose kernel is not this one's; a kernel the CPU cannot run is skipped and
    named."""
    host, flags, children = kernel_children
    if host is None:
        pytest.skip("numpy does not run its bundled OpenBLAS")
    if kernel == host:
        pytest.skip(f"{kernel} is this process's kernel, which the suite runs the tests on")
    if kernel not in children:
        pytest.skip(f"{kernel} needs CPU flags {sorted(KERNELS[kernel] - flags)}")
    out, _ = children[kernel].communicate(timeout=300)
    ran, _, report = out.partition("\n")
    assert children[kernel].returncode == 0, out
    assert ran != host and "9 passed" in report, out


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
        folds = walk_forward_folds(series, 3, 0.1, 0.1)
        results = run_walk_forward(self.cfg(), series, folds)
        again = run_walk_forward(self.cfg(), series, folds)
        assert len(results) == 3
        assert [asdict(r) for r in results] == [asdict(r) for r in again]
        for index, (result, split) in enumerate(zip(results, folds)):
            assert result.fold == index
            assert result.reports["train"].range == split.train
            assert result.reports["eval"].range == split.eval
            assert result.reports["test"].range == split.test

    def test_single_fold_matches_manual_run(self):
        series = generate_synthetic("sine", 700, amplitude=0.08, period=35.0)
        folds = walk_forward_folds(series, 1, 0.1, 0.1)
        result = run_walk_forward(self.cfg(), series, folds, metric="sharpe")[0]

        from dataclasses import replace

        seed = agent.fold_seed(self.cfg().seed, 0)
        manual = agent.train(replace(self.cfg(), seed=seed), series, folds[0])
        best = select_best_checkpoint(manual.checkpoints, metric="sharpe", range_id="eval")
        assert result.best_episode == best.episode
        assert asdict(result.reports["test"]) == asdict(best.reports["test"])
