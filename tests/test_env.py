import math

import numpy as np
import pytest
from scalar_reference import state_features, walk_table

from moqtrader.env import EnvState, Mode, Position, TradingEnv
from moqtrader.errors import EpisodeExhausted, InvalidActionForMode, RangeTooShort
from moqtrader.evaluation import walk_rounds
from moqtrader.market_data import PriceSeries
from moqtrader.synthetic import generate_synthetic

LN_1_1 = 0.09531017980432493
FEE_LOG = -0.00030004500900202545  # ln(1 - 0.0003)

BUY, SELL, HOLD = 0, 1, 2  # LSP action ids
LP_BUY, LP_HOLD = 0, 1


def series_of(closes):
    closes = np.asarray(closes, dtype=np.float64)
    return PriceSeries("test", np.arange(len(closes), dtype=np.int64), closes)


def flat_then(closes, lookback):
    """Prefix with enough flat prices to admit the lookback."""
    return series_of([closes[0]] * lookback + list(closes))


def next_position(mode, current, action_id):
    """The position `transition` holds after action_id from `current`, one step into a three-price series."""
    env = TradingEnv(series_of([100.0, 101.0, 102.0]), mode, lookback=1, reward_window=1)
    return env.transition(EnvState(1, current, 0, (), 3), action_id).next_state.position


class TestPositionTransition:
    """`transition` moves to the position `Mode.targets` names for the action, from any position."""

    def test_target_position_semantics(self):
        assert next_position(Mode.LP, Position.LONG, LP_HOLD) is Position.NEUTRAL
        assert next_position(Mode.LSP, Position.NEUTRAL, BUY) is Position.LONG
        assert next_position(Mode.LSP, Position.NEUTRAL, SELL) is Position.SHORT
        assert next_position(Mode.LSP, Position.SHORT, HOLD) is Position.NEUTRAL

    def test_sell_invalid_in_lp(self):
        with pytest.raises(InvalidActionForMode):
            next_position(Mode.LP, Position.LONG, 2)
        with pytest.raises(InvalidActionForMode):
            next_position(Mode.LP, Position.LONG, -1)

    def test_action_order(self):
        # Buy -> Long, Sell -> Short, Hold -> Neutral; LP has no Sell
        assert Mode.LP.targets == (Position.LONG, Position.NEUTRAL)
        assert Mode.LSP.targets == (Position.LONG, Position.SHORT, Position.NEUTRAL)
        for mode, signs in ((Mode.LP, [1, 0]), (Mode.LSP, [1, -1, 0])):
            env = TradingEnv(series_of([100.0, 101.0, 102.0]), mode, lookback=1, reward_window=1)
            assert env.target_signs.tolist() == signs == [target.value for target in mode.targets]
            for current in Position:
                assert [next_position(mode, current, a) for a in range(mode.n_actions)] == list(mode.targets)


class TestReset:
    def test_first_feasible_cursor(self):
        env = TradingEnv(series_of(np.linspace(100, 200, 100)), Mode.LSP, lookback=10, reward_window=5)
        state = env.reset((0, 100))
        assert state.cursor == 10
        assert state.position is Position.NEUTRAL
        assert state.trade_anchor is None
        assert state.ret_window == (0.0,) * 4
        assert state.end == 100

    def test_random_access_deterministic(self):
        series = series_of(np.linspace(100, 200, 100))
        env = TradingEnv(series, Mode.LSP, lookback=10, reward_window=5)
        states = [env.reset((0, 100), episode_len=20, rng=np.random.default_rng(42))
                  for _ in range(3)]
        assert states[0] == states[1] == states[2]
        assert states[0].end == states[0].cursor + 20 + 1  # episode_len steps and a terminal price

    def test_random_access_covers_feasible_starts(self):
        series = series_of(np.linspace(100, 200, 40))
        env = TradingEnv(series, Mode.LSP, lookback=5, reward_window=3)
        rng = np.random.default_rng(0)
        starts = {env.reset((0, 40), episode_len=10, rng=rng).cursor for _ in range(400)}
        # feasible episode starts are [0, 40 - (5 + 10 + 1)] = [0, 24]; cursor = start + 5
        assert starts == set(range(5, 30))

    def test_range_too_short(self):
        env = TradingEnv(series_of(np.linspace(100, 200, 100)), Mode.LSP, lookback=10, reward_window=5)
        with pytest.raises(RangeTooShort):
            env.reset((0, 5))
        with pytest.raises(RangeTooShort):
            env.reset((0, 20), episode_len=50, rng=np.random.default_rng(0))


def run_actions(env, state, actions):
    """The outcomes of taking actions in turn from state, threading each next state."""
    outcomes = []
    for action in actions:
        outcomes.append(env.transition(state, action))
        state = outcomes[-1].next_state
    return outcomes


class TestStep:
    def test_long_log_return(self):
        series = flat_then([100.0, 110.0], lookback=3)
        env = TradingEnv(series, Mode.LSP, lookback=3, reward_window=4)
        state = env.reset((0, len(series)))
        out = env.transition(state, BUY)
        assert out.next_state.position is not state.position
        assert abs(out.reward.lr - LN_1_1) < 1e-12

    def test_neutral_gets_zero(self):
        series = flat_then([100.0, 110.0], lookback=3)
        env = TradingEnv(series, Mode.LSP, lookback=3, reward_window=4)
        state = env.reset((0, len(series)))
        out = env.transition(state, HOLD)
        assert out.reward.lr == 0.0
        assert out.next_state.position is state.position

    def test_fee_added_to_log_return(self):
        series = flat_then([100.0, 110.0], lookback=3)
        env = TradingEnv(series, Mode.LSP, lookback=3, reward_window=4, fee=0.0003)
        out = env.transition(env.reset((0, len(series))), BUY)
        assert abs(out.reward.lr - (LN_1_1 + FEE_LOG)) < 1e-12

    def test_long_short_flip_pays_two_legs(self):
        series = flat_then([100.0, 110.0, 120.0, 125.0], lookback=3)
        env = TradingEnv(series, Mode.LSP, lookback=3, reward_window=4, fee=0.001)
        _, out = run_actions(env, env.reset((0, len(series))), [BUY, SELL])
        expected = -math.log(120.0 / 110.0) + 2 * math.log1p(-0.001)
        assert abs(out.reward.lr - expected) < 1e-12

    def test_powc_emitted_on_close_only(self):
        series = flat_then([100.0, 110.0, 120.0, 125.0], lookback=3)
        env = TradingEnv(series, Mode.LSP, lookback=3, reward_window=4)
        opened, held, out = run_actions(env, env.reset((0, len(series))), [BUY, BUY, HOLD])
        assert opened.reward.powc == 0.0  # open long at 100
        assert held.reward.powc == 0.0    # keep holding
        assert abs(out.reward.powc - (math.log(120.0) - math.log(100.0))) < 1e-12  # close long at 120
        opened, out = run_actions(env, env.reset((0, len(series))), [SELL, HOLD])
        assert opened.reward.powc == 0.0  # open short at 100
        assert abs(out.reward.powc - (math.log(100.0) - math.log(110.0))) < 1e-12  # close short at 110

    def test_done_at_final_index_and_exhaustion(self):
        series = series_of(np.linspace(100, 110, 8))
        env = TradingEnv(series, Mode.LSP, lookback=3, reward_window=2)
        outcomes = run_actions(env, env.reset((0, 8)), [HOLD] * 4)
        assert [o.done for o in outcomes] == [False, False, False, True]
        with pytest.raises(EpisodeExhausted):
            env.transition(outcomes[-1].next_state, HOLD)

    def test_episode_step_count_matches_contract(self):
        series = series_of(np.linspace(100, 110, 60))
        env = TradingEnv(series, Mode.LSP, lookback=7, reward_window=3)
        state = env.reset((10, 50))
        steps = 0
        while True:
            out = env.transition(state, HOLD)
            state = out.next_state
            steps += 1
            if out.done:
                break
        assert steps == env.steps_in((10, 50)) == 50 - 10 - 7 - 1

    def test_episodes_of_one_env_step_independently(self):
        """Two episodes of one env stepped in turn give the outcomes of each alone, and each ends at its own end."""
        env = TradingEnv(generate_synthetic("random-walk", 200, amplitude=0.02, seed=9), Mode.LSP, lookback=5,
                         reward_window=4)
        rng = np.random.default_rng(13)
        ranges = [(0, 40), (100, 170)]
        actions = [rng.integers(0, 3, size=env.steps_in(range_)).tolist() for range_ in ranges]
        alone = [run_actions(env, env.reset(range_), acts) for range_, acts in zip(ranges, actions)]
        states, together = [env.reset(range_) for range_ in ranges], [[], []]
        for t in range(max(map(len, actions))):
            for i in (0, 1):
                if t < len(actions[i]):
                    together[i].append(env.transition(states[i], actions[i][t]))
                    states[i] = together[i][-1].next_state
        assert together == alone
        assert [o[-1].done for o in together] == [True, True] and not any(o.done for run in together for o in run[:-1])
        for state, (lo, hi) in zip(states, ranges):
            assert state.cursor == hi - 1
            with pytest.raises(EpisodeExhausted):
                env.transition(state, HOLD)


class TestTrajectoryProperties:
    def make_env(self, seed=0, fee=0.0, n=300):
        series = generate_synthetic("random-walk", n, amplitude=0.01, seed=seed)
        return TradingEnv(series, Mode.LSP, lookback=8, reward_window=6, fee=fee)

    def run(self, env, actions, range_=None):
        state = env.reset(range_ or (0, len(env.series)))
        rows = []
        for a in actions:
            out = env.transition(state, a)
            rows.append((out.next_state.position.value, out.reward, out.next_state.position is not state.position,
                         out.done))
            state = out.next_state
            if out.done:
                break
        return rows

    def test_bit_identical_replay(self):
        env = self.make_env(seed=1)
        rng = np.random.default_rng(7)
        actions = [int(a) for a in rng.integers(0, 3, size=env.steps_in((0, len(env.series))))]
        first = self.run(env, actions)
        second = self.run(env, actions)
        assert first == second  # tuple/float equality, not approx

    def test_lookback_consistency(self):
        env = self.make_env(seed=2)
        state = env.reset((0, len(env.series)))
        rng = np.random.default_rng(8)
        close = env.series.close
        while True:
            feats = state_features(env, state)
            t = state.cursor
            recomputed = [math.log(close[t - env.lookback + 1 + j]) - math.log(close[t - env.lookback + j]) for j in range(env.lookback)]
            np.testing.assert_allclose(feats[: env.lookback], recomputed, atol=1e-12, rtol=0)
            assert feats[env.lookback] == float(state.position.value)
            out = env.transition(state, int(rng.integers(0, 3)))
            state = out.next_state
            if out.done:
                break

    def test_sign_antisymmetry(self):
        env = self.make_env(seed=3)
        rng = np.random.default_rng(9)
        actions = [int(a) for a in rng.integers(0, 3, size=100)]
        mirrored = [{BUY: SELL, SELL: BUY, HOLD: HOLD}[a] for a in actions]
        lr_a = [row[1].lr for row in self.run(env, actions)]
        lr_b = [row[1].lr for row in self.run(env, mirrored)]
        assert all(a == -b or (a == 0.0 and b == 0.0) for a, b in zip(lr_a, lr_b))

    def test_fee_monotonicity(self):
        rng = np.random.default_rng(10)
        actions = [int(a) for a in rng.integers(0, 3, size=200)]
        profits = []
        for fee in (0.0, 1e-4, 1e-3, 1e-2):
            env = self.make_env(seed=4, fee=fee)
            total = sum(row[1].lr for row in self.run(env, actions))
            profits.append(math.exp(total) - 1.0)
        assert all(a >= b - 1e-15 for a, b in zip(profits, profits[1:]))

    def test_powc_only_on_trades(self):
        env = self.make_env(seed=5)
        rng = np.random.default_rng(11)
        actions = [int(a) for a in rng.integers(0, 3, size=250)]
        for position, reward, traded, done in self.run(env, actions):
            if reward.powc != 0.0:
                assert traded

    def test_telescoping_against_brute_force(self):
        # all positions closed by the end: sum(powc) == sum(lr) == per-trade oracle
        rng = np.random.default_rng(12)
        for trial in range(20):
            env = self.make_env(seed=100 + trial)
            n_steps = env.steps_in((0, len(env.series)))
            actions = [int(a) for a in rng.integers(0, 3, size=n_steps - 1)] + [HOLD]
            rows = self.run(env, actions)
            total_lr = sum(row[1].lr for row in rows)
            total_powc = sum(row[1].powc for row in rows)
            assert abs(total_lr - total_powc) < 1e-9

            # brute-force oracle: sum the raw log-return of each closed trade
            log_close = env.series.log_close
            cursor = env.lookback
            pos, anchor, oracle = 0, None, 0.0
            for a, row in zip(actions, rows):
                new_pos = {BUY: 1, SELL: -1, HOLD: 0}[a]
                if new_pos != pos:
                    if pos != 0:
                        oracle += pos * (log_close[cursor] - log_close[anchor])
                    anchor = cursor
                pos = new_pos
                cursor += 1
            assert abs(oracle - total_powc) < 1e-9


def no_choice(steps, positions):
    raise AssertionError(f"an all-forced walk chose at {steps}")


@pytest.mark.parametrize("mode", [Mode.LP, Mode.LSP])
def test_walks_of_n_steps_each_start_neutral(mode):
    """walk_rounds over E trajectories of n steps equals E walks, each from neutral, and the step-by-step walk."""
    env = TradingEnv(generate_synthetic("sine", 50), mode, lookback=4, reward_window=3)
    rng = np.random.default_rng(4)
    E, n, neutral = 4, 7, mode.targets.index(Position.NEUTRAL)
    choices = rng.integers(0, mode.n_actions, size=(E * n, mode.n_actions))
    forced = np.where(rng.random(E * n) < 0.3, rng.integers(0, mode.n_actions, size=E * n), -1)

    def walk(steps, start):
        return walk_rounds(env, steps, lambda t, j: choices[start + t, j], forced[start : start + steps])

    each = np.concatenate([walk(n, e * n)[0] for e in range(E)])
    actions, before = walk_rounds(env, n, lambda t, j: choices[t, j], forced)
    assert actions.tolist() == each.tolist() == walk_table(env, choices, forced, n).tolist()
    assert all(before[t] == (neutral if t % n == 0 else actions[t - 1]) for t in range(E * n))
    assert walk(E * n, 0)[0].tolist() != each.tolist()


class TestOutcomes:
    """The array kernel gives every action's outcome bit for bit as transition does."""

    @pytest.mark.parametrize("kind", ["sine", "random-walk"])
    @pytest.mark.parametrize("window", [1, 5, 20])
    @pytest.mark.parametrize("fee", [0.0, 3e-4])
    @pytest.mark.parametrize("mode", [Mode.LP, Mode.LSP])
    def test_every_action_equals_transition(self, mode, fee, window, kind):
        series = generate_synthetic(kind, 300, amplitude=0.05, period=30.0, seed=6)
        env = TradingEnv(series, mode, lookback=4, reward_window=window, fee=fee)
        rng = np.random.default_rng(window)
        lo, hi = 20, 280
        state = env.reset((lo, hi))
        n = env.steps_in((lo, hi))
        # runs of one action, so positions are held and closed at varied ages
        actions = np.repeat(rng.integers(0, mode.n_actions, size=n), rng.integers(1, 6, size=n))[:n].tolist()
        taken, _ = walk_rounds(env, n, no_choice, actions)
        every = np.broadcast_to(np.arange(mode.n_actions), (n, mode.n_actions))
        lr, table = env.outcomes([lo + 4], np.column_stack((taken, every))[None])
        lr, table = lr[0], table[0]
        assert taken.tolist() == actions and table.shape == (n, 1 + mode.n_actions, 4)
        for t, action in enumerate(actions):
            for a in range(mode.n_actions):
                expected = np.array(env.transition(state, a).reward)
                assert np.array_equal(table[t, 1 + a], expected) and table[t, 1 + a].tobytes() == expected.tobytes()
            assert table[t, 0].tobytes() == table[t, 1 + action].tobytes()
            out = env.transition(state, action)
            assert lr[t] == out.reward.lr
            state = out.next_state
        assert out.done

    @pytest.mark.parametrize("fee", [0.0, 3e-4])
    @pytest.mark.parametrize("mode", [Mode.LP, Mode.LSP])
    def test_trajectories_equal_one_call_each(self, mode, fee):
        """E equal-length trajectories in one call give each one's own call bit for bit, from its own zero-padded window."""
        series = generate_synthetic("random-walk", 300, amplitude=0.05, seed=6)
        window = 6
        env = TradingEnv(series, mode, lookback=4, reward_window=window, fee=fee)
        rng = np.random.default_rng(3)
        n, cursors = 25, np.array([4, 40, 41, 200, 270])
        candidates = np.empty((len(cursors), n, 1 + mode.n_actions), dtype=np.int64)
        candidates[:, :, 0] = np.repeat(rng.integers(0, mode.n_actions, size=(len(cursors), n // 3 + 1)), 3, axis=1)[:, :n]
        candidates[:, :, 1:] = np.arange(mode.n_actions)
        neutral = mode.targets.index(Position.NEUTRAL)
        candidates[:, -2:, 0] = (0, neutral)  # every trajectory closes a long on its last step
        lr, table = env.outcomes(cursors, candidates)
        assert lr.shape == (len(cursors), n) and table.shape == (len(cursors), n, 1 + mode.n_actions, 4)
        for e, cursor in enumerate(cursors):
            one_lr, one_table = env.outcomes([cursor], candidates[e : e + 1])
            assert lr[e].tobytes() == one_lr[0].tobytes() and table[e].tobytes() == one_table[0].tobytes()
            assert table[e, 0, :, 1].tolist() == (table[e, 0, :, 0] / window).tolist()  # zeros before the first step
            assert table[e, -1, 0, 3] != 0.0
