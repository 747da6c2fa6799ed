import math

import numpy as np
import pytest

from moqtrader.env import EnvState, Mode, Position, TradingEnv
from moqtrader.market_data import PriceSeries
from moqtrader.rewards import reward_alr, reward_matrix, reward_sr, reward_vector
from moqtrader.synthetic import generate_synthetic

LN_1_1 = 0.09531017980432493
LN_1_2 = 0.1823215567939546    # long opened 100, closed 120
NEG_LN_0_8 = 0.2231435513142106  # short opened 100, closed 80
HOLD = 2  # the LSP action that leads to neutral


def closing_step(open_price, close_price, sign):
    """The reward vector of the step that closes, at close_price, a position of `sign` opened at open_price."""
    series = PriceSeries("test", np.arange(3), np.array([open_price, close_price, 1.0]))
    env = TradingEnv(series, Mode.LSP, lookback=1, reward_window=1)
    return env.transition(EnvState(1, Position(sign), 0, (), 3), HOLD).reward


class TestComponents:
    def test_lr_is_last_window_entry(self):
        assert reward_vector((0.0, 0.01, LN_1_1), 0.0, 3).lr == LN_1_1
        assert reward_vector((0.0,), 0.0, 1).lr == 0.0
        assert reward_vector((-LN_1_1,), 0.0, 1).lr == -LN_1_1

    def test_alr(self):
        assert reward_alr((0.01, 0.03), 2) == pytest.approx(0.02, abs=1e-15)
        assert reward_alr((0.0, 0.0, 0.0), 3) == 0.0
        assert reward_alr((LN_1_1, -LN_1_1), 2) == pytest.approx(0.0, abs=1e-18)

    def test_sr(self):
        assert reward_sr((0.02, -0.02), 2) == 0.0
        assert reward_sr((0.01, 0.03), 2) == pytest.approx(2.0, abs=1e-12)
        assert reward_sr((0.05, 0.05), 2) == 0.0  # degenerate std rule
        assert reward_sr((0.05,), 1) == 0.0

    def test_powc(self):
        assert closing_step(100.0, 120.0, 1).powc == pytest.approx(LN_1_2, abs=1e-12)
        assert reward_vector((0.0,), 0.0, 1).powc == 0.0
        assert closing_step(100.0, 80.0, -1).powc == pytest.approx(NEG_LN_0_8, abs=1e-12)

    def test_vector_order_and_degenerate_sr(self):
        assert reward_vector((0.0, 0.0), 0.0, 2) == (0.0, 0.0, 0.0, 0.0)
        vec = reward_vector((LN_1_1,), 0.0, 1)
        assert vec.lr == vec.alr == pytest.approx(LN_1_1, abs=1e-15)
        assert vec.sr == 0.0 and vec.powc == 0.0
        vec = reward_vector((LN_1_2,), 1 * (math.log(120.0) - math.log(100.0)), 1)
        assert vec.powc == pytest.approx(vec.lr, abs=1e-12)


class TestProperties:
    def test_scale_equivariance(self):
        # multiplying all prices by a constant leaves every component unchanged
        rng = np.random.default_rng(5)
        for _ in range(50):
            open_p, close_p = rng.uniform(10, 200, size=2)
            scale = rng.uniform(0.1, 50)
            base = closing_step(open_p, close_p, 1).powc
            scaled = closing_step(scale * open_p, scale * close_p, 1).powc
            assert abs(base - scaled) < 1e-12

    def test_sr_invariant_under_positive_rescaling(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            window = tuple(rng.normal(0, 0.02, size=8))
            scale = float(rng.uniform(0.01, 100))
            before = reward_sr(window, 8)
            after = reward_sr(tuple(scale * x for x in window), 8)
            if before != 0.0:
                assert after == pytest.approx(before, rel=1e-9)


def old_reward_sr(returns, window):
    """SR as computed before squares were taken with d * d: `sum()` and `** 2` (libm pow)."""
    tail = returns[-window:]
    mean = sum(tail) / window
    std = math.sqrt(sum((x - mean) ** 2 for x in tail) / window)
    return 0.0 if std < 1e-12 else mean / std


def old_reward_powc(sign, open_price, close_price):
    """POWC as computed before the closing step read log prices: math.log of the closes."""
    return sign * (math.log(close_price) - math.log(open_price))


class TestDeclaredNumericalChange:
    """SR squares with d * d and POWC reads log prices: both stay within rounding of the old formulas."""

    def test_sr_within_rounding_of_pow_squares(self):
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(2000):
            window = int(rng.integers(1, 25))
            returns = tuple(float(x) for x in rng.normal(0.0, 0.02, size=window) * rng.uniform(0.01, 10.0))
            new, old = reward_sr(returns, window), old_reward_sr(returns, window)
            if old == 0.0:
                assert new == 0.0
            else:
                worst = max(worst, abs(new - old) / abs(old))
        assert worst <= 1e-12

    def test_powc_within_rounding_of_math_log(self):
        rng = np.random.default_rng(12)
        series = generate_synthetic("random-walk", 5000, amplitude=0.02, seed=4)
        for _ in range(2000):
            i, j = (int(x) for x in rng.integers(0, 5000, size=2))
            sign = int(rng.choice([-1, 1]))
            new = closing_step(float(series.close[i]), float(series.close[j]), sign).powc
            old = old_reward_powc(sign, float(series.close[i]), float(series.close[j]))
            # each log may round to the other neighbour, and the difference rounds once more
            assert abs(new - old) <= 4 * np.spacing(max(abs(series.log_close[i]), abs(series.log_close[j])))


class TestRewardMatrix:
    def test_rows_equal_reward_vector(self):
        # Windows mixing magnitudes, where a pairwise (numpy) sum and a left-to-right one disagree.
        rng = np.random.default_rng(13)
        for window in (1, 2, 5, 20):
            history = rng.normal(size=(300, window - 1)) * 10.0 ** rng.integers(-6, 2, size=(300, window - 1))
            last = rng.normal(size=(300, 3)) * 0.01
            powc = np.where(rng.uniform(size=(300, 3)) < 0.2, rng.normal(size=(300, 3)), 0.0)
            table = reward_matrix(history, last, powc)
            assert table.shape == (300, 3, 4)
            for t in range(300):
                for a in range(3):
                    returns = tuple(history[t].tolist()) + (float(last[t, a]),)
                    expected = np.array(reward_vector(returns, float(powc[t, a]), window))
                    assert table[t, a].tobytes() == expected.tobytes()
