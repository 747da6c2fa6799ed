import math

import numpy as np
import pytest

from moqtrader.errors import InvalidValue
from moqtrader.synthetic import generate_synthetic


class TestSine:
    def test_zero_amplitude_is_constant(self):
        series = generate_synthetic("sine", 100, amplitude=0.0)
        np.testing.assert_array_equal(series.close, np.full(100, 100.0))

    def test_formula(self):
        series = generate_synthetic("sine", 200, base=50.0, amplitude=0.1, period=50.0)
        expected = 50.0 * (1.0 + 0.1 * np.sin(2.0 * np.pi * np.arange(200) / 50.0))
        np.testing.assert_array_equal(series.close, expected)

    def test_deterministic(self):
        a = generate_synthetic("sine", 5000, period=50.0, seed=7)
        b = generate_synthetic("sine", 5000, period=50.0, seed=7)
        np.testing.assert_array_equal(a.close, b.close)

    def test_amplitude_bound(self):
        with pytest.raises(InvalidValue):
            generate_synthetic("sine", 100, amplitude=1.0)


class TestTrend:
    def test_exponential_drift(self):
        series = generate_synthetic("trend", 50, base=100.0, drift=0.01)
        returns = series.log_returns
        np.testing.assert_allclose(returns, 0.01, atol=1e-12)


class TestRandomWalk:
    def test_zero_drift_mean_within_clt_bound(self):
        n = 20_000
        sigma = 0.01
        series = generate_synthetic("random-walk", n, amplitude=sigma, drift=0.0, seed=11)
        returns = series.log_returns
        assert abs(float(returns.mean())) <= 3 * sigma / math.sqrt(n - 1)

    def test_deterministic_under_seed(self):
        a = generate_synthetic("random-walk", 500, amplitude=0.02, seed=3)
        b = generate_synthetic("random-walk", 500, amplitude=0.02, seed=3)
        np.testing.assert_array_equal(a.close, b.close)
        c = generate_synthetic("random-walk", 500, amplitude=0.02, seed=4)
        assert not np.array_equal(a.close, c.close)

    def test_positive_prices(self):
        series = generate_synthetic("random-walk", 5000, amplitude=0.05, seed=5)
        assert np.all(series.close > 0)


def test_unknown_kind():
    with pytest.raises(InvalidValue):
        generate_synthetic("brownian-bridge", 100)


def test_timestamps_hourly():
    series = generate_synthetic("sine", 10)
    np.testing.assert_array_equal(np.diff(series.timestamps), 3600)
