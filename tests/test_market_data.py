import numpy as np
import pytest

from moqtrader.errors import (
    InfeasibleFoldPlan,
    MissingColumn,
    MissingFile,
    NonMonotonicTimestamp,
    NonPositivePrice,
    SeriesTooShort,
    UnparsableRow,
)
from moqtrader.market_data import (
    PriceSeries,
    load_csv,
    make_split,
    walk_forward_folds,
)

LN_1_1 = 0.09531017980432493  # ln(110/100), evaluated at full precision


def write_csv(tmp_path, rows, header="timestamp,close"):
    path = tmp_path / "prices.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def series_of(closes):
    closes = np.asarray(closes, dtype=np.float64)
    return PriceSeries("test", np.arange(len(closes), dtype=np.int64), closes)


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = write_csv(tmp_path, ["1,100", "2,110", "3,121"])
        series = load_csv(path)
        assert len(series) == 3
        assert series.asset_id == "prices"
        np.testing.assert_array_equal(series.close, [100.0, 110.0, 121.0])
        np.testing.assert_array_equal(series.timestamps, [1, 2, 3])

    def test_iso_timestamps(self, tmp_path):
        path = write_csv(tmp_path, ["2021-01-01T00:00:00,100", "2021-01-01T01:00:00,110"])
        series = load_csv(path)
        assert series.timestamps[1] - series.timestamps[0] == 3600

    def test_column_map_and_extra_columns(self, tmp_path):
        path = write_csv(tmp_path, ["1,9,100", "2,9,110"], header="time,volume,Close")
        series = load_csv(path, column_map={"timestamp": "time", "close": "Close"})
        np.testing.assert_array_equal(series.close, [100.0, 110.0])

    def test_non_positive_price_row_number(self, tmp_path):
        path = write_csv(tmp_path, ["1,100", "2,0", "3,121"])
        with pytest.raises(NonPositivePrice) as err:
            load_csv(path)
        assert err.value.row == 2

    def test_non_monotonic_timestamp(self, tmp_path):
        path = write_csv(tmp_path, ["1,100", "3,110", "2,121"])
        with pytest.raises(NonMonotonicTimestamp) as err:
            load_csv(path)
        assert err.value.row == 3

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, ["1,100"], header="timestamp,open")
        with pytest.raises(MissingColumn):
            load_csv(path)

    def test_unparsable_row(self, tmp_path):
        path = write_csv(tmp_path, ["1,100", "2,oops"])
        with pytest.raises(UnparsableRow) as err:
            load_csv(path)
        assert err.value.row == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_csv(tmp_path / "nope.csv")

    def test_deterministic_load_and_split(self, tmp_path):
        rows = [f"{t},{100 + (t % 7)}" for t in range(1, 101)]
        path = write_csv(tmp_path, rows)
        a, b = load_csv(path), load_csv(path)
        np.testing.assert_array_equal(a.close, b.close)
        assert make_split(a) == make_split(b)


class TestMakeSplit:
    def test_default_fractions(self):
        split = make_split(series_of(np.linspace(1, 2, 1000)), (0.64, 0.16, 0.20))
        assert split.train == (0, 640)
        assert split.eval == (640, 800)
        assert split.test == (800, 1000)

    def test_floor_arithmetic(self):
        split = make_split(series_of(np.linspace(1, 2, 10)), (0.5, 0.25, 0.25))
        assert (split.train, split.eval, split.test) == ((0, 5), (5, 7), (7, 10))

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            make_split(series_of([1, 2, 3, 4, 5]), (0.64, 0.16, 0.20))

    def test_bad_fractions(self):
        series = series_of(np.linspace(1, 2, 100))
        with pytest.raises(ValueError):
            make_split(series, (0.5, 0.5, 0.5))
        with pytest.raises(ValueError):
            make_split(series, (1.0, 0.0, 0.0))

    def test_lengths_within_one_index_of_proportions(self):
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = int(rng.integers(10, 5000))
            raw = rng.uniform(0.05, 1.0, size=3)
            fracs = tuple(raw / raw.sum())
            split = make_split(series_of(np.linspace(1, 2, n)), fracs)
            for (lo, hi), frac in zip((split.train, split.eval, split.test), fracs):
                assert abs((hi - lo) - frac * n) < 1 + 1e-9
            assert split.train[0] == 0 and split.test[1] == n
            assert split.train[1] == split.eval[0] and split.eval[1] == split.test[0]


class TestLogReturns:
    def test_frozen_value(self):
        out = series_of([100.0, 110.0]).log_returns
        assert out.shape == (1,)
        assert abs(out[0] - LN_1_1) < 1e-12

    def test_constant_prices(self):
        np.testing.assert_array_equal(series_of([50.0, 50.0, 50.0]).log_returns, [0.0, 0.0])

    def test_sign_symmetry(self):
        out = series_of([100.0, 110.0, 100.0]).log_returns
        assert abs(out[0] + out[1]) < 1e-15

    def test_roundtrip_through_exp_cumsum(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            returns = rng.normal(0, 0.05, size=rng.integers(2, 200))
            prices = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(returns))))
            recovered = series_of(prices).log_returns
            np.testing.assert_allclose(recovered, returns, atol=1e-12, rtol=0)


class TestWalkForward:
    def test_hand_enumerated_two_folds(self):
        plan = walk_forward_folds(series_of(np.linspace(1, 2, 900)), 2, 0.1, 0.1)
        assert len(plan) == 2
        f1, f2 = plan.folds
        assert (f1.train, f1.eval, f1.test) == ((0, 300), (300, 390), (390, 480))
        assert (f2.train, f2.eval, f2.test) == ((0, 600), (600, 690), (690, 780))

    def test_single_fold_uses_half_of_series(self):
        # train = [0, N*k/(n_folds+1)): one fold trains on the first half
        plan = walk_forward_folds(series_of(np.linspace(1, 2, 1000)), 1, 0.16, 0.20)
        fold = plan.folds[0]
        assert (fold.train, fold.eval, fold.test) == ((0, 500), (500, 660), (660, 860))

    def test_infeasible(self):
        with pytest.raises(InfeasibleFoldPlan):
            walk_forward_folds(series_of(np.linspace(1, 2, 50)), 20, 0.16, 0.20)

    def test_anchoring_prefix_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(200, 2000))
            n_folds = int(rng.integers(1, 5))  # 0.1 + 0.1 <= 1/(n_folds+1) keeps plans feasible
            plan = walk_forward_folds(series_of(np.linspace(1, 2, n)), n_folds, 0.1, 0.1)
            for a, b in zip(plan.folds, plan.folds[1:]):
                assert a.train[0] == b.train[0] == 0
                assert a.train[1] < b.train[1]
                assert a.eval[0] == a.train[1] and a.test[0] == a.eval[1]
