import csv
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest
from scalar_reference import load_csv_rows

from moqtrader.errors import (
    EngineError,
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
        assert err.value.context["row"] == 2

    def test_non_monotonic_timestamp(self, tmp_path):
        path = write_csv(tmp_path, ["1,100", "3,110", "2,121"])
        with pytest.raises(NonMonotonicTimestamp) as err:
            load_csv(path)
        assert err.value.context["row"] == 3

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, ["1,100"], header="timestamp,open")
        with pytest.raises(MissingColumn):
            load_csv(path)

    def test_unparsable_row(self, tmp_path):
        path = write_csv(tmp_path, ["1,100", "2,oops"])
        with pytest.raises(UnparsableRow) as err:
            load_csv(path)
        assert err.value.context["row"] == 2

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_csv(tmp_path / "nope.csv")

    def test_deterministic_load_and_split(self, tmp_path):
        rows = [f"{t},{100 + (t % 7)}" for t in range(1, 101)]
        path = write_csv(tmp_path, rows)
        a, b = load_csv(path), load_csv(path)
        np.testing.assert_array_equal(a.close, b.close)
        assert make_split(a) == make_split(b)


N_ROWS = 5000
CHUNK_EDGE = (2048, 2049)  # the last row of the loader's first chunk and the first of its second


def price_rows(n=N_ROWS, seed=0, ts="epoch", close="repr"):
    """Rows of field strings keyed by column: hourly bars over a random walk."""
    rng = np.random.default_rng(seed)
    closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=n)))
    epochs = 1_600_000_000 + 3600 * np.arange(n)
    iso = rng.random(n) < 0.5 if ts == "mixed" else np.full(n, ts == "iso")
    rows = []
    for t, c, as_iso in zip(epochs.tolist(), closes.tolist(), iso):
        stamp = datetime.fromtimestamp(t, timezone.utc).isoformat() if as_iso else str(t)
        price = {"repr": repr(c), "6g": f"{c:.6g}", "int": str(round(c * 100))}[close]
        rows.append({"timestamp": stamp, "close": price})
    return rows


def write_rows(tmp_path, rows, header=("timestamp", "close"), name="prices.csv"):
    """Write rows under header; a key a row lacks ends it early, so it reads as missing.

    A lone surrogate such as "\udcff" is written as the byte it escapes, which is not UTF-8.
    """
    path = tmp_path / name
    with open(path, "w", newline="", errors="surrogateescape") as fh:
        out = csv.writer(fh)
        out.writerow(header)
        for row in rows:
            fields = [row.get(column) for column in header]
            out.writerow(fields[: fields.index(None)] if None in fields else fields)
    return path


def outcome(load, path, **kwargs):
    """What a loader returns, or the type and payload of what it raises."""
    try:
        series = load(path, **kwargs)
    except Exception as exc:  # every failure, typed or not, must match the row loop's
        return type(exc).__name__, exc.to_payload() if isinstance(exc, EngineError) else str(exc)
    return series.asset_id, series.timestamps.dtype, series.timestamps.tobytes(), series.close.dtype, series.close.tobytes()


def assert_matches_row_loop(path, **kwargs):
    got = outcome(load_csv, path, **kwargs)
    assert got == outcome(load_csv_rows, path, **kwargs)
    return got


def error_row(got):
    return got[0], got[1]["context"]["row"]


def spoil(rows, kind, row):
    """Make 1-based data row `row` fail in the given way."""
    fields = rows[row - 1]
    if kind == "timestamp":
        fields["timestamp"] = "soon"
    elif kind == "close":
        fields["close"] = "1.5.2"
    elif kind == "no timestamp":
        del fields["timestamp"]
    elif kind == "no close":
        del fields["close"]
    elif kind in ("inf", "-inf", "nan", "0", "-2.5"):
        fields["close"] = kind
    elif kind == "repeat":
        fields["timestamp"] = rows[row - 2]["timestamp"]
    elif kind == "earlier":
        fields["timestamp"] = str(int(rows[row - 2]["timestamp"]) - 1)
    elif kind == "long field":
        fields["close"] = "9" * (csv.field_size_limit() + 1)
    elif kind == "bad byte":
        fields["close"] = fields["close"][:2] + "\udcff" + fields["close"][2:]
    return rows


KIND_CODES = {
    "timestamp": "UnparsableRow", "close": "UnparsableRow", "no timestamp": "UnparsableRow",
    "no close": "UnparsableRow", "inf": "UnparsableRow", "-inf": "UnparsableRow", "nan": "UnparsableRow",
    "0": "NonPositivePrice", "-2.5": "NonPositivePrice",
    "repeat": "NonMonotonicTimestamp", "earlier": "NonMonotonicTimestamp",
    "long field": "UnparsableRow", "bad byte": "UnparsableRow",
}
HEADER_FOR = {"no timestamp": ("close", "timestamp")}  # a short row can only lack its last field


class TestLoadCsvMatchesRowLoop:
    """The column loader returns the row loop's series bit for bit and raises its first error."""

    @pytest.mark.parametrize("ts,close", [("epoch", "repr"), ("iso", "6g"), ("mixed", "int"), ("epoch", "6g")])
    def test_timestamp_and_close_formats(self, tmp_path, ts, close):
        got = assert_matches_row_loop(write_rows(tmp_path, price_rows(ts=ts, close=close)))
        assert len(got[2]) == 8 * N_ROWS

    def test_iso_rows_across_the_chunk_boundary(self, tmp_path):
        epoch_rows, iso_rows = price_rows(), price_rows(ts="iso")
        rows = epoch_rows[:2040] + iso_rows[2040:2060] + epoch_rows[2060:]
        got = assert_matches_row_loop(write_rows(tmp_path, rows))
        assert got == outcome(load_csv, write_rows(tmp_path, epoch_rows, name="epoch.csv"), asset_id="prices")

    def test_quoting_blank_lines_whitespace_and_extra_columns(self, tmp_path):
        rows = price_rows(seed=1)
        lines = ["volume,timestamp,close,note"]
        for i, row in enumerate(rows):
            ts, close = row["timestamp"], row["close"]
            lines.append([f"{i},{ts},{close},x", f'"{i}"," {ts} ","{close}\t",""', f"{i}, {ts}, {close} ,a,b,c"][i % 3])
            if i % 500 == 7:
                lines.append("")
        path = tmp_path / "messy.csv"
        path.write_text("\n".join(lines) + "\n")
        got = assert_matches_row_loop(path)
        assert len(got[2]) == 8 * N_ROWS

    def test_duplicated_header_reads_its_last_column(self, tmp_path):
        rows = [{"timestamp": r["timestamp"], "close": r["close"], "bad": "-1"} for r in price_rows()]
        path = write_rows(tmp_path, rows, header=("close", "timestamp", "bad"))
        path.write_text(path.read_text().replace("close,timestamp,bad", "close,timestamp,close", 1))
        got = assert_matches_row_loop(path)
        assert error_row(got) == ("NonPositivePrice", 1)
        got = assert_matches_row_loop(path, column_map={"close": "timestamp"})  # one column read as both
        np.testing.assert_array_equal(np.frombuffer(got[4]), np.frombuffer(got[2], dtype=np.int64))

    def test_short_rows_missing_an_unused_column(self, tmp_path):
        rows = price_rows()
        for i in range(0, N_ROWS, 3):
            rows[i]["volume"] = "7"
        got = assert_matches_row_loop(write_rows(tmp_path, rows, header=("timestamp", "close", "volume")))
        assert len(got[4]) == 8 * N_ROWS

    @pytest.mark.parametrize("kind,row", [
        (kind, row) for kind in KIND_CODES for row in (1, *CHUNK_EDGE, N_ROWS)
        if row > 1 or kind not in ("repeat", "earlier")  # row 1 has no previous timestamp
    ])
    def test_each_error_kind_at_the_edges(self, tmp_path, kind, row):
        rows = spoil(price_rows(), kind, row)
        got = assert_matches_row_loop(write_rows(tmp_path, rows, header=HEADER_FOR.get(kind, ("timestamp", "close"))))
        assert error_row(got) == (KIND_CODES[kind], row)

    @pytest.mark.parametrize("first,second", [
        (("0", 100), ("timestamp", 101)),
        (("repeat", 100), ("close", 2000)),
        (("inf", 2048), ("timestamp", 2049)),
        (("earlier", 2049), ("0", 2050)),
        (("close", 2047), ("0", 2048)),
        (("no close", 30), ("repeat", 3000)),
        (("earlier", 4000), ("nan", 4999)),
    ])
    def test_the_earlier_of_two_errors_wins(self, tmp_path, first, second):
        (kind_a, row_a), (kind_b, row_b) = first, second
        rows = spoil(spoil(price_rows(), kind_b, row_b), kind_a, row_a)
        got = assert_matches_row_loop(write_rows(tmp_path, rows))
        assert error_row(got) == (KIND_CODES[kind_a], row_a)

    @pytest.mark.parametrize("kinds,code", [
        (("timestamp", "close"), "UnparsableRow"),
        (("close", "repeat"), "UnparsableRow"),
        (("inf", "repeat"), "UnparsableRow"),
        (("-2.5", "earlier"), "NonPositivePrice"),
        (("no close", "timestamp"), "UnparsableRow"),
    ])
    def test_order_of_checks_within_a_row(self, tmp_path, kinds, code):
        rows = price_rows()
        for kind in reversed(kinds):
            spoil(rows, kind, 2049)
        got = assert_matches_row_loop(write_rows(tmp_path, rows))
        assert error_row(got) == (code, 2049)

    def test_timestamp_outside_int64(self, tmp_path):
        rows = price_rows()
        rows[-1]["timestamp"] = str(2**63)
        got = assert_matches_row_loop(write_rows(tmp_path, rows))
        assert got[1]["detail"] == f"row {N_ROWS}: timestamp '{2**63}' is outside the int64 range"

    @pytest.mark.parametrize("spoiled", [None, 2100])
    @pytest.mark.parametrize("damage", ["long field", "bad byte"])
    def test_read_error_after_the_rows_before_it(self, tmp_path, spoiled, damage):
        rows = price_rows()
        if spoiled:
            spoil(rows, "0", spoiled)
        if damage == "long field":
            rows[2999]["close"] = "9" * (csv.field_size_limit() + 1)
        path = write_rows(tmp_path, rows)
        if damage == "bad byte":
            data = path.read_bytes()
            path.write_bytes(data.replace(rows[2999]["close"].encode(), b"\xff", 1))
        got = assert_matches_row_loop(path)
        assert error_row(got) == (("NonPositivePrice", 2100) if spoiled else ("UnparsableRow", 3000))

    def test_read_error_details(self, tmp_path):
        rows = spoil(spoil(price_rows(), "bad byte", 7), "long field", 3)
        got = assert_matches_row_loop(write_rows(tmp_path, rows))
        limit = csv.field_size_limit()
        assert got[1]["detail"] == f"row 3: field larger than field limit ({limit})"
        got = assert_matches_row_loop(write_rows(tmp_path, spoil(price_rows(), "bad byte", 7)))
        assert got[1]["detail"] == f"row 7: could not convert string to float: {rows[6]['close']!r}"

    def test_undecodable_bytes_outside_the_mapped_columns(self, tmp_path):
        rows = price_rows()
        for i in range(0, N_ROWS, 7):
            rows[i]["note"] = "caf\udce9"
        header = ("timestamp", "close", "note")
        got = assert_matches_row_loop(write_rows(tmp_path, rows, header=header))
        assert got == outcome(load_csv, write_rows(tmp_path, price_rows(), name="clean.csv"), asset_id="prices")
        path = write_rows(tmp_path, rows, header=("timestamp", "close", "n\udcffte"), name="header.csv")
        assert assert_matches_row_loop(path, asset_id="prices") == got

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short_files(self, tmp_path, n):
        assert_matches_row_loop(write_rows(tmp_path, price_rows()[:n]))

    def test_missing_column(self, tmp_path):
        got = assert_matches_row_loop(write_rows(tmp_path, price_rows(), header=("timestamp", "open")))
        assert got[0] == "MissingColumn"
        (tmp_path / "empty.csv").write_text("")
        assert assert_matches_row_loop(tmp_path / "empty.csv")[0] == "MissingColumn"

    def test_unreadable_header(self, tmp_path):
        path = write_rows(tmp_path, price_rows(), header=("timestamp", "close", "x" * (csv.field_size_limit() + 1)))
        detail = f"unreadable header: field larger than field limit ({csv.field_size_limit()})"
        assert assert_matches_row_loop(path) == ("MissingColumn", {"error": "MissingColumn", "detail": detail})

    def test_peak_memory_below_the_row_loop(self, tmp_path):
        path = write_rows(tmp_path, price_rows(n=25_000))
        peaks = []
        for load in (load_csv, load_csv_rows):
            tracemalloc.start()
            try:
                load(path)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < peaks[1]


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


class TestPriceSeries:
    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_close_row_number(self, bad):
        with pytest.raises(NonPositivePrice) as err:
            series_of([100.0, 101.0, bad, 102.0])
        assert err.value.context["row"] == 3


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
        f1, f2 = walk_forward_folds(series_of(np.linspace(1, 2, 900)), 2, 0.1, 0.1)
        assert (f1.train, f1.eval, f1.test) == ((0, 300), (300, 390), (390, 480))
        assert (f2.train, f2.eval, f2.test) == ((0, 600), (600, 690), (690, 780))

    def test_single_fold_uses_half_of_series(self):
        # train = [0, N*k/(n_folds+1)): one fold trains on the first half
        (fold,) = walk_forward_folds(series_of(np.linspace(1, 2, 1000)), 1, 0.16, 0.20)
        assert (fold.train, fold.eval, fold.test) == ((0, 500), (500, 660), (660, 860))

    def test_infeasible(self):
        with pytest.raises(InfeasibleFoldPlan):
            walk_forward_folds(series_of(np.linspace(1, 2, 50)), 20, 0.16, 0.20)

    def test_anchoring_prefix_property(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(200, 2000))
            n_folds = int(rng.integers(1, 5))  # 0.1 + 0.1 <= 1/(n_folds+1) keeps plans feasible
            folds = walk_forward_folds(series_of(np.linspace(1, 2, n)), n_folds, 0.1, 0.1)
            assert len(folds) == n_folds
            for fold in folds:
                assert fold.train[0] == 0 and fold.eval[0] == fold.train[1] and fold.test[0] == fold.eval[1]
            for a, b in zip(folds, folds[1:]):
                assert a.train[1] < b.train[1]
