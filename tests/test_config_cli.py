import csv
import io
import json
from dataclasses import asdict

import numpy as np
import pytest
from scalar_reference import format_config

from moqtrader import cli, config
from moqtrader.env import Mode
from moqtrader.errors import InvalidValue, MissingFile, UnknownKey
from moqtrader.qnet import QNetwork, save_checkpoint

FAST_TRAIN = """
synthetic_kind = sine
synthetic_length = 400
synthetic_period = 40
synthetic_amplitude = 0.08
mode = LSP
multi_reward = true
lookback = 6
reward_window = 4
batchsize = 8
k = 1
episodes = 4
eval_every = 2
episode_len = 25
random_access = true
max_age = 50
hidden = [8]
seed = 3
"""


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParseConfig:
    def test_defaults(self, tmp_path):
        cfg = config.parse_config(write(tmp_path, "data_csv = prices.csv\n"))
        train = cfg
        assert train.mode is Mode.LSP
        assert train.multi_reward is True
        assert train.reward_window == 20
        assert train.lookback == 30
        assert train.gamma == 0.95 and train.generalize_gamma is False
        assert train.tol == 0.1
        assert train.k == 3
        assert train.batchsize == 64
        assert train.fee == 0.0
        assert train.max_age == 2000
        assert cfg.fractions == (0.64, 0.16, 0.20)
        assert cfg.report_metric == "sharpe"

    def test_gamma_range_requires_generalize(self, tmp_path):
        path = write(tmp_path, "data_csv = x.csv\ngamma_range = [0.5, 0.999]\n")
        with pytest.raises(InvalidValue) as err:
            config.parse_config(path)
        assert err.value.context["key"] == "gamma_range"

    def test_gamma_range_ok_when_generalized(self, tmp_path):
        path = write(tmp_path, "data_csv = x.csv\ngeneralize_gamma = true\ngamma_range = [0.6, 0.9]\n")
        cfg = config.parse_config(path)
        assert cfg.gamma_range == (0.6, 0.9)

    def test_negative_fee(self, tmp_path):
        with pytest.raises(InvalidValue) as err:
            config.parse_config(write(tmp_path, "data_csv = x.csv\nfee = -0.1\n"))
        assert err.value.context["key"] == "fee"

    def test_unknown_key(self, tmp_path):
        with pytest.raises(UnknownKey) as err:
            config.parse_config(write(tmp_path, "data_csv = x.csv\nlr = 3\n"))
        assert err.value.context["key"] == "lr"

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            config.parse_config(tmp_path / "nope.cfg")

    def test_requires_exactly_one_data_source(self, tmp_path):
        with pytest.raises(InvalidValue):
            config.parse_config(write(tmp_path, "episodes = 5\n"))
        with pytest.raises(InvalidValue):
            config.parse_config(write(tmp_path, "data_csv = x.csv\nsynthetic_kind = sine\n"))

    def test_comments_and_bare_strings(self, tmp_path):
        text = "# a comment\ndata_csv = prices.csv  # trailing comment\nmode = LP\n\n"
        cfg = config.parse_config(write(tmp_path, text))
        assert cfg.mode is Mode.LP
        assert cfg.data_csv == "prices.csv"

    def test_quoted_values_keep_their_hash(self, tmp_path):
        text = 'data_csv = "prices#2.csv"\nasset_id = "BTC#USD"  # the pair\nclose_column = last#price  # bare\n'
        cfg = config.parse_config(write(tmp_path, text))
        assert (cfg.data_csv, cfg.asset_id, cfg.close_column) == ("prices#2.csv", "BTC#USD", "last")
        resolved = config.write_resolved(cfg, tmp_path)
        assert json.loads(resolved.read_text())["asset_id"] == "BTC#USD"
        assert config.parse_config(resolved) == cfg
        assert config.parse_config(write(tmp_path, format_config(cfg), name="copy.cfg")) == cfg

    def test_round_trip_flat_dialect(self, tmp_path):
        original = config.parse_config(write(tmp_path, FAST_TRAIN))
        reparsed = config.parse_config(write(tmp_path, format_config(original), name="copy.cfg"))
        assert reparsed == original

    def test_round_trip_resolved_json(self, tmp_path):
        original = config.parse_config(write(tmp_path, FAST_TRAIN))
        resolved = config.write_resolved(original, tmp_path)
        assert resolved.name == "config.resolved.json"
        assert config.parse_config(resolved) == original

    def test_round_trip_with_optionals(self, tmp_path):
        text = FAST_TRAIN + "generalize_gamma = true\ngamma_range = [0.6, 0.9]\npin_weights = [1, 0, 0, 0]\neval_weights = [0.25, 0.25, 0.25, 0.25]\n"
        original = config.parse_config(write(tmp_path, text))
        reparsed = config.parse_config(write(tmp_path, format_config(original), name="copy.cfg"))
        assert reparsed == original


# (config text, payload key, reason): one bad value per config key, then the
# cross-key rules.  Lines without a data source get `synthetic_kind = sine`.
BAD_VALUES = [
    ('mode = "XX"', "mode", "must be LP or LSP"),
    ("multi_reward = 1", "multi_reward", "must be true or false"),
    ('reward = "xx"', "reward", "must be one of ('lr', 'alr', 'sr', 'powc')"),
    ('generalize_gamma = "yes"', "generalize_gamma", "must be true or false"),
    ("gamma = high", "gamma", "must be a number"),
    ("generalize_gamma = true\ngamma_range = [0.5]", "gamma_range", "must be a [low, high] pair"),
    ("alpha = 0", "alpha", "must be in (0, 1]"),
    ("tol = true", "tol", "must be a number"),
    ("batchsize = 0", "batchsize", "must be >= 1"),
    ("k = 1.5", "k", "must be an integer"),
    ("episodes = 0", "episodes", "must be >= 1"),
    ('eval_every = "2"', "eval_every", "must be an integer"),
    ("reward_window = 0", "reward_window", "must be in [1, 10000]"),
    ("lookback = true", "lookback", "must be an integer"),
    ("episode_len = 0", "episode_len", "must be >= 1"),
    ('random_access = "true"', "random_access", "must be true or false"),
    ("fee = -0.1", "fee", "must be in [0, 1)"),
    ("max_age = -1", "max_age", "must be >= 0"),
    ("hidden = [8, 2.5]", "hidden", "must be a list of positive integers"),
    ("learn_rate = 0", "learn_rate", "must be > 0"),
    ("momentum = fast", "momentum", "must be a number"),
    ("sync_period = 0", "sync_period", "must be >= 1"),
    ("whiten = 0", "whiten", "must be true or false"),
    ("eigen_floor = 0", "eigen_floor", "must be > 0"),
    ('hindsight_action = "both"', "hindsight_action", "must be resample or replay"),
    ("pin_weights = [1, 0, 0]", "pin_weights", "must be a list of 4 reals"),
    ("pin_weights = [0.5, 0.5, 0.5, 0.5]", "pin_weights", "must lie on the unit 4-simplex"),
    ("seed = -1", "seed", "must be >= 0"),
    ("data_csv = 5", "data_csv", "must be a string"),
    ("timestamp_column = 3", "timestamp_column", "must be a string"),
    ("close_column = []", "close_column", "must be a string"),
    ("asset_id = 7", "asset_id", "must be a string"),
    ('synthetic_kind = "square"', "synthetic_kind", "must be one of ('sine', 'trend', 'random-walk')"),
    ("synthetic_length = 10.5", "synthetic_length", "must be an integer"),
    ("synthetic_base = x", "synthetic_base", "must be a number"),
    ("synthetic_amplitude = true", "synthetic_amplitude", "must be a number"),
    ("synthetic_period = [50]", "synthetic_period", "must be a number"),
    ("synthetic_drift = up", "synthetic_drift", "must be a number"),
    ("synthetic_seed = 1.0", "synthetic_seed", "must be an integer"),
    ("train_frac = 0", "train_frac", "must be > 0"),
    ("eval_frac = x", "eval_frac", "must be a number"),
    ("test_frac = -0.2", "test_frac", "must be > 0"),
    ("n_folds = 0", "n_folds", "must be >= 1"),
    ("eval_weights = [0.5, 0.5, 0.5, 0.5]", "eval_weights", "must lie on the unit 4-simplex"),
    ("eval_gamma = 1.0", "eval_gamma", "must be in (0, 1)"),
    ('report_metric = "median"', "report_metric", "must be sharpe or profit"),
    ('eval_range = "all"', "eval_range", "must be train, eval or test"),
    ("checkpoint = 4", "checkpoint", "must be a string"),
    ("data_csv = null", "data_csv", "exactly one of data_csv or synthetic_kind must be set"),
    ("data_csv = x.csv\nsynthetic_kind = sine", "data_csv", "exactly one of data_csv or synthetic_kind must be set"),
    ("gamma_range = [0.6, 0.9]", "gamma_range", "only valid with generalize_gamma = true"),
    ("synthetic_length = 20", "synthetic_length", "must be >= lookback + 2"),
    ("train_frac = 0.5", "train_frac", "fractions must sum to 1"),
    # rejected by the field's element type rather than crashing or coercing
    ('pin_weights = ["a", 0, 0, 0]', "pin_weights", "must be a list of 4 reals"),
    ('eval_weights = ["a", 0, 0, 0]', "eval_weights", "must be a list of 4 reals"),
    ("hidden = [true, 2]", "hidden", "must be a list of positive integers"),
    # NaN fails every check, as each is written as the condition that must hold
    ("pin_weights = [NaN, 0, 0, 1]", "pin_weights", "must lie on the unit 4-simplex"),
    ("eval_weights = [NaN, 0, 0, 1]", "eval_weights", "must lie on the unit 4-simplex"),
    ("synthetic_base = NaN", "synthetic_base", "must be > 0"),
    ("synthetic_period = NaN", "synthetic_period", "must be > 0"),
    ("synthetic_amplitude = NaN", "synthetic_amplitude", "sine amplitude must be in [0, 1)"),
    ('synthetic_kind = "random-walk"\nsynthetic_amplitude = NaN', "synthetic_amplitude",
     "random-walk step std must be >= 0"),
]


class TestErrorPayloads:
    """The exact one-line JSON the CLI prints for a rejected config."""

    def run_backtest(self, tmp_path, capsys, text):
        if "data_csv" not in text and "synthetic_kind" not in text:
            text = "synthetic_kind = sine\n" + text
        out = tmp_path / "empty"
        out.mkdir()
        status = cli.main(["backtest", "--config", str(write(tmp_path, text + "\n")), "--out", str(out)])
        return status, capsys.readouterr().out

    @pytest.mark.parametrize("text,key,reason", BAD_VALUES, ids=[row[0].split("\n")[-1] for row in BAD_VALUES])
    def test_invalid_value(self, tmp_path, capsys, text, key, reason):
        status, out = self.run_backtest(tmp_path, capsys, text)
        expected = {"error": "InvalidValue", "detail": f"invalid value for {key}: {reason}",
                    "context": {"key": key, "reason": reason}}
        assert out == json.dumps(expected) + "\n"
        assert status == 1

    def test_every_key_is_covered(self):
        covered = {line.partition("=")[0].strip() for text, _, _ in BAD_VALUES for line in text.splitlines()}
        assert set(config.ALL_KEYS) <= covered
        assert len(config.ALL_KEYS) == 47

    def test_weights_flag_off_simplex(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        status = cli.main(["backtest", "--config", str(write(tmp_path, "synthetic_kind = sine\n")), "--out", str(out),
                           "--weights", "0.5,0.5,0.5,0.5"])
        reason = "must lie on the unit 4-simplex"
        expected = {"error": "InvalidValue", "detail": f"invalid value for weights: {reason}",
                    "context": {"key": "weights", "reason": reason}}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"
        assert status == 1

    def test_type_errors_come_before_rule_errors(self, tmp_path, capsys):
        status, out = self.run_backtest(tmp_path, capsys, "alpha = 0\neval_frac = x")  # alpha's rule, eval_frac's type
        reason = "must be a number"
        expected = {"error": "InvalidValue", "detail": f"invalid value for eval_frac: {reason}",
                    "context": {"key": "eval_frac", "reason": reason}}
        assert out == json.dumps(expected) + "\n"
        assert status == 1

    def test_weights_flag_is_reported_before_a_bad_file_value(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        status = cli.main(["backtest", "--config", str(write(tmp_path, "synthetic_kind = sine\nalpha = 0\n")),
                           "--out", str(out), "--weights", "0.5,0.5,0.5,0.5"])
        reason = "must lie on the unit 4-simplex"
        expected = {"error": "InvalidValue", "detail": f"invalid value for weights: {reason}",
                    "context": {"key": "weights", "reason": reason}}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"
        assert status == 1

    def test_weights_flag_nan(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        status = cli.main(["backtest", "--config", str(write(tmp_path, "synthetic_kind = sine\n")), "--out", str(out),
                           "--weights", "nan,0,0,1"])
        reason = "must lie on the unit 4-simplex"
        expected = {"error": "InvalidValue", "detail": f"invalid value for weights: {reason}",
                    "context": {"key": "weights", "reason": reason}}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"
        assert status == 1

    def test_nan_close(self, tmp_path, capsys):
        status, out = self.run_backtest(tmp_path, capsys, 'synthetic_kind = "trend"\nsynthetic_drift = NaN')
        expected = {"error": "NonPositivePrice", "detail": "NonPositivePrice at row 1", "context": {"row": 1}}
        assert out == json.dumps(expected) + "\n"
        assert status == 1

    def test_overflowing_trend_close(self, tmp_path, capsys):
        text = 'synthetic_kind = "trend"\nsynthetic_drift = 1.0\nsynthetic_length = 1000'
        status, out = self.run_backtest(tmp_path, capsys, text)  # 100 * exp(706) is the first inf close
        expected = {"error": "NonPositivePrice", "detail": "NonPositivePrice at row 707", "context": {"row": 707}}
        assert out == json.dumps(expected) + "\n"
        assert status == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kind,row", [("trend", 707), ("random-walk", 708)])
    def test_overflowing_closes_warn_nothing(self, tmp_path, capsys, kind, row):
        text = f'synthetic_kind = "{kind}"\nsynthetic_drift = 1.0\nsynthetic_length = 1000'
        status, out = self.run_backtest(tmp_path, capsys, text)
        expected = {"error": "NonPositivePrice", "detail": f"NonPositivePrice at row {row}", "context": {"row": row}}
        assert out == json.dumps(expected) + "\n"
        assert status == 1

    @pytest.mark.filterwarnings("error")
    def test_walk_of_cancelling_infinite_steps_warns_nothing(self, tmp_path, capsys):
        # steps of +-inf: the first close is inf, and np.cumsum later meets inf + -inf
        text = 'synthetic_kind = "random-walk"\nsynthetic_amplitude = 1e308\nsynthetic_length = 1000'
        status, out = self.run_backtest(tmp_path, capsys, text)
        expected = {"error": "NonPositivePrice", "detail": "NonPositivePrice at row 2", "context": {"row": 2}}
        assert out == json.dumps(expected) + "\n"
        assert status == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["train", "walkforward"])
    @pytest.mark.parametrize("text,flags,key,reason", [
        ('synthetic_kind = "random-walk"\nsynthetic_seed = -1', [], "synthetic_seed", "must be >= 0"),  # over the sine
        ("learn_rate = Infinity", [], "learn_rate", "must be finite"),  # trained to Diverged, warning on the way
        ("eigen_floor = Infinity", [], "eigen_floor", "must be finite"),  # whitened every reward to 0
        ("", ["--seed", "-1"], "seed", "must be >= 0"),  # a raw SeedSequence error when walkforward derived fold seeds
        # raw numpy allocation errors from QNetwork.__init__ and draw_conditioning, before any allocation is tried
        ("hidden = [100000000000]", [], "hidden", "the network must have at most 100000000 parameters"),
        ("k = 100000000000", [], "k", "must be in [0, 10000]"),
        # 10**14 rows are beyond any address space, so the check must come before generate_synthetic allocates
        ("synthetic_length = 100000000000000", [], "synthetic_length", "must be <= 10000000"),
        # a raw MemoryError from TradingEnv.reset's zero padding and from the chooser's block buffer; one over the
        # bound, so that a missing check allocates nothing large
        ("reward_window = 10001", [], "reward_window", "must be in [1, 10000]"),
        ("lookback = 10001", [], "lookback", "must be in [1, 10000]"),
    ], ids=["synthetic_seed", "learn_rate", "eigen_floor", "seed_override", "huge_hidden", "huge_k",
            "huge_synthetic_length", "huge_reward_window", "huge_lookback"])
    def test_rejected_before_a_run(self, tmp_path, capsys, command, text, flags, key, reason):
        out = tmp_path / "run"
        config_path = str(write(tmp_path, FAST_TRAIN + text + "\n"))
        status = cli.main([command, "--config", config_path, "--out", str(out), *flags])
        expected = {"error": "InvalidValue", "detail": f"invalid value for {key}: {reason}",
                    "context": {"key": key, "reason": reason}}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"
        assert status == 1
        assert not out.exists()

    @pytest.mark.parametrize("meta", [[1, 2], 5, {"episode": "x"}], ids=["list", "number", "text episode"])
    def test_malformed_checkpoint_meta(self, tmp_path, capsys, meta):
        out = tmp_path / "run"
        out.mkdir()
        path = out / "checkpoint_1.bin"
        save_checkpoint(path, QNetwork([6 + 1 + 4, 8, 3], seed=0), meta)  # FAST_TRAIN's widths
        status = cli.main(["backtest", "--config", str(write(tmp_path, FAST_TRAIN)), "--out", str(out)])
        reason = f"{path}: meta {json.dumps(meta)} is not an object with an integer episode"
        expected = {"error": "InvalidValue", "detail": f"invalid value for checkpoint: {reason}",
                    "context": {"key": "checkpoint", "reason": reason}}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"
        assert status == 1
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("header,row,detail", [
        ("close,timestamp", "101", "row 1: no timestamp field"),
        ("timestamp,close", "5", "row 1: float() argument must be a string or a real number, not 'NoneType'"),
    ])
    def test_csv_row_missing_a_field(self, tmp_path, capsys, header, row, detail):
        path = tmp_path / "prices.csv"
        path.write_text(f"{header}\n{row}\n")
        status, out = self.run_backtest(tmp_path, capsys, f"data_csv = {json.dumps(str(path))}")
        expected = {"error": "UnparsableRow", "detail": detail, "context": {"row": 1}}
        assert out == json.dumps(expected) + "\n"
        assert status == 1

    def test_unknown_key(self, tmp_path, capsys):
        status, out = self.run_backtest(tmp_path, capsys, "lr = 3")
        expected = {"error": "UnknownKey", "detail": "unknown config key: lr", "context": {"key": "lr"}}
        assert out == json.dumps(expected) + "\n"
        assert status == 1

    def test_config_is_a_directory(self, tmp_path, capsys):
        status = cli.main(["train", "--config", str(tmp_path), "--out", str(tmp_path / "run")])
        assert capsys.readouterr().out == json.dumps({"error": "MissingFile", "detail": str(tmp_path)}) + "\n"
        assert status == 1

    def test_undecodable_config(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"synthetic_kind = sine\nseed = \xff\n")
        status = cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")])
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert out == json.dumps(payload) + "\n" and status == 1
        assert (payload["error"], payload["context"]["key"]) == ("InvalidValue", "config")
        assert payload["context"]["reason"].startswith(f"{path}: ")
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command", ["train", "backtest"])
    def test_data_csv_is_a_directory(self, tmp_path, capsys, command):
        data, out = tmp_path / "prices.csv", tmp_path / "run"
        data.mkdir()
        out.mkdir()
        status = cli.main([command, "--config", str(write(tmp_path, f"data_csv = {json.dumps(str(data))}\n")),
                           "--out", str(out)])
        assert capsys.readouterr().out == json.dumps({"error": "MissingFile", "detail": str(data)}) + "\n"
        assert status == 1

    @pytest.mark.parametrize("below", ["", "sub"], ids=["out", "under out"])
    def test_out_is_a_file(self, tmp_path, capsys, below):
        file = tmp_path / "run"
        file.write_text("")
        status = cli.main(["train", "--config", str(write(tmp_path, FAST_TRAIN)), "--out", str(file / below)])
        reason = f"{file} is not a directory"
        expected = {"error": "InvalidValue", "detail": f"invalid value for out: {reason}",
                    "context": {"key": "out", "reason": reason}}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"
        assert status == 1
        assert file.read_text() == ""

    def test_metrics_is_a_directory(self, tmp_path, capsys):
        (tmp_path / "metrics.jsonl").mkdir()
        status = cli.main(["report", "--out", str(tmp_path)])
        expected = {"error": "MissingFile", "detail": str(tmp_path / "metrics.jsonl")}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"
        assert status == 1


def spoil_checkpoint(path, damage):
    """Overwrite the checkpoint at path in one of BAD_CHECKPOINTS' ways."""
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    if damage == "random bytes":
        path.write_bytes(np.random.default_rng(0).bytes(4000))
    elif damage == "cut in half":
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
    elif damage == "empty":
        path.write_bytes(b"")
    elif damage == "object-array npy":
        buf = io.BytesIO()
        np.save(buf, np.array([1, "a"], dtype=object), allow_pickle=True)
        path.write_bytes(buf.getvalue())
    else:
        if damage == "version 2":
            arrays["header"] = np.array(json.dumps({**json.loads(str(arrays["header"])), "version": 2}))
        elif damage == "no w1":
            del arrays["w1"]
        elif damage == "w0 transposed":
            arrays["w0"] = arrays["w0"].T
        elif damage == "oversized widths":  # the header's, while the arrays stay small
            arrays["header"] = np.array(json.dumps({**json.loads(str(arrays["header"])), "widths": [11, 10**13, 3]}))
        with open(path, "wb") as fh:
            np.savez(fh, **arrays)


# damage -> the reason load_checkpoint gives after the file name
BAD_CHECKPOINTS = {
    "random bytes": "This file contains pickled (object) data. If you trust the file you can load it unsafely "
                    "using the `allow_pickle=` keyword argument or `pickle.load()`.",
    "cut in half": "File is not a zip file",
    "empty": "No data left in file",
    "object-array npy": "Object arrays cannot be loaded when allow_pickle=False",
    "version 2": "unsupported checkpoint version 2",
    "no w1": "array w1 is missing or not of shape (8, 3)",
    "w0 transposed": "array w0 is missing or not of shape (11, 8)",
    "oversized widths": "array w0 is missing or not of shape (11, 10000000000000)",  # checked before allocating
}


class TestCli:
    def run_cli(self, *args):
        return cli.main([str(a) for a in args])

    def test_train_writes_expected_artifacts(self, tmp_path, capsys):
        cfg_path = write(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert self.run_cli("train", "--config", cfg_path, "--out", out) == 0
        names = {p.name for p in out.iterdir()}
        assert {"config.resolved.json", "metrics.jsonl", "timing.log", "checkpoint_2.bin", "checkpoint_4.bin"} <= names
        lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2  # |S| = episodes / eval_every

    def test_backtest_without_checkpoints_is_machine_readable(self, tmp_path, capsys):
        cfg_path = write(tmp_path, FAST_TRAIN)
        out = tmp_path / "empty"
        out.mkdir()
        status = self.run_cli("backtest", "--config", cfg_path, "--out", out)
        assert status != 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"] == "MissingFile"

    def test_backtest_writes_report(self, tmp_path, capsys):
        cfg_path = write(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert self.run_cli("train", "--config", cfg_path, "--out", out) == 0
        assert self.run_cli("backtest", "--config", cfg_path, "--out", out,
                            "--metric", "profit", "--range", "test") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["metric"] == "profit"
        assert report["report"]["range_id"] == "test"
        assert report["episode"] in (2, 4)

    @pytest.mark.parametrize("mode,extra,range_", [
        ("LSP", "", "test"),
        ("LP", "fee = 0.0003\ngeneralize_gamma = true\n", "eval"),
        ("LSP", "fee = 0.0005\nreward_window = 1\n", "train"),
    ])
    def test_backtest_report_equals_scalar_route(self, tmp_path, capsys, mode, extra, range_):
        from scalar_reference import run_policy

        from moqtrader.env import TradingEnv
        from moqtrader.market_data import make_split
        from moqtrader.qnet import QNetwork, save_checkpoint

        text = FAST_TRAIN.replace("mode = LSP", f"mode = {mode}") + extra
        if "reward_window = 1" in extra:
            text = text.replace("reward_window = 4\n", "")
        cfg = config.parse_config(write(tmp_path, text))
        train = cfg
        # A random network whose return inputs are scaled up to unit size, so that it trades.
        net = QNetwork(train.widths, seed=1)
        net.weights[0][: train.lookback] *= 100.0
        path = tmp_path / "checkpoint_3.bin"
        save_checkpoint(path, net, meta={"episode": 3, "mode": mode, "lookback": train.lookback,
                                         "reward_window": train.reward_window,
                                         "generalize_gamma": train.generalize_gamma})
        cfg_path = write(tmp_path, text + f"checkpoint = {json.dumps(str(path))}\n")
        assert self.run_cli("backtest", "--config", cfg_path, "--out", tmp_path, "--range", range_,
                            "--weights", "0.1,0.2,0.3,0.4") == 0
        payload = json.loads((tmp_path / "report.json").read_text())
        series = config.load_series(cfg)
        env = TradingEnv(series, train.mode, lookback=train.lookback, reward_window=train.reward_window, fee=train.fee)
        _, expected = run_policy(
            net, env, make_split(series, cfg.fractions).as_dict()[range_], payload["weights"], payload["gamma"],
            include_gamma=train.generalize_gamma, range_id=range_,
        )
        assert expected.trades >= 2
        assert payload["report"] == json.loads(json.dumps(asdict(expected)))

    def test_backtest_seed_and_weights_overrides(self, tmp_path, capsys):
        cfg_path = write(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert self.run_cli("train", "--config", cfg_path, "--out", out, "--seed", 9) == 0
        assert self.run_cli("backtest", "--config", cfg_path, "--out", out,
                            "--weights", "1,0,0,0") == 0
        report = json.loads((out / "report.json").read_text())
        assert report["weights"] == [1.0, 0.0, 0.0, 0.0]

    def test_train_from_csv_source(self, tmp_path, capsys):
        import numpy as np

        rng = np.random.default_rng(6)
        closes = 100.0 * np.exp(np.cumsum(rng.normal(0, 0.01, size=400)))
        rows = "\n".join(f"{t},{c:.6f}" for t, c in enumerate(closes))
        (tmp_path / "prices.csv").write_text("timestamp,close\n" + rows + "\n")
        text = FAST_TRAIN.replace("synthetic_kind = sine", f"data_csv = {tmp_path / 'prices.csv'}")
        text = "\n".join(line for line in text.splitlines() if not line.startswith("synthetic_"))
        cfg_path = write(tmp_path, text, name="csv.cfg")
        out = tmp_path / "csvrun"
        assert self.run_cli("train", "--config", cfg_path, "--out", out) == 0
        assert (out / "metrics.jsonl").exists()

    def test_backtest_from_csv_matches_its_synthetic_source(self, tmp_path, capsys):
        cfg_path = write(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert self.run_cli("train", "--config", cfg_path, "--out", out) == 0
        series = config.load_series(config.parse_config(cfg_path))
        csv_path = tmp_path / "prices.csv"
        with open(csv_path, "w") as fh:
            fh.write("timestamp,close\n")
            fh.writelines(f"{t},{c!r}\n" for t, c in zip(series.timestamps.tolist(), series.close.tolist()))
        text = "\n".join(line for line in FAST_TRAIN.splitlines() if not line.startswith("synthetic_"))
        csv_cfg = write(tmp_path, text + f"\ndata_csv = {json.dumps(str(csv_path))}\n", name="csv.cfg")
        assert self.run_cli("backtest", "--config", cfg_path, "--out", out) == 0
        synthetic_report = (out / "report.json").read_bytes()
        assert self.run_cli("backtest", "--config", csv_cfg, "--out", out) == 0
        assert (out / "report.json").read_bytes() == synthetic_report

    def test_backtest_explicit_checkpoint_path(self, tmp_path, capsys):
        cfg_path = write(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert self.run_cli("train", "--config", cfg_path, "--out", out) == 0
        pinned = write(tmp_path, FAST_TRAIN + f"checkpoint = {json.dumps(str(out / 'checkpoint_2.bin'))}\n",
                       name="pinned.cfg")
        assert self.run_cli("backtest", "--config", pinned, "--out", out) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["episode"] == 2
        assert report["checkpoint"].endswith("checkpoint_2.bin")

    @pytest.mark.parametrize("trained,backtested,key", [
        ("mode = LP", "mode = LSP", "mode"),
        ("reward_window = 4", "reward_window = 5", "reward_window"),
    ])
    def test_backtest_rejects_checkpoint_config_mismatch(self, tmp_path, capsys, trained, backtested, key):
        out = tmp_path / "run"
        text = FAST_TRAIN.replace("mode = LSP", "").replace("reward_window = 4", "")
        assert self.run_cli("train", "--config", write(tmp_path, text + trained + "\n"), "--out", out) == 0
        capsys.readouterr()
        other = write(tmp_path, text + backtested + "\n", name="other.cfg")
        assert self.run_cli("backtest", "--config", other, "--out", out) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "InvalidValue"
        assert payload["context"]["key"] == key
        assert not (out / "report.json").exists()

    def test_backtest_names_the_first_disagreeing_key_in_checkpoint_order(self, tmp_path, capsys):
        from moqtrader.qnet import load_checkpoint, save_checkpoint

        cfg_path = write(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert self.run_cli("train", "--config", cfg_path, "--out", out) == 0
        capsys.readouterr()
        net, meta = load_checkpoint(out / "checkpoint_2.bin")
        assert list(meta) == ["episode", "mode", "generalize_gamma", "lookback", "reward_window"]
        save_checkpoint(out / "checkpoint_2.bin", net, {**meta, "lookback": 7, "generalize_gamma": True})
        assert self.run_cli("backtest", "--config", cfg_path, "--out", out) == 1
        assert json.loads(capsys.readouterr().out)["context"]["key"] == "generalize_gamma"

    def test_backtest_ignores_stray_checkpoint_file(self, tmp_path, capsys):
        cfg_path = write(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert self.run_cli("train", "--config", cfg_path, "--out", out) == 0
        assert self.run_cli("backtest", "--config", cfg_path, "--out", out) == 0
        clean = (out / "report.json").read_bytes()
        (out / "report.json").unlink()
        (out / "checkpoint_best.bin").write_bytes(b"not a checkpoint")
        assert self.run_cli("backtest", "--config", cfg_path, "--out", out) == 0
        assert (out / "report.json").read_bytes() == clean

    def test_backtest_of_diverged_network_fails(self, tmp_path, capsys):
        from moqtrader.qnet import load_checkpoint, save_checkpoint

        cfg_path = write(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert self.run_cli("train", "--config", cfg_path, "--out", out) == 0
        capsys.readouterr()
        net, meta = load_checkpoint(out / "checkpoint_2.bin")
        net.weights[0][0, 0] = float("nan")
        save_checkpoint(out / "checkpoint_2.bin", net, meta)
        assert self.run_cli("backtest", "--config", cfg_path, "--out", out) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "Diverged"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("damage", BAD_CHECKPOINTS)
    def test_backtest_of_a_bad_checkpoint_file(self, tmp_path, capsys, damage):
        out = tmp_path / "run"
        out.mkdir()
        path = out / "checkpoint_1.bin"
        save_checkpoint(path, QNetwork([6 + 1 + 4, 8, 3], seed=0), {"episode": 1})  # FAST_TRAIN's widths
        spoil_checkpoint(path, damage)
        assert self.run_cli("backtest", "--config", write(tmp_path, FAST_TRAIN), "--out", out) == 1
        reason = f"{path}: {BAD_CHECKPOINTS[damage]}"
        expected = {"error": "InvalidValue", "detail": f"invalid value for checkpoint: {reason}",
                    "context": {"key": "checkpoint", "reason": reason}}
        assert capsys.readouterr().out == json.dumps(expected) + "\n"
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("outputs", [2, 4])
    def test_backtest_of_a_checkpoint_with_another_output_width(self, tmp_path, capsys, outputs):
        """A checkpoint whose meta holds only its episode, with no output per action of the config's LSP mode."""
        out = tmp_path / "run"
        out.mkdir()
        save_checkpoint(out / "checkpoint_1.bin", QNetwork([6 + 1 + 4, 8, outputs], seed=0), {"episode": 1})
        assert self.run_cli("backtest", "--config", write(tmp_path, FAST_TRAIN), "--out", out) == 1
        detail = f"network outputs {outputs} Q-values vs 3 actions of mode LSP"
        assert capsys.readouterr().out == json.dumps({"error": "ShapeMismatch", "detail": detail}) + "\n"
        assert not (out / "report.json").exists()

    def test_flags_override_invalid_file_values(self, tmp_path, capsys):
        """A file value that a flag replaces is not checked: the run goes ahead with the flag's value."""
        out, reference = tmp_path / "run", tmp_path / "reference"
        bad_seed = write(tmp_path, FAST_TRAIN.replace("seed = 3", "seed = -1"), name="bad_seed.cfg")
        assert self.run_cli("train", "--config", bad_seed, "--out", out, "--seed", 3) == 0
        assert json.loads((out / "config.resolved.json").read_text())["seed"] == 3
        assert self.run_cli("train", "--config", write(tmp_path, FAST_TRAIN), "--out", reference) == 0
        assert (out / "metrics.jsonl").read_bytes() == (reference / "metrics.jsonl").read_bytes()

        bad_eval = write(tmp_path, FAST_TRAIN + 'eval_weights = [0.5, 0.5, 0.5, 0.5]\nreport_metric = "median"\n'
                                                'eval_range = "all"\n', name="bad_eval.cfg")
        assert self.run_cli("backtest", "--config", bad_eval, "--out", out,
                            "--weights", "0.1,0.2,0.3,0.4", "--metric", "profit", "--range", "eval") == 0
        report = json.loads((out / "report.json").read_text())
        assert (report["weights"], report["metric"]) == ([0.1, 0.2, 0.3, 0.4], "profit")
        assert report["report"]["range_id"] == "eval"

    def test_seed_override_lands_in_resolved_config(self, tmp_path, capsys):
        cfg_path = write(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert self.run_cli("train", "--config", cfg_path, "--out", out, "--seed", 42) == 0
        resolved = json.loads((out / "config.resolved.json").read_text())
        assert resolved["seed"] == 42

    def test_report_curves_row_count(self, tmp_path, capsys):
        cfg_path = write(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert self.run_cli("train", "--config", cfg_path, "--out", out) == 0
        assert self.run_cli("report", "--out", out) == 0
        with open(out / "curves.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["episode", "range", "metric", "value"]
        assert len(rows) - 1 == 2 * 3 * 7  # |S| x ranges x metrics
        table = capsys.readouterr().out
        assert "total_profit" in table and "eval" in table

    def test_report_without_metrics_fails(self, tmp_path, capsys):
        out = tmp_path / "empty"
        out.mkdir()
        assert self.run_cli("report", "--out", out) != 0
        assert json.loads(capsys.readouterr().out.strip())["error"] == "MissingFile"

    @pytest.mark.parametrize("bad_line, error", [
        ('{"episode": 2, "env_steps": 60, "tr', "JSONDecodeError"),  # a truncated line
        ('{"episode": 1}', "KeyError: 'train'"),
        ("[1, 2]", "TypeError"),
        ('{"episode": 1, "train": {"total_reward": "x"}}', "TypeError"),  # a metric that is not a number
    ])
    def test_report_on_malformed_metrics_is_typed(self, tmp_path, capsys, bad_line, error):
        cfg_path = write(tmp_path, FAST_TRAIN)
        out = tmp_path / "run"
        assert self.run_cli("train", "--config", cfg_path, "--out", out) == 0
        good = (out / "metrics.jsonl").read_text().splitlines()[0]
        (out / "metrics.jsonl").write_text(f"{good}\n\n{bad_line}\n")
        capsys.readouterr()
        assert self.run_cli("report", "--out", out) != 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"] == "InvalidValue" and payload["context"]["key"] == "metrics"
        assert payload["detail"].startswith(f"invalid value for metrics: {out / 'metrics.jsonl'} line 3: {error}")
        assert not (out / "curves.csv").exists()

    def test_walkforward_writes_fold_reports(self, tmp_path, capsys):
        text = FAST_TRAIN + "synthetic_length = 700\neval_frac = 0.1\ntest_frac = 0.1\ntrain_frac = 0.8\nn_folds = 2\nepisodes = 2\neval_every = 1\n"
        cfg_path = write(tmp_path, text)
        out = tmp_path / "wf"
        assert self.run_cli("walkforward", "--config", cfg_path, "--out", out) == 0
        payload = json.loads((out / "report.json").read_text())
        assert payload["n_folds"] == 2
        for fold in payload["folds"]:
            assert fold["reports"]["train"]["range"][0] == 0
        assert (out / "config.resolved.json").exists()

    def test_bad_config_is_machine_readable(self, tmp_path, capsys):
        cfg_path = write(tmp_path, "data_csv = x.csv\nfee = -0.1\n")
        assert self.run_cli("train", "--config", cfg_path, "--out", tmp_path / "o") != 0
        payload = json.loads(capsys.readouterr().out.strip())
        assert payload["error"] == "InvalidValue"
