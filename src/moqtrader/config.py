"""Run configuration: a flat key/value text dialect plus a JSON mirror.

Config files are either `key = value` lines (values in JSON syntax, `#`
comments allowed, bare strings accepted) or a JSON object with the same
keys: the latter is what `config.resolved.json` contains, so a finished
run's resolved config can be fed straight back in to reproduce it.
Unknown keys are rejected; omitted keys take the documented defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .agent import TrainConfig, validate_weights
from .env import Mode
from .errors import InvalidValue, MissingFile, UnknownKey
from .market_data import PriceSeries, load_csv
from .synthetic import KINDS, generate_synthetic


@dataclass(frozen=True)
class RunConfig:
    """TrainConfig plus data source, split geometry and reporting knobs."""

    train: TrainConfig = field(default_factory=TrainConfig)

    data_csv: str | None = None
    timestamp_column: str = "timestamp"
    close_column: str = "close"
    asset_id: str | None = None

    synthetic_kind: str | None = None
    synthetic_length: int = 5000
    synthetic_base: float = 100.0
    synthetic_amplitude: float = 0.1
    synthetic_period: float = 50.0
    synthetic_drift: float = 0.0
    synthetic_seed: int = 0

    train_frac: float = 0.64
    eval_frac: float = 0.16
    test_frac: float = 0.20
    # Walk-forward plans need eval_frac + test_frac <= 1/(n_folds + 1) to fit
    # after the last fold's train range; the default fractions admit 1 fold.
    n_folds: int = 1

    eval_weights: tuple[float, float, float, float] | None = None
    eval_gamma: float | None = None
    report_metric: str = "sharpe"
    eval_range: str = "test"
    checkpoint: str | None = None

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_frac, self.eval_frac, self.test_frac)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _reals(n: int, reason: str):
    return (lambda v: isinstance(v, list) and len(v) == n and all(map(_is_number, v)),
            lambda v: tuple(float(x) for x in v), reason)


# Field annotation (without "| None") -> (accepts the JSON value, convert, reason).
# Range and membership rules live in TrainConfig.validate and _validate_run.
_TYPES = {
    "bool": (lambda v: isinstance(v, bool), bool, "must be true or false"),
    "int": (_is_int, int, "must be an integer"),
    "float": (_is_number, float, "must be a number"),
    "str": (lambda v: isinstance(v, str), str, "must be a string"),
    "Mode": (lambda v: v in ("LP", "LSP"), Mode, "must be LP or LSP"),
    "tuple[int, ...]": (lambda v: isinstance(v, list) and all(map(_is_int, v)), tuple,
                        "must be a list of positive integers"),
    "tuple[float, float]": _reals(2, "must be a [low, high] pair"),
    "tuple[float, float, float, float]": _reals(4, "must be a list of 4 reals"),
}

# The config keys, in file order: TrainConfig's fields, then RunConfig's own.
_TRAIN_FIELDS = {f.name: _TYPES[f.type.removesuffix(" | None")] for f in fields(TrainConfig)}
_RUN_FIELDS = {f.name: _TYPES[f.type.removesuffix(" | None")] for f in fields(RunConfig) if f.name != "train"}
ALL_KEYS = (*_TRAIN_FIELDS, *_RUN_FIELDS)


def _parse_flat_text(text: str) -> dict:
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidValue(f"line {line_no}", f"expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            values[key] = json.loads(value)
        except json.JSONDecodeError:
            values[key] = value.strip('"')
    return values


def _coerce_fields(raw: dict, schema: dict) -> dict:
    """Type-check and convert the keys of one dataclass; null means unset."""
    kwargs = {}
    for key, (accepts, convert, reason) in schema.items():
        if raw.get(key) is None:
            continue
        if not accepts(raw[key]):
            raise InvalidValue(key, reason)
        kwargs[key] = convert(raw[key])
    return kwargs


def _coerce(raw: dict) -> RunConfig:
    unknown = [k for k in raw if k not in ALL_KEYS]
    if unknown:
        raise UnknownKey(unknown[0])

    train_kwargs = _coerce_fields(raw, _TRAIN_FIELDS)
    if "gamma_range" in train_kwargs and not train_kwargs.get("generalize_gamma", False):
        raise InvalidValue("gamma_range", "only valid with generalize_gamma = true")
    train = TrainConfig(**train_kwargs)
    train.validate()

    cfg = RunConfig(train=train, **_coerce_fields(raw, _RUN_FIELDS))
    _validate_run(cfg)
    return cfg


def _validate_run(cfg: RunConfig) -> None:
    def _check(cond: bool, key: str, reason: str) -> None:
        if not cond:
            raise InvalidValue(key, reason)

    _check(
        (cfg.data_csv is not None) != (cfg.synthetic_kind is not None),
        "data_csv", "exactly one of data_csv or synthetic_kind must be set",
    )
    if cfg.synthetic_kind is not None:
        _check(cfg.synthetic_kind in KINDS, "synthetic_kind", f"must be one of {KINDS}")
        _check(cfg.synthetic_length >= cfg.train.lookback + 2, "synthetic_length", "must be >= lookback + 2")
        _check(cfg.synthetic_seed >= 0, "synthetic_seed", "must be >= 0")
    for key in ("train_frac", "eval_frac", "test_frac"):
        _check(getattr(cfg, key) > 0, key, "must be > 0")
    _check(abs(sum(cfg.fractions) - 1.0) <= 1e-9, "train_frac", "fractions must sum to 1")
    _check(cfg.n_folds >= 1, "n_folds", "must be >= 1")
    _check(cfg.report_metric in ("sharpe", "profit"), "report_metric", "must be sharpe or profit")
    _check(cfg.eval_range in ("train", "eval", "test"), "eval_range", "must be train, eval or test")
    if cfg.eval_weights is not None:
        validate_weights(cfg.eval_weights, key="eval_weights")
    if cfg.eval_gamma is not None:
        _check(0.0 < cfg.eval_gamma < 1.0, "eval_gamma", "must be in (0, 1)")


def _to_json(value):
    if isinstance(value, Mode):
        return value.value
    if isinstance(value, tuple):
        return list(value)
    return value


def to_flat_dict(cfg: RunConfig) -> dict:
    """All effective values, defaults included, in declaration order.

    gamma_range is emitted only in generalize_gamma mode (it has no effect
    otherwise, and emitting it would make the file invalid to re-parse).
    """
    out = {key: _to_json(getattr(cfg.train, key)) for key in _TRAIN_FIELDS}
    if not cfg.train.generalize_gamma:
        out["gamma_range"] = None
    out.update((key, _to_json(getattr(cfg, key))) for key in _RUN_FIELDS)
    return out


def parse_config(path: str | Path) -> RunConfig:
    """Load and fully validate a config file (flat dialect or JSON object)."""
    path = Path(path)
    if not path.exists():
        raise MissingFile(str(path))
    text = path.read_text()
    if text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidValue("json", str(exc)) from exc
        if not isinstance(raw, dict):
            raise InvalidValue("json", "top level must be an object")
    else:
        raw = _parse_flat_text(text)
    return _coerce(raw)


def write_resolved(cfg: RunConfig, out_dir: str | Path) -> Path:
    """Persist config.resolved.json: enough to reproduce the run bit-exactly."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    target = out / "config.resolved.json"
    target.write_text(json.dumps(to_flat_dict(cfg), indent=2) + "\n")
    return target


def load_series(cfg: RunConfig) -> PriceSeries:
    """Materialize the configured data source."""
    if cfg.data_csv is not None:
        column_map = {"timestamp": cfg.timestamp_column, "close": cfg.close_column}
        return load_csv(cfg.data_csv, column_map=column_map, asset_id=cfg.asset_id)
    return generate_synthetic(
        cfg.synthetic_kind,
        cfg.synthetic_length,
        base=cfg.synthetic_base,
        amplitude=cfg.synthetic_amplitude,
        period=cfg.synthetic_period,
        drift=cfg.synthetic_drift,
        seed=cfg.synthetic_seed,
        asset_id=cfg.asset_id,
    )


def apply_overrides(
    cfg: RunConfig,
    *,
    seed: int | None = None,
    weights: tuple[float, float, float, float] | None = None,
    metric: str | None = None,
    range_: str | None = None,
) -> RunConfig:
    """Apply CLI flag overrides on top of a parsed config."""
    if seed is not None:
        cfg = replace(cfg, train=replace(cfg.train, seed=seed))
        cfg.train.validate()  # before walkforward derives a fold seed from it
    if weights is not None:
        validate_weights(weights)
        cfg = replace(cfg, eval_weights=tuple(float(w) for w in weights))
    if metric is not None:
        cfg = replace(cfg, report_metric=metric)
    if range_ is not None:
        cfg = replace(cfg, eval_range=range_)
    return cfg
