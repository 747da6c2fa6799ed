"""Run configuration: a flat key/value text dialect plus a JSON mirror.

Config files are either `key = value` lines (values in JSON syntax, `#`
comments allowed, bare strings accepted) or a JSON object with the same
keys: the latter is what `config.resolved.json` contains, so a finished
run's resolved config can be fed straight back in to reproduce it.
Unknown keys are rejected; omitted keys take the documented defaults.
CLI flags are keys too: they replace the file's values before the one
validation pass, which checks every type and then every rule.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

from .agent import TrainConfig, validate_weights
from .env import Mode
from .errors import InvalidValue, MissingFile, UnknownKey
from .evaluation import SELECTION_METRICS
from .market_data import RANGE_NAMES, PriceSeries, load_csv
from .synthetic import KINDS, generate_synthetic

MAX_SYNTHETIC_LENGTH = 10**7  # rows of a synthetic series at most, bounded before generate_synthetic allocates


def _one_of(names) -> str:
    *head, last = names
    return f"must be {', '.join(head)} or {last}"


@dataclass(frozen=True)
class RunConfig(TrainConfig):
    """A TrainConfig plus data source, split geometry and reporting knobs: one flat key space."""

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

    def validate(self) -> None:
        super().validate()
        no_synthetic = self.synthetic_kind is None
        checks = [
            ((self.data_csv is None) != no_synthetic, "data_csv", "exactly one of data_csv or synthetic_kind must be set"),
            (no_synthetic or self.synthetic_kind in KINDS, "synthetic_kind", f"must be one of {KINDS}"),
            (no_synthetic or self.synthetic_length >= self.lookback + 2, "synthetic_length", "must be >= lookback + 2"),
            (no_synthetic or self.synthetic_length <= MAX_SYNTHETIC_LENGTH, "synthetic_length",
             f"must be <= {MAX_SYNTHETIC_LENGTH}"),
            (no_synthetic or self.synthetic_seed >= 0, "synthetic_seed", "must be >= 0"),
            *((getattr(self, key) > 0, key, "must be > 0") for key in ("train_frac", "eval_frac", "test_frac")),
            (abs(sum(self.fractions) - 1.0) <= 1e-9, "train_frac", "fractions must sum to 1"),
            (self.n_folds >= 1, "n_folds", "must be >= 1"),
            (self.report_metric in SELECTION_METRICS, "report_metric", _one_of(SELECTION_METRICS)),
            (self.eval_range in RANGE_NAMES, "eval_range", _one_of(RANGE_NAMES)),
            (self.eval_gamma is None or 0.0 < self.eval_gamma < 1.0, "eval_gamma", "must be in (0, 1)"),
        ]
        for ok, key, reason in checks:
            if not ok:
                raise InvalidValue(key, reason)
        if self.eval_weights is not None:
            validate_weights(self.eval_weights, key="eval_weights")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _reals(n: int, reason: str):
    return (lambda v: isinstance(v, list) and len(v) == n and all(map(_is_number, v)),
            lambda v: tuple(float(x) for x in v), reason)


# Field annotation (without "| None") -> (accepts the JSON value, convert, reason).
# Range and membership rules live in TrainConfig.validate and RunConfig.validate.
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

# The config keys, in file order (TrainConfig's fields, then RunConfig's own), and their types.
_FIELDS = {f.name: _TYPES[f.type.removesuffix(" | None")] for f in fields(RunConfig)}
ALL_KEYS = tuple(_FIELDS)


def _parse_flat_text(text: str) -> dict:
    values, decode = {}, json.JSONDecoder().raw_decode
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.split("#", 1)[0].strip():
            continue
        key, eq, value = raw.partition("=")
        if not eq or "#" in key:
            raise InvalidValue(f"line {line_no}", f"expected 'key = value', got {raw!r}")
        key, value = key.strip(), value.strip()
        try:  # a JSON value, which may hold a '#', then nothing or a comment
            values[key], end = decode(value)
            if value[end:].lstrip()[:1] in ("", "#"):
                continue
        except json.JSONDecodeError:
            pass
        values[key] = value.split("#", 1)[0].strip().strip('"')  # else a bare string, up to any '#'
    return values


def _coerce(raw: dict) -> RunConfig:
    """Check every key's type, then every rule, and build the config; null means unset."""
    unknown = [k for k in raw if k not in _FIELDS]
    if unknown:
        raise UnknownKey(unknown[0])
    kwargs = {}
    for key, (accepts, convert, reason) in _FIELDS.items():
        if raw.get(key) is None:
            continue
        if not accepts(raw[key]):
            raise InvalidValue(key, reason)
        kwargs[key] = convert(raw[key])
    if "gamma_range" in kwargs and not kwargs.get("generalize_gamma", False):
        raise InvalidValue("gamma_range", "only valid with generalize_gamma = true")
    cfg = RunConfig(**kwargs)
    cfg.validate()
    return cfg


def to_flat_dict(cfg: RunConfig) -> dict:
    """All effective values, defaults included, in declaration order.

    gamma_range is emitted only in generalize_gamma mode (it has no effect
    otherwise, and emitting it would make the file invalid to re-parse).
    """
    out = {key: getattr(cfg, key) for key in _FIELDS}  # json.dumps writes the tuples as lists
    out["mode"] = cfg.mode.value  # the one field of a type json.dumps does not write
    if not cfg.generalize_gamma:
        out["gamma_range"] = None
    return out


def parse_config(path: str | Path, overrides: dict | None = None) -> RunConfig:
    """Load a config file (flat dialect or JSON object), replace the keys that `overrides` sets, and validate.

    A value that an override replaces is never checked: the flag wins.
    """
    path = Path(path)
    if not path.is_file():
        raise MissingFile(str(path))
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise InvalidValue("config", f"{path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidValue("json", str(exc)) from exc
        if not isinstance(raw, dict):
            raise InvalidValue("json", "top level must be an object")
    else:
        raw = _parse_flat_text(text)
    return _coerce({**raw, **{k: v for k, v in (overrides or {}).items() if v is not None}})


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
