"""Command-line entry point: train / backtest / walkforward / report.

Every command takes --config and --out; module errors surface as one line
of machine-readable JSON on stdout and a nonzero exit status.
"""

from __future__ import annotations

import argparse
import csv
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path

from . import agent, config, evaluation
from .env import TradingEnv
from .errors import EngineError, InvalidValue, MissingFile
from .market_data import RANGE_NAMES, make_split, walk_forward_folds
from .qnet import load_checkpoint


def _parse_weights(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != 4:
        raise InvalidValue("weights", "expected 4 comma-separated reals")
    try:
        weights = [float(p) for p in parts]
    except ValueError as exc:
        raise InvalidValue("weights", str(exc)) from exc
    return agent.validate_weights(weights).tolist()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="moqtrader", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("train", "backtest", "walkforward", "report"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="run config file (flat dialect or resolved JSON)")
        p.add_argument("--out", required=True, help="run directory for artifacts")
        p.add_argument("--seed", type=int, help="override the training seed")
        p.add_argument("--weights", help="evaluation weight vector, 4 comma-separated reals")
        p.add_argument("--metric", choices=evaluation.SELECTION_METRICS, help="checkpoint selection metric")
        p.add_argument("--range", dest="range_", choices=RANGE_NAMES, help="evaluation range")
    return parser


def cmd_train(cfg: config.RunConfig, out: Path) -> None:
    series = config.load_series(cfg)
    split = make_split(series, cfg.fractions)
    config.write_resolved(cfg, out)
    agent.train(cfg, series, split, out_dir=out, eval_weights=cfg.eval_weights, eval_gamma=cfg.eval_gamma)


def _collect_checkpoints(cfg: config.RunConfig, out: Path) -> list[Path]:
    if cfg.checkpoint is not None:
        path = Path(cfg.checkpoint)
        if not path.exists():
            raise MissingFile(str(path))
        return [path]
    # Only checkpoint_<episode>.bin files: a stray checkpoint_best.bin is not one of the run's.
    numbered = (p for p in out.glob("checkpoint_*.bin") if re.fullmatch(r"checkpoint_[0-9]+\.bin", p.name))
    found = sorted(numbered, key=lambda p: int(p.stem.split("_")[1]))
    if not found:
        raise MissingFile(f"no checkpoint_<episode>.bin files in {out}")
    return found


def _check_meta(meta: dict, cfg: agent.TrainConfig, path: Path) -> None:
    """Reject a checkpoint whose meta is not an object with an integer episode, or whose geometry the config contradicts."""
    if not isinstance(meta, dict) or type(meta.get("episode", 0)) is not int:
        raise InvalidValue("checkpoint", f"{path}: meta {json.dumps(meta)} is not an object with an integer episode")
    for key, value in cfg.checkpoint_meta.items():
        if key in meta and meta[key] != value:
            raise InvalidValue(
                key, f"checkpoint {path} was trained with {json.dumps(meta[key])}, config has {json.dumps(value)}"
            )


def cmd_backtest(cfg: config.RunConfig, out: Path) -> None:
    series = config.load_series(cfg)
    split = make_split(series, cfg.fractions)
    weights, gamma = agent.eval_conditioning(cfg, cfg.eval_weights, cfg.eval_gamma)
    env = TradingEnv(series, cfg.mode, lookback=cfg.lookback, reward_window=cfg.reward_window, fee=cfg.fee)

    # Selection reads only the eval range, so candidates are evaluated on it alone.
    candidates = []
    for path in _collect_checkpoints(cfg, out):
        net, meta = load_checkpoint(path)
        _check_meta(meta, cfg, path)
        _, _, report = evaluation.vectorized_rollout(net, env, split.eval, weights, gamma,
                                                     include_gamma=cfg.generalize_gamma, range_id="eval")
        candidates.append(agent.Checkpoint(episode=meta.get("episode", 0), net=net, reports={"eval": report}, path=path))

    best = evaluation.select_best_checkpoint(candidates, metric=cfg.report_metric, range_id="eval")
    range_ = split.as_dict()[cfg.eval_range]
    _, _, report = evaluation.vectorized_rollout(best.net, env, range_, weights, gamma,
                                                 include_gamma=cfg.generalize_gamma, range_id=cfg.eval_range)
    payload = {
        "checkpoint": str(best.path),
        "episode": best.episode,
        "metric": cfg.report_metric,
        "weights": [float(w) for w in weights],
        "gamma": gamma,
        "report": asdict(report),
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload["report"]))


def cmd_walkforward(cfg: config.RunConfig, out: Path) -> None:
    series = config.load_series(cfg)
    folds = walk_forward_folds(series, cfg.n_folds, cfg.eval_frac, cfg.test_frac)
    config.write_resolved(cfg, out)
    results = agent.run_walk_forward(cfg, series, folds, eval_weights=cfg.eval_weights, eval_gamma=cfg.eval_gamma,
                                     metric=cfg.report_metric)
    payload = {"n_folds": len(results), "metric": cfg.report_metric, "folds": [asdict(r) for r in results]}
    (out / "report.json").write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {len(results)} fold reports to {out / 'report.json'}")


def cmd_report(out: Path) -> None:
    metrics_path = out / "metrics.jsonl"
    if not metrics_path.is_file():
        raise MissingFile(str(metrics_path))
    lines, rows = [], []  # each line's parsed object and curve rows
    for number, text in enumerate(metrics_path.read_text().splitlines(), start=1):
        if not text.strip():
            continue
        try:
            lines.append(json.loads(text))  # below, unary + rejects a metric that is not a number
            rows += [[lines[-1]["episode"], range_id, metric, +lines[-1][range_id][metric]]
                     for range_id in RANGE_NAMES for metric in evaluation.METRIC_FIELDS]
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidValue("metrics", f"{metrics_path} line {number}: {type(exc).__name__}: {exc}") from exc
    if not lines:
        raise MissingFile(f"{metrics_path} is empty")

    curves_path = out / "curves.csv"
    with open(curves_path, "w", newline="") as fh:
        csv.writer(fh).writerows([["episode", "range", "metric", "value"], *rows])

    print(f"{'range':<8}" + "".join(f"{m:>20}" for m in evaluation.METRIC_FIELDS))
    for range_id in RANGE_NAMES:
        print(f"{range_id:<8}" + "".join(f"{lines[-1][range_id][m]:>20.6g}" for m in evaluation.METRIC_FIELDS))
    print(f"episodes evaluated: {len(lines)}; curves written to {curves_path}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = None
        if args.config is not None:
            weights = _parse_weights(args.weights) if args.weights else None
            flags = {"seed": args.seed, "eval_weights": weights, "report_metric": args.metric, "eval_range": args.range_}
            cfg = config.parse_config(args.config, flags)
        out = Path(args.out)
        nearest = next(p for p in (out, *out.parents) if p.exists())  # out, or the parent its mkdir starts from
        if not nearest.is_dir():
            raise InvalidValue("out", f"{nearest} is not a directory")
        if args.command == "report":
            cmd_report(out)
        elif cfg is None:
            raise MissingFile("--config is required for this command")
        else:
            {"train": cmd_train, "backtest": cmd_backtest, "walkforward": cmd_walkforward}[args.command](cfg, out)
    except EngineError as exc:
        print(json.dumps(exc.to_payload()))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
