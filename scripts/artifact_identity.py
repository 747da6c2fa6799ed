#!/usr/bin/env python3
"""Byte-compare the artifacts of a baseline src tree with those of this tree's src.

A change that claims to be byte-identical to its parent shows it here.  Each
tree runs the same fixed list of operations, each in its own subprocess with
one BLAS thread:

- `train` of the benchmark's so_train and mo_train configs (imported from
  bench/workloads.py) at each seed, which writes metrics.jsonl, every
  checkpoint and config.resolved.json;
- `backtest` of each run's checkpoints on a long random-walk series, whose
  test range is forwarded in several row blocks, which writes report.json
  (its checkpoint path is relative, so its bytes do not name the tree).

Every artifact except timing.log (wall-clock times) is compared byte for byte.
Prints one JSON line and exits 1 when a file differs, is missing on one side or
a run fails.

    python3 scripts/artifact_identity.py --baseline-src ../parent/src
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
REPO_SRC = REPO / "src"
sys.dont_write_bytecode = True  # reading bench/ leaves no file there
sys.path.insert(0, str(REPO / "bench"))
from workloads import BACKTEST_ROWS, BACKTEST_STEP_STD, MO_TRAIN, SO_TRAIN, write_config  # noqa: E402

CONFIGS = {"so_train": SO_TRAIN, "mo_train": MO_TRAIN}
# The backtest's series: as long as the benchmark's backtest CSV, so that its test range holds 4,969 steps.
BACKTEST_SERIES = {"synthetic_kind": "random-walk", "synthetic_length": BACKTEST_ROWS,
                   "synthetic_amplitude": BACKTEST_STEP_STD}
IGNORED = {"timing.log"}


def operations(seeds: list[int], episodes: int | None) -> list[tuple[str, dict, dict]]:
    """(run name, train config, backtest config) of every run."""
    runs = []
    for name, cfg in CONFIGS.items():
        if episodes is not None:
            cfg = {**cfg, "episodes": episodes, "eval_every": min(cfg["eval_every"], episodes)}
        for seed in seeds:
            backtest = {**cfg, **BACKTEST_SERIES, "synthetic_seed": seed}
            runs.append((f"{name}_seed{seed}", {**cfg, "seed": seed}, backtest))
    return runs


def run_tree(src: Path, root: Path, runs: list[tuple[str, dict, dict]]) -> list[str]:
    """Every run under src, in root/<run name>; returns the operations that failed."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    failed = []
    for name, train_cfg, backtest_cfg in runs:
        out = root / name
        out.mkdir(parents=True)
        write_config(root / f"{name}.train.cfg", train_cfg)
        write_config(root / f"{name}.backtest.cfg", backtest_cfg)
        commands = {
            "train": ["train", "--config", str(root / f"{name}.train.cfg"), "--out", "."],
            "backtest": ["backtest", "--config", str(root / f"{name}.backtest.cfg"), "--out", ".", "--range", "test"],
        }
        for command, argv in commands.items():
            done = subprocess.run([sys.executable, "-m", "moqtrader.cli", *argv], cwd=out, env=env,
                                  capture_output=True, text=True)
            if done.returncode != 0:
                failed.append(f"{name} {command}: exit {done.returncode}: {(done.stdout + done.stderr).strip()}")
                break
    return failed


def artifacts(root: Path) -> dict[str, Path]:
    return {str(p.relative_to(root)): p for p in sorted(root.glob("*/*")) if p.name not in IGNORED}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline-src", type=Path, required=True, help="src directory of the baseline tree")
    parser.add_argument("--seeds", default="1,2", help="comma-separated training seeds")
    parser.add_argument("--episodes", type=int, help="train every config this many episodes (a quick check)")
    args = parser.parse_args()
    runs = operations([int(s) for s in args.seeds.split(",")], args.episodes)

    with tempfile.TemporaryDirectory() as tmp:
        roots = {"baseline": Path(tmp) / "baseline", "change": Path(tmp) / "change"}
        failed = [f"{tree}: {failure}" for tree, src in (("baseline", args.baseline_src), ("change", REPO_SRC))
                  for failure in run_tree(src, roots[tree], runs)]
        old, new = artifacts(roots["baseline"]), artifacts(roots["change"])
        differ = sorted(name for name in old.keys() | new.keys()
                        if name not in old or name not in new or old[name].read_bytes() != new[name].read_bytes())
    result = {"baseline_src": str(args.baseline_src), "runs": len(runs), "files": len(old.keys() | new.keys()),
              "differ": differ, "failed": failed, "identical": not differ and not failed}
    print(json.dumps(result))
    return 0 if result["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
