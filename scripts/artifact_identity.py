#!/usr/bin/env python3
"""Byte-compare the artifacts of a baseline src tree with those of this tree's src.

A change that claims to be byte-identical to its parent shows it here.  Each
tree runs the same fixed list of operations in one subprocess of its own, the
two side by side, each with one BLAS thread and as one `moqtrader.cli.main`
call per operation from its run's directory:

- `train` of the benchmark's so_train and mo_train configs (imported from
  bench/workloads.py) at each seed, which writes metrics.jsonl, every
  checkpoint and config.resolved.json;
- `train` of four short variants of them, on paths those two configs leave
  out: full-range episodes with drawn weights and k = 0; pinned weights in
  LSP with k = 2 (the frozen runner's table path, and a reused evaluation
  table); replayed counterfactual actions without whitening, with gamma as
  an input; and single-reward LP over full-range episodes with POWC;
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

SHORT = {"synthetic_length": 1200, "episodes": 6, "eval_every": 3}  # two fitting episodes, two frozen stretches
PINNED = [0.4, 0.3, 0.2, 0.1]
CONFIGS = {
    "so_train": SO_TRAIN,
    "mo_train": MO_TRAIN,
    "full_range_k0": {**MO_TRAIN, **SHORT, "random_access": False, "k": 0},
    "pinned_lsp_k2": {**MO_TRAIN, **SHORT, "mode": "LSP", "k": 2, "generalize_gamma": False,
                      "pin_weights": PINNED, "eval_weights": PINNED},
    "replay_unwhitened": {**MO_TRAIN, **SHORT, "hindsight_action": "replay", "whiten": False},
    "powc_lp_full_range": {**SO_TRAIN, **SHORT, "mode": "LP", "reward": "powc", "random_access": False},
}
# The backtest's series: as long as the benchmark's backtest CSV, so that its test range holds 4,969 steps.
BACKTEST_SERIES = {"synthetic_kind": "random-walk", "synthetic_length": BACKTEST_ROWS,
                   "synthetic_amplitude": BACKTEST_STEP_STD}
IGNORED = {"timing.log"}
# A tree's runner: reads [run name, [[command, argv], ...]] pairs as JSON from its argument, calls the tree's
# cli.main on each argv from the run's directory, stops a run at its first failed command and prints the failures.
RUNNER = """
import contextlib, io, json, os, sys, traceback
from moqtrader import cli

failed, root = [], os.getcwd()
for name, commands in json.loads(sys.argv[1]):
    os.chdir(os.path.join(root, name))
    for command, argv in commands:
        output = io.StringIO()
        with contextlib.redirect_stdout(output), contextlib.redirect_stderr(output):
            try:
                status = cli.main(argv)
            except SystemExit as exc:
                status = exc.code
            except Exception:
                status = 1
                traceback.print_exc()
        if status != 0:
            failed.append(f"{name} {command}: exit {status}: {output.getvalue().strip()}")
            break
print(json.dumps(failed))
"""


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


def start_tree(src: Path, root: Path, runs: list[tuple[str, dict, dict]]) -> subprocess.Popen:
    """Start every run under src, in root/<run name>, in one subprocess."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    operations = []
    for name, train_cfg, backtest_cfg in runs:
        (root / name).mkdir(parents=True)
        write_config(root / f"{name}.train.cfg", train_cfg)
        write_config(root / f"{name}.backtest.cfg", backtest_cfg)
        operations.append((name, [
            ("train", ["train", "--config", str(root / f"{name}.train.cfg"), "--out", "."]),
            ("backtest", ["backtest", "--config", str(root / f"{name}.backtest.cfg"), "--out", ".", "--range", "test"]),
        ]))
    return subprocess.Popen([sys.executable, "-c", RUNNER, json.dumps(operations)], cwd=root, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def failures(runner: subprocess.Popen) -> list[str]:
    """The operations a started tree failed, once it has finished."""
    out, err = runner.communicate()
    if runner.returncode != 0:
        return [f"runner: exit {runner.returncode}: {(out + err).strip()}"]
    return json.loads(out)


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
        runners = {tree: start_tree(src, roots[tree], runs) for tree, src in (("baseline", args.baseline_src),
                                                                               ("change", REPO_SRC))}
        failed = [f"{tree}: {failure}" for tree, runner in runners.items() for failure in failures(runner)]
        old, new = artifacts(roots["baseline"]), artifacts(roots["change"])
        differ = sorted(name for name in old.keys() | new.keys()
                        if name not in old or name not in new or old[name].read_bytes() != new[name].read_bytes())
    result = {"baseline_src": str(args.baseline_src), "runs": len(runs), "files": len(old.keys() | new.keys()),
              "differ": differ, "failed": failed, "identical": not differ and not failed}
    print(json.dumps(result))
    return 0 if result["identical"] else 1


if __name__ == "__main__":
    sys.exit(main())
