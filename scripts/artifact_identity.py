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
  LSP with k = 2 (the frozen runner's table path); replayed counterfactual
  actions without whitening, with gamma as an input; and single-reward LP
  over full-range episodes with POWC;
- `backtest` of each run's checkpoints on a long random-walk series, whose
  test range is forwarded in several row blocks, which writes report.json
  (its checkpoint path is relative, so its bytes do not name the tree);
- `walkforward` of a short config over two folds at each seed, which writes
  report.json and config.resolved.json.

One run, full_range_k0, takes its seed from `--seed` instead of its config
file, and its backtest takes `--weights` and `--metric profit`, so the flags'
path into the config is compared too.

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
# Two folds of the short series: trains on its first third and two thirds, each with 180 eval and test rows.
WALKFORWARD = {**MO_TRAIN, **SHORT, "n_folds": 2, "train_frac": 0.7, "eval_frac": 0.15, "test_frac": 0.15}
# The backtest's series: as long as the benchmark's backtest CSV, so that its test range holds 4,969 steps.
BACKTEST_SERIES = {"synthetic_kind": "random-walk", "synthetic_length": BACKTEST_ROWS,
                   "synthetic_amplitude": BACKTEST_STEP_STD}
FLAGGED = "full_range_k0"  # the run whose seed, backtest weights and metric come in as CLI flags
BACKTEST_FLAGS = ["--weights", "0.1,0.2,0.3,0.4", "--metric", "profit"]
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


Run = tuple[str, list[tuple[str, dict, list]]]  # run name, then its (command, config, flags) in order


def shortened(cfg: dict, episodes: int | None) -> dict:
    return cfg if episodes is None else {**cfg, "episodes": episodes, "eval_every": min(cfg["eval_every"], episodes)}


def operations(seeds: list[int], episodes: int | None) -> list[Run]:
    """Every run: a train and a backtest per config and seed, then a walkforward per seed."""
    runs = []
    for name, cfg in CONFIGS.items():
        cfg = shortened(cfg, episodes)
        for seed in seeds:
            backtest = {**cfg, **BACKTEST_SERIES, "synthetic_seed": seed}
            if name == FLAGGED:
                train, train_flags, backtest_flags = cfg, ["--seed", str(seed)], BACKTEST_FLAGS
            else:
                train, train_flags, backtest_flags = {**cfg, "seed": seed}, [], []
            runs.append((f"{name}_seed{seed}", [("train", train, train_flags),
                                                ("backtest", backtest, ["--range", "test", *backtest_flags])]))
    runs += [(f"walkforward_seed{seed}", [("walkforward", {**shortened(WALKFORWARD, episodes), "seed": seed}, [])])
             for seed in seeds]
    return runs


def start_tree(src: Path, root: Path, runs: list[Run]) -> subprocess.Popen:
    """Start every run under src, in root/<run name>, in one subprocess."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve())}
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    operations = []
    for name, commands in runs:
        (root / name).mkdir(parents=True)
        argvs = []
        for command, cfg, flags in commands:
            write_config(root / f"{name}.{command}.cfg", cfg)
            argvs.append((command, [command, "--config", str(root / f"{name}.{command}.cfg"), "--out", ".", *flags]))
        operations.append((name, argvs))
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
