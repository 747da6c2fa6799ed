"""Smoke runs of the paper's two experiment scripts and of the artifact check at a tiny size.

The scripts train real agents, so these runs catch a broken import or a
changed API that `ast.parse` (criteria 9 and 10) cannot.  They check the
shape of the output and that the exit status agrees with the RESULT line,
not the statistical claim, which a few episodes cannot settle.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
NUMBER = r"[+-]\d+(\.\d+)?(e[+-]\d+)?"


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.stderr == ""
    return done.returncode, done.stdout.splitlines()


def test_sparse_reward_advantage_runs():
    status, lines = run_script("sparse_reward_advantage.py", "--seeds", "1", "--episodes", "4")
    assert len(lines) == 6
    assert re.fullmatch(rf"seed 0 single: best eval POWC total reward {NUMBER}  \[\d+s elapsed\]", lines[0])
    assert re.fullmatch(rf"seed 0 multi : best eval POWC total reward {NUMBER}  \[\d+s elapsed\]", lines[1])
    assert lines[2] == ""
    assert re.fullmatch(rf"median best-eval POWC total reward, single-reward agent: {NUMBER}", lines[3])
    assert re.fullmatch(rf"median best-eval POWC total reward, multi-reward agent:  {NUMBER}", lines[4])
    held = "RESULT: multi-reward median >= single-reward median (sparse-reward advantage holds)"
    not_held = "RESULT: multi-reward median < single-reward median (advantage NOT observed on this draw)"
    assert (status, lines[5]) in ((0, held), (1, not_held))


def test_fee_degradation_runs():
    status, lines = run_script("fee_degradation.py", "--episodes", "6")
    assert len(lines) == 3
    for line, fee in zip(lines, ("0.0000%", "0.0300%")):
        assert re.fullmatch(rf"fee {re.escape(fee)}: train total profit {NUMBER} over \d+ trades", line)
    # Exit 1 with "policy never traded?" is the script's own not-held signal.
    if status == 0:
        assert re.fullmatch(rf"RESULT: a 0\.03% per-trade fee strictly reduces total profit \({NUMBER} -> {NUMBER}\)",
                            lines[2])
    else:
        assert (status, lines[2]) == (1, "RESULT: fee did not reduce profit (policy never traded?)")


def test_artifact_identity_of_the_tree_with_itself():
    status, lines = run_script("artifact_identity.py", "--baseline-src", str(REPO_ROOT / "src"), "--seeds", "1",
                               "--episodes", "2")
    result = json.loads(lines[0])
    assert len(lines) == 1 and status == 0
    assert (result["runs"], result["files"], result["differ"], result["failed"]) == (7, 26, [], [])
    assert result["identical"]


def test_artifact_identity_names_the_files_a_change_moved(tmp_path):
    # Checkpoints written with one more header key: training, selection and reports do not change.
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    qnet = tmp_path / "src" / "moqtrader" / "qnet.py"
    text = qnet.read_text()
    qnet.write_text(text.replace('"version": CHECKPOINT_VERSION,', '"version": CHECKPOINT_VERSION, "x": 1,', 1))
    status, lines = run_script("artifact_identity.py", "--baseline-src", str(tmp_path / "src"), "--seeds", "1",
                               "--episodes", "2")
    result = json.loads(lines[0])
    assert len(lines) == 1 and status == 1
    runs = ["full_range_k0", "mo_train", "pinned_lsp_k2", "powc_lp_full_range", "replay_unwhitened", "so_train"]
    assert result["differ"] == [f"{run}_seed1/checkpoint_2.bin" for run in runs]
    assert (result["files"], result["failed"], result["identical"]) == (26, [], False)


def test_artifact_identity_names_the_operations_that_failed(tmp_path):
    # A baseline whose train raises: each train run fails at train, skips its backtest and writes nothing;
    # its walkforward run does not go through cmd_train.
    shutil.copytree(REPO_ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "moqtrader" / "cli.py"
    head = "def cmd_train(cfg: config.RunConfig, out: Path) -> None:\n"
    cli.write_text(cli.read_text().replace(head, head + '    raise RuntimeError("train is broken")\n', 1))
    status, lines = run_script("artifact_identity.py", "--baseline-src", str(tmp_path / "src"), "--seeds", "1",
                               "--episodes", "2")
    result = json.loads(lines[0])
    assert len(lines) == 1 and status == 1
    runs = ["so_train", "mo_train", "full_range_k0", "pinned_lsp_k2", "replay_unwhitened", "powc_lp_full_range"]
    assert [failure.partition(": Traceback")[0] for failure in result["failed"]] == [
        f"baseline: {run}_seed1 train: exit 1" for run in runs]
    assert all(failure.endswith("RuntimeError: train is broken") for failure in result["failed"])
    assert (result["files"], len(result["differ"]), result["identical"]) == (26, 24, False)
