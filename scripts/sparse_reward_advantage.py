#!/usr/bin/env python3
"""Sparse-reward experiment: multi-reward vs single-reward on a POWC target.

In long-only (LP) mode the profit-only-when-closed reward gives feedback
only when a long is closed, which starves a single-reward learner.  The
multi-reward agent trains on all four rewards at once and is evaluated
with the weight vector pinned to POWC after training.  For each seed we
take the best evaluation-range total POWC reward over all checkpoints and
compare medians across seeds.

Statistically noisy by nature; not part of the CI suite.  Expect a few
minutes per seed pair at the default settings.
"""

import argparse
import statistics
import time

from moqtrader import evaluation
from moqtrader.agent import TrainConfig, one_hot_weights, train
from moqtrader.env import Mode, TradingEnv
from moqtrader.market_data import make_split
from moqtrader.synthetic import generate_synthetic


def base_config(seed: int, episodes: int, multi_reward: bool) -> TrainConfig:
    return TrainConfig(
        mode=Mode.LP,
        multi_reward=multi_reward,
        reward="powc",
        episodes=episodes,
        eval_every=max(1, episodes // 20),
        lookback=30,
        reward_window=20,
        batchsize=64,
        k=3,
        episode_len=200,
        random_access=True,
        max_age=2000,
        hidden=(128, 64),
        learn_rate=0.1,
        tol=0.3,
        sync_period=100,
        gamma=0.95,
        seed=seed,
    )


def best_eval_powc_reward(result, env, split) -> float:
    """Best total POWC reward on the eval range over all checkpoints."""
    powc = one_hot_weights("powc")
    best = float("-inf")
    for ck in result.checkpoints:
        _, _, report = evaluation.vectorized_rollout(ck.net, env, split.eval, powc, 0.95, range_id="eval")
        best = max(best, report.total_reward)
    return best


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=10, help="seeds per agent (default 10)")
    parser.add_argument("--episodes", type=int, default=300, help="training episodes per run (default 300)")
    args = parser.parse_args()

    series = generate_synthetic("sine", 5000, amplitude=0.1, period=50.0)
    split = make_split(series)
    env = TradingEnv(series, Mode.LP, lookback=30, reward_window=20)

    scores = {"single": [], "multi": []}
    started = time.perf_counter()
    for seed in range(args.seeds):
        for name, multi in (("single", False), ("multi", True)):
            result = train(base_config(seed, args.episodes, multi), series, split)
            score = best_eval_powc_reward(result, env, split)
            scores[name].append(score)
            print(f"seed {seed} {name:6s}: best eval POWC total reward {score:+.4f}"
                  f"  [{time.perf_counter() - started:.0f}s elapsed]")

    med_single = statistics.median(scores["single"])
    med_multi = statistics.median(scores["multi"])
    print()
    print(f"median best-eval POWC total reward, single-reward agent: {med_single:+.4f}")
    print(f"median best-eval POWC total reward, multi-reward agent:  {med_multi:+.4f}")
    if med_multi >= med_single:
        print("RESULT: multi-reward median >= single-reward median (sparse-reward advantage holds)")
        return 0
    print("RESULT: multi-reward median < single-reward median (advantage NOT observed on this draw)")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
