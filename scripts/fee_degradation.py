#!/usr/bin/env python3
"""Fee impact experiment: rerun a trained sine policy with a 0.03% fee.

Trains the learning-sanity configuration (long-and-short, single LR reward,
deterministic sine prices), picks the best checkpoint by train-range
profit, then evaluates that same policy with and without a flat per-trade
fee of 0.03%.  The fee strictly reduces total profit for any policy that
trades at all; frequent traders degrade drastically.  Not part of CI.
"""

import argparse

from moqtrader import evaluation
from moqtrader.agent import TrainConfig, one_hot_weights, train
from moqtrader.env import Mode, TradingEnv
from moqtrader.market_data import make_split
from moqtrader.synthetic import generate_synthetic

FEE = 0.0003  # 0.03% per trade leg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--episodes", type=int, default=300)
    args = parser.parse_args()

    series = generate_synthetic("sine", 5000, amplitude=0.1, period=50.0)
    split = make_split(series)
    cfg = TrainConfig(
        mode=Mode.LSP, multi_reward=False, reward="lr", episodes=args.episodes,
        eval_every=max(1, args.episodes // 6), lookback=30, reward_window=20,
        batchsize=64, k=0, episode_len=200, random_access=True, max_age=2000,
        hidden=(128, 64), learn_rate=0.1, tol=0.3, sync_period=100, gamma=0.95,
        seed=args.seed,
    )
    result = train(cfg, series, split)
    best = evaluation.select_best_checkpoint(result.checkpoints, metric="profit", range_id="train")
    weights = one_hot_weights("lr")

    reports = {}
    for fee in (0.0, FEE):
        env = TradingEnv(series, cfg.mode, lookback=cfg.lookback, reward_window=cfg.reward_window, fee=fee)
        _, _, report = evaluation.vectorized_rollout(best.net, env, split.train, weights, cfg.gamma, range_id="train")
        reports[fee] = report
        print(f"fee {fee:.4%}: train total profit {report.total_profit:+.6g} over {report.trades} trades")

    free, paid = reports[0.0], reports[FEE]
    if paid.total_profit < free.total_profit and free.trades > 0:
        print(f"RESULT: a {FEE:.2%} per-trade fee strictly reduces total profit "
              f"({free.total_profit:+.6g} -> {paid.total_profit:+.6g})")
        return 0
    print("RESULT: fee did not reduce profit (policy never traded?)")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
