"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Criteria 9 and 10 are qualitative experiments
shipped as standalone scripts (statistically noisy, minutes of runtime);
here we only verify the scripts are present and importable.
"""

import ast
import json
import time
from pathlib import Path

import numpy as np
import scalar_reference
from scalar_reference import replay_rows

from moqtrader import agent, cli, evaluation
from moqtrader.agent import TrainConfig, one_hot_weights, train
from moqtrader.env import Mode, StepOutcome, TradingEnv
from moqtrader.market_data import make_split
from moqtrader.qnet import QNetwork, build_input
from moqtrader.replay import ReplayBuffer, compute_whitening, scalar_rewards
from moqtrader.rewards import RewardVector
from moqtrader.synthetic import generate_synthetic

REPO_ROOT = Path(__file__).resolve().parent.parent


def announce(number: int, text: str) -> None:
    print(f"criterion {number:2d} PASS: {text}")


def test_criterion_01_whitening_invariant():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    mix = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
    rewards = rng.normal(size=(10_000, 4)) @ mix + rng.normal(size=4)

    env = TradingEnv(generate_synthetic("sine", 10, amplitude=0.08, period=4.0), Mode.LSP, lookback=2, reward_window=2)
    buffer = ReplayBuffer(max_age=1_000_000, env=env)
    state = env.reset((0, 10))
    next_state = env.transition(state, 0).next_state
    w = np.array([1.0, 0, 0, 0])
    for row in rewards:
        outcome = StepOutcome(next_state, RewardVector(*row), False)
        scalar_reference.push_experience(buffer, state, 0, 0.9, w, outcome, 0)
    inv_sqrt = compute_whitening(buffer, eigen_floor=1e-8)
    assert np.linalg.eigvalsh(buffer.reward_moments()[1]).min() > 100 * 1e-8  # well-conditioned

    stored = replay_rows(buffer).reward
    worst = 0.0
    for _ in range(20):
        unit = rng.normal(size=4)
        unit /= np.linalg.norm(unit)
        variance = float(np.var(stored @ inv_sqrt @ unit, ddof=1))
        worst = max(worst, abs(variance - 1.0))
        assert abs(variance - 1.0) <= 1e-6
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    announce(1, f"whitened projection variance = 1 within {worst:.2e} for 20 unit vectors ({elapsed:.2f}s)")


def test_criterion_02_gradient_check():
    """With momentum 0 a TD update moves the parameters by -learn_rate times the loss gradient."""
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    step, learn_rate = 1e-5, 1e-2
    worst = 0.0
    for trial in range(10):
        include_gamma = trial % 2 == 1
        widths = [int(rng.integers(6, 10)), int(rng.integers(2, 7)), int(rng.integers(1, 4))]
        net, target = QNetwork(widths, seed=2000 + trial), QNetwork(widths, seed=3000 + trial)
        n, state_width = 5, widths[0] - 4 - include_gamma
        weights = rng.exponential(size=(n, 4))
        state, gamma, reward = rng.normal(size=(n, state_width)), rng.uniform(0.5, 0.99, size=n), rng.normal(size=(n, 4))
        rewards, action = rng.normal(size=n), rng.integers(widths[-1], size=n)
        batch = scalar_reference.batch_of(
            state=state, gamma=gamma, weights=weights / weights.sum(axis=1, keepdims=True), reward=reward,
            action=action, next_state=rng.normal(size=(n, state_width)), terminal=rng.random(n) < 0.3,
            include_gamma=include_gamma,
        )
        # the targets the update regresses on, held fixed while the loss is differentiated
        inputs, targets = scalar_reference.bellman_targets(batch, rewards, net, target, 0.7)
        updated = net.clone()
        updated.td_update(target, batch, rewards, alpha=0.7, learn_rate=learn_rate)
        for arr_list, new_list in ((net.weights, updated.weights), (net.biases, updated.biases)):
            for arr, new in zip(arr_list, new_list):
                grad = (arr - new) / learn_rate
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + step
                    up = scalar_reference.loss(net, inputs, targets)
                    arr[idx] = orig - step
                    down = scalar_reference.loss(net, inputs, targets)
                    arr[idx] = orig
                    fd = (up - down) / (2 * step)
                    denom = max(abs(fd), 1e-3)
                    rel = abs(grad[idx] - fd) / denom
                    worst = max(worst, rel)
                    assert rel <= 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    announce(2, f"TD steps match central-difference gradients on 10 nets, worst rel err {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_03_toy_mdp_oracle():
    started = time.perf_counter()
    gamma = 0.9
    rewards = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 2.0, (1, 1): -1.0}

    q_star = np.zeros((2, 2))
    for _ in range(2000):
        values = q_star.max(axis=1)
        q_star = np.array([[rewards[(s, a)] + gamma * values[a] for a in (0, 1)] for s in (0, 1)])
    np.testing.assert_allclose(q_star, [[10.0, 9.9], [11.0, 8.9]], atol=1e-9)

    one_hot = {0: np.array([1.0, 0.0]), 1: np.array([0.0, 1.0])}
    w = np.array([1.0, 0.0, 0.0, 0.0])
    pairs = [(s, a) for s in (0, 1) for a in (0, 1)]
    batch = scalar_reference.batch_of(
        state=np.array([one_hot[s] for s, _ in pairs]), next_state=np.array([one_hot[a] for _, a in pairs]),
        gamma=np.full(4, gamma), weights=np.tile(w, (4, 1)), reward=np.array([[rewards[p], 0, 0, 0] for p in pairs]),
        action=np.array([a for _, a in pairs]), terminal=np.zeros(4, dtype=bool),
    )
    scalars = scalar_rewards(batch)
    net = QNetwork([6, 2], seed=3)
    target = net.clone()
    for update in range(1, 3001):
        net.td_update(target, batch, scalars, alpha=1.0, learn_rate=0.2)
        if update % 20 == 0:  # train's target sync rule, sync_period = 20
            target.copy_params_from(net)

    learned = np.vstack([  # the one-hot's first entry is the one return input, its second the position code
        net.forward(build_input(one_hot[s][:1], w, gamma, False, one_hot[s][1])) for s in (0, 1)
    ])
    error = float(np.abs(learned - q_star).max())
    assert error <= 1e-3
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    announce(3, f"deep-Q loop recovers value-iteration Q* within {error:.2e} ({elapsed:.2f}s)")


def test_criterion_04_telescoping_powc():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for trial in range(100):
        series = generate_synthetic("random-walk", 120, amplitude=0.02, seed=5000 + trial)
        env = TradingEnv(series, Mode.LSP, lookback=6, reward_window=5)
        state = env.reset((0, 120))
        n_steps = env.steps_in((0, 120))
        actions = [int(a) for a in rng.integers(0, 3, size=n_steps - 1)] + [2]  # final Hold closes

        total_lr = total_powc = 0.0
        log_close = series.log_close
        cursor, pos, anchor, oracle = 6, 0, None, 0.0
        for action in actions:
            out = env.transition(state, action)
            state = out.next_state
            total_lr += out.reward.lr
            total_powc += out.reward.powc
            new_pos = (1, -1, 0)[action]
            if new_pos != pos:
                if pos != 0:
                    oracle += pos * (log_close[cursor] - log_close[anchor])
                anchor = cursor
            pos = new_pos
            cursor += 1
            if out.done:
                break
        assert pos == 0  # every opened position closed before the end
        worst = max(worst, abs(total_lr - total_powc), abs(oracle - total_powc))
        assert abs(total_lr - total_powc) <= 1e-9
        assert abs(oracle - total_powc) <= 1e-9
    announce(4, f"sum(POWC) == sum(LR) == per-trade oracle on 100 random runs, worst gap {worst:.2e}")


def test_criterion_05_one_hot_reduction():
    series = generate_synthetic("sine", 500, amplitude=0.08, period=40.0)
    split = make_split(series)

    def cfg(multi: bool, k: int, whiten: bool) -> TrainConfig:
        return TrainConfig(
            mode=Mode.LSP, multi_reward=multi, reward="lr",
            pin_weights=(1.0, 0.0, 0.0, 0.0) if multi else None,
            episodes=1, eval_every=2, lookback=6, reward_window=4, batchsize=8,
            k=k, episode_len=40, random_access=True, max_age=10_000, hidden=(8,),
            whiten=whiten, seed=11,
        )

    # scalar reward stream equality, hindsight augmentation active (k = 3)
    single = train(cfg(multi=False, k=3, whiten=True), series, split)
    pinned = train(cfg(multi=True, k=3, whiten=True), series, split)
    stream_single = scalar_rewards(replay_rows(single.replay)).tolist()
    stream_pinned = scalar_rewards(replay_rows(pinned.replay)).tolist()[::4]  # real experiences
    assert stream_single == stream_pinned

    # identical Bellman targets with whitening disabled
    net = QNetwork(cfg(False, 0, False).widths, seed=21)
    target = net.clone()
    batch_single = replay_rows(single.replay, np.arange(8))
    batch_pinned = replay_rows(pinned.replay, np.arange(0, 32, 4))
    _, t_single = scalar_reference.bellman_targets(batch_single, scalar_rewards(batch_single), net, target, alpha=0.7)
    _, t_pinned = scalar_reference.bellman_targets(batch_pinned, scalar_rewards(batch_pinned), net, target, alpha=0.7)
    np.testing.assert_allclose(t_single, t_pinned, atol=1e-12, rtol=0)

    # end to end: with k = 0 and whitening off the two pipelines coincide
    single = train(cfg(multi=False, k=0, whiten=False), series, split, eval_weights=one_hot_weights("lr"))
    pinned = train(cfg(multi=True, k=0, whiten=False), series, split, eval_weights=one_hot_weights("lr"))
    assert scalar_reference.params_equal(single.net, pinned.net)
    announce(5, "pinned one-hot multi-reward reproduces the single-reward stream and targets exactly")


def test_criterion_06_vectorized_equivalence_and_speedup():
    rng = np.random.default_rng(1006)
    series = generate_synthetic("random-walk", 500, amplitude=0.015, seed=77)
    lookback, window = 6, 4
    for trial in range(100):
        mode = Mode.LSP if trial % 2 == 0 else Mode.LP
        net = QNetwork([lookback + 5, 8, mode.n_actions], seed=int(rng.integers(1 << 30)))
        w = agent.sample_weights(rng, 1)[0]
        gamma = float(rng.uniform(0.5, 0.99))
        fee = float(rng.choice([0.0, 0.0005]))
        lo = int(rng.integers(0, 200))
        hi = int(rng.integers(lo + lookback + 10, 500))
        env = TradingEnv(series, mode, lookback=lookback, reward_window=window, fee=fee)
        trace_a, rep_a = scalar_reference.run_policy(net, env, (lo, hi), w, gamma)
        _, trace_b, rep_b = evaluation.vectorized_rollout(net, env, (lo, hi), w, gamma)
        np.testing.assert_array_equal(trace_a.actions, trace_b.actions)
        np.testing.assert_array_equal(trace_a.positions, trace_b.positions)
        np.testing.assert_array_equal(trace_a.reward_vectors, trace_b.reward_vectors)
        for field in ("total_reward", "total_profit", "sharpe", "long_exposure",
                      "buy_and_hold_profit", "buy_and_hold_sharpe"):
            assert abs(getattr(rep_a, field) - getattr(rep_b, field)) <= 1e-12
        assert rep_a.trades == rep_b.trades

    # wall-time comparison on 10^4 steps
    big = generate_synthetic("random-walk", 10_200, amplitude=0.01, seed=78)
    net = QNetwork([30 + 5, 64, 64, 3], seed=79)
    w = agent.uniform_weights()
    range_ = (0, 10_000 + 30 + 2)
    env = TradingEnv(big, Mode.LSP, lookback=30, reward_window=20)
    started = time.perf_counter()
    trace_a, _ = scalar_reference.run_policy(net, env, range_, w, 0.95)
    naive = time.perf_counter() - started
    started = time.perf_counter()
    _, trace_b, _ = evaluation.vectorized_rollout(net, env, range_, w, 0.95)
    fast = time.perf_counter() - started
    np.testing.assert_array_equal(trace_a.actions, trace_b.actions)
    assert len(trace_a.actions) > 10_000 - 1
    speedup = naive / fast
    assert speedup >= 3.0
    announce(6, f"vectorized == naive on 100 random pairs; {speedup:.1f}x speedup on 10^4 steps")


def test_criterion_07_same_age_replay():
    series = generate_synthetic("sine", 400, amplitude=0.08, period=40.0)
    split = make_split(series)
    max_age, k = 60, 3

    def run(multi: bool):
        return train(
            TrainConfig(
                mode=Mode.LSP, multi_reward=multi, reward="lr", episodes=2, eval_every=1,
                lookback=6, reward_window=4, batchsize=16, k=k, episode_len=100,
                random_access=True, max_age=max_age, hidden=(8,), seed=31,
            ),
            series, split,
        )

    single, multi = run(False), run(True)
    for result in (single, multi):
        buf = result.replay
        assert np.all(result.updates - buf._birth[buf._lo : buf._hi] <= max_age)
    assert single.env_steps == multi.env_steps
    assert len(multi.replay) == (k + 1) * len(single.replay)
    announce(7, f"age bound holds; multi replay is exactly (k+1)x longer "
                f"({len(multi.replay)} = {k + 1} * {len(single.replay)}) at equal age")


def test_criterion_08_learning_sanity():
    started = time.perf_counter()
    series = generate_synthetic("sine", 5000, amplitude=0.1, period=50.0)
    split = make_split(series)
    env = TradingEnv(series, Mode.LSP, lookback=30, reward_window=20)
    benchmark = scalar_reference.buy_and_hold(env, split.train).total_profit

    wins = 0
    margins = []
    for seed in range(10):
        cfg = TrainConfig(
            mode=Mode.LSP, multi_reward=False, reward="lr", episodes=300, eval_every=50,
            lookback=30, reward_window=20, batchsize=64, k=0, episode_len=200,
            random_access=True, max_age=2000, hidden=(128, 64), learn_rate=0.1,
            tol=0.3, sync_period=100, gamma=0.95, seed=seed,
        )
        result = train(cfg, series, split)
        best = max(ck.reports["train"].total_profit for ck in result.checkpoints)
        margins.append(best)
        if best > benchmark:
            wins += 1
    elapsed = time.perf_counter() - started
    assert wins >= 8, f"only {wins}/10 seeds beat buy-and-hold ({benchmark:+.4f}): {margins}"
    assert elapsed < 600.0
    announce(8, f"{wins}/10 seeds beat buy-and-hold ({benchmark:+.4f}) on the sine train range ({elapsed:.0f}s)")


def test_criterion_09_sparse_reward_script_shipped():
    script = REPO_ROOT / "scripts" / "sparse_reward_advantage.py"
    assert script.exists()
    tree = ast.parse(script.read_text())  # syntactically valid
    assert any(isinstance(node, ast.FunctionDef) and node.name == "main" for node in tree.body)
    announce(9, "sparse-reward advantage experiment shipped as scripts/sparse_reward_advantage.py (non-CI)")


def test_criterion_10_fee_degradation_script_shipped():
    script = REPO_ROOT / "scripts" / "fee_degradation.py"
    assert script.exists()
    tree = ast.parse(script.read_text())
    assert any(isinstance(node, ast.FunctionDef) and node.name == "main" for node in tree.body)
    announce(10, "fee degradation experiment shipped as scripts/fee_degradation.py (non-CI)")


FAST_CONFIG = """
synthetic_kind = sine
synthetic_length = 400
synthetic_period = 40
synthetic_amplitude = 0.08
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
seed = 13
"""


def test_criterion_11_determinism(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(FAST_CONFIG)
    outs = [tmp_path / name for name in ("a", "b", "c")]

    assert cli.main(["train", "--config", str(cfg_path), "--out", str(outs[0])]) == 0
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(outs[1])]) == 0
    first = (outs[0] / "metrics.jsonl").read_bytes()
    assert first == (outs[1] / "metrics.jsonl").read_bytes()

    # rerun from the resolved config of the first run
    resolved = outs[0] / "config.resolved.json"
    assert resolved.exists()
    assert cli.main(["train", "--config", str(resolved), "--out", str(outs[2])]) == 0
    assert first == (outs[2] / "metrics.jsonl").read_bytes()
    assert json.loads(resolved.read_text()) == json.loads((outs[2] / "config.resolved.json").read_text())
    announce(11, "train rerun (and rerun from config.resolved.json) reproduces metrics.jsonl bit-exactly")
