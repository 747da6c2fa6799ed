"""Fast tests of the benchmark's own parts: python3 -m pytest bench -q"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import reference  # noqa: E402
import spans  # noqa: E402
from moqtrader import agent, evaluation, qnet  # noqa: E402
from moqtrader.agent import TrainConfig  # noqa: E402
from moqtrader.market_data import make_split  # noqa: E402
from moqtrader.synthetic import generate_synthetic  # noqa: E402


def test_self_times_of_a_hand_built_span_tree():
    # 0 [0, 10] has children 1 [1, 4] and 3 [5, 9]; 1 has child 2 [2, 3].
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(spans.self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])


def test_layer_metrics_sum_self_time_per_name():
    layers = (spans.Layer("a", "m", "f"), spans.Layer("b", "m", "g", ("b.rows",)))
    tracer = spans.Tracer(layers)
    tracer.name[:] = [0, 1, 1, 0]  # a(b, b), then a second root a
    tracer.parent[:] = [-1, 0, 0, -1]
    tracer.start[:] = [0.0, 1.0, 3.0, 10.0]
    tracer.end[:] = [5.0, 2.0, 4.5, 11.0]
    tracer._count({"b.rows": 3})
    tracer._count({"b.rows": 4})
    metrics = tracer.layer_metrics()
    assert metrics["a.calls"] == 2 and metrics["b.calls"] == 2
    assert metrics["a.self_s"] == pytest.approx(2.5 + 1.0)
    assert metrics["b.self_s"] == pytest.approx(2.5)
    assert metrics["b.rows"] == 7


def test_absent_names_are_reported_and_present_ones_wrapped_where_looked_up():
    layers = (
        spans.Layer("qnet.build_input", "moqtrader.qnet", "build_input"),
        spans.Layer("gone.function", "moqtrader.qnet", "no_such_function"),
        spans.Layer("gone.method", "moqtrader.qnet", "QNetwork.no_such_method"),
        spans.Layer("gone.class", "moqtrader.qnet", "NoSuchClass.forward"),
        spans.Layer("gone.module", "moqtrader.no_such_module", "f"),
    )
    original = qnet.build_input
    tracer = spans.Tracer(layers)
    tracer.install()
    try:
        # agent and evaluation imported build_input by name
        assert agent.build_input is not original and evaluation.build_input is agent.build_input
        agent.build_input(np.zeros(3), np.full(4, 0.25), 0.9, True)
    finally:
        tracer.uninstall()
    assert agent.build_input is original and evaluation.build_input is original and qnet.build_input is original
    assert tracer.absent == ["gone.function", "gone.method", "gone.class", "gone.module"]
    assert "gone.method.self_s" in tracer.absent_metrics()
    metrics = tracer.layer_metrics()
    assert metrics["qnet.build_input.calls"] == 1
    assert metrics["gone.function.calls"] == 0


def test_changed_result_shape_makes_a_counter_absent():
    layers = (spans.Layer("qnet.build_input", "moqtrader.qnet", "build_input", ("qnet.build_input.steps",),
                          lambda a, k, r: {"qnet.build_input.steps": len(r[1].positions)}),)
    tracer = spans.Tracer(layers)
    tracer.install()
    try:
        qnet.build_input(np.zeros(3), np.full(4, 0.25), 0.9, False)
    finally:
        tracer.uninstall()
    assert tracer.absent_metrics() == ["qnet.build_input.steps"]
    assert tracer.layer_metrics()["qnet.build_input.calls"] == 1


# Five steps, lookback 1: the input is the last log-return, and the linear
# net goes long after a rise and short (LSP) or neutral (LP) after a fall.
RETURNS = [0.1, -0.1, 0.05, 0.02, -0.03, 0.04]
CLOSE = 100.0 * np.exp(np.concatenate(([0.0], np.cumsum(RETURNS))))
FEE = 0.001


def momentum_net(n_actions):
    w = np.zeros((1 + 1 + 4, n_actions))
    w[0, 0] = 1.0  # Q(buy) = r
    if n_actions == 3:
        w[0, 1] = -1.0  # Q(sell) = -r; Q(hold) = 0
    return [(w, np.zeros(n_actions))]


def hand_sharpe(lr):
    mean = sum(lr) / len(lr)
    return mean / math.sqrt(sum((x - mean) ** 2 for x in lr) / len(lr))


@pytest.mark.parametrize("mode, earned, legs, long_steps", [
    # positions long, short, long, long, short: returns r1..r5 times position
    ("LSP", [-0.1, -0.05, 0.02, -0.03, -0.04], [1, 2, 2, 0, 2], 3),
    # positions long, neutral, long, long, neutral
    ("LP", [-0.1, 0.0, 0.02, -0.03, 0.0], [1, 1, 1, 0, 1], 3),
])
def test_reference_rollout_against_a_hand_computed_trace(mode, earned, legs, long_steps):
    fee_log = math.log(1.0 - FEE)
    lr = [e + n * fee_log for e, n in zip(earned, legs)]
    out = reference.greedy_rollout(
        momentum_net(len(reference.TARGETS[mode])), CLOSE, (0, 7),
        mode=mode, lookback=1, weights=[0.25] * 4, gamma=None, fee=FEE,
    )
    assert out.total_profit == pytest.approx(math.exp(sum(lr)) - 1.0, rel=1e-12)
    assert out.sharpe == pytest.approx(hand_sharpe(lr), rel=1e-12)
    assert out.trades == sum(1 for n in legs if n)
    assert out.long_exposure == long_steps / 5


def test_buy_and_hold_closed_form():
    # buy at close[1], sell at close[6]: the last five returns, one fee leg
    expected = math.exp(sum(RETURNS[1:]) + math.log(1.0 - FEE)) - 1.0
    assert reference.buy_and_hold_profit(CLOSE, (0, 7), lookback=1, fee=FEE) == pytest.approx(expected, rel=1e-12)


def test_reference_reads_program_checkpoints(tmp_path):
    net = qnet.QNetwork([6, 5, 3], seed=4)
    qnet.save_checkpoint(tmp_path / "c.bin", net, meta={"episode": 7})
    layers, meta = reference.read_checkpoint(tmp_path / "c.bin")
    x = np.random.default_rng(0).standard_normal((9, 6))
    assert meta == {"episode": 7}
    np.testing.assert_array_equal(reference.mlp(layers, x), net.forward(x))


def test_derived_updates_match_a_tiny_training_run(tmp_path):
    # max_age 3 evicts often enough that some fitting steps find the replay
    # below batchsize, so the derivation has to model eviction.
    cfg = TrainConfig(
        episodes=6, eval_every=2, episode_len=10, random_access=True, k=1, batchsize=10, max_age=3,
        lookback=4, reward_window=3, hidden=(4,), seed=5,
    )
    series = generate_synthetic("sine", 200, amplitude=0.1, period=20.0)
    agent.train(cfg, series, make_split(series), out_dir=tmp_path)
    lines = [json.loads(line) for line in (tmp_path / "metrics.jsonl").read_text().splitlines()]
    kwargs = dict(episodes=6, eval_every=2, episode_len=10, per_step=2, batchsize=10, whiten=True)
    derived = reference.updates_by_episode(max_age=3, **kwargs)
    assert {line["episode"]: line["updates"] for line in lines} == derived
    assert derived[6] < reference.updates_by_episode(max_age=10**9, **kwargs)[6]
