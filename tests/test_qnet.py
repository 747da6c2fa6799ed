import numpy as np
import pytest

from moqtrader.errors import ShapeMismatch
from moqtrader.qnet import (
    QNetwork,
    TargetNetwork,
    bellman_targets,
    build_input,
    load_checkpoint,
    save_checkpoint,
    sync_target,
)
from moqtrader.replay import Experience
from moqtrader.rewards import RewardVector


def finite_difference_grads(net, inputs, targets, step=1e-5):
    """Central-difference oracle for every parameter of the network."""
    grads_w, grads_b = [], []
    for arr_list, grads in ((net.weights, grads_w), (net.biases, grads_b)):
        for arr in arr_list:
            grad = np.zeros_like(arr)
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + step
                up = net.loss(inputs, targets)
                arr[idx] = orig - step
                down = net.loss(inputs, targets)
                arr[idx] = orig
                grad[idx] = (up - down) / (2 * step)
            grads.append(grad)
    return grads_w, grads_b


def make_experience(state, gamma, weights, scalar, action, next_state, terminal=False):
    return Experience(
        state=np.asarray(state, dtype=np.float64),
        gamma=gamma,
        weights=np.asarray(weights, dtype=np.float64),
        raw_reward=RewardVector(scalar, 0.0, 0.0, 0.0),
        scalar_reward=scalar,
        action=action,
        next_state=np.asarray(next_state, dtype=np.float64),
        terminal=terminal,
    )


class TestInitAndForward:
    def test_seed_determinism(self):
        a = QNetwork([5, 8, 3], seed=4)
        b = QNetwork([5, 8, 3], seed=4)
        assert a.params_equal(b)
        c = QNetwork([5, 8, 3], seed=5)
        assert not a.params_equal(c)

    def test_zero_hidden_is_affine(self):
        net = QNetwork([4, 2], seed=0)
        assert len(net.weights) == 1
        out = net.forward(np.zeros(4))
        np.testing.assert_allclose(out, net.biases[0])

    def test_init_bound(self):
        net = QNetwork([16, 8, 2], seed=1)
        for w, fan_in in zip(net.weights, (16, 8)):
            assert np.max(np.abs(w)) <= 1.0 / np.sqrt(fan_in)

    def test_zero_params_give_zero_output(self):
        net = QNetwork([3, 4, 2], seed=0)
        for w in net.weights:
            w[...] = 0.0
        for b in net.biases:
            b[...] = 0.0
        np.testing.assert_array_equal(net.forward(np.ones(3)), [0.0, 0.0])

    def test_batch_equals_singles(self):
        net = QNetwork([6, 7, 4], seed=2)
        xs = np.random.default_rng(3).normal(size=(11, 6))
        batch = net.forward(xs)
        for i, x in enumerate(xs):
            np.testing.assert_allclose(batch[i], net.forward(x), atol=1e-12, rtol=0)

    def test_hand_set_single_hidden_unit(self):
        net = QNetwork([1, 1, 1], seed=0)
        net.weights[0][...] = [[2.0]]
        net.biases[0][...] = [-1.0]
        net.weights[1][...] = [[3.0]]
        net.biases[1][...] = [0.5]
        # max(0, 2x - 1) * 3 + 0.5
        assert net.forward(np.array([2.0]))[0] == pytest.approx(3 * 3.0 + 0.5)
        assert net.forward(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_shape_mismatch(self):
        net = QNetwork([4, 2], seed=0)
        with pytest.raises(ShapeMismatch):
            net.forward(np.zeros(5))
        with pytest.raises(ShapeMismatch):
            net.fit_batch(np.zeros((3, 4)), np.zeros((3, 3)), 0.01)


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            widths = [int(rng.integers(2, 5)), int(rng.integers(2, 6)), int(rng.integers(1, 4))]
            net = QNetwork(widths, seed=trial)
            inputs = rng.normal(size=(4, widths[0]))
            targets = rng.normal(size=(4, widths[-1]))
            _, grads_w, grads_b = net.gradients(inputs, targets)
            fd_w, fd_b = finite_difference_grads(net, inputs, targets)
            for got, want in zip(grads_w + grads_b, fd_w + fd_b):
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-8)

    def test_zero_gradient_leaves_params(self):
        net = QNetwork([3, 5, 2], seed=1)
        inputs = np.random.default_rng(2).normal(size=(6, 3))
        targets = net.forward(inputs)
        before = net.clone()
        loss = net.fit_batch(inputs, targets, learn_rate=0.1)
        assert loss == 0.0
        assert net.params_equal(before)

    def test_descent_on_convex_problem(self):
        net = QNetwork([2, 1], seed=3)
        rng = np.random.default_rng(4)
        inputs = rng.normal(size=(16, 2))
        targets = (inputs @ np.array([[1.5], [-0.5]])) + 0.25
        losses = [net.fit_batch(inputs, targets, learn_rate=0.05) for _ in range(400)]
        assert all(b < a + 1e-15 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-3

    def test_training_determinism(self):
        def run():
            net = QNetwork([4, 6, 2], seed=11)
            rng = np.random.default_rng(12)
            for _ in range(20):
                x = rng.normal(size=(8, 4))
                t = rng.normal(size=(8, 2))
                net.fit_batch(x, t, 0.01)
            return net

        assert run().params_equal(run())

    def test_momentum_changes_trajectory_but_stays_deterministic(self):
        def run(momentum):
            net = QNetwork([3, 4, 2], seed=5, momentum=momentum)
            rng = np.random.default_rng(6)
            for _ in range(10):
                net.fit_batch(rng.normal(size=(4, 3)), rng.normal(size=(4, 2)), 0.01)
            return net

        assert run(0.9).params_equal(run(0.9))
        assert not run(0.9).params_equal(run(0.0))


class TestBellmanTargets:
    def test_alpha_one(self):
        net = QNetwork([2, 2], seed=0)
        target_net = TargetNetwork(net.clone())
        # force target net output to (2, 0) regardless of input
        target_net.net.weights[0][...] = 0.0
        target_net.net.biases[0][...] = [2.0, 0.0]
        exp = make_experience([0.0, 0.0], 0.9, [1, 0, 0, 0], 1.0, 0, [0.0, 0.0])
        # state features (2) + weights (4) = 6 inputs
        net6 = QNetwork([6, 2], seed=0)
        t6 = TargetNetwork(net6.clone())
        t6.net.weights[0][...] = 0.0
        t6.net.biases[0][...] = [2.0, 0.0]
        inputs, targets = bellman_targets([exp], net6, t6, alpha=1.0, include_gamma=False)
        assert targets[0, 0] == pytest.approx(1.0 + 0.9 * 2.0, abs=1e-12)  # 2.8
        # non-taken action keeps the current output
        assert targets[0, 1] == pytest.approx(net6.forward(inputs[0])[1], abs=1e-15)

    def test_alpha_blend(self):
        net = QNetwork([6, 2], seed=0)
        for w in net.weights:
            w[...] = 0.0
        for b in net.biases:
            b[...] = 0.0
        target_net = TargetNetwork(net.clone())
        target_net.net.biases[0][...] = [2.0, 0.0]
        exp = make_experience([0.0, 0.0], 0.9, [1, 0, 0, 0], 1.0, 0, [0.0, 0.0])
        _, targets = bellman_targets([exp], net, target_net, alpha=0.5, include_gamma=False)
        assert targets[0, 0] == pytest.approx(0.5 * 0.0 + 0.5 * 2.8, abs=1e-12)  # 1.4

    def test_terminal_drops_bootstrap(self):
        net = QNetwork([6, 2], seed=0)
        target_net = TargetNetwork(net.clone())
        target_net.net.biases[-1][...] = [100.0, 100.0]
        exp = make_experience([0.0, 0.0], 0.9, [1, 0, 0, 0], 0.3, 0, [0.0, 0.0], terminal=True)
        _, targets = bellman_targets([exp], net, target_net, alpha=1.0, include_gamma=False)
        assert targets[0, 0] == pytest.approx(0.3, abs=1e-12)

    def test_gamma_included_in_input_when_generalized(self):
        exp = make_experience([0.5], 0.7, [0.25, 0.25, 0.25, 0.25], 0.0, 0, [0.5])
        assert build_input(exp.state, exp.weights, exp.gamma, include_gamma=True).shape == (6,)
        assert build_input(exp.state, exp.weights, exp.gamma, include_gamma=False).shape == (5,)


class TestTargetSync:
    def test_period_one_always_synced(self):
        net = QNetwork([3, 2], seed=7)
        target = TargetNetwork(net.clone())
        net.fit_batch(np.ones((1, 3)), np.ones((1, 2)), 0.1)
        target.note_update()
        sync_target(net, target, period=1)
        assert target.net.params_equal(net)
        assert target.staleness == 0

    def test_below_period_no_copy(self):
        net = QNetwork([3, 2], seed=7)
        target = TargetNetwork(net.clone())
        stale = target.net.clone()
        net.fit_batch(np.ones((1, 3)), np.ones((1, 2)), 0.1)
        target.note_update()
        sync_target(net, target, period=5)
        assert target.net.params_equal(stale)
        assert target.staleness == 1

    def test_staleness_bounded_over_run(self):
        net = QNetwork([3, 2], seed=7)
        target = TargetNetwork(net.clone())
        rng = np.random.default_rng(8)
        for _ in range(57):
            net.fit_batch(rng.normal(size=(2, 3)), rng.normal(size=(2, 2)), 0.01)
            target.note_update()
            sync_target(net, target, period=10)
            assert target.staleness <= 10

    def test_forward_equal_after_copy(self):
        net = QNetwork([3, 2], seed=7)
        target = TargetNetwork(net.clone())
        net.fit_batch(np.ones((1, 3)), np.ones((1, 2)), 0.1)
        target.staleness = 3
        sync_target(net, target, period=3)
        x = np.random.default_rng(9).normal(size=3)
        np.testing.assert_array_equal(net.forward(x), target.net.forward(x))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = QNetwork([5, 4, 3], seed=13, momentum=0.5)
        net.fit_batch(np.random.default_rng(1).normal(size=(4, 5)), np.zeros((4, 3)), 0.01)
        path = tmp_path / "checkpoint_7.bin"
        save_checkpoint(path, net, meta={"episode": 7, "mode": "LSP"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"episode": 7, "mode": "LSP"}
        assert loaded.widths == net.widths
        assert loaded.params_equal(net)
        for a, b in zip(loaded.weights, net.weights):
            assert a.dtype == b.dtype == np.float64


class TestToyMdpOracle:
    """Iterated targets + fits must recover Q* from value iteration."""

    GAMMA = 0.9
    # transitions: action 0 -> state 0, action 1 -> state 1 (from either state)
    REWARDS = {(0, 0): 1.0, (0, 1): 0.0, (1, 0): 2.0, (1, 1): -1.0}

    def value_iteration(self):
        q = np.zeros((2, 2))
        for _ in range(2000):
            v = q.max(axis=1)
            q = np.array([[self.REWARDS[(s, a)] + self.GAMMA * v[a] for a in (0, 1)] for s in (0, 1)])
        return q

    def experiences(self):
        one_hot = {0: [1.0, 0.0], 1: [0.0, 1.0]}
        out = []
        for s in (0, 1):
            for a in (0, 1):
                out.append(
                    make_experience(one_hot[s], self.GAMMA, [1, 0, 0, 0], self.REWARDS[(s, a)], a, one_hot[a])
                )
        return out

    def test_converges_to_q_star(self):
        q_star = self.value_iteration()
        np.testing.assert_allclose(q_star, [[10.0, 9.9], [11.0, 8.9]], atol=1e-9)

        net = QNetwork([6, 2], seed=3)  # linear in (one-hot state, weights)
        target = TargetNetwork(net.clone())
        batch = self.experiences()
        for _ in range(3000):
            inputs, targets = bellman_targets(batch, net, target, alpha=1.0, include_gamma=False)
            net.fit_batch(inputs, targets, learn_rate=0.2)
            target.note_update()
            sync_target(net, target, period=20)

        learned = np.vstack([net.forward(build_input(exp.state, exp.weights, exp.gamma, False)) for exp in batch[::2]])
        np.testing.assert_allclose(learned, q_star, atol=1e-3)
