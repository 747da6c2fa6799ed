import tracemalloc

import numpy as np
import pytest
import scalar_reference
from scalar_reference import bellman_targets, loss, params_equal

from moqtrader.errors import ShapeMismatch
from moqtrader.evaluation import BLOCK_ROWS
from moqtrader.qnet import Batch, QNetwork, build_input, load_checkpoint, save_checkpoint


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
                up = loss(net, inputs, targets)
                arr[idx] = orig - step
                down = loss(net, inputs, targets)
                arr[idx] = orig
                grad[idx] = (up - down) / (2 * step)
            grads.append(grad)
    return grads_w, grads_b


def make_experience(state, gamma, weights, scalar, action, next_state, terminal=False):
    """One replay row as a field dict, its scalar reward in the LR component; batch_of stacks rows into a Batch."""
    return dict(
        state=np.asarray(state, dtype=np.float64),
        next_state=np.asarray(next_state, dtype=np.float64),
        gamma=gamma,
        weights=np.asarray(weights, dtype=np.float64),
        reward=np.array([scalar, 0.0, 0.0, 0.0]),
        action=action,
        terminal=terminal,
    )


def batch_of(*experiences, include_gamma=False):
    fields = {name: np.array([exp[name] for exp in experiences]) for name in experiences[0]}
    return scalar_reference.batch_of(**fields, include_gamma=include_gamma)


def random_batch(rng, n, state_width, n_actions, include_gamma=False):
    """n replay rows with random states, simplex weights, gammas, actions and terminal flags."""
    weights = rng.exponential(size=(n, 4))
    return batch_of(*[
        make_experience(rng.normal(size=state_width), rng.uniform(0.5, 0.99), w / w.sum(), rng.normal(),
                        int(rng.integers(n_actions)), rng.normal(size=state_width), terminal=rng.random() < 0.3)
        for w in weights
    ], include_gamma=include_gamma)


def step(net, target, batch, *, alpha=1.0, learn_rate=0.01, rewards=None):
    """A TD update on the batch, by default against the scalar rewards make_experience was given."""
    rewards = batch.reward[:, 0].copy() if rewards is None else rewards
    return net.td_update(target, batch, rewards, alpha=alpha, learn_rate=learn_rate)


def one_row_targets(net, target, batch, *, alpha):
    """A one-row batch's targets, read off a unit-rate step of a linear two-action clone.

    With one row and two actions the output bias moves by target - Q(s).
    """
    clone = net.clone()
    step(clone, target, batch, alpha=alpha, learn_rate=1.0)
    q = net.forward(batch.inputs[0, 0])
    return q + (clone.biases[-1] - net.biases[-1])


class TestInitAndForward:
    def test_seed_determinism(self):
        a = QNetwork([5, 8, 3], seed=4)
        b = QNetwork([5, 8, 3], seed=4)
        assert params_equal(a, b)
        c = QNetwork([5, 8, 3], seed=5)
        assert not params_equal(a, c)

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
        with pytest.raises(ShapeMismatch):  # 2 state features and 4 weights make 6 inputs, not 4
            step(net, net, random_batch(np.random.default_rng(0), 3, 2, 2))


# The benchmark's network in both modes, with and without gamma as an input.
BLOCK_WIDTHS = {"LSP": (35, 128, 64, 3), "LSP, gamma input": (36, 128, 64, 3), "LP": (35, 128, 64, 2),
                "LP, gamma input": (36, 128, 64, 2)}


class TestBlockedForward:
    """`forward` is one matrix product per layer; the greedy chooser's BLOCK_ROWS-row blocks keep a row's bytes.

    On the host BLAS a row's rounding depends on its place in the matrix
    product's row tile, one-row products round apart (gemv), and the output
    layer's product switches kernel past a row count that the chooser's
    blocks stay below.  A BLAS that breaks this fails here, not in a silently
    flipped argmax.
    """

    @pytest.mark.parametrize("widths", BLOCK_WIDTHS.values(), ids=BLOCK_WIDTHS)
    def test_equals_one_product_per_layer(self, widths):
        net = QNetwork(widths, seed=3)
        rng = np.random.default_rng(4)
        for n in (2, 1023, 1024, 1025, 1026, 2049, 3169, 5003):
            x = rng.normal(size=(n, widths[0]))
            assert net.forward(x).tobytes() == scalar_reference.unblocked_forward(net, x).tobytes(), n

    @pytest.mark.parametrize("widths", BLOCK_WIDTHS.values(), ids=BLOCK_WIDTHS)
    def test_past_the_output_layers_kernel_switch(self, widths):
        """From 5,209 rows (LSP) or 7,813 (LP) the output layer's product takes another kernel on the host BLAS and
        rounds apart from smaller products: a whole forward is within 1e-12 of the output's scale of its BLOCK_ROWS
        chunks.  A chooser block stays below the switch: its rows are the bytes of any 64-row chunking."""
        net = QNetwork(widths, seed=3)
        rng = np.random.default_rng(5)
        for n in (6145, 12289):
            x = rng.normal(size=(n, widths[0]))
            whole = net.forward(x)
            chunked = np.concatenate([net.forward(x[a : a + BLOCK_ROWS]) for a in range(0, n, BLOCK_ROWS)])
            np.testing.assert_allclose(whole, chunked, rtol=1e-12, atol=1e-12 * np.abs(chunked).max())
            small = np.concatenate([net.forward(x[a : a + 64]) for a in range(0, BLOCK_ROWS, 64)])
            assert small.tobytes() == chunked[:BLOCK_ROWS].tobytes(), n

    def test_td_update_past_the_kernel_switch(self):
        """td_update's online and target passes are `forward`'s product at any batch size: on a 6,145-row batch of
        the bench geometry its loss and step equal the reference path's (bellman_targets, fit_batch) bit for bit."""
        rng = np.random.default_rng(6)
        widths, n = (36, 128, 64, 3), 6145
        net, target = QNetwork(widths, seed=3, momentum=0.5), QNetwork(widths, seed=4)
        batch = Batch(rng.normal(size=(2, n, widths[0])), rng.uniform(0.5, 0.99, n), rng.dirichlet(np.ones(4), n),
                      rng.normal(size=(n, 4)), rng.integers(0, 3, n), rng.random(n) < 0.3)
        rewards, reference = rng.normal(size=n), net.clone()
        loss = net.td_update(target, batch, rewards, alpha=0.7, learn_rate=0.01)
        inputs, targets = bellman_targets(batch, rewards, reference, target, 0.7)
        assert loss.hex() == scalar_reference.fit_batch(reference, inputs, targets, 0.01).hex()
        assert params_equal(net, reference)


class TestGradients:
    """td_update's step is -learn_rate times the loss gradient against its targets held fixed."""

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for trial in range(5):
            widths = [int(rng.integers(5, 8)), int(rng.integers(2, 6)), int(rng.integers(1, 4))]
            net, target = QNetwork(widths, seed=trial), QNetwork(widths, seed=100 + trial)
            batch = random_batch(rng, 4, widths[0] - 4, widths[-1])
            inputs, targets = bellman_targets(batch, batch.reward[:, 0], net, target, 0.7)
            fd_w, fd_b = finite_difference_grads(net, inputs, targets)
            before = net.clone()
            step(net, target, batch, alpha=0.7, learn_rate=0.01)
            for got, old, want in zip(net.weights + net.biases, before.weights + before.biases, fd_w + fd_b):
                np.testing.assert_allclose((old - got) / 0.01, want, rtol=1e-5, atol=1e-8)

    def test_zero_gradient_leaves_params(self):
        net = QNetwork([7, 5, 2], seed=1)
        batch = random_batch(np.random.default_rng(2), 6, 3, 2)
        q_taken = net.forward(batch.inputs[0])[np.arange(6), batch.action]
        # terminal rows whose reward is the current estimate: every target is the current output
        batch.terminal = np.ones(6, dtype=bool)
        before = net.clone()
        loss = step(net, net.clone(), batch, learn_rate=0.1, rewards=q_taken)
        assert loss == 0.0
        assert params_equal(net, before)

    def test_descent_on_convex_problem(self):
        net = QNetwork([6, 1], seed=3)
        rng = np.random.default_rng(4)
        states = rng.normal(size=(16, 2))
        # terminal one-action rows at alpha 1: the targets are the rewards, a linear function of the state
        rewards = (states @ np.array([1.5, -0.5])) + 0.25
        batch = batch_of(*[
            make_experience(x, 0.9, [1, 0, 0, 0], r, 0, x, terminal=True) for x, r in zip(states, rewards)
        ])
        losses = [step(net, net, batch, learn_rate=0.05) for _ in range(400)]
        assert all(b < a + 1e-15 for a, b in zip(losses, losses[1:]))
        assert losses[-1] < 1e-3

    def test_training_determinism(self):
        def run():
            net = QNetwork([8, 6, 2], seed=11)
            target = net.clone()
            rng = np.random.default_rng(12)
            for _ in range(20):
                step(net, target, random_batch(rng, 8, 3, 2, include_gamma=True))
            return net

        assert params_equal(run(), run())

    def test_momentum_changes_trajectory_but_stays_deterministic(self):
        def run(momentum):
            net = QNetwork([7, 4, 2], seed=5, momentum=momentum)
            target = net.clone()
            rng = np.random.default_rng(6)
            for _ in range(10):
                step(net, target, random_batch(rng, 4, 3, 2))
            return net

        assert params_equal(run(0.9), run(0.9))
        assert not params_equal(run(0.9), run(0.0))


class TestBellmanTargets:
    def test_alpha_one(self):
        exp = make_experience([0.0, 0.0], 0.9, [1, 0, 0, 0], 1.0, 0, [0.0, 0.0])
        # state features (2) + weights (4) = 6 inputs
        net6 = QNetwork([6, 2], seed=0)
        t6 = net6.clone()
        # force target net output to (2, 0) regardless of input
        t6.weights[0][...] = 0.0
        t6.biases[0][...] = [2.0, 0.0]
        targets = one_row_targets(net6, t6, batch_of(exp), alpha=1.0)
        assert targets[0] == pytest.approx(1.0 + 0.9 * 2.0, abs=1e-12)  # 2.8
        # non-taken action keeps the current output: its residual is exactly 0
        clone = net6.clone()
        step(clone, t6, batch_of(exp), learn_rate=1.0)
        assert clone.biases[0][1] == net6.biases[0][1]
        assert clone.weights[0][:, 1].tobytes() == net6.weights[0][:, 1].tobytes()

    def test_alpha_blend(self):
        net = QNetwork([6, 2], seed=0)
        for w in net.weights:
            w[...] = 0.0
        for b in net.biases:
            b[...] = 0.0
        target_net = net.clone()
        target_net.biases[0][...] = [2.0, 0.0]
        exp = make_experience([0.0, 0.0], 0.9, [1, 0, 0, 0], 1.0, 0, [0.0, 0.0])
        targets = one_row_targets(net, target_net, batch_of(exp), alpha=0.5)
        assert targets[0] == pytest.approx(0.5 * 0.0 + 0.5 * 2.8, abs=1e-12)  # 1.4

    def test_terminal_drops_bootstrap(self):
        net = QNetwork([6, 2], seed=0)
        target_net = net.clone()
        target_net.biases[-1][...] = [100.0, 100.0]
        exp = make_experience([0.0, 0.0], 0.9, [1, 0, 0, 0], 0.3, 0, [0.0, 0.0], terminal=True)
        targets = one_row_targets(net, target_net, batch_of(exp), alpha=1.0)
        assert targets[0] == pytest.approx(0.3, abs=1e-12)

    def test_gamma_included_in_input_when_generalized(self, monkeypatch):
        exp = make_experience([0.5], 0.7, [0.25, 0.25, 0.25, 0.25], 0.0, 0, [0.5])
        assert build_input(exp["state"][:-1], exp["weights"], exp["gamma"], True, exp["state"][-1]).shape == (6,)
        assert build_input(exp["state"][:-1], exp["weights"], exp["gamma"], False, exp["state"][-1]).shape == (5,)
        # the batched input rows of td_update are the same rows
        net, seen = QNetwork([6, 2], seed=0), []
        layers = QNetwork._layers
        monkeypatch.setattr(QNetwork, "_layers", lambda self, x: (seen.append(x.copy()), layers(self, x))[1])
        step(net, net.clone(), batch_of(exp, exp, include_gamma=True))
        row = build_input(exp["state"][:-1], exp["weights"], exp["gamma"], True, exp["state"][-1])
        next_row = build_input(exp["next_state"][:-1], exp["weights"], exp["gamma"], True, exp["next_state"][-1])
        assert len(seen) == 2  # the online forward once, then the target's
        np.testing.assert_array_equal(seen[0], [row, row])
        np.testing.assert_array_equal(seen[1], [next_row, next_row])


class TestBuildInput:
    """The one layout of a network input row: lookback returns, position code, 4 weights, then an optional gamma."""

    @pytest.mark.parametrize("include_gamma", [False, True])
    def test_broadcasts_over_leading_axes(self, include_gamma):
        rng = np.random.default_rng(5)
        n, m, lookback = 3, 4, 6
        returns, weights, gamma = rng.normal(size=(n, 1, lookback)), rng.random((n, m, 4)), rng.random((n, m))
        position = rng.integers(-1, 2, size=(n, 1))
        rows = build_input(returns, weights, gamma, include_gamma, position)
        assert rows.shape == (n, m, lookback + 5 + include_gamma)
        for t in range(n):
            for i in range(m):
                expected = [*returns[t, 0], position[t, 0], *weights[t, i], *([gamma[t, i]] if include_gamma else [])]
                assert rows[t, i].tolist() == expected

    @pytest.mark.parametrize("include_gamma", [False, True])
    def test_writes_every_column_of_out(self, include_gamma):
        lookback = 5
        out = np.full((7, lookback + 5 + include_gamma), np.nan)
        returns = np.arange(7 * lookback, dtype=np.float64).reshape(7, lookback)
        assert build_input(returns, [0.1, 0.2, 0.3, 0.4], 0.9, include_gamma, -1, out=out) is out
        assert np.isfinite(out).all()
        np.testing.assert_array_equal(out, build_input(returns, np.array([0.1, 0.2, 0.3, 0.4]), 0.9, include_gamma, -1))

    def test_one_row_defaults_to_the_neutral_code(self):
        row = build_input(np.array([0.01, -0.02]), np.full(4, 0.25), 0.9, True)
        assert row.tolist() == [0.01, -0.02, 0.0, 0.25, 0.25, 0.25, 0.25, 0.9]


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        net = QNetwork([5, 4, 3], seed=13, momentum=0.5)
        step(net, net.clone(), random_batch(np.random.default_rng(1), 4, 1, 3))
        path = tmp_path / "checkpoint_7.bin"
        save_checkpoint(path, net, meta={"episode": 7, "mode": "LSP"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"episode": 7, "mode": "LSP"}
        assert loaded.widths == net.widths
        assert params_equal(loaded, net)
        for a, b in zip(loaded.weights, net.weights):
            assert a.dtype == b.dtype == np.float64

    def test_load_draws_no_initialization(self, tmp_path, monkeypatch):
        net = QNetwork([5, 4, 3], seed=13)
        save_checkpoint(tmp_path / "checkpoint_7.bin", net)
        monkeypatch.setattr(np.random, "default_rng", lambda *args: pytest.fail("load_checkpoint drew parameters"))
        loaded, _ = load_checkpoint(tmp_path / "checkpoint_7.bin")
        assert params_equal(loaded, net)
        assert not QNetwork([5, 4, 3], seed=None)._params.any()  # seed None: nothing drawn, every parameter 0

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import os

        path = tmp_path / "checkpoint_7.bin"
        old = QNetwork([5, 4, 3], seed=13)
        save_checkpoint(path, old, meta={"episode": 7})

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            save_checkpoint(path, QNetwork([5, 4, 3], seed=14), meta={"episode": 7})
        loaded, _ = load_checkpoint(path)
        assert params_equal(loaded, old)
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint_7.bin"]


def retained_bytes(f):
    """f's result and the bytes it allocated and still holds, as tracemalloc counts them."""
    tracemalloc.start()
    try:
        return f(), tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


class TestOptimizerState:
    """Only a trained network holds a gradient and a velocity: a clone, a target or a loaded checkpoint holds one
    parameter array and a few views of it."""

    WIDTHS = [36, 128, 64, 3]  # the bench's LSP geometry with a gamma input: 105,496 B of parameters
    ALLOWANCE = 16 * 1024  # the views and attribute dicts beside the arrays

    def fresh(self):
        net = QNetwork(self.WIDTHS, seed=1, momentum=0.5)
        batch = random_batch(np.random.default_rng(0), 64, 31, 3, include_gamma=True)
        return net, net.clone(), batch

    def test_first_update_allocates_gradient_and_velocity(self):
        step(*self.fresh())  # a first call's caches stay outside the trace
        net, target, batch = self.fresh()
        _, first = retained_bytes(lambda: step(net, target, batch))
        _, second = retained_bytes(lambda: step(net, target, batch))
        assert 2 * net._params.nbytes <= first <= 2 * net._params.nbytes + self.ALLOWANCE
        assert second <= self.ALLOWANCE
        assert net._velocity.any() and net.momentum > 0.0

    def test_clone_and_loaded_checkpoint_hold_one_parameter_copy(self, tmp_path):
        net, target, batch = self.fresh()
        step(net, target, batch)
        save_checkpoint(tmp_path / "checkpoint_1.bin", net)
        load_checkpoint(tmp_path / "checkpoint_1.bin")  # a first call's imports and caches stay outside the trace
        for make in (net.clone, lambda: load_checkpoint(tmp_path / "checkpoint_1.bin")[0]):
            other, size = retained_bytes(make)
            assert size <= net._params.nbytes + self.ALLOWANCE
            assert params_equal(other, net) and other._velocity is None


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
        target = net.clone()
        experiences = self.experiences()
        batch = batch_of(*experiences)
        for update in range(1, 3001):
            step(net, target, batch, learn_rate=0.2)
            if update % 20 == 0:  # train's target sync rule, sync_period = 20
                target.copy_params_from(net)

        learned = np.vstack([  # the one-hot state's first entry is the one return input, its second the position code
            net.forward(build_input(exp["state"][:-1], exp["weights"], exp["gamma"], False, exp["state"][-1]))
            for exp in experiences[::2]
        ])
        np.testing.assert_allclose(learned, q_star, atol=1e-3)
