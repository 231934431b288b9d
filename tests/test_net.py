import dataclasses
import math

import numpy as np
import pytest

from ddqn_trader.agent import Agent, AgentConfig, ReplayBuffer, train_step
from ddqn_trader.env import Action
from ddqn_trader.errors import ConfigError, NumericsError
from ddqn_trader.net import (
    EVAL_BLOCK_ROWS,
    TRAIN_BLOCK_ROWS,
    NetConfig,
    NetParams,
    Workspace,
    adam_step,
    forward,
    head,
    hidden,
    init_adam,
    init_params,
    loss_and_grads,
    param_count,
)
from reference import load_train_rows, padded_rows, params_from_layers, reference_loss_and_grads


def zero_params(config):
    return NetParams(np.zeros(param_count(config)), config.layer_shapes)


def flatten(params):
    return np.concatenate([a.ravel() for a in params.weights + params.biases])


def finite_difference_grads(params, states, actions, targets, config, h=1e-5):
    """Central differences on every parameter coordinate, with dropout off."""
    config = dataclasses.replace(config, dropout_rate=0.0)
    grads = NetParams(np.zeros_like(params.flat), params.shapes)
    for kind in ("weights", "biases"):
        for layer, arr in enumerate(getattr(params, kind)):
            out = getattr(grads, kind)[layer]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _ = loss_and_grads(params, states, actions, targets, config)
                arr[idx] = orig - h
                down, _ = loss_and_grads(params, states, actions, targets, config)
                arr[idx] = orig
                out[idx] = (up - down) / (2 * h)
    return grads


# ------------------------------------------------------------- param_count

@pytest.mark.parametrize(
    "width,expected", [(2, 4547), (4, 4675), (6, 4803), (8, 4931)]
)
def test_param_count_default_architecture(width, expected):
    assert param_count(NetConfig(input_dim=width)) == expected


def test_param_count_formula():
    config = NetConfig(input_dim=4, hidden_dims=(5, 7))
    assert param_count(config) == (4 * 5 + 5) + (5 * 7 + 7) + (7 * 3 + 3)


# -------------------------------------------------------------------- init

def test_output_width_is_the_action_count():
    fields = {f.name for f in dataclasses.fields(NetConfig)}
    assert fields == {"input_dim", "hidden_dims", "dropout_rate", "l2_activity"}
    assert NetConfig(input_dim=2, hidden_dims=(5, 7)).layer_shapes[-1] == (7, len(Action))
    with pytest.raises(TypeError):
        init_params(NetConfig(input_dim=2))  # the rng is required


def test_init_deterministic_per_seed():
    a = init_params(NetConfig(input_dim=2), np.random.default_rng(5))
    b = init_params(NetConfig(input_dim=2), np.random.default_rng(5))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_layer_shapes_and_zero_biases():
    params = init_params(NetConfig(input_dim=2), np.random.default_rng(0))
    assert [w.shape for w in params.weights] == [(2, 64), (64, 64), (64, 3)]
    for b in params.biases:
        assert np.all(b == 0.0)


def test_init_he_uniform_bounds():
    params = init_params(NetConfig(input_dim=8), np.random.default_rng(1))
    for w, (fan_in, _) in zip(params.weights, NetConfig(input_dim=8).layer_shapes):
        limit = math.sqrt(6.0 / fan_in)
        assert np.all(np.abs(w) <= limit)


def test_net_config_validation():
    with pytest.raises(ConfigError):
        NetConfig(input_dim=2, dropout_rate=1.0)
    with pytest.raises(ConfigError):
        NetConfig(input_dim=0)
    with pytest.raises(ConfigError):
        NetConfig(input_dim=2, hidden_dims=(8, 8, 8))
    with pytest.raises(ConfigError):
        NetConfig(input_dim=2, l2_activity=-1e-6)


@pytest.mark.parametrize("l2", [math.nan, math.inf])
def test_net_config_requires_finite_l2_activity(l2):
    with pytest.raises(ConfigError, match="l2_activity must be finite and >= 0"):
        NetConfig(input_dim=2, l2_activity=l2)


# ----------------------------------------------------------------- forward

def test_forward_zero_net_outputs_zero():
    config = NetConfig(input_dim=4, dropout_rate=0.0)
    q = forward(zero_params(config), np.random.default_rng(0).normal(size=(6, 4)), config)
    assert q.shape == (6, 3)
    assert np.all(q == 0.0)


def test_forward_eval_deterministic():
    config = NetConfig(input_dim=2)
    params = init_params(config, np.random.default_rng(3))
    x = np.random.default_rng(1).normal(size=(5, 2))
    q1 = forward(params, x, config)
    q2 = forward(params, x, config)
    assert np.array_equal(q1, q2)


@pytest.mark.parametrize("input_dim", [2, 4, 6, 8])
def test_forward_eval_blocks_equal_one_pass(input_dim):
    # layers 1-2 run in blocks; their rows must not depend on the row count
    config = NetConfig(input_dim=input_dim)
    params = init_params(config, np.random.default_rng(input_dim))
    rng = np.random.default_rng(input_dim)
    for rows in (0, 1, 2, EVAL_BLOCK_ROWS - 1, EVAL_BLOCK_ROWS, EVAL_BLOCK_ROWS + 1,
                 EVAL_BLOCK_ROWS + 2, 2 * EVAL_BLOCK_ROWS + 1, 749, 1000):
        states = rng.normal(size=(rows, input_dim))
        q = forward(params, states, config)
        a2 = hidden(params, padded_rows(states))
        assert q.tobytes() == head(params, a2)[:rows].tobytes()


def test_forward_eval_empty_batch():
    config = NetConfig(input_dim=2)
    q = forward(init_params(config, np.random.default_rng(3)), np.zeros((0, 2)), config)
    assert q.shape == (0, 3)


def test_forward_handcrafted_single_unit():
    # one unit per hidden layer, hand-computed activations
    config = NetConfig(input_dim=1, hidden_dims=(1, 1), dropout_rate=0.0, l2_activity=0.0)
    params = params_from_layers(
        [np.array([[2.0]]), np.array([[1.5]]), np.array([[0.2, -0.3, 0.1]])],
        [np.array([0.5]), np.array([-1.0]), np.array([0.05, 0.0, -0.05])],
    )
    q = forward(params, np.array([[1.0]]), config)
    # z1 = 2*1 + .5 = 2.5 ; z2 = 2.5*1.5 - 1 = 2.75 ; q = 2.75*[.2,-.3,.1] + b3
    assert q[0].tolist() == pytest.approx([0.6, -0.825, 0.225], abs=1e-15)


def test_forward_shape_mismatch():
    config = NetConfig(input_dim=4)
    with pytest.raises(ValueError, match="states"):
        forward(init_params(config, np.random.default_rng(0)), np.zeros((3, 2)), config)


def test_forward_train_dropout_masks():
    config = NetConfig(input_dim=2, dropout_rate=0.5)
    params = init_params(config, np.random.default_rng(0))
    rng = np.random.default_rng(8)
    x = np.abs(np.random.default_rng(2).normal(size=(200, 2))) + 0.1
    ws = Workspace(config, len(x))  # the train-mode forward: hidden, then the gradient step
    rows = load_train_rows(config, params, x)
    actions, targets = np.zeros(len(x), dtype=np.intp), np.zeros(len(x))
    ws.loss_and_grads(params, *rows, actions, targets, rng)
    mask = ws.mask.copy()  # ws.mask is a view the next call overwrites
    assert set(np.unique(mask)) <= {0.0, 2.0}  # inverted scaling 1/(1-p)
    drop_fraction = np.mean(mask == 0.0)
    assert 0.45 < drop_fraction < 0.55
    ws.loss_and_grads(params, *rows, actions, targets, rng)
    assert not np.array_equal(mask, ws.mask)  # fresh masks per call


def test_forward_train_without_rng_errors():
    config = NetConfig(input_dim=2, dropout_rate=0.5)
    params = init_params(NetConfig(input_dim=2), np.random.default_rng(0))
    ws = Workspace(config, 1)
    rows = load_train_rows(config, params, np.zeros((1, 2)))
    with pytest.raises(ValueError, match="rng"):
        ws.loss_and_grads(params, *rows, np.zeros(1, dtype=np.intp), np.zeros(1), None)


# ----------------------------------------------------------- loss and grads

def test_loss_zero_at_exact_targets():
    config = NetConfig(input_dim=2, dropout_rate=0.0, l2_activity=0.0)
    params = init_params(config, np.random.default_rng(4))
    x = np.random.default_rng(5).normal(size=(7, 2))
    q = forward(params, x, config)
    actions = np.array([0, 1, 2, 0, 1, 2, 0])
    targets = q[np.arange(7), actions]
    loss, grads = loss_and_grads(params, x, actions, targets, config)
    assert loss == 0.0
    for g in grads.weights + grads.biases:
        assert np.all(g == 0.0)


def test_linear_fixture_gradient_closed_form():
    # pass-through weights keep everything linear on the positive side, so the
    # input-layer gradient is exactly 2*(Q - y) * state
    config = NetConfig(input_dim=2, hidden_dims=(1, 1), dropout_rate=0.0, l2_activity=0.0)
    params = params_from_layers(
        [np.array([[1.0], [0.0]]), np.array([[1.0]]), np.array([[1.0, 0.0, 0.0]])],
        [np.zeros(1), np.zeros(1), np.zeros(3)],
    )
    x = np.array([[0.7, -0.3]])
    y = np.array([0.1])
    loss, grads = loss_and_grads(params, x, np.array([0]), y, config)
    q = 0.7
    assert loss == pytest.approx((q - y[0]) ** 2, abs=1e-15)
    coeff = 2.0 * (q - y[0])
    assert grads.weights[0][0, 0] == pytest.approx(coeff * 0.7, abs=1e-15)
    assert grads.weights[0][1, 0] == pytest.approx(coeff * -0.3, abs=1e-15)
    assert grads.weights[2][0, 0] == pytest.approx(coeff * 0.7, abs=1e-15)
    assert grads.biases[2][0] == pytest.approx(coeff, abs=1e-15)


def test_gradients_match_finite_differences_spot():
    rng = np.random.default_rng(10)
    for trial in range(5):
        config = NetConfig(
            input_dim=int(rng.choice([2, 4])), hidden_dims=(6, 5),
            dropout_rate=0.0, l2_activity=float(rng.choice([0.0, 1e-4])),
        )
        params = init_params(config, np.random.default_rng(trial))
        x = rng.normal(size=(4, config.input_dim))
        actions = rng.integers(0, 3, size=4)
        targets = rng.normal(size=4)
        _, analytic = loss_and_grads(params, x, actions, targets, config)
        numeric = finite_difference_grads(params, x, actions, targets, config)
        a, n = flatten(analytic), flatten(numeric)
        assert np.all(np.abs(a - n) <= 1e-8 + 1e-4 * np.maximum(np.abs(a), np.abs(n)))


def test_dropout_mask_applied_consistently_in_backward():
    # with a large dropout rate, gradients of dropped units through W3 are zero
    config = NetConfig(input_dim=2, hidden_dims=(4, 4), dropout_rate=0.5, l2_activity=0.0)
    params = init_params(NetConfig(input_dim=2, hidden_dims=(4, 4)), np.random.default_rng(2))
    x = np.array([[0.4, 0.2]])
    rng_a = np.random.default_rng(3)
    ws = Workspace(config, 1)
    ws.loss_and_grads(params, *load_train_rows(config, params, x), np.array([1]),
                      np.array([0.5]), rng_a)
    rng_b = np.random.default_rng(3)  # same mask again
    _, grads = loss_and_grads(params, x, np.array([1]), np.array([0.5]), config, rng=rng_b)
    dropped = ws.mask[0] == 0.0
    assert np.all(grads.weights[2][dropped, :] == 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_intermediate_names_layer():
    config = NetConfig(input_dim=2, dropout_rate=0.0)
    params = init_params(NetConfig(input_dim=2), np.random.default_rng(0))
    params.weights[1][0, 0] = np.inf
    with pytest.raises(NumericsError, match="hidden layer 2"):
        loss_and_grads(params, np.ones((1, 2)), np.array([0]), np.array([0.0]), config)


def test_non_finite_targets_rejected():
    config = NetConfig(input_dim=2, dropout_rate=0.0)
    params = init_params(NetConfig(input_dim=2), np.random.default_rng(0))
    with pytest.raises(NumericsError, match="targets"):
        loss_and_grads(params, np.ones((1, 2)), np.array([0]), np.array([np.nan]), config)


def test_activity_penalty_strictly_positive():
    base = NetConfig(input_dim=2, dropout_rate=0.0, l2_activity=0.0)
    penalized = NetConfig(input_dim=2, dropout_rate=0.0, l2_activity=1e-6)
    params = init_params(base, np.random.default_rng(6))
    x = np.array([[0.5, -0.4]])
    q = forward(params, x, base)
    assert np.any(q != 0.0)  # some activation is live
    plain, _ = loss_and_grads(params, x, np.array([0]), np.array([0.3]), base)
    with_penalty, _ = loss_and_grads(params, x, np.array([0]), np.array([0.3]), penalized)
    assert with_penalty > plain


def test_loss_mean_reduction_batch_invariant():
    config = NetConfig(input_dim=2, dropout_rate=0.0, l2_activity=1e-5)
    params = init_params(config, np.random.default_rng(9))
    x = np.array([[0.3, -0.2]])
    actions = np.array([2])
    targets = np.array([0.4])
    loss1, grads1 = loss_and_grads(params, x, actions, targets, config)
    loss4, grads4 = loss_and_grads(
        params, np.repeat(x, 4, axis=0), np.repeat(actions, 4), np.repeat(targets, 4),
        config,
    )
    assert loss4 == pytest.approx(loss1, rel=1e-12)
    for g1, g4 in zip(grads1.weights, grads4.weights):
        assert np.allclose(g1, g4, rtol=1e-12)


def _train_rows(config, params, n, plant):
    """States and their layers-1–2 pass. Unless ``plant`` is None, a NaN is
    planted after the pass in the last row of "a1" or "a2"."""
    data = np.random.default_rng(n)
    x = data.normal(size=(n, config.input_dim))
    a1, a2 = np.empty((n, config.hidden_dims[0])), np.empty((n, config.hidden_dims[1]))
    hidden(params, x, a1, a2, np.empty(n * 64, dtype=bool))
    if plant is not None:
        {"a1": a1, "a2": a2}[plant][n - 1, 5] = np.nan
    return x, a1, a2, data.integers(0, 3, size=n), data.normal(size=n)


def _both_gradient_steps(n, dropout, l2, plant=None):
    """Workspace.loss_and_grads and the whole-batch reference on the same
    rows: the workspace, and each side's (result or NumericsError, dropout
    generator after the call)."""
    config = NetConfig(input_dim=5, dropout_rate=dropout, l2_activity=l2)
    params = init_params(config, np.random.default_rng(1))
    x, a1, a2, actions, targets = _train_rows(config, params, n, plant)
    ws = Workspace(config, n + 7)  # a workspace larger than the batch
    sides = []
    for run in (lambda rng: ws.loss_and_grads(params, x, a1, a2, np.arange(n), actions,
                                              targets, rng),
                lambda rng: reference_loss_and_grads(params, x, a1, a2, actions,
                                                     targets, config, rng)):
        rng = np.random.default_rng(99)
        try:
            result = run(rng)
        except NumericsError as exc:
            result = exc
        sides.append((result, rng))
    return ws, sides


@pytest.mark.parametrize("l2", [0.0, 1e-6])
@pytest.mark.parametrize("dropout", [0.0, 0.1])
@pytest.mark.parametrize("n", [1, 3, 511, 512, 513, 1029, 4096])
def test_blocked_gradient_step_equals_whole_batch_reference(n, dropout, l2):
    ws, ((got, rng), ((ref_loss, ref_grads, ref_mask), ref_rng)) = (
        _both_gradient_steps(n, dropout, l2))
    loss, grads = got
    assert grads.flat.tobytes() == ref_grads.flat.tobytes()
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    if ref_mask is None:
        assert ws.mask is None
    else:
        assert ws.mask.tobytes() == ref_mask.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("plant, l2, message", [
    ("a2", 0.0, "non-finite values in output layer"),
    ("a1", 1e-6, "non-finite loss"),
])
@pytest.mark.parametrize("n", [3, 513, 1029])
def test_blocked_gradient_step_fails_like_reference(n, plant, l2, message):
    _, ((got, rng), (ref, ref_rng)) = _both_gradient_steps(n, 0.1, l2, plant)
    assert isinstance(got, NumericsError) and isinstance(ref, NumericsError)
    assert str(got) == str(ref) == message
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("nan_targets", [False, True])
@pytest.mark.parametrize("plant, message", [
    ("x", "non-finite values in hidden layer 1"),  # NaN in the states' first column
    ("b2", "non-finite values in hidden layer 2"),  # NaN in layer 2's first bias
])
@pytest.mark.parametrize("path", ["frame", "public"])
@pytest.mark.parametrize("n", [3, 513, 1029])
def test_non_finite_hidden_layer_raises_before_the_dropout_draw(n, path, plant, message,
                                                                nan_targets):
    # The layers-1–2 pass raises where it goes non-finite, before the step
    # checks its targets or draws a dropout mask: on the frame path
    # (train_step, through _FramePass's online pass) and the public one.
    config = NetConfig(input_dim=5, dropout_rate=0.1, l2_activity=1e-6)
    agent = Agent.create(AgentConfig(net=config, batch_size=n, replay_capacity=n), seed=0)
    states = np.random.default_rng(n).normal(size=(n + 1, 5))
    if plant == "x":
        states[:, 0] = np.nan
    else:
        agent.online.biases[1][0] = np.nan
    rewards = np.full(n, np.nan if nan_targets else 0.5)
    rng = agent._dropout_rng if path == "frame" else np.random.default_rng(99)
    before = rng.bit_generator.state
    with pytest.raises(NumericsError) as failure:
        if path == "frame":
            buffer = ReplayBuffer(n, states)
            for row in range(n):
                buffer.store(row, row % 3, rewards[row], False)
            train_step(agent, buffer)
        else:
            loss_and_grads(agent.online, states[:n], np.arange(n) % 3, rewards, config, rng)
    assert str(failure.value) == message
    assert rng.bit_generator.state == before


@pytest.mark.parametrize("n", [1, 3, 256, 513, 4096])
def test_loss_is_mean_squared_error_plus_dot_penalty_bit_for_bit(n):
    # no output file holds the loss yet; these are the bits one will hold
    l2 = 1e-3
    config = NetConfig(input_dim=5, dropout_rate=0.1, l2_activity=l2)
    params = init_params(config, np.random.default_rng(1))
    x, a1, a2, actions, targets = _train_rows(config, params, n, None)
    ws = Workspace(config, n)
    loss, _ = ws.loss_and_grads(params, x, a1, a2, np.arange(n), actions, targets,
                                np.random.default_rng(99))
    q = (padded_rows(a2 * ws.mask) @ params.weights[2] + params.biases[2])[:n]
    err = q[np.arange(n), actions] - targets
    flat1, flat2 = a1.ravel(), a2.ravel()
    expected = float(np.mean(err**2)) + l2 * float(np.dot(flat1, flat1) + np.dot(flat2, flat2)) / n
    assert loss.hex() == expected.hex()


def _owned_nbytes(ws):
    """Bytes of the distinct buffers behind the workspace's arrays."""
    roots = {}
    for arr in [*vars(ws).values(), ws.grads.flat]:
        if isinstance(arr, np.ndarray):
            while arr.base is not None:
                arr = arr.base
            roots[id(arr)] = arr
    return sum(arr.nbytes for arr in roots.values())


def test_workspace_holds_four_batch_wide_buffers():
    # a1, a2 (dL/dz1 goes over it), the dropout mask and the dropped-out
    # layer 2 (dL/dz2 goes over it): no [B, h] buffer of its own for either
    # gradient, only a one-block tile for the L2 terms
    config = NetConfig(input_dim=8)
    b, h = 4096, max(config.hidden_dims)
    narrow = config.input_dim + 2 * len(Action) + 1  # x, q, dq and row_ids, 8 bytes a cell
    bound = (8 * b * (4 * h + narrow) + 8 * TRAIN_BLOCK_ROWS * h
             + b * h + 8 * param_count(config))  # the bool flags and the gradients
    assert _owned_nbytes(Workspace(config, b)) <= bound


@pytest.mark.parametrize("dropout", [0.0, 0.1])
def test_gradient_step_consumes_nothing(dropout):
    # a call gathers its train rows from the caller's pass and overwrites only
    # its own buffers, so a second call on the same inputs repeats it
    config = NetConfig(input_dim=3, dropout_rate=dropout, l2_activity=1e-3)
    params = init_params(config, np.random.default_rng(0))
    data = np.random.default_rng(1)
    states, actions, targets = data.normal(size=(8, 3)), data.integers(0, 3, 8), data.normal(size=8)
    ws = Workspace(config, 8)
    rows = load_train_rows(config, params, states)
    results = []
    for _ in range(2):
        loss, grads = ws.loss_and_grads(params, *rows, actions, targets, np.random.default_rng(2))
        mask = None if ws.mask is None else ws.mask.tobytes()
        results.append((loss.hex(), grads.flat.tobytes(), mask))
    assert results[0] == results[1]
    assert (results[0][2] is None) == (dropout == 0.0)


@pytest.mark.parametrize("gather", ["repeated", "reversed", "wider_source"])
@pytest.mark.parametrize("n", [3, 513])
def test_gradient_step_gathers_train_rows_by_index(n, gather):
    # The frame path's train rows are rows of its touched-row pass: out of
    # order, repeated, and from a source longer than the batch. The step over
    # them equals the reference over x[index], a1[index] and a2[index].
    config = NetConfig(input_dim=5, dropout_rate=0.1, l2_activity=0.0)
    params = init_params(config, np.random.default_rng(1))
    m = 2 * n + 3 if gather == "wider_source" else n
    x, a1, a2, _, _ = _train_rows(config, params, m, None)
    data = np.random.default_rng(7)
    index = {"repeated": np.arange(n) // 2, "reversed": np.arange(n)[::-1].copy(),
             "wider_source": data.integers(0, m, size=n)}[gather]
    actions, targets = data.integers(0, 3, size=n), data.normal(size=n)
    ws = Workspace(config, n)
    rng, ref_rng = np.random.default_rng(99), np.random.default_rng(99)
    loss, grads = ws.loss_and_grads(params, x, a1, a2, index, actions, targets, rng)
    ref_loss, ref_grads, ref_mask = reference_loss_and_grads(
        params, x[index], a1[index], a2[index], actions, targets, config, ref_rng)
    assert loss.hex() == ref_loss.hex()
    assert grads.flat.tobytes() == ref_grads.flat.tobytes()
    assert ws.mask.tobytes() == ref_mask.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# -------------------------------------------------------------------- adam

def test_adam_zero_grads_fixed_point():
    config = NetConfig(input_dim=2)
    params = init_params(config, np.random.default_rng(0))
    before = params.flat.copy()
    _, state = adam_step(params, zero_params(config), init_adam(config), lr=1e-3)
    assert np.array_equal(params.flat, before)
    assert state.t == 1


def test_adam_updates_its_inputs_in_place():
    config = NetConfig(input_dim=2)
    params = init_params(config, np.random.default_rng(0))
    flat, before = params.flat, params.flat.copy()
    state = init_adam(config)
    m, v = state.m, state.v
    grads = NetParams(np.full(param_count(config), 0.5), config.layer_shapes)
    new_params, new_state = adam_step(params, grads, state, lr=1e-3)
    assert new_params is params and new_state is state
    assert params.flat is flat and state.m is m and state.v is v
    assert state.t == 1
    assert np.all(m == (1.0 - 0.9) * 0.5) and np.all(v > 0.0)
    assert np.all(params.flat < before)
    assert np.array_equal(params.weights[0].ravel(), flat[: params.weights[0].size])


def test_adam_first_step_closed_form():
    # first step: m_hat = g, v_hat = g^2, delta = -lr * g / (|g| + eps)
    config = NetConfig(input_dim=1, hidden_dims=(1, 1))
    params = zero_params(config)
    params.weights[0][0, 0] = 1.0
    grads = zero_params(config)
    g = 0.3
    grads.weights[0][0, 0] = g
    new_params, state = adam_step(params, grads, init_adam(config), lr=0.01)
    expected = 1.0 - 0.01 * g / (abs(g) + 1e-8)
    assert new_params.weights[0][0, 0] == pytest.approx(expected, abs=1e-15)
    assert state.t == 1


def test_adam_repeated_gradient_matches_scalar_simulation():
    config = NetConfig(input_dim=1, hidden_dims=(1, 1))
    params = zero_params(config)
    params.weights[0][0, 0] = 2.0
    grads = zero_params(config)
    grads.weights[0][0, 0] = 0.5
    state = init_adam(config)
    trajectory = []
    for _ in range(10):
        params, state = adam_step(params, grads, state, lr=0.05)
        trajectory.append(params.weights[0][0, 0])
    # independent scalar implementation of the same recursion
    p, m, v = 2.0, 0.0, 0.0
    for t in range(1, 11):
        m = 0.9 * m + 0.1 * 0.5
        v = 0.999 * v + 0.001 * 0.25
        p -= 0.05 * (m / (1 - 0.9**t)) / (math.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert trajectory[t - 1] == pytest.approx(p, abs=1e-12)
    # monotone movement against the gradient sign
    assert all(b < a for a, b in zip([2.0] + trajectory, trajectory))


# -------------------------------------------------------------- clone / io

def test_clone_is_independent():
    config = NetConfig(input_dim=2)
    params = init_params(config, np.random.default_rng(11))
    copy = params.clone()
    x = np.random.default_rng(0).normal(size=(4, 2))
    before = forward(copy, x, config)
    params.weights[0][0, 0] += 1.0
    after = forward(copy, x, config)
    assert np.array_equal(before, after)


def test_clone_outputs_equal():
    config = NetConfig(input_dim=4)
    params = init_params(config, np.random.default_rng(12))
    x = np.random.default_rng(1).normal(size=(8, 4))
    q1 = forward(params, x, config)
    q2 = forward(params.clone(), x, config)
    q3 = forward(params.clone().clone(), x, config)
    assert np.array_equal(q1, q2)
    assert np.array_equal(q1, q3)
