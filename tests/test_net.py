import math

import numpy as np
import pytest

from ddqn_trader.errors import ConfigError, NumericsError
from ddqn_trader.net import (
    NetConfig,
    NetParams,
    adam_step,
    forward,
    init_adam,
    init_params,
    loss_and_grads,
    param_count,
)


def zero_params(config):
    return NetParams(
        [np.zeros(s) for s in config.layer_shapes],
        [np.zeros(s[1]) for s in config.layer_shapes],
    )


def flatten(params):
    return np.concatenate([a.ravel() for a in params.weights + params.biases])


def finite_difference_grads(params, states, actions, targets, config, h=1e-5):
    """Central differences on every parameter coordinate."""
    grads = NetParams(
        [np.zeros_like(w) for w in params.weights],
        [np.zeros_like(b) for b in params.biases],
    )
    for kind in ("weights", "biases"):
        for layer, arr in enumerate(getattr(params, kind)):
            out = getattr(grads, kind)[layer]
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _ = loss_and_grads(params, states, actions, targets, config, mode="eval")
                arr[idx] = orig - h
                down, _ = loss_and_grads(params, states, actions, targets, config, mode="eval")
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

def test_init_deterministic_per_seed():
    a = init_params(NetConfig(input_dim=2, seed=5))
    b = init_params(NetConfig(input_dim=2, seed=5))
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)


def test_init_layer_shapes_and_zero_biases():
    params = init_params(NetConfig(input_dim=2, seed=0))
    assert [w.shape for w in params.weights] == [(2, 64), (64, 64), (64, 3)]
    for b in params.biases:
        assert np.all(b == 0.0)


def test_init_he_uniform_bounds():
    params = init_params(NetConfig(input_dim=8, seed=1))
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


# ----------------------------------------------------------------- forward

def test_forward_zero_net_outputs_zero():
    config = NetConfig(input_dim=4, dropout_rate=0.0)
    q, cache = forward(zero_params(config), np.random.default_rng(0).normal(size=(6, 4)), config)
    assert np.all(q == 0.0)
    assert cache is None


def test_forward_eval_deterministic():
    config = NetConfig(input_dim=2, seed=3)
    params = init_params(config)
    x = np.random.default_rng(1).normal(size=(5, 2))
    q1, _ = forward(params, x, config, mode="eval")
    q2, _ = forward(params, x, config, mode="eval")
    assert np.array_equal(q1, q2)


def test_forward_handcrafted_single_unit():
    # one unit per hidden layer, hand-computed activations
    config = NetConfig(input_dim=1, hidden_dims=(1, 1), dropout_rate=0.0, l2_activity=0.0)
    params = NetParams(
        [np.array([[2.0]]), np.array([[1.5]]), np.array([[0.2, -0.3, 0.1]])],
        [np.array([0.5]), np.array([-1.0]), np.array([0.05, 0.0, -0.05])],
    )
    q, _ = forward(params, np.array([[1.0]]), config)
    # z1 = 2*1 + .5 = 2.5 ; z2 = 2.5*1.5 - 1 = 2.75 ; q = 2.75*[.2,-.3,.1] + b3
    assert q[0].tolist() == pytest.approx([0.6, -0.825, 0.225], abs=1e-15)


def test_forward_shape_mismatch():
    config = NetConfig(input_dim=4)
    with pytest.raises(ValueError, match="states"):
        forward(init_params(NetConfig(input_dim=4, seed=0)), np.zeros((3, 2)), config)


def test_forward_train_dropout_masks():
    config = NetConfig(input_dim=2, dropout_rate=0.5, seed=0)
    params = init_params(config)
    rng = np.random.default_rng(8)
    x = np.abs(np.random.default_rng(2).normal(size=(200, 2))) + 0.1
    _, cache = forward(params, x, config, mode="train", rng=rng)
    assert cache is not None and cache.mask is not None
    assert set(np.unique(cache.mask)) <= {0.0, 2.0}  # inverted scaling 1/(1-p)
    drop_fraction = np.mean(cache.mask == 0.0)
    assert 0.45 < drop_fraction < 0.55
    _, cache2 = forward(params, x, config, mode="train", rng=rng)
    assert not np.array_equal(cache.mask, cache2.mask)  # fresh masks per call


def test_forward_train_without_rng_errors():
    config = NetConfig(input_dim=2, dropout_rate=0.5)
    with pytest.raises(ValueError, match="rng"):
        forward(init_params(NetConfig(input_dim=2, seed=0)), np.zeros((1, 2)), config,
                mode="train")


# ----------------------------------------------------------- loss and grads

def test_loss_zero_at_exact_targets():
    config = NetConfig(input_dim=2, dropout_rate=0.0, l2_activity=0.0, seed=4)
    params = init_params(config)
    x = np.random.default_rng(5).normal(size=(7, 2))
    q, _ = forward(params, x, config)
    actions = np.array([0, 1, 2, 0, 1, 2, 0])
    targets = q[np.arange(7), actions]
    loss, grads = loss_and_grads(params, x, actions, targets, config, mode="eval")
    assert loss == 0.0
    for g in grads.weights + grads.biases:
        assert np.all(g == 0.0)


def test_linear_fixture_gradient_closed_form():
    # pass-through weights keep everything linear on the positive side, so the
    # input-layer gradient is exactly 2*(Q - y) * state
    config = NetConfig(input_dim=2, hidden_dims=(1, 1), dropout_rate=0.0, l2_activity=0.0)
    params = NetParams(
        [np.array([[1.0], [0.0]]), np.array([[1.0]]), np.array([[1.0, 0.0, 0.0]])],
        [np.zeros(1), np.zeros(1), np.zeros(3)],
    )
    x = np.array([[0.7, -0.3]])
    y = np.array([0.1])
    loss, grads = loss_and_grads(params, x, np.array([0]), y, config, mode="eval")
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
            dropout_rate=0.0, l2_activity=float(rng.choice([0.0, 1e-4])), seed=trial,
        )
        params = init_params(config, np.random.default_rng(trial))
        x = rng.normal(size=(4, config.input_dim))
        actions = rng.integers(0, 3, size=4)
        targets = rng.normal(size=4)
        _, analytic = loss_and_grads(params, x, actions, targets, config, mode="eval")
        numeric = finite_difference_grads(params, x, actions, targets, config)
        a, n = flatten(analytic), flatten(numeric)
        assert np.all(np.abs(a - n) <= 1e-8 + 1e-4 * np.maximum(np.abs(a), np.abs(n)))


def test_dropout_mask_applied_consistently_in_backward():
    # with a large dropout rate, gradients of dropped units through W3 are zero
    config = NetConfig(input_dim=2, hidden_dims=(4, 4), dropout_rate=0.5, l2_activity=0.0)
    params = init_params(NetConfig(input_dim=2, hidden_dims=(4, 4), seed=2))
    x = np.array([[0.4, 0.2]])
    rng_a = np.random.default_rng(3)
    _, cache = forward(params, x, config, mode="train", rng=rng_a)
    rng_b = np.random.default_rng(3)  # same mask again
    _, grads = loss_and_grads(params, x, np.array([1]), np.array([0.5]), config,
                              mode="train", rng=rng_b)
    dropped = cache.mask[0] == 0.0
    assert np.all(grads.weights[2][dropped, :] == 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_intermediate_names_layer():
    config = NetConfig(input_dim=2, dropout_rate=0.0)
    params = init_params(NetConfig(input_dim=2, seed=0))
    params.weights[1][0, 0] = np.inf
    with pytest.raises(NumericsError, match="hidden layer 2"):
        loss_and_grads(params, np.ones((1, 2)), np.array([0]), np.array([0.0]), config,
                       mode="eval")


def test_non_finite_targets_rejected():
    config = NetConfig(input_dim=2, dropout_rate=0.0)
    params = init_params(NetConfig(input_dim=2, seed=0))
    with pytest.raises(NumericsError, match="targets"):
        loss_and_grads(params, np.ones((1, 2)), np.array([0]), np.array([np.nan]), config,
                       mode="eval")


def test_activity_penalty_strictly_positive():
    base = NetConfig(input_dim=2, dropout_rate=0.0, l2_activity=0.0, seed=6)
    penalized = NetConfig(input_dim=2, dropout_rate=0.0, l2_activity=1e-6, seed=6)
    params = init_params(base)
    x = np.array([[0.5, -0.4]])
    q, _ = forward(params, x, base)
    assert np.any(q != 0.0)  # some activation is live
    plain, _ = loss_and_grads(params, x, np.array([0]), np.array([0.3]), base, mode="eval")
    with_penalty, _ = loss_and_grads(params, x, np.array([0]), np.array([0.3]), penalized,
                                     mode="eval")
    assert with_penalty > plain


def test_loss_mean_reduction_batch_invariant():
    config = NetConfig(input_dim=2, dropout_rate=0.0, l2_activity=1e-5, seed=9)
    params = init_params(config)
    x = np.array([[0.3, -0.2]])
    actions = np.array([2])
    targets = np.array([0.4])
    loss1, grads1 = loss_and_grads(params, x, actions, targets, config, mode="eval")
    loss4, grads4 = loss_and_grads(
        params, np.repeat(x, 4, axis=0), np.repeat(actions, 4), np.repeat(targets, 4),
        config, mode="eval",
    )
    assert loss4 == pytest.approx(loss1, rel=1e-12)
    for g1, g4 in zip(grads1.weights, grads4.weights):
        assert np.allclose(g1, g4, rtol=1e-12)


# -------------------------------------------------------------------- adam

def test_adam_zero_grads_fixed_point():
    config = NetConfig(input_dim=2, seed=0)
    params = init_params(config)
    state = init_adam(config)
    new_params, new_state = adam_step(params, zero_params(config), state, lr=1e-3)
    for old, new in zip(params.weights, new_params.weights):
        assert np.array_equal(old, new)
    assert new_state.t == 1 and state.t == 0


def test_adam_first_step_closed_form():
    # first step: m_hat = g, v_hat = g^2, delta = -lr * g / (|g| + eps)
    config = NetConfig(input_dim=1, hidden_dims=(1, 1), output_dim=3)
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
    config = NetConfig(input_dim=1, hidden_dims=(1, 1), output_dim=3)
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
    config = NetConfig(input_dim=2, seed=11)
    params = init_params(config)
    copy = params.clone()
    x = np.random.default_rng(0).normal(size=(4, 2))
    before, _ = forward(copy, x, config)
    params.weights[0][0, 0] += 1.0
    after, _ = forward(copy, x, config)
    assert np.array_equal(before, after)


def test_clone_outputs_equal():
    config = NetConfig(input_dim=4, seed=12)
    params = init_params(config)
    x = np.random.default_rng(1).normal(size=(8, 4))
    q1, _ = forward(params, x, config)
    q2, _ = forward(params.clone(), x, config)
    q3, _ = forward(params.clone().clone(), x, config)
    assert np.array_equal(q1, q2)
    assert np.array_equal(q1, q3)
