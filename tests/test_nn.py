import numpy as np
import pytest

from scopflearn.errors import ConfigError
from scopflearn.nn import (
    AdamState,
    MlpParams,
    adam_step,
    hidden_width,
    init_mlp,
    lr_schedule,
    mlp_backward,
    mlp_forward,
)

from conftest import assert_views_of
from oracles import adam_reference, rel_err


def flatten(params):
    return np.concatenate([a.ravel() for a in params.arrays()])


def set_flat(params, vec):
    i = 0
    for a in params.arrays():
        a.flat[:] = vec[i:i + a.size]
        i += a.size


def test_zero_params_zero_output():
    params = init_mlp((3, 4, 2), np.random.default_rng(0))
    for w in params.weights:
        w[:] = 0.0
    out, _ = mlp_forward(params, np.array([1.0, -2.0, 3.0]))
    assert np.all(out == 0.0)


def test_identity_positive_passthrough():
    params = init_mlp((3, 3, 3), np.random.default_rng(0))
    params.weights[0][:] = np.eye(3)
    params.weights[1][:] = np.eye(3)
    for b in params.biases:
        b[:] = 0.0
    x = np.array([0.5, 1.0, 2.0])
    out, _ = mlp_forward(params, x)
    assert np.allclose(out, x)


def test_forward_deterministic():
    params = init_mlp((4, 8, 8, 2), np.random.default_rng(1), use_layernorm=True)
    x = np.random.default_rng(2).normal(size=(5, 4))
    o1, _ = mlp_forward(params, x)
    o2, _ = mlp_forward(params, x)
    assert np.array_equal(o1, o2)


def test_forward_shape_mismatch():
    params = init_mlp((4, 8, 2), np.random.default_rng(1))
    with pytest.raises(ConfigError):
        mlp_forward(params, np.zeros(3))


def test_layernorm_constant_input_zeroed():
    params = init_mlp((4, 4, 2), np.random.default_rng(3), use_layernorm=True)
    x = np.full((1, 4), 2.5)
    _, tape = mlp_forward(params, x)
    _, xhat, _, _ = tape[0]
    assert np.allclose(xhat, 0.0)


@pytest.mark.parametrize("use_ln", [False, True])
def test_gradients_match_fd(use_ln):
    rng = np.random.default_rng(4)
    params = init_mlp((5, 9, 7, 3), rng, use_layernorm=use_ln)
    # move weights off the tiny final-layer init so gradients are well scaled
    for w in params.weights:
        w += rng.normal(scale=0.3, size=w.shape)
    x = rng.normal(size=(4, 5))
    seed = rng.normal(size=(4, 3))

    out, tape = mlp_forward(params, x)
    grads, grad_x = mlp_backward(params, tape, seed)

    theta0 = flatten(params)
    probe = params.copy()

    def loss_theta(vec):
        set_flat(probe, vec)
        o, _ = mlp_forward(probe, x)
        return float((o * seed).sum())

    h = 1e-6
    flat_grad = flatten(grads)
    rng2 = np.random.default_rng(5)
    idx = rng2.choice(theta0.size, size=min(120, theta0.size), replace=False)
    for j in idx:
        e = np.zeros_like(theta0)
        e[j] = h
        fd = (loss_theta(theta0 + e) - loss_theta(theta0 - e)) / (2 * h)
        assert rel_err(flat_grad[j], fd, floor=1e-7) <= 1e-5

    # input gradient
    def loss_x(xv):
        o, _ = mlp_forward(params, xv.reshape(4, 5))
        return float((o * seed).sum())

    for j in np.random.default_rng(6).choice(20, size=10, replace=False):
        e = np.zeros(20)
        e[j] = h
        fd = (loss_x(x.ravel() + e) - loss_x(x.ravel() - e)) / (2 * h)
        assert rel_err(grad_x.ravel()[j], fd, floor=1e-7) <= 1e-5


def test_zero_output_gradient_zero_param_gradients():
    params = init_mlp((3, 6, 2), np.random.default_rng(7), use_layernorm=True)
    x = np.random.default_rng(8).normal(size=(2, 3))
    _, tape = mlp_forward(params, x)
    grads, grad_x = mlp_backward(params, tape, np.zeros((2, 2)))
    assert all(np.all(a == 0.0) for a in grads.arrays())
    assert np.all(grad_x == 0.0)


def test_adam_first_step_sign():
    params = init_mlp((2, 2), np.random.default_rng(9))
    state = AdamState.for_params(params)
    before = flatten(params)
    grads = params.copy()
    for a in grads.arrays():
        a[:] = 0.0
    grads.weights[0][:] = np.array([[3.0, -2.0], [0.5, -0.25]])
    adam_step(params, grads, state, lr=1e-2)
    delta = flatten(params) - before
    w_delta = delta[:4].reshape(2, 2)
    assert np.allclose(w_delta, -1e-2 * np.sign(grads.weights[0]), atol=1e-6)


def test_adam_zero_gradient_no_change():
    params = init_mlp((2, 3), np.random.default_rng(10))
    state = AdamState.for_params(params)
    before = flatten(params)
    grads = params.copy()
    for a in grads.arrays():
        a[:] = 0.0
    adam_step(params, grads, state, lr=1e-2)
    assert np.array_equal(flatten(params), before)


def test_adam_deterministic_trajectories():
    def run():
        rng = np.random.default_rng(11)
        params = init_mlp((3, 5, 1), rng)
        state = AdamState.for_params(params)
        x = np.random.default_rng(12).normal(size=(6, 3))
        for _ in range(20):
            out, tape = mlp_forward(params, x)
            grads, _ = mlp_backward(params, tape, 2 * out / out.size)
            adam_step(params, grads, state, lr=1e-3)
        return flatten(params)

    assert np.array_equal(run(), run())


def test_lr_schedule():
    assert lr_schedule(1e-4, 0, 1000) == 1e-4
    assert lr_schedule(1e-4, 950, 1000) == pytest.approx(1e-5)
    assert lr_schedule(1e-4, 900, 1000) == pytest.approx(1e-5)
    assert lr_schedule(1e-4, 899, 1000) == 1e-4


def test_hidden_width():
    assert hidden_width(9) == 14
    assert hidden_width(340) == 510


def test_init_small_final_layer():
    params = init_mlp((6, 9, 9, 9, 9, 3), np.random.default_rng(13), use_layernorm=True)
    assert np.max(np.abs(params.weights[-1])) < 1e-2
    assert np.max(np.abs(params.weights[0])) > 1e-2
    out, _ = mlp_forward(params, np.random.default_rng(14).normal(size=6))
    assert np.max(np.abs(out)) < 0.1


@pytest.mark.parametrize("use_ln", [False, True])
def test_arrays_are_views_of_one_flat_buffer(use_ln):
    params = init_mlp((4, 6, 5, 2), np.random.default_rng(21), use_layernorm=use_ln)
    assert [a.shape for a in params.arrays()] == [s for _, s in params.shapes()]
    copy = params.copy()
    _, tape = mlp_forward(params, np.random.default_rng(22).normal(size=(3, 4)))
    grads, _ = mlp_backward(params, tape, np.ones((3, 2)))
    for net in (params, copy, grads):
        assert_views_of(net.flat, net.arrays())
        per_layer = [net.weights, net.biases] + ([net.ln_gain, net.ln_offset] if use_ln else [])
        assert_views_of(net.flat, [a for layer in zip(*per_layer) for a in layer])
    state = AdamState.for_params(params)
    for moment in (state.m, state.v):
        assert_views_of(moment, params.split(moment))
    # copies and gradients share no memory with the network or each other
    buffers = [params.flat, copy.flat, grads.flat, state.m, state.v]
    for i, a in enumerate(buffers):
        for b in buffers[i + 1:]:
            assert not np.shares_memory(a, b)
    copy.weights[0][:] = 7.0
    assert not np.any(params.weights[0] == 7.0)


def test_adam_matches_per_array_reference():
    rng = np.random.default_rng(23)
    params = init_mlp((5, 8, 8, 3), rng, use_layernorm=True)
    state = AdamState.for_params(params)
    ref = params.copy()
    ref_arrays = ref.arrays()
    ref_m = [np.zeros_like(a) for a in ref_arrays]
    ref_v = [np.zeros_like(a) for a in ref_arrays]
    x = rng.normal(size=(6, 5))
    for step in range(1, 21):
        out, tape = mlp_forward(params, x)
        grads, _ = mlp_backward(params, tape, out - 1.0)
        adam_step(params, grads, state, lr=1e-2)
        adam_reference(ref_arrays, grads.arrays(), ref_m, ref_v, step, lr=1e-2)
        assert state.step == step
        assert params.flat.tobytes() == ref.flat.tobytes()
        assert state.m.tobytes() == b"".join(m.tobytes() for m in ref_m)
        assert state.v.tobytes() == b"".join(v.tobytes() for v in ref_v)


def test_adam_sees_writes_through_array_views():
    params = init_mlp((3, 4, 2), np.random.default_rng(24), use_layernorm=True)
    state = AdamState.for_params(params)
    params.weights[0][:] = 0.5
    params.ln_gain[1][:] = -2.0
    grads = params.copy()
    grads.flat[:] = 0.0
    grads.biases[1][:] = 3.0
    ref_arrays = [a.copy() for a in params.arrays()]
    adam_reference(ref_arrays, grads.arrays(), [np.zeros_like(a) for a in ref_arrays],
                   [np.zeros_like(a) for a in ref_arrays], 1, lr=1e-2)
    adam_step(params, grads, state, lr=1e-2)
    for a, b in zip(params.arrays(), ref_arrays):
        assert a.tobytes() == b.tobytes()
    assert np.all(params.weights[0] == 0.5) and np.all(params.ln_gain[1] == -2.0)
    assert np.allclose(params.biases[1], -1e-2)
