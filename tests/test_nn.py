import math

import numpy as np
import pytest

import _pretrain_reference as reference
from _gradcheck import fd_grad, max_rel_err
from attnrec import nn
from attnrec.errors import NumericalError

TOL = 1e-4


def test_softmax_rows_sum_to_one_and_stability():
    x = np.array([[1.0, 2.0, 3.0], [1000.0, 1000.0, 999.0]])
    s = nn.softmax(x)
    assert np.allclose(s.sum(axis=1), 1.0)
    assert np.all(np.isfinite(s))
    assert s[0, 2] > s[0, 1] > s[0, 0]


def test_attention_forward_hand_value():
    # softmax([0, ln 2]) = [1/3, 2/3], so the gate keeps 2/3 of the second entry.
    x = np.array([[0.0, math.log(2.0)]])
    y = nn.attention_bottleneck(x)
    assert np.allclose(y, [[0.0, (2.0 / 3.0) * math.log(2.0)]])


def test_bce_hand_value_and_clamp():
    pred = np.array([[0.8, 0.3]])
    target = np.array([[1.0, 0.0]])
    expected = -(math.log(0.8) + math.log(1.0 - 0.3))
    assert np.isclose(nn.bce_loss(pred, target), expected, rtol=1e-12)
    # exact 0/1 predictions stay finite through the clamp
    hard = nn.bce_loss(np.array([[0.0, 1.0]]), target)
    assert np.isfinite(hard)


def test_bce_batch_mean_feature_sum():
    pred = np.full((4, 3), 0.5)
    target = np.zeros((4, 3))
    # each feature contributes ln 2; summed over 3 features, averaged over batch
    assert np.isclose(nn.bce_loss(pred, target), 3.0 * math.log(2.0))


def test_bce_gradient_matches_fd():
    rng = np.random.default_rng(0)
    pred = rng.uniform(0.05, 0.95, size=(5, 4))
    target = rng.integers(0, 2, size=(5, 4)).astype(float)
    analytic = nn.bce_grad(pred, target)
    numeric = fd_grad(lambda p: nn.bce_loss(p, target), pred.copy())
    assert max_rel_err(numeric, analytic) < TOL


def test_dense_gradients_match_fd():
    rng = np.random.default_rng(1)
    layer = nn.Dense(4, 3, rng)
    x = rng.normal(size=(6, 4))
    coeff = rng.normal(size=(6, 3))

    def loss_with(x_in):
        return float((layer.forward(x_in, training=True) * coeff).sum())

    out = layer.forward(x, training=True)
    dx = layer.backward(coeff)
    assert out.shape == (6, 3)
    assert max_rel_err(fd_grad(loss_with, x.copy()), dx) < TOL

    def loss_w(w):
        saved = layer.w.copy()
        layer.w[:] = w
        val = loss_with(x)
        layer.w[:] = saved
        return val

    layer.forward(x, training=True)
    layer.backward(coeff)
    assert max_rel_err(fd_grad(loss_w, layer.w.copy()), layer.dw) < TOL
    assert np.allclose(layer.db, coeff.sum(axis=0))


def test_batchnorm_forward_training_oracle():
    layer = nn.BatchNorm(1)
    x = np.array([[1.0], [3.0]])
    out = layer.forward(x, training=True)
    inv = 1.0 / math.sqrt(1.0 + nn.BN_EPS)  # batch variance is exactly 1
    assert np.allclose(out, [[-inv], [inv]])
    # momentum 0.99 folds one percent of the batch statistics per step
    assert np.allclose(layer.running_mean, [0.02])
    assert np.allclose(layer.running_var, [1.0])


def test_batchnorm_eval_uses_running_stats():
    layer = nn.BatchNorm(2)
    rng = np.random.default_rng(2)
    layer.forward(rng.normal(size=(8, 2)), training=True)
    rm, rv = layer.running_mean.copy(), layer.running_var.copy()
    x = rng.normal(size=(3, 2))
    out = layer.forward(x, training=False)
    assert np.allclose(out, (x - rm) / np.sqrt(rv + nn.BN_EPS))


def test_batchnorm_rejects_singleton_training_batch():
    layer = nn.BatchNorm(2)
    with pytest.raises(ValueError):
        layer.forward(np.ones((1, 2)), training=True)
    # evaluation mode has no batch-size restriction
    layer.forward(np.ones((1, 2)), training=False)


def test_batchnorm_gradients_match_fd():
    rng = np.random.default_rng(3)
    layer = nn.BatchNorm(3)
    layer.gamma = rng.normal(size=3)
    layer.beta = rng.normal(size=3)
    x = rng.normal(size=(7, 3))
    coeff = rng.normal(size=(7, 3))

    def loss_with(x_in):
        return float((layer.forward(x_in, training=True) * coeff).sum())

    layer.forward(x, training=True)
    dx = layer.backward(coeff)
    assert max_rel_err(fd_grad(loss_with, x.copy()), dx) < TOL

    def loss_gamma(g):
        saved = layer.gamma.copy()
        layer.gamma = g.copy()
        val = loss_with(x)
        layer.gamma = saved
        return val

    layer.forward(x, training=True)
    layer.backward(coeff)
    assert max_rel_err(fd_grad(loss_gamma, layer.gamma.copy()), layer.dgamma) < TOL
    assert np.allclose(layer.dbeta, coeff.sum(axis=0))


def test_attention_gradient_matches_fd():
    rng = np.random.default_rng(4)
    layer = nn.Attention()
    x = rng.normal(size=(5, 6))
    coeff = rng.normal(size=(5, 6))
    layer.forward(x, training=True)
    dx = layer.backward(coeff)

    def loss_with(x_in):
        return float((nn.attention_bottleneck(x_in) * coeff).sum())

    assert max_rel_err(fd_grad(loss_with, x.copy()), dx) < TOL


def test_relu_composition_gradient_matches_fd():
    rng = np.random.default_rng(5)
    net = nn.Sequential([nn.Dense(4, 3, rng), nn.ReLU()])
    x = rng.normal(size=(6, 4))
    # keep preactivations away from the kink so finite differences are valid
    while np.any(np.abs(net.layers[0].forward(x, training=True)) < 1e-3):
        x = rng.normal(size=(6, 4))
    coeff = rng.normal(size=(6, 3))

    def loss_with(x_in):
        return float((net.forward(x_in, training=True) * coeff).sum())

    net.forward(x, training=True)
    dx = net.backward(coeff)
    assert max_rel_err(fd_grad(loss_with, x.copy()), dx) < TOL


def test_sigmoid_bce_gradient_matches_fd():
    rng = np.random.default_rng(6)
    layer = nn.Sigmoid()
    x = rng.normal(size=(5, 4))
    target = rng.integers(0, 2, size=(5, 4)).astype(float)

    def loss_with(x_in):
        return nn.bce_loss(layer.forward(x_in, training=True), target)

    pred = layer.forward(x, training=True)
    dx = layer.backward(nn.bce_grad(pred, target))
    assert max_rel_err(fd_grad(loss_with, x.copy()), dx) < TOL


def test_backward_before_forward_raises():
    layer = nn.Dense(2, 2, np.random.default_rng(0))
    with pytest.raises(RuntimeError):
        layer.backward(np.ones((1, 2)))


def test_glorot_uniform_bounds():
    rng = np.random.default_rng(7)
    w = nn.glorot_uniform(30, 20, rng)
    limit = math.sqrt(6.0 / 50.0)
    assert w.shape == (30, 20)
    assert np.all(np.abs(w) <= limit)
    assert w.std() > 0.1 * limit


def test_adam_single_step_oracle():
    # with one step the bias corrections cancel the decay factors exactly,
    # so the update is lr * g / (|g| + eps)
    w = np.array([0.0])
    opt = nn.Adam(w, lr=1e-3)
    opt.step(np.array([0.5]))
    assert np.isclose(w[0], -1e-3 * 0.5 / (0.5 + 1e-8), rtol=1e-12)


def test_adam_rejects_nonfinite_gradient():
    w = np.zeros(2)
    opt = nn.Adam(w)
    with pytest.raises(NumericalError):
        opt.step(np.array([np.nan, 0.0]))


def test_adam_updates_in_place():
    w = np.ones(3)
    ref = w
    opt = nn.Adam(w, lr=0.1)
    opt.step(np.ones(3))
    assert ref is w
    assert np.all(w < 1.0)


def test_adam_on_one_flat_buffer_equals_adam_per_tensor():
    rng = np.random.default_rng(8)
    shapes = [(3, 4), (4,), (2, 5)]
    bounds = np.cumsum([int(np.prod(s)) for s in shapes])

    def split(flat):
        return [part.reshape(s) for part, s in zip(np.split(flat, bounds[:-1]), shapes)]

    flat = rng.normal(size=bounds[-1]).astype(np.float32)
    tensors = [t.copy() for t in split(flat)]
    whole, parts = nn.Adam(flat, lr=1e-2), [nn.Adam(t, lr=1e-2) for t in tensors]
    for _ in range(3):
        g = rng.normal(size=flat.size).astype(np.float32)
        whole.step(g)
        for part, g_part in zip(parts, split(g)):
            part.step(g_part)
        assert np.array_equal(flat, np.concatenate([t.ravel() for t in tensors]))


def test_flatten_makes_views_that_backward_and_adam_write_through():
    rng = np.random.default_rng(9)
    net = nn.Sequential([nn.Dense(4, 3, rng), nn.BatchNorm(3), nn.ReLU(), nn.Dense(3, 2, rng)])
    w0 = net.layers[0].w.copy()
    params, grads = nn.flatten(net.layers)
    assert params.dtype == grads.dtype == np.float32 and params.size == 12 + 3 + 3 + 3 + 6 + 2
    assert np.array_equal(net.layers[0].w, w0.astype(np.float32))
    assert net.layers[1].running_var.dtype == np.float32
    for layer in (net.layers[0], net.layers[1], net.layers[3]):
        for name in layer.trained:
            assert np.shares_memory(getattr(layer, name), params)
            assert np.shares_memory(getattr(layer, "d" + name), grads)
    net.forward(rng.normal(size=(5, 4)).astype(np.float32), training=True)
    assert net.backward(np.ones((5, 2), np.float32), input_grad=False) is None
    assert np.array_equal(grads[12:15], net.layers[0].db) and np.any(grads != 0)
    before = net.layers[3].w.copy()
    nn.Adam(params).step(grads)
    assert not np.array_equal(net.layers[3].w, before)


def test_sliced_adam_equals_one_pass_over_the_whole_buffer():
    rng = np.random.default_rng(10)
    size = 3 * nn.Adam.SLICE + 5   # three whole slices and a short fourth
    sliced = rng.normal(size=size).astype(np.float32)
    whole = sliced.copy()
    opt, ref = nn.Adam(sliced, lr=1e-2), reference.Adam(whole, lr=1e-2)
    for _ in range(3):
        g = rng.normal(size=size).astype(np.float32)
        opt.step(g)
        ref.step(g)
        assert np.array_equal(sliced, whole)
        assert np.array_equal(opt.m, ref.m) and np.array_equal(opt.v, ref.v)


def test_sliced_adam_raises_on_an_inf_in_the_last_slice():
    size = 3 * nn.Adam.SLICE + 5
    w = np.zeros(size, np.float32)
    g = np.ones(size, np.float32)
    g[-1] = np.inf
    with pytest.raises(NumericalError):
        nn.Adam(w).step(g)
    # slices before the bad one were stepped; the run that sees this aborts
    assert np.all(w[:3 * nn.Adam.SLICE] < 0) and np.all(w[3 * nn.Adam.SLICE:] == 0)


def test_adam_rejects_gradients_of_another_shape():
    opt = nn.Adam(np.zeros(6, np.float32))
    for g in (np.zeros(5, np.float32), np.zeros((2, 3), np.float32)):
        with pytest.raises(ValueError, match="shape"):
            opt.step(g)


# Signed zeros, infinities, and +-88, past where exp(-|x|) turns subnormal in f32.
_EDGES = [0.0, -0.0, np.inf, -np.inf, 88.0, -88.0, 1.5, -1.5]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_equals_its_where_form_at_edge_values(dtype):
    x = np.array(_EDGES, dtype)
    got, want = nn.sigmoid(x), reference.sigmoid(x)
    assert got.dtype == want.dtype == dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_bce_grad_equals_its_where_form_at_edge_values(dtype):
    eps = dtype(nn.BCE_EPS)
    preds = _EDGES + [eps, dtype(1.0) - eps, 0.5, 1.0]
    pred = np.array([preds] * 3, dtype)
    target = np.array([[0.0], [0.5], [1.0]], dtype) * np.ones_like(pred)
    got, want = nn.bce_grad(pred, target), reference.bce_grad(pred, target)
    assert got.dtype == want.dtype == dtype
    # equal as numbers: where the clamp zeroes a negative gradient the product
    # form gives -0.0, which every later product and sum treats as 0
    assert np.array_equal(got, want)
    assert not np.any(np.delete(got, 10, axis=1))   # every prediction but 0.5 is clamped


def test_relu_matches_its_where_form_and_passes_nan_through():
    x = np.array([-0.0, 0.0, -1.5, 2.5, np.inf, -np.inf], np.float32)
    relu = nn.ReLU()
    assert relu.forward(x).tobytes() == reference.relu(x).tobytes()
    # the one change from the where form: NaN stays NaN, so it reaches the
    # loss instead of being zeroed; backward still masks it out
    nan = relu.forward(np.array([np.nan, 1.0]))
    assert np.isnan(nan[0]) and nan[1] == 1.0
    assert np.array_equal(relu.backward(np.ones(2)), [0.0, 1.0])
