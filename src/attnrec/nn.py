"""Minimal dense network core with hand-written reverse-mode gradients.

Covers exactly what the attentive autoencoder needs: dense layers, batch
normalization, ReLU/sigmoid, the softmax self-gating bottleneck, binary
cross-entropy, and an adaptive-moment optimizer. Every layer caches its
forward pass so a backward call can replay it; gradients are verifiable
against central finite differences. Layers compute in the dtype of their
parameters and write gradients in place, so after ``flatten`` one ``Adam``
over one flat buffer steps a whole network.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalError

BCE_EPS = 1e-7
BN_EPS = 1e-5
BN_MOMENTUM = 0.99


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax with max-subtraction for stability."""
    shifted = z - z.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of a nonpositive argument only, so it cannot overflow
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)  # e <= 1, so the max picks 1 where x >= 0


def attention_bottleneck(x: np.ndarray) -> np.ndarray:
    """Gate each row by its own softmax distribution: softmax(x) * x."""
    return softmax(x) * x


def bce_loss(pred: np.ndarray, target: np.ndarray) -> float:
    """Binary cross-entropy summed over features, averaged over the batch.

    Predictions are clamped to [BCE_EPS, 1 - BCE_EPS] before the logs.
    """
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    per_element = -(target * np.log(p) + (1.0 - target) * np.log1p(-p))
    batch = pred.shape[0] if pred.ndim > 1 else 1
    return float(per_element.sum() / batch)


def bce_grad(pred: np.ndarray, target: np.ndarray) -> np.ndarray:
    """d(bce_loss)/d(pred); zero where the clamp is active."""
    p = np.clip(pred, BCE_EPS, 1.0 - BCE_EPS)
    batch = pred.shape[0] if pred.ndim > 1 else 1
    grad = (-(target / p) + (1.0 - target) / (1.0 - p)) / batch
    return grad * ((pred > BCE_EPS) & (pred < 1.0 - BCE_EPS))


def glorot_uniform(in_dim: int, out_dim: int, rng: np.random.Generator) -> np.ndarray:
    limit = np.sqrt(6.0 / (in_dim + out_dim))
    return rng.uniform(-limit, limit, size=(in_dim, out_dim))


def flatten(layers):
    """Rebind the trained tensors of ``layers`` as views into one flat
    float32 buffer and their gradients as views into another, and cast the
    layers' other state to float32. Returns (params, grads)."""
    slots = [(layer, name) for layer in layers for name in layer.trained]
    bounds = np.cumsum([0] + [getattr(layer, name).size for layer, name in slots])
    params, grads = np.empty(bounds[-1], np.float32), np.zeros(bounds[-1], np.float32)
    for (layer, name), lo, hi in zip(slots, bounds, bounds[1:]):
        shape = getattr(layer, name).shape
        params[lo:hi] = getattr(layer, name).ravel()
        setattr(layer, name, params[lo:hi].reshape(shape))
        setattr(layer, "d" + name, grads[lo:hi].reshape(shape))
    for layer in layers:
        for name in layer.state:
            setattr(layer, name, getattr(layer, name).astype(np.float32))
    return params, grads


class Layer:
    """Common layer surface: forward caches what backward needs. ``trained``
    names the tensors an optimizer updates, each with gradient ``"d" + name``;
    ``state`` names the other tensors a checkpoint keeps."""

    trained = ()
    state = ()

    def forward(self, x, training):
        raise NotImplementedError

    def backward(self, dout):
        raise NotImplementedError

    def _require_cache(self, cache):
        if cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward called before forward")


class Dense(Layer):
    trained = ("w", "b")

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator):
        self.w = glorot_uniform(in_dim, out_dim, rng)
        self.b = np.zeros(out_dim)
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)
        self._x = None

    def forward(self, x, training=True):
        if x.shape[-1] != self.w.shape[0]:
            raise ValueError(f"dense layer expects width {self.w.shape[0]}, got {x.shape[-1]}")
        self._x = x
        return x @ self.w + self.b

    def backward(self, dout, input_grad=True):
        """Fill dw and db; return dx, or None when ``input_grad`` is false."""
        self._require_cache(self._x)
        np.matmul(self._x.T, dout, out=self.dw)
        np.add.reduce(dout, 0, out=self.db)
        return dout @ self.w.T if input_grad else None


class BatchNorm(Layer):
    """Per-feature batch normalization with running statistics.

    Training mode normalizes with batch mean/variance (ddof=0) and folds the
    batch statistics into the running estimates; evaluation mode uses the
    running estimates. Running statistics start at mean 0, variance 1.
    """

    trained = ("gamma", "beta")
    state = ("running_mean", "running_var")

    def __init__(self, dim: int):
        self.gamma = np.ones(dim)
        self.beta = np.zeros(dim)
        self.running_mean = np.zeros(dim)
        self.running_var = np.ones(dim)
        self.dgamma = np.zeros_like(self.gamma)
        self.dbeta = np.zeros_like(self.beta)
        self._cache = None

    def forward(self, x, training=True):
        if training:
            if x.shape[0] < 2:
                raise ValueError("batch normalization needs batch size >= 2 in training mode")
            # the sums and divisions of x.mean and x.var, centring x only once
            mean = np.add.reduce(x, 0) / x.shape[0]
            xc = x - mean
            var = np.add.reduce(xc * xc, 0) / x.shape[0]
            inv_std = 1.0 / np.sqrt(var + BN_EPS)
            xhat = xc * inv_std
            for running, batch in ((self.running_mean, mean), (self.running_var, var)):
                running *= BN_MOMENTUM  # in place, so the state keeps its dtype
                running += (1.0 - BN_MOMENTUM) * batch
            self._cache = (xhat, inv_std)
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + BN_EPS)
            xhat = (x - self.running_mean) * inv_std
            self._cache = None  # backward is only defined for training mode
        return self.gamma * xhat + self.beta

    def backward(self, dout):
        self._require_cache(self._cache)
        xhat, inv_std = self._cache
        n = dout.shape[0]
        np.add.reduce(dout * xhat, 0, out=self.dgamma)
        np.add.reduce(dout, 0, out=self.dbeta)
        dxhat = dout * self.gamma
        return (inv_std / n) * (n * dxhat - dxhat.sum(axis=0)
                                - xhat * (dxhat * xhat).sum(axis=0))


class ReLU(Layer):
    _mask = None

    def forward(self, x, training=True):
        self._mask = x > 0
        return np.maximum(x, 0)

    def backward(self, dout):
        self._require_cache(self._mask)
        return dout * self._mask


class Sigmoid(Layer):
    _out = None

    def forward(self, x, training=True):
        self._out = sigmoid(x)
        return self._out

    def backward(self, dout):
        self._require_cache(self._out)
        return dout * self._out * (1.0 - self._out)


class Attention(Layer):
    """Softmax self-gating: y = softmax(x) * x per row."""

    _cache = None

    def forward(self, x, training=True):
        s = softmax(x)
        self._cache = (x, s)
        return s * x

    def backward(self, dout):
        self._require_cache(self._cache)
        x, s = self._cache
        # y = s * x: direct term g*s plus the softmax path
        # s' backward: s * (u - sum(u * s)) with u = g * x
        u = dout * x
        correction = (u * s).sum(axis=-1, keepdims=True)
        return dout * s + s * (u - correction)


class Sequential:
    """Ordered layer stack; the cached forward pass is the gradient tape."""

    def __init__(self, layers):
        self.layers = list(layers)
        self._ran_forward = False

    def forward(self, x, training=True):
        for layer in self.layers:
            x = layer.forward(x, training=training)
        self._ran_forward = training
        return x

    def backward(self, dout, input_grad=True):
        """Fill the layers' gradients; return dx, or None if not ``input_grad``."""
        if not self._ran_forward:
            raise RuntimeError("backward called before a training-mode forward pass")
        first, *rest = self.layers
        for layer in reversed(rest):
            dout = layer.backward(dout)
        return first.backward(dout) if input_grad else first.backward(dout, input_grad=False)


class Adam:
    """Adam with bias correction (Kingma & Ba's efficient form, corrections folded
    into two scalars) over one flat buffer, in place, ``SLICE`` elements at a time
    so a slice stays in cache. Each slice's gradient is checked finite just before
    its update, so a bad value found late leaves earlier slices stepped."""

    SLICE = 1 << 16

    def __init__(self, params: np.ndarray, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.t, self.m, self.v = 0, np.zeros_like(params), np.zeros_like(params)
        self._tmp = np.empty_like(params[:self.SLICE])

    def step(self, grads: np.ndarray):
        if grads.shape != self.params.shape:
            raise ValueError(f"expected gradients of shape {self.params.shape}, got {grads.shape}")
        self.t += 1
        root2 = math.sqrt(1.0 - self.beta2 ** self.t)
        step_size, eps = self.lr * root2 / (1.0 - self.beta1 ** self.t), self.eps * root2
        for lo in range(0, len(grads), self.SLICE):
            hi = lo + self.SLICE
            g, p, m, v = grads[lo:hi], self.params[lo:hi], self.m[lo:hi], self.v[lo:hi]
            if not np.isfinite(g).all():
                raise NumericalError("non-finite gradient encountered; aborting training")
            tmp = self._tmp[:len(g)]
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=tmp)
            v *= self.beta2
            v += np.multiply(np.square(g, out=tmp), 1.0 - self.beta2, out=tmp)
            np.add(np.sqrt(v, out=tmp), eps, out=tmp)
            p -= np.multiply(np.divide(m, tmp, out=tmp), step_size, out=tmp)
