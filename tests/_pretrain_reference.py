"""Reference autoencoder pretraining in the plain forms, for bit-identity tests.

It trains the layer stack of an ``AttentiveAutoencoder`` the way
``attnrec.autoencoder.pretrain`` did before its per-batch trims, without
calling any layer's forward or backward: every batch is densified on its own
from a shuffled CSR copy, masks are ``np.where``, batch statistics come from
``x.mean``/``x.var``, and one Adam update runs over the whole flat buffer in
one pass. It reads and writes the layers' tensors through their attributes,
which are views into the model's flat buffers, so the trained model can be
compared with one that ``pretrain`` trained from the same seed.
"""

import math

import numpy as np

from attnrec import autoencoder, nn
from attnrec.errors import NumericalError


def sigmoid(x):
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def relu(x):
    return np.where(x > 0, x, 0.0)


def bce_grad(pred, target):
    p = np.clip(pred, nn.BCE_EPS, 1.0 - nn.BCE_EPS)
    batch = pred.shape[0] if pred.ndim > 1 else 1
    grad = (-(target / p) + (1.0 - target) / (1.0 - p)) / batch
    inside = (pred > nn.BCE_EPS) & (pred < 1.0 - nn.BCE_EPS)
    return np.where(inside, grad, 0.0)


class Adam:
    """``nn.Adam``'s in-place op order over the whole buffer at once."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params, self.lr, self.beta1, self.beta2, self.eps = params, lr, beta1, beta2, eps
        self.t, self.m, self.v = 0, np.zeros_like(params), np.zeros_like(params)
        self.tmp = np.empty_like(params)

    def step(self, g):
        if not np.isfinite(g).all():
            raise NumericalError("non-finite gradient")
        self.t += 1
        root2 = math.sqrt(1.0 - self.beta2 ** self.t)
        step_size = self.lr * root2 / (1.0 - self.beta1 ** self.t)
        eps = self.eps * root2
        m, v, tmp = self.m, self.v, self.tmp
        m *= self.beta1
        m += np.multiply(g, 1.0 - self.beta1, out=tmp)
        v *= self.beta2
        v += np.multiply(np.square(g, out=tmp), 1.0 - self.beta2, out=tmp)
        np.add(np.sqrt(v, out=tmp), eps, out=tmp)
        self.params -= np.multiply(np.divide(m, tmp, out=tmp), step_size, out=tmp)


def _forward(layer, x, training):
    """(output, what backward needs) of one layer."""
    if isinstance(layer, nn.Dense):
        return x @ layer.w + layer.b, x
    if isinstance(layer, nn.BatchNorm):
        if not training:
            inv_std = 1.0 / np.sqrt(layer.running_var + nn.BN_EPS)
            return layer.gamma * ((x - layer.running_mean) * inv_std) + layer.beta, None
        mean, var = x.mean(axis=0), x.var(axis=0)
        inv_std = 1.0 / np.sqrt(var + nn.BN_EPS)
        xhat = (x - mean) * inv_std
        for running, batch in ((layer.running_mean, mean), (layer.running_var, var)):
            running *= nn.BN_MOMENTUM
            running += (1.0 - nn.BN_MOMENTUM) * batch
        return layer.gamma * xhat + layer.beta, (xhat, inv_std)
    if isinstance(layer, nn.ReLU):
        return relu(x), x > 0
    if isinstance(layer, nn.Attention):
        s = nn.softmax(x)
        return s * x, (x, s)
    assert isinstance(layer, nn.Sigmoid)
    out = sigmoid(x)
    return out, out


def _backward(layer, saved, dout):
    """Fill the layer's gradient tensors; return the input gradient."""
    if isinstance(layer, nn.Dense):
        np.matmul(saved.T, dout, out=layer.dw)
        np.sum(dout, axis=0, out=layer.db)
        return dout @ layer.w.T
    if isinstance(layer, nn.BatchNorm):
        xhat, inv_std = saved
        n = dout.shape[0]
        np.sum(dout * xhat, axis=0, out=layer.dgamma)
        np.sum(dout, axis=0, out=layer.dbeta)
        dxhat = dout * layer.gamma
        return (inv_std / n) * (n * dxhat - dxhat.sum(axis=0) - xhat * (dxhat * xhat).sum(axis=0))
    if isinstance(layer, nn.ReLU):
        return dout * saved
    if isinstance(layer, nn.Attention):
        x, s = saved
        u = dout * x
        return dout * s + s * (u - (u * s).sum(axis=-1, keepdims=True))
    return dout * saved * (1.0 - saved)


def pretrain(ae, data, epochs, batch_size, seed, learning_rate=1e-3):
    """Train ``ae`` in place as ``pretrain`` does; return the loss history."""
    data = autoencoder._csr(data, ae.input_dim, np.float32)
    n = data.shape[0]
    rng = np.random.default_rng(seed)
    optimizer = Adam(ae.params, lr=learning_rate)
    history = []
    for _ in range(epochs):
        shuffled = data[rng.permutation(n)]
        total = 0.0
        for lo, hi in autoencoder._batch_slices(n, batch_size):
            x = out = shuffled[lo:hi].toarray()
            saved = []
            for layer in ae.net.layers:
                out, keep = _forward(layer, out, training=True)
                saved.append(keep)
            total += nn.bce_loss(out, x) * x.shape[0]
            dout = bce_grad(out, x)
            for layer, keep in reversed(list(zip(ae.net.layers, saved))):
                dout = _backward(layer, keep, dout)
            optimizer.step(ae.grads)
        history.append(total / n)
    return history


def encode(ae, rows):
    """``ae.encode`` over the same ``ENCODE_CHUNK`` chunks, in the plain forms."""
    rows = autoencoder._csr(rows, ae.input_dim, np.float64)
    gate = [type(layer) for layer in ae.net.layers].index(nn.Attention)
    chunks = []
    for start in range(0, rows.shape[0], autoencoder.ENCODE_CHUNK):
        x = rows[start:start + autoencoder.ENCODE_CHUNK].toarray()
        for layer in ae.net.layers[:gate]:
            x, _ = _forward(layer, x, training=False)
        chunks.append(x)
    x = np.concatenate(chunks)
    return nn.softmax(x) * x
