"""Attentive autoencoders that turn article content rows into latent priors.

Architecture: a stack of dense+batchnorm+ReLU encoder blocks with strictly
decreasing widths, a softmax self-gating bottleneck, a mirrored decoder
stack, and a sigmoid output layer back to the input width. Two instances
(one over text bag-of-words, one over tag/citation rows) are trained
independently with the same code. They train in float32 on one flat
parameter buffer, the precision checkpoints store, and ``encode`` evaluates
those parameters in float64, so a reloaded model encodes exactly the same.
"""

from __future__ import annotations

import logging

import numpy as np
from scipy import sparse

from . import storage
from .errors import ConfigError, DataError, NumericalError
from .nn import (Adam, Attention, BatchNorm, Dense, ReLU, Sequential, Sigmoid,
                 attention_bottleneck, bce_grad, bce_loss, flatten)

logger = logging.getLogger(__name__)

ENCODE_CHUNK = 512

# Checkpoint naming: each layer type's tensor name prefix.
_PREFIX = {Dense: "dense", BatchNorm: "bn"}


class AttentiveAutoencoder:
    def __init__(self, input_dim: int, hidden_widths, seed: int = 0):
        hidden_widths = list(hidden_widths)
        if not hidden_widths:
            raise ConfigError("hidden_widths must be nonempty")
        if any(w <= 0 for w in hidden_widths):
            raise ConfigError("hidden widths must be positive")
        if any(b >= a for a, b in zip(hidden_widths, hidden_widths[1:])):
            raise ConfigError(f"hidden widths must be strictly decreasing: {hidden_widths}")
        if hidden_widths[0] >= input_dim:
            raise ConfigError(f"first hidden width {hidden_widths[0]} "
                              f"must be < input_dim {input_dim}")
        self.input_dim = input_dim
        self.widths = hidden_widths
        self.seed = seed

        rng = np.random.default_rng(seed)
        encoder = []
        dims = [input_dim] + hidden_widths
        for a, b in zip(dims, dims[1:]):
            encoder += [Dense(a, b, rng), BatchNorm(b), ReLU()]
        decoder = []
        mirrored = dims[::-1]
        for a, b in zip(mirrored[:-2], mirrored[1:-1]):
            decoder += [Dense(a, b, rng), BatchNorm(b), ReLU()]
        decoder += [Dense(mirrored[-2], mirrored[-1], rng), Sigmoid()]

        self.net = Sequential(encoder + [Attention()] + decoder)
        self.params, self.grads = flatten(self.net.layers)

    @property
    def latent_dim(self) -> int:
        return self.widths[-1]

    def encode(self, rows) -> np.ndarray:
        """Latent rows: the layers below the attention gate in evaluation mode,
        in float64 over one densified chunk of rows at a time, then the gate."""
        rows = _csr(rows, self.input_dim, np.float64)
        gate = [type(layer) for layer in self.net.layers].index(Attention)
        chunks = [np.zeros((0, self.latent_dim))]  # zero rows encode to zero rows
        for start in range(0, rows.shape[0], ENCODE_CHUNK):
            x = rows[start:start + ENCODE_CHUNK].toarray()
            for layer in self.net.layers[:gate]:
                x = layer.forward(x, training=False)
            chunks.append(x)
        return attention_bottleneck(np.concatenate(chunks))

    def _slots(self):
        """(name, array) for every checkpointed tensor, in layer order."""
        counts = {}
        for layer in self.net.layers:
            if type(layer) in _PREFIX:
                prefix = _PREFIX[type(layer)]
                index = counts[prefix] = counts.get(prefix, -1) + 1
                for attr in layer.trained + layer.state:
                    yield f"{prefix}{index}/{attr}", getattr(layer, attr)

    def named_tensors(self) -> dict:
        return dict(self._slots())

    def load_tensors(self, tensors: dict):
        for name, array in self._slots():
            if name not in tensors:
                raise DataError(f"checkpoint lacks tensor {name!r}")
            if np.shape(tensors[name]) != array.shape:
                raise DataError(f"checkpoint tensor {name!r} has shape "
                                f"{np.shape(tensors[name])}, expected {array.shape}")
            array[...] = tensors[name]


def _csr(rows, width: int, dtype) -> sparse.csr_matrix:
    """Content rows (a ContentMatrix or TagMatrix, a sparse matrix or an
    array) as CSR of ``dtype``, checked to be ``width`` columns wide."""
    rows = sparse.csr_matrix(rows.matrix if hasattr(rows, "matrix") else rows, dtype=dtype)
    if rows.shape[1] != width:
        raise ValueError(f"expected rows of width {width}, got {rows.shape[1]}")
    return rows


def _batch_slices(n: int, batch_size: int):
    """Contiguous batch bounds; a trailing singleton merges into its neighbor
    because batch normalization cannot standardize a single row."""
    bounds = list(range(0, n, batch_size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        bounds.pop(-2)
    return list(zip(bounds[:-1], bounds[1:]))


def pretrain(ae: AttentiveAutoencoder, data, epochs: int = 200, batch_size: int = 128,
             seed: int = 0) -> list:
    """Train the autoencoder to reconstruct its input rows under BCE.

    Computes in float32 and shuffles the rows once per epoch. Returns the
    per-epoch mean reconstruction loss. Deterministic for a fixed seed;
    epochs=0 leaves the model untouched and returns [].
    """
    data = _csr(data, ae.input_dim, np.float32)
    n = data.shape[0]
    if epochs == 0:
        return []
    if n < 2:
        raise ValueError("pretraining needs at least 2 rows")

    rng = np.random.default_rng(seed)
    optimizer = Adam(ae.params)
    history = []
    for epoch in range(epochs):
        order, top, total = rng.permutation(n), 0, 0.0
        for batch_i, (lo, hi) in enumerate(_batch_slices(n, batch_size)):
            if hi > top:  # densify the next ENCODE_CHUNK rows, from this batch on
                base, top = lo, max(hi, lo + ENCODE_CHUNK)
                chunk = data[order[base:top]].toarray()
            x = chunk[lo - base:hi - base]
            out = ae.net.forward(x, training=True)
            loss = bce_loss(out, x)
            if not np.isfinite(loss):
                raise NumericalError(f"non-finite reconstruction loss at epoch {epoch}, "
                                     f"batch {batch_i}")
            ae.net.backward(bce_grad(out, x), input_grad=False)
            optimizer.step(ae.grads)
            total += loss * x.shape[0]
        history.append(total / n)
        if epoch % 50 == 0 or epoch == epochs - 1:
            logger.debug("pretrain epoch %d: loss %.6f", epoch, history[-1])
    return history


def save_autoencoder(ae: AttentiveAutoencoder, path):
    meta = {"input_dim": ae.input_dim, "widths": ae.widths, "seed": ae.seed}
    storage.write_tensors(path, ae.named_tensors(), meta)


def load_autoencoder(path) -> AttentiveAutoencoder:
    tensors, meta = storage.read_tensors(path)
    try:
        ae = AttentiveAutoencoder(meta["input_dim"], meta["widths"], seed=meta.get("seed", 0))
    except KeyError as exc:
        raise DataError(f"{path}: autoencoder checkpoint lacks {exc.args[0]!r}") from None
    except (TypeError, ValueError, ConfigError) as exc:
        raise DataError(f"{path}: bad autoencoder checkpoint metadata: {exc}") from None
    try:
        ae.load_tensors(tensors)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    return ae


def save_latent(path, latent: np.ndarray):
    """Store latent rows as a content cache with every entry explicit, so the
    f64 values, signed zeros included, read back bit for bit."""
    n, d = latent.shape
    storage.write_content(path, sparse.csr_matrix(
        (latent.ravel(), np.tile(np.arange(d), n), np.arange(n + 1) * d), shape=(n, d)))


def load_latent(path) -> np.ndarray:
    matrix = storage.read_content(path)
    n, d = matrix.shape
    if matrix.nnz != n * d:  # with ids rising in every row, every entry is present
        raise DataError(f"{path}: latent cache holds {matrix.nnz} of {n}x{d} entries")
    return matrix.data.reshape(n, d)
