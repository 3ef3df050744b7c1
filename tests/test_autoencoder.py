import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import _pretrain_reference as reference
from attnrec import blas, nn, storage
from attnrec.autoencoder import (AttentiveAutoencoder, load_autoencoder,
                                 pretrain, save_autoencoder)
from attnrec.corpus import ContentMatrix
from attnrec.errors import ConfigError, DataError, NumericalError


def _toy_content(n_rows=40, n_cols=30, seed=0):
    """Two blocks of rows with disjoint active column ranges."""
    rng = np.random.default_rng(seed)
    dense = np.zeros((n_rows, n_cols))
    for i in range(n_rows):
        cols = rng.choice(n_cols // 2, size=5, replace=False)
        if i >= n_rows // 2:
            cols = cols + n_cols // 2
        dense[i, cols] = rng.uniform(0.2, 1.0, size=5)
    return ContentMatrix(sparse.csr_matrix(dense))


def test_architecture_mirrors_encoder():
    ae = AttentiveAutoencoder(30, [16, 8, 4], seed=0)
    dense_dims = [(l.w.shape[0], l.w.shape[1]) for l in ae.net.layers
                  if isinstance(l, nn.Dense)]
    assert dense_dims == [(30, 16), (16, 8), (8, 4), (4, 8), (8, 16), (16, 30)]
    assert ae.latent_dim == 4
    assert isinstance(ae.net.layers[-1], nn.Sigmoid)
    # the layer feeding the sigmoid output carries no normalization
    assert isinstance(ae.net.layers[-2], nn.Dense)


def test_width_validation():
    with pytest.raises(ConfigError):
        AttentiveAutoencoder(30, [])
    with pytest.raises(ConfigError):
        AttentiveAutoencoder(30, [8, 16])  # not strictly decreasing
    with pytest.raises(ConfigError):
        AttentiveAutoencoder(30, [30, 8])  # first width must shrink the input
    with pytest.raises(ConfigError):
        AttentiveAutoencoder(30, [16, 0])


def test_encode_applies_attention_gate():
    ae = AttentiveAutoencoder(30, [8], seed=1)
    data = _toy_content()
    gate = [type(layer) for layer in ae.net.layers].index(nn.Attention)
    pre = data.matrix.toarray()
    for layer in ae.net.layers[:gate]:
        pre = layer.forward(pre, training=False)
    gated = ae.encode(data)
    assert np.array_equal(gated, nn.softmax(pre) * pre)


def test_encode_chunking_is_invisible(monkeypatch):
    import attnrec.autoencoder as mod
    ae = AttentiveAutoencoder(30, [8], seed=2)
    data = _toy_content(n_rows=50)
    full = ae.encode(data)
    monkeypatch.setattr(mod, "ENCODE_CHUNK", 7)
    chunked = ae.encode(data)
    # chunk shape may steer BLAS down different kernels, so allow for
    # rounding differences but nothing larger
    assert np.allclose(full, chunked, rtol=1e-12, atol=1e-14)


def test_reconstruct_shape_and_range():
    ae = AttentiveAutoencoder(30, [8], seed=3)
    out = ae.net.forward(_toy_content().matrix.toarray(), training=False)
    assert out.shape == (40, 30)
    assert np.all((out > 0.0) & (out < 1.0))


def test_pretrain_reduces_loss_and_is_deterministic():
    data = _toy_content()
    ae1 = AttentiveAutoencoder(30, [12, 6], seed=4)
    losses1 = pretrain(ae1, data, epochs=60, batch_size=16, seed=9)
    ae2 = AttentiveAutoencoder(30, [12, 6], seed=4)
    losses2 = pretrain(ae2, data, epochs=60, batch_size=16, seed=9)
    assert losses1 == losses2
    assert np.array_equal(ae1.encode(data), ae2.encode(data))
    assert losses1[-1] < 0.7 * losses1[0]


def test_pretrain_zero_epochs_is_a_noop():
    data = _toy_content()
    ae = AttentiveAutoencoder(30, [8], seed=5)
    before = ae.encode(data)
    assert pretrain(ae, data, epochs=0) == []
    assert np.array_equal(ae.encode(data), before)


def test_pretrain_handles_trailing_singleton_batch():
    # 33 rows with batch 16 leaves one row over; it must fold into the
    # previous batch instead of hitting the batch-norm size floor.
    data = _toy_content(n_rows=33)
    ae = AttentiveAutoencoder(30, [8], seed=6)
    losses = pretrain(ae, data, epochs=2, batch_size=16, seed=0)
    assert len(losses) == 2


def test_checkpoint_roundtrip(tmp_path):
    data = _toy_content()
    ae = AttentiveAutoencoder(30, [12, 6], seed=7)
    pretrain(ae, data, epochs=5, batch_size=16, seed=1)
    path = tmp_path / "ae.bin"
    save_autoencoder(ae, path)
    again = load_autoencoder(path)
    # storage quantizes to f32, so reloaded outputs agree only that closely
    assert np.allclose(again.encode(data), ae.encode(data), atol=1e-5)
    save_autoencoder(again, tmp_path / "ae2.bin")
    third = load_autoencoder(tmp_path / "ae2.bin")
    assert np.array_equal(third.encode(data), again.encode(data))


def test_accepts_dense_arrays():
    ae = AttentiveAutoencoder(10, [4], seed=8)
    rows = np.random.default_rng(0).uniform(0.0, 1.0, size=(5, 10))
    assert ae.encode(rows).shape == (5, 4)


def test_load_tensors_names_missing_or_misshaped_tensor():
    ae = AttentiveAutoencoder(30, [8], seed=9)
    tensors = ae.named_tensors()
    missing = {name: t for name, t in tensors.items() if name != "bn0/running_var"}
    with pytest.raises(DataError, match="bn0/running_var"):
        AttentiveAutoencoder(30, [8], seed=9).load_tensors(missing)
    misshaped = {**tensors, "dense1/w": np.zeros((8, 29))}
    with pytest.raises(DataError, match=r"dense1/w.*\(8, 29\).*\(8, 30\)"):
        AttentiveAutoencoder(30, [8], seed=9).load_tensors(misshaped)


@pytest.mark.parametrize("drop", ["input_dim", "widths"])
def test_load_autoencoder_names_file_and_missing_key(tmp_path, drop):
    ae = AttentiveAutoencoder(30, [8], seed=10)
    meta = {"input_dim": 30, "widths": [8], "seed": 10}
    del meta[drop]
    path = tmp_path / "ae.bin"
    storage.write_tensors(path, ae.named_tensors(), meta)
    with pytest.raises(DataError, match=rf"ae\.bin.*'{drop}'"):
        load_autoencoder(path)


@pytest.mark.parametrize("key, value", [("input_dim", "x"), ("widths", 8),
                                        ("widths", [8, 9]), ("input_dim", 8)])
def test_load_autoencoder_names_file_of_bad_metadata(tmp_path, key, value):
    ae = AttentiveAutoencoder(30, [8], seed=10)
    meta = {"input_dim": 30, "widths": [8], "seed": 10, key: value}
    path = tmp_path / "ae.bin"
    storage.write_tensors(path, ae.named_tensors(), meta)
    with pytest.raises(DataError, match=r"ae\.bin: bad autoencoder checkpoint metadata"):
        load_autoencoder(path)


def test_load_autoencoder_names_file_of_a_missing_tensor(tmp_path):
    ae = AttentiveAutoencoder(30, [8], seed=11)
    tensors = {name: t for name, t in ae.named_tensors().items() if name != "dense0/w"}
    path = tmp_path / "ae.bin"
    storage.write_tensors(path, tensors, {"input_dim": 30, "widths": [8], "seed": 11})
    with pytest.raises(DataError, match=r"ae\.bin.*dense0/w"):
        load_autoencoder(path)


def test_pretrain_is_bit_deterministic_in_float32():
    data = _toy_content()
    runs = []
    for _ in range(2):
        ae = AttentiveAutoencoder(30, [12, 6], seed=4)
        runs.append((pretrain(ae, data, epochs=5, batch_size=16, seed=9), ae))
    (losses1, ae1), (losses2, ae2) = runs
    assert losses1 == losses2
    assert ae1.params.dtype == np.float32
    assert all(t.dtype == np.float32 for t in ae1.named_tensors().values())
    assert np.array_equal(ae1.params, ae2.params)


def test_reloaded_checkpoint_encodes_exactly_like_the_trained_model(tmp_path):
    data = _toy_content()
    ae = AttentiveAutoencoder(30, [12, 6], seed=7)
    pretrain(ae, data, epochs=5, batch_size=16, seed=1)
    save_autoencoder(ae, tmp_path / "ae.bin")
    assert np.array_equal(load_autoencoder(tmp_path / "ae.bin").encode(data), ae.encode(data))


def test_nan_gradient_in_the_flat_buffer_raises(monkeypatch):
    import attnrec.autoencoder as mod
    monkeypatch.setattr(mod, "bce_grad", lambda pred, target: np.full_like(pred, np.nan))
    ae = AttentiveAutoencoder(30, [8], seed=12)
    with pytest.raises(NumericalError):
        pretrain(ae, _toy_content(), epochs=1, batch_size=16)


def test_encode_densifies_one_chunk_at_a_time(monkeypatch):
    import attnrec.autoencoder as mod
    ae = AttentiveAutoencoder(30, [8], seed=13)
    data = _toy_content(n_rows=50)
    dense = data.matrix.toarray()
    seen = []
    first = ae.net.layers[0]
    forward = first.forward
    monkeypatch.setattr(mod, "ENCODE_CHUNK", 7)
    monkeypatch.setattr(first, "forward",
                        lambda x, training=True: seen.append(x.shape[0]) or forward(x, training))
    assert np.array_equal(ae.encode(data), ae.encode(dense))
    assert seen and max(seen) <= 7


def test_training_forward_on_float64_rows_keeps_float32_state():
    ae = AttentiveAutoencoder(10, [4], seed=14)
    ae.net.forward(np.random.default_rng(0).uniform(size=(6, 10)), training=True)
    assert all(t.dtype == np.float32 for t in ae.named_tensors().values())


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("chunk", [None, 200])
def test_pretrain_matches_the_plain_reference_bit_for_bit(monkeypatch, chunk):
    # 3 * 128 + 1 rows: the trailing singleton merges into the last batch. A
    # 200-row chunk makes batches straddle chunk edges, in pretrain and encode.
    import attnrec.autoencoder as mod
    if chunk is not None:
        monkeypatch.setattr(mod, "ENCODE_CHUNK", chunk)
    data = _toy_content(n_rows=3 * 128 + 1)
    ae, ref = (AttentiveAutoencoder(30, [12, 6], seed=15) for _ in range(2))
    history = pretrain(ae, data, epochs=3, batch_size=128, seed=2)
    with blas.single_threaded():  # the thread count pretrain and encode run at
        assert history == reference.pretrain(ref, data, epochs=3, batch_size=128, seed=2)
        ref_latent = reference.encode(ref, data)
    assert _same_bits(ae.params, ref.params)
    tensors, ref_tensors = ae.named_tensors(), ref.named_tensors()
    assert all(_same_bits(tensors[name], ref_tensors[name]) for name in tensors)
    assert _same_bits(ae.encode(data), ref_latent)


_DIGESTS = """
import hashlib
import numpy as np
from scipy import sparse
from attnrec.autoencoder import AttentiveAutoencoder, pretrain
x = sparse.random(130, 600, density=0.02, random_state=1, format="csr", dtype=np.float64)
ae = AttentiveAutoencoder(600, [100, 50], seed=1)
pretrain(ae, x, epochs=1, seed=1)
print(hashlib.sha256(ae.params.tobytes() + ae.encode(x).tobytes()).hexdigest())
"""


def test_pretrain_and_encode_bits_do_not_depend_on_the_blas_thread_count():
    # At this shape a two-thread OpenBLAS splits the products otherwise than a
    # one-thread one does, so unpinned runs give other parameter bits.
    src = str(Path(blas.__file__).resolve().parents[1])
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", _DIGESTS], env=env, capture_output=True,
                              text=True, check=True, timeout=300)
        digests.add(done.stdout.strip())
    assert len(digests) == 1


def _blas_threads():
    """Threads of each mapped OpenBLAS, read through the pin's own lookup."""
    return [get() for get, _ in blas._libraries()]


def test_blas_pin_restores_each_thread_count():
    before = _blas_threads()
    with blas.single_threaded() as pinned:
        assert _blas_threads() == [1] * len(before) and pinned == bool(before)
    assert _blas_threads() == before


def test_blas_pin_holds_while_many_threads_pin_at_once():
    # More threads than cores, switching as often as they can: a lost update
    # of the pin count would restore a count inside some pin, or none after.
    before, seen = _blas_threads(), []

    def pin_often():
        for _ in range(200):
            with blas.single_threaded():
                seen.append(_blas_threads())

    threads = [threading.Thread(target=pin_often) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8 * 200 and all(counts == [1] * len(before) for counts in seen)
    assert _blas_threads() == before


_INTERLEAVED_PINS = """
import json
import threading
from attnrec import blas
read = lambda: [get() for get, _ in blas._libraries()]
a_in, b_in, a_out, seen = threading.Event(), threading.Event(), threading.Event(), {}

def a():  # pins first and leaves first
    with blas.single_threaded():
        a_in.set()
        assert b_in.wait(60)
    a_out.set()

def b():  # pins while a holds its pin, and leaves after a
    assert a_in.wait(60)
    with blas.single_threaded():
        b_in.set()
        assert a_out.wait(60)
        seen["inside"] = read()

before = read()
threads = [threading.Thread(target=f) for f in (a, b)]
for t in threads:
    t.start()
for t in threads:
    t.join()
print(json.dumps([before, seen["inside"], read()]))
"""


def test_blas_pin_nests_across_threads():
    # A pin that saved and restored the counts by itself would hand b the two
    # threads that a restored on leaving, and leave one thread set after both.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if cpus < 2:
        pytest.skip(f"OpenBLAS caps its threads at the {cpus} CPU of this host")
    src = str(Path(blas.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _INTERLEAVED_PINS], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    before, inside, after = json.loads(done.stdout)
    assert before and set(before) == {2}
    assert inside == [1] * len(before) and after == before


def test_nan_parameter_raises_numerical_error_at_the_first_loss():
    # ReLU passes a NaN through, so a NaN weight reaches the first batch's
    # loss; the CLI maps NumericalError to exit 3.
    ae = AttentiveAutoencoder(30, [8], seed=16)
    ae.net.layers[0].w[0, 0] = np.nan
    with pytest.raises(NumericalError, match="loss at epoch 0, batch 0"):
        pretrain(ae, _toy_content(), epochs=1, batch_size=16)
