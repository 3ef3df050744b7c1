import struct

import numpy as np
import pytest
from scipy import sparse

from attnrec import storage
from attnrec.errors import DataError


def test_interactions_golden_bytes(tmp_path):
    # Freeze the on-disk layout: magic, version, counts, sorted u32 pairs.
    path = tmp_path / "r.bin"
    storage.write_interactions(path, 1, 2, [0, 0], [1, 0])
    expected = b"RXIM\x01" + struct.pack("<IIQ", 1, 2, 2)
    expected += struct.pack("<II", 0, 0) + struct.pack("<II", 0, 1)
    assert path.read_bytes() == expected


def test_interactions_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    users = rng.integers(0, 40, size=200)
    articles = rng.integers(0, 60, size=200)
    path = tmp_path / "r.bin"
    storage.write_interactions(path, 40, 60, users, articles)
    n_users, n_articles, got_u, got_a = storage.read_interactions(path)
    assert (n_users, n_articles) == (40, 60)
    pairs = sorted(zip(users.tolist(), articles.tolist()))
    assert list(zip(got_u.tolist(), got_a.tolist())) == pairs


def test_interactions_bad_magic(tmp_path):
    path = tmp_path / "r.bin"
    path.write_bytes(b"XXXX\x01" + b"\x00" * 16)
    with pytest.raises(DataError):
        storage.read_interactions(path)


def test_interactions_bad_version(tmp_path):
    path = tmp_path / "r.bin"
    path.write_bytes(b"RXIM\x07" + struct.pack("<IIQ", 1, 1, 0))
    with pytest.raises(DataError):
        storage.read_interactions(path)


def test_interactions_truncated(tmp_path):
    path = tmp_path / "r.bin"
    storage.write_interactions(path, 2, 2, [0, 1], [1, 0])
    data = path.read_bytes()
    path.write_bytes(data[:-3])
    with pytest.raises(DataError):
        storage.read_interactions(path)


def test_content_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    dense = rng.random((7, 11))
    dense[dense < 0.6] = 0.0
    mat = sparse.csr_matrix(dense)
    path = tmp_path / "x.bin"
    storage.write_content(path, mat)
    got = storage.read_content(path)
    assert got.shape == mat.shape
    assert np.array_equal(got.toarray(), mat.toarray())


def test_tags_roundtrip_binary_values(tmp_path):
    rows = sparse.csr_matrix((np.ones(4), ([0, 0, 2, 3], [1, 2, 0, 2])), shape=(4, 3))
    path = tmp_path / "t.bin"
    storage.write_tags(path, rows)
    got = storage.read_tags(path)
    assert np.array_equal(got.toarray(), rows.toarray())
    assert got.dtype == np.float64


def test_tensor_roundtrip_and_meta(tmp_path):
    tensors = {
        "w": np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0,
        "b": np.array([1.5, -2.25]),
    }
    meta = {"widths": [4, 2], "seed": 9}
    path = tmp_path / "ckpt.bin"
    storage.write_tensors(path, tensors, meta)
    got, got_meta = storage.read_tensors(path)
    assert got_meta == meta
    assert set(got) == {"w", "b"}
    # Payloads are stored at f32 precision by design.
    assert np.array_equal(got["w"], tensors["w"].astype(np.float32).astype(np.float64))
    assert got["b"].shape == (2,)


def test_tensor_write_deterministic(tmp_path):
    tensors = {"a": np.ones((3, 2)), "z": np.zeros(4)}
    p1, p2 = tmp_path / "one.bin", tmp_path / "two.bin"
    storage.write_tensors(p1, tensors, {"k": 1})
    storage.write_tensors(p2, dict(reversed(list(tensors.items()))), {"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_tensor_truncated_payload(tmp_path):
    path = tmp_path / "ckpt.bin"
    storage.write_tensors(path, {"w": np.ones((4, 4))}, {})
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(DataError):
        storage.read_tensors(path)


def _csr_bytes(magic, n_rows, n_cols, indptr, indices, with_values):
    out = magic + b"\x01" + struct.pack("<IIQ", n_rows, n_cols, len(indices))
    out += np.asarray(indptr, dtype="<u8").tobytes()
    out += np.asarray(indices, dtype="<u4").tobytes()
    if with_values:
        out += np.ones(len(indices), dtype="<f8").tobytes()
    return out


# 2 rows x 3 columns; the valid layout is indptr [0, 1, 2], indices [0, 2]
@pytest.mark.parametrize("indptr, indices, problem", [
    ([1, 1, 2], [0, 2], "indptr[0] != 0"),
    ([0, 2, 1], [0, 2], "decreasing indptr"),
    ([0, 1, 1], [0, 2], "indptr[-1] != nnz"),
    ([0, 1, 2], [0, 3], "column index == n_cols"),
    ([0, 1, 2], [0, 10 ** 6], "column index far out of range"),
])
@pytest.mark.parametrize("magic, reader, with_values", [
    (b"RXCM", storage.read_content, True),
    (b"RXTM", storage.read_tags, False),
])
def test_csr_cache_structure_refused(tmp_path, indptr, indices, problem,
                                     magic, reader, with_values):
    path = tmp_path / "m.bin"
    path.write_bytes(_csr_bytes(magic, 2, 3, [0, 1, 2], [0, 2], with_values))
    assert reader(path).shape == (2, 3)
    path.write_bytes(_csr_bytes(magic, 2, 3, indptr, indices, with_values))
    with pytest.raises(DataError, match="m.bin"):
        reader(path)


def _write_interactions(path):
    storage.write_interactions(path, 2, 2, [0, 1], [1, 0])


def _write_content(path):
    storage.write_content(path, sparse.csr_matrix(np.eye(3)))


def _write_tags(path):
    storage.write_tags(path, sparse.csr_matrix(np.eye(3)))


def _write_tensors(path):
    storage.write_tensors(path, {"w": np.ones((2, 2))}, {"k": 1})


@pytest.mark.parametrize("write, read", [
    (_write_interactions, storage.read_interactions),
    (_write_content, storage.read_content),
    (_write_tags, storage.read_tags),
    (_write_tensors, storage.read_tensors),
])
def test_trailing_bytes_refused(tmp_path, write, read):
    path = tmp_path / "cache.bin"
    write(path)
    read(path)
    path.write_bytes(path.read_bytes() + b"\x00junk")
    with pytest.raises(DataError, match="cache.bin: 5 trailing bytes"):
        read(path)
