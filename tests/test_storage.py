import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from attnrec import storage
from attnrec.errors import DataError


def test_interactions_golden_bytes(tmp_path):
    # Freeze the on-disk layout: magic, version 2, shape, nnz, u64 row
    # pointers, then u32 column ids sorted within each row and no values.
    path = tmp_path / "r.bin"
    unsorted = sparse.csr_matrix((np.ones(3), [2, 0, 1], [0, 2, 2, 3]), shape=(3, 4))
    storage.write_interactions(path, unsorted)
    expected = b"RXIM\x02" + struct.pack("<IIQ", 3, 4, 3)
    expected += struct.pack("<4Q", 0, 2, 2, 3) + struct.pack("<3I", 0, 2, 1)
    assert path.read_bytes() == expected


def test_interactions_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    dense = (rng.random((40, 60)) < 0.1).astype(np.float64)
    dense[7] = 0.0  # a user without saves
    path = tmp_path / "r.bin"
    storage.write_interactions(path, sparse.csr_matrix(dense))
    got = storage.read_interactions(path)
    assert got.shape == (40, 60)
    assert got.dtype == np.float64
    assert np.array_equal(got.toarray(), dense)


def test_interactions_bad_magic(tmp_path):
    path = tmp_path / "r.bin"
    path.write_bytes(b"XXXX\x02" + b"\x00" * 24)
    with pytest.raises(DataError):
        storage.read_interactions(path)


def test_interactions_bad_version(tmp_path):
    # Version 1 is the retired pair layout; it is refused, not converted.
    path = tmp_path / "r.bin"
    for version in (1, 7):
        path.write_bytes(b"RXIM" + bytes([version]) + struct.pack("<IIQ", 1, 1, 0))
        with pytest.raises(DataError, match=rf"r\.bin: unsupported version {version}"):
            storage.read_interactions(path)


def test_interactions_truncated(tmp_path):
    path = tmp_path / "r.bin"
    storage.write_interactions(path, sparse.csr_matrix(np.eye(2)[::-1]))
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


_VERSIONS = {b"RXIM": 2, b"RXCM": 1, b"RXTM": 1}


def _csr_bytes(magic, n_rows, n_cols, indptr, indices, with_values):
    out = magic + bytes([_VERSIONS[magic]])
    out += struct.pack("<IIQ", n_rows, n_cols, len(indices))
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
    ([0, 2, 2], [2, 0], "falling column ids in a row"),
    ([0, 2, 2], [2, 2], "repeated column id in a row"),
])
@pytest.mark.parametrize("magic, reader, with_values", [
    (b"RXCM", storage.read_content, True),
    (b"RXTM", storage.read_tags, False),
    (b"RXIM", storage.read_interactions, False),
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
    storage.write_interactions(path, sparse.csr_matrix(np.eye(2)[::-1]))


def _write_content(path):
    storage.write_content(path, sparse.csr_matrix(np.eye(3)))


def _write_tags(path):
    storage.write_tags(path, sparse.csr_matrix(np.eye(3)))


def _write_tensors(path):
    storage.write_tensors(path, {"w": np.ones((2, 2))}, {"k": 1})


_FORMATS = [
    (_write_interactions, storage.read_interactions),
    (_write_content, storage.read_content),
    (_write_tags, storage.read_tags),
    (_write_tensors, storage.read_tensors),
]


@pytest.mark.parametrize("write, read", _FORMATS)
def test_trailing_bytes_refused(tmp_path, write, read):
    path = tmp_path / "cache.bin"
    write(path)
    read(path)
    path.write_bytes(path.read_bytes() + b"\x00junk")
    with pytest.raises(DataError, match="cache.bin: 5 trailing bytes"):
        read(path)


@pytest.mark.parametrize("write, read", _FORMATS)
def test_empty_cut_and_extended_files_refused_through_the_mapping(tmp_path, write, read):
    # An empty file cannot be mapped at all; it reads as truncated, as a
    # file cut short does.
    path = tmp_path / "cache.bin"
    write(path)
    raw = path.read_bytes()
    for data, message in ((b"", "truncated cache file"), (raw[:-1], "truncated cache file"),
                          (raw + b"\x00", "1 trailing bytes")):
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"cache.bin: {message}"):
            read(path)


def test_read_tensors_gives_private_f32_views(tmp_path):
    path = tmp_path / "t.bin"
    storage.write_tensors(path, {"w": np.arange(6.0).reshape(2, 3)})
    raw = path.read_bytes()
    first, _ = storage.read_tensors(path)
    assert first["w"].dtype == np.float32 and first["w"].flags.writeable
    first["w"][0, 0] = 99.0
    again, _ = storage.read_tensors(path)
    assert path.read_bytes() == raw and again["w"][0, 0] == 0.0
    assert np.array_equal(again["w"], np.arange(6.0).reshape(2, 3))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def _refuses_every_truncation(path, read):
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(DataError):
            read(path)


@st.composite
def _dense_matrices(draw):
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 8))
    cell = st.one_of(st.just(0.0), st.floats(allow_nan=False, allow_infinity=False))
    rows = draw(st.lists(st.lists(cell, min_size=n_cols, max_size=n_cols),
                         min_size=n_rows, max_size=n_rows))
    return np.array(rows, dtype=np.float64).reshape(n_rows, n_cols)


@settings(max_examples=40, deadline=None)
@given(magic=st.sampled_from([storage.MAGIC_CONTENT, storage.MAGIC_TAGS,
                              storage.MAGIC_INTERACTIONS]),
       dense=_dense_matrices())
def test_csr_round_trip_and_truncation_property(scratch, magic, dense):
    with_values = magic == storage.MAGIC_CONTENT
    path = scratch / "matrix.bin"
    storage._write_csr(path, magic, sparse.csr_matrix(dense), with_values=with_values)
    read = lambda p: storage._read_csr(p, magic, with_values=with_values)  # noqa: E731
    got = read(path)
    assert got.shape == dense.shape
    assert np.array_equal(got.toarray(), dense if with_values else (dense != 0) * 1.0)
    _refuses_every_truncation(path, read)


@st.composite
def _f32_tensors(draw):
    """Tensors of up to three axes whose values f32 holds exactly."""
    shape = tuple(draw(st.lists(st.integers(0, 3), max_size=3)))
    size = int(np.prod(shape))
    values = draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                           min_size=size, max_size=size))
    return np.array(values, dtype=np.float64).reshape(shape)


@settings(max_examples=40, deadline=None)
@given(tensors=st.dictionaries(st.text(max_size=6), _f32_tensors(), max_size=3),
       meta=st.dictionaries(st.text(max_size=6),
                            st.one_of(st.integers(-10 ** 6, 10 ** 6), st.text(max_size=6)),
                            max_size=3))
def test_tensor_round_trip_and_truncation_property(scratch, tensors, meta):
    path = scratch / "tensors.bin"
    storage.write_tensors(path, tensors, meta)
    got, got_meta = storage.read_tensors(path)
    assert got_meta == meta
    assert set(got) == set(tensors)
    for name, array in tensors.items():
        assert got[name].shape == array.shape and np.array_equal(got[name], array)
    _refuses_every_truncation(path, storage.read_tensors)


@pytest.mark.parametrize("read", [storage.read_interactions, storage.read_tensors])
def test_missing_file_refused(tmp_path, read):
    with pytest.raises(DataError, match="nothing.bin: cannot read"):
        read(tmp_path / "nothing.bin")


def _with_byte(path, offset, value):
    raw = bytearray(path.read_bytes())
    raw[offset] = value
    path.write_bytes(bytes(raw))


# Byte 9 is the first byte of the metadata JSON, after magic, version and
# the u32 metadata length.
@pytest.mark.parametrize("value", [ord(";"), 0xFF], ids=["not-json", "not-utf8"])
def test_tensor_metadata_that_does_not_decode_is_refused(tmp_path, value):
    path = tmp_path / "ckpt.bin"
    storage.write_tensors(path, {"w": np.ones(2)}, {"seed": 1})
    _with_byte(path, 9, value)
    with pytest.raises(DataError, match=r"ckpt\.bin: damaged tensor container"):
        storage.read_tensors(path)


def test_tensor_metadata_that_is_not_an_object_is_refused(tmp_path):
    path = tmp_path / "ckpt.bin"
    storage.write_tensors(path, {"w": np.ones(2)}, [1, 2])
    with pytest.raises(DataError, match=r"ckpt\.bin: .*metadata is not a JSON object"):
        storage.read_tensors(path)


def test_tensor_name_that_is_not_utf8_is_refused(tmp_path):
    path = tmp_path / "ckpt.bin"
    storage.write_tensors(path, {"w": np.ones(2)}, {})
    # magic + version, u32 meta length, "{}", u32 count, u16 name length
    _with_byte(path, 5 + 4 + 2 + 4 + 2, 0xFF)
    with pytest.raises(DataError, match=r"ckpt\.bin: damaged tensor container.*utf-8"):
        storage.read_tensors(path)


# The element count of the first shape wraps to 0 in int64; no array has 255 axes.
@pytest.mark.parametrize("shape", [[2 ** 20, 2 ** 20, 2 ** 24], [1] * 255])
def test_tensor_shape_no_payload_can_fill_is_refused(tmp_path, shape):
    path = tmp_path / "ckpt.bin"
    storage.write_tensors(path, {"w": np.ones(2)}, {})
    raw = path.read_bytes()
    at = 5 + 4 + 2 + 4 + 2 + 1  # the ndim byte of tensor "w"
    raw = raw[:at] + bytes([len(shape)]) + np.array(shape, "<u4").tobytes() + raw[at + 5:]
    path.write_bytes(raw)
    with pytest.raises(DataError, match=r"ckpt\.bin: damaged tensor container"):
        storage.read_tensors(path)


def test_interactions_shape_reads_the_header_and_checks_the_length(tmp_path):
    path = tmp_path / "r.bin"
    storage.write_interactions(path, sparse.csr_matrix(np.eye(3, 5)[::-1]))
    assert storage.interactions_shape(path) == (3, 5)
    raw = path.read_bytes()
    path.write_bytes(raw[:-4] + struct.pack("<I", 7))  # a column id past n_cols,
    with pytest.raises(DataError):                       # in the body it never reads
        storage.read_interactions(path)
    assert storage.interactions_shape(path) == (3, 5)
    for data, message in ((raw[:-1], "truncated cache file"), (raw + b"\0", "1 trailing bytes"),
                          (b"RXTM" + raw[4:], "bad magic"), (raw[:12], "truncated cache file")):
        path.write_bytes(data)
        with pytest.raises(DataError, match=f"r\\.bin: {message}"):
            storage.interactions_shape(path)
