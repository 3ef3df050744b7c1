"""Binary cache and checkpoint formats.

All integers are little-endian. Every file starts with 4 magic bytes and
a version byte. Readers map a file copy-on-write rather than copy it: the
CSR readers return arrays of their own, and ``read_tensors`` returns views
of the mapping. The three matrix caches are CSR, and column indices rise
strictly within each row:

content cache (magic ``RXCM``, version 1)
    u32 n_rows, u32 n_cols, u64 nnz, (n_rows+1) x u64 row pointers,
    nnz x u32 column indices, nnz x f64 values.

tag cache (magic ``RXTM``, version 1)
    u32 n_rows, u32 n_cols, u64 nnz, (n_rows+1) x u64 row pointers,
    nnz x u32 column indices. Values are implicitly 1.

interaction cache (magic ``RXIM``, version 2)
    The tag-cache layout over users x articles. Version 1 stored sorted
    (user, article) pairs and is refused.

tensor container (magic ``RXTN``, version 1)
    u32 metadata length, metadata as UTF-8 JSON (sorted keys), u32 tensor
    count, then per tensor: u16 name length, name UTF-8, u8 ndim,
    ndim x u32 shape, and the row-major payload as little-endian f32.
"""

from __future__ import annotations

import json
import mmap
from pathlib import Path

import numpy as np
from scipy import sparse

from .errors import BoundsError, DataError

MAGIC_INTERACTIONS = b"RXIM"
MAGIC_CONTENT = b"RXCM"
MAGIC_TAGS = b"RXTM"
MAGIC_TENSORS = b"RXTN"
_VERSIONS = {MAGIC_INTERACTIONS: 2, MAGIC_CONTENT: 1, MAGIC_TAGS: 1, MAGIC_TENSORS: 1}

_U8 = np.dtype("<u1")
_U16 = np.dtype("<u2")
_U32 = np.dtype("<u4")
_U64 = np.dtype("<u8")
_F32 = np.dtype("<f4")
_F64 = np.dtype("<f8")


class _Reader:
    """Cursor over a file mapped copy-on-write, with typed reads that are
    views of the mapping: pages are read in as a read touches them, and a
    write to a view changes neither the file nor other readers."""

    def __init__(self, path):
        try:
            with open(path, "rb") as fh:
                self.data = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        except OSError as exc:
            raise DataError(f"{path}: cannot read: {exc.strerror}") from None
        except ValueError:  # an empty file cannot be mapped
            raise DataError(f"{path}: truncated cache file") from None
        self.pos = 0
        self.path = path

    def take(self, dtype, count: int) -> np.ndarray:
        nbytes = dtype.itemsize * count
        if self.pos + nbytes > len(self.data):
            raise DataError(f"{self.path}: truncated cache file")
        out = np.frombuffer(self.data, dtype=dtype, count=count, offset=self.pos)
        self.pos += nbytes
        return out

    def scalar(self, dtype) -> int:
        return int(self.take(dtype, 1)[0])

    def finish(self):
        """Refuse bytes left over after the last record."""
        if self.pos != len(self.data):
            raise DataError(f"{self.path}: {len(self.data) - self.pos} trailing bytes")


def _check_header(reader: _Reader, magic: bytes):
    got = reader.take(_U8, 4).tobytes()
    if got != magic:
        raise DataError(
            f"{reader.path}: bad magic {got!r}, expected {magic!r}"
        )
    version = reader.scalar(_U8)
    if version != _VERSIONS[magic]:
        raise DataError(f"{reader.path}: unsupported version {version}")


def _write_csr(path, magic: bytes, matrix: sparse.csr_matrix, with_values: bool):
    matrix = matrix.tocsr()
    matrix.sort_indices()
    parts = [
        magic + bytes([_VERSIONS[magic]]),
        np.array(matrix.shape, dtype=_U32).tobytes(),
        np.array([matrix.nnz], dtype=_U64).tobytes(),
        matrix.indptr.astype(_U64).tobytes(),
        matrix.indices.astype(_U32).tobytes(),
    ]
    if with_values:
        parts.append(matrix.data.astype(_F64).tobytes())
    Path(path).write_bytes(b"".join(parts))


def _read_csr(path, magic: bytes, with_values: bool) -> sparse.csr_matrix:
    reader = _Reader(path)
    _check_header(reader, magic)
    n_rows = reader.scalar(_U32)
    n_cols = reader.scalar(_U32)
    nnz = reader.scalar(_U64)
    indptr = reader.take(_U64, n_rows + 1).astype(np.int64)
    indices = reader.take(_U32, nnz)
    if with_values:
        data = reader.take(_F64, nnz).astype(np.float64)
    else:
        data = np.ones(nnz, dtype=np.float64)
    reader.finish()
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise DataError(f"{path}: row pointers must rise from 0 to nnz={nnz}")
    if nnz and int(indices.max()) >= n_cols:
        raise BoundsError(f"{path}: column index {int(indices.max())} >= n_cols={n_cols}")
    # Ids must rise strictly from each position to the next, except where
    # the next position starts a row.
    starts = np.zeros(nnz + 1, dtype=bool)
    starts[indptr] = True
    falls = np.flatnonzero((indices[1:] <= indices[:-1]) & ~starts[1:-1])
    if falls.size:
        row = int(np.searchsorted(indptr, falls[0] + 1, side="right")) - 1
        raise DataError(f"{path}: column indices must rise strictly within each row; "
                        f"row {row} does not")
    return sparse.csr_matrix((data, indices.astype(np.int32), indptr), shape=(n_rows, n_cols))


def write_interactions(path, matrix: sparse.csr_matrix):
    _write_csr(path, MAGIC_INTERACTIONS, matrix, with_values=False)


def read_interactions(path) -> sparse.csr_matrix:
    return _read_csr(path, MAGIC_INTERACTIONS, with_values=False)


def write_content(path, matrix: sparse.csr_matrix):
    _write_csr(path, MAGIC_CONTENT, matrix, with_values=True)


def read_content(path) -> sparse.csr_matrix:
    return _read_csr(path, MAGIC_CONTENT, with_values=True)


def write_tags(path, matrix: sparse.csr_matrix):
    _write_csr(path, MAGIC_TAGS, matrix, with_values=False)


def read_tags(path) -> sparse.csr_matrix:
    return _read_csr(path, MAGIC_TAGS, with_values=False)


def write_tensors(path, tensors: dict, meta: dict | None = None):
    """Write named float tensors plus a JSON metadata record.

    Payloads are stored as 32-bit floats; callers lose precision beyond f32.
    """
    meta_bytes = json.dumps(meta or {}, sort_keys=True).encode("utf-8")
    parts = [
        MAGIC_TENSORS + bytes([_VERSIONS[MAGIC_TENSORS]]),
        np.array([len(meta_bytes)], dtype=_U32).tobytes(),
        meta_bytes,
        np.array([len(tensors)], dtype=_U32).tobytes(),
    ]
    # Sorted by name so identical contents always produce identical bytes.
    for name in sorted(tensors):
        array = np.asarray(tensors[name], dtype=np.float64)
        name_bytes = name.encode("utf-8")
        parts.append(np.array([len(name_bytes)], dtype=_U16).tobytes())
        parts.append(name_bytes)
        parts.append(np.array([array.ndim], dtype=_U8).tobytes())
        parts.append(np.array(array.shape, dtype=_U32).tobytes())
        parts.append(np.ascontiguousarray(array, dtype=_F32).tobytes())
    Path(path).write_bytes(b"".join(parts))


def read_tensors(path):
    """Return (tensors, meta). Each tensor is its f32 payload as it lies in
    the file: a private, writable view of the mapped file."""
    reader = _Reader(path)
    _check_header(reader, MAGIC_TENSORS)
    try:  # a ValueError here is bad JSON or UTF-8, or a shape no payload can fill
        meta_len = reader.scalar(_U32)
        meta = json.loads(reader.take(_U8, meta_len).tobytes().decode("utf-8")) if meta_len else {}
        if not isinstance(meta, dict):
            raise ValueError("metadata is not a JSON object")
        count = reader.scalar(_U32)
        tensors = {}
        for _ in range(count):
            name_len = reader.scalar(_U16)
            name = reader.take(_U8, name_len).tobytes().decode("utf-8")
            ndim = reader.scalar(_U8)
            shape = tuple(reader.take(_U32, ndim).astype(int))
            size = int(np.prod(shape)) if ndim else 1
            tensors[name] = reader.take(_F32, size).reshape(shape)
    except ValueError as exc:
        raise DataError(f"{path}: damaged tensor container: {exc}") from None
    reader.finish()
    return tensors, meta
