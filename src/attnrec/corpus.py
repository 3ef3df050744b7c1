"""Ingest CiteULike-style data files into the three model inputs.

Produces the user-article interaction matrix, the normalized bag-of-words
content matrix over a TF-IDF-selected vocabulary, and the binary tag matrix
with one-hop citation propagation.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from itertools import chain, repeat
from pathlib import Path

import numpy as np
from scipy import sparse

from . import storage
from .errors import BoundsError, DataError, ParseError


# --------------------------------------------------------------------------
# sparse kernels
# --------------------------------------------------------------------------

def _csr(rows, cols, shape, vals=None) -> sparse.csr_matrix:
    """Sorted CSR of (row, col) cells. Without ``vals`` it is binary, so a
    repeated cell holds 1.0; with them a repeated cell holds their sum."""
    data = np.ones(len(rows)) if vals is None else vals
    mat = sparse.csr_matrix((data, (rows, cols)), shape=shape)
    mat.sum_duplicates()
    if vals is None:
        mat.data[:] = 1.0
    return mat


def _row_max_normalised(mat: sparse.csr_matrix) -> sparse.csr_matrix:
    """Divide each stored value by its row's maximum, in place.

    A true division, not a product with the reciprocal, so each value is
    exactly count / peak.
    """
    mat.data /= np.repeat(mat.max(axis=1).toarray().ravel(), np.diff(mat.indptr))
    return mat


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

@dataclass
class InteractionMatrix:
    """Binary user x article matrix of one-class feedback.

    Stored pairs carry preference 1; every other cell is an unobserved 0.
    """

    matrix: sparse.csr_matrix  # data entries are all 1.0

    @property
    def n_users(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_articles(self) -> int:
        return self.matrix.shape[1]

    @property
    def n_pairs(self) -> int:
        return self.matrix.nnz

    def user_items(self, i: int) -> np.ndarray:
        """Article indices in user i's library, ascending."""
        start, stop = self.matrix.indptr[i], self.matrix.indptr[i + 1]
        return self.matrix.indices[start:stop].astype(np.int64)

    def item_counts(self) -> np.ndarray:
        """Per-article interaction count over all users."""
        return np.bincount(self.matrix.indices, minlength=self.n_articles).astype(np.int64)

    @classmethod
    def from_pairs(cls, users, articles, n_users: int, n_articles: int) -> "InteractionMatrix":
        for what, ids, limit in (("user", users, n_users), ("article", articles, n_articles)):
            ids = np.asarray(ids, dtype=np.int64)
            if ids.size and (ids.min() < 0 or ids.max() >= limit):
                raise BoundsError(f"{what} index out of range")
        return cls(_csr(users, articles, (n_users, n_articles)))

    def save(self, path):
        storage.write_interactions(path, self.matrix)

    @classmethod
    def load(cls, path) -> "InteractionMatrix":
        return cls(storage.read_interactions(path))


@dataclass
class ContentMatrix:
    """Article x vocabulary matrix of max-normalized bag-of-words values."""

    matrix: sparse.csr_matrix

    def __post_init__(self):
        data = self.matrix.data
        if data.size and (data.min() <= 0.0 or data.max() > 1.0):
            raise DataError("content values must lie in (0, 1]")

    @property
    def n_articles(self) -> int:
        return self.matrix.shape[0]

    @property
    def vocab_size(self) -> int:
        return self.matrix.shape[1]

    def save(self, path):
        storage.write_content(path, self.matrix)

    @classmethod
    def load(cls, path) -> "ContentMatrix":
        return cls(storage.read_content(path))


@dataclass
class TagMatrix:
    """Binary article x tag matrix after citation propagation."""

    matrix: sparse.csr_matrix

    @property
    def n_articles(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_tags(self) -> int:
        return self.matrix.shape[1]

    def save(self, path):
        storage.write_tags(path, self.matrix)

    @classmethod
    def load(cls, path) -> "TagMatrix":
        return cls(storage.read_tags(path))


@dataclass
class Vocabulary:
    """Selected tokens, ordered by descending TF-IDF score, ties ascending."""

    tokens: list
    doc_freq: np.ndarray
    max_tf: np.ndarray
    scores: np.ndarray

    def __len__(self) -> int:
        return len(self.tokens)

    def save(self, path):
        rows = zip(self.tokens, self.doc_freq.tolist(), self.max_tf.tolist(), self.scores.tolist())
        text = "".join(f"{tok}\t{df}\t{tf}\t{score!r}\n" for tok, df, tf, score in rows)
        Path(path).write_text("token\tdoc_freq\tmax_tf\tscore\n" + text, encoding="utf-8")


# --------------------------------------------------------------------------
# text utilities
# --------------------------------------------------------------------------

def load_stop_words() -> frozenset:
    """The bundled standard English stop-word set."""
    text = resources.files("attnrec.data").joinpath("stopwords.txt").read_text("utf-8")
    return frozenset(text.split())


def tokenize(text: str) -> list:
    """Lowercase and keep maximal alphabetic runs; digits and punctuation split."""
    return re.findall("[a-z]+", text.lower())


def read_raw_docs(path) -> list:
    """One document (title+abstract already concatenated) per line. A byte
    that is not UTF-8 is a ParseError naming the file and line."""
    docs = []
    for line in Path(path).read_bytes().splitlines():  # splits as text mode does
        try:
            docs.append(tokenize(line.decode("utf-8")))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: line {len(docs) + 1}: {exc}") from None
    return docs


# --------------------------------------------------------------------------
# file loaders
# --------------------------------------------------------------------------

def _ints(tokens) -> np.ndarray:
    """Integer tokens as int64, each parsed as by ``int``."""
    return np.fromiter(tokens, dtype=np.int64, count=len(tokens))


def _term_counts(tokens) -> np.ndarray:
    """Mult 'term:count' tokens as [term, count, term, count, ...]."""
    if not set(map(str.count, tokens, repeat(":"))) <= {1}:
        raise ValueError("an entry is not term:count")
    values = _ints(":".join(tokens).split(":") if tokens else [])
    if values[1::2].min(initial=1) <= 0:
        raise ValueError("a term count is not positive")
    return values


def _digit_lines(raw: bytes):
    """``_lines`` of a file of ASCII digits, spaces, tabs and LFs, by numpy
    passes over its bytes; None, for the loop to parse or refuse, when a byte
    is any other, a token passes 18 digits (int64 might overflow) or a line
    is empty or miscounted."""
    if raw.translate(None, b"0123456789 \t\n"):
        return None
    buf = np.frombuffer(raw, np.uint8)
    digit = np.zeros(buf.size + 2, dtype=bool)
    digit[1:-1] = buf >= ord("0")  # the blanks left all lie below "0"
    starts, ends = np.flatnonzero(digit[1:] != digit[:-1]).reshape(-1, 2).T
    if (ends - starts).max(initial=0) > 18:
        return None
    values = np.fromstring(raw, np.int64, sep=" ")
    if values.size != starts.size:  # a file of blanks reads as one 0
        return None
    stops = np.flatnonzero(buf == ord("\n"))
    if raw and not raw.endswith(b"\n"):  # a last line without its LF
        stops = np.append(stops, buf.size)
    sizes = np.diff(np.searchsorted(starts, stops), prepend=0)
    firsts = np.cumsum(sizes) - sizes
    if sizes.min(initial=1) < 1 or np.any(values[firsts] != sizes - 1):
        return None
    values, sizes = np.delete(values, firsts), sizes - 1
    return np.repeat(np.arange(sizes.size), sizes), values, sizes.tolist()


def _lines(path, parse=_ints) -> tuple:
    """The ids of a file whose line i+1 lists the ids of row i: the row of
    each token, ``parse`` of all tokens, and the token count of each line.

    A line opens with the number of tokens that follow, so it may not be
    empty. Every error, a byte that is not UTF-8 too, is a ParseError naming
    the file and line. ``_digit_lines`` reads most files.
    """
    raw = Path(path).read_bytes()
    if parse is _ints and (found := _digit_lines(raw)):
        return found
    sizes, tokens = [], []
    for line in raw.splitlines():  # splits as text mode does
        try:
            parts = line.decode("utf-8").split()
            if not parts:
                raise ValueError("empty line")
            declared, parts = int(parts[0]), parts[1:]
            if declared != len(parts):
                raise ValueError(f"declared {declared} ids but found {len(parts)}")
        except ValueError as exc:  # UnicodeDecodeError is one
            raise ParseError(f"{path}: line {len(sizes) + 1}: {exc}") from None
        tokens += parts
        sizes.append(len(parts))
    try:
        values = parse(tokens)
    except (ValueError, OverflowError):  # parse again line by line to name the line
        ends = np.cumsum(sizes)
        for lineno, (start, end) in enumerate(zip(ends - sizes, ends), start=1):
            try:
                parse(tokens[start:end])
            except (ValueError, OverflowError) as exc:
                raise ParseError(f"{path}: line {lineno}: {exc}") from None
    return np.repeat(np.arange(len(sizes)), sizes), values, sizes


def _bound(path, rows, ids, limit, what) -> int:
    """``limit``, or max id + 1 when it is None, capped at the largest count
    a cache's u32 header holds. A negative id, or one at or past ``limit``,
    is a BoundsError naming the file and the line (row + 1) holding it."""
    if limit is None:
        limit = min(int(ids.max()) + 1, np.iinfo(storage._U32).max) if ids.size else 0
    bad = np.flatnonzero((ids < 0) | (ids >= limit))
    if bad.size:
        raise BoundsError(f"{path}: line {rows[bad[0]] + 1}: {what} {ids[bad[0]]} "
                          f"out of range for {limit} {what}s")
    return limit


def load_interactions(path, n_articles: int | None = None) -> InteractionMatrix:
    """Read a users file: line i holds 'count article_id ...' for user i.

    When ``n_articles`` is omitted it is inferred as max article id + 1.
    """
    users, articles, sizes = _lines(path)
    if not sizes:
        raise DataError(f"{path}: no users")
    n_articles = _bound(path, users, articles, n_articles, "article")
    return InteractionMatrix.from_pairs(users, articles, len(sizes), n_articles)


def load_mult_content(path, vocab_size: int | None = None) -> ContentMatrix:
    """Read a mult-format content file: 'num_terms term_id:count ...' per line.

    Counts are max-normalized per row into (0, 1].
    """
    articles, values, sizes = _lines(path, _term_counts)
    if not sizes:
        raise DataError(f"{path}: no articles")
    terms, counts = values.reshape(-1, 2).T
    vocab_size = _bound(path, articles, terms, vocab_size, "term")
    return ContentMatrix(_row_max_normalised(
        _csr(articles, terms, (len(sizes), vocab_size), counts.astype(np.float64))))


def load_tag_assignments(path, n_articles: int | None = None) -> np.ndarray:
    """Read an item-tag file, line i holding 'count tag_id ...' for article i,
    into an (n, 2) array of (article, tag) rows. Given ``n_articles``, a
    tagged line past the last article is a BoundsError.
    """
    articles, tags, _ = _lines(path)
    _bound(path, articles, articles, n_articles, "article")
    _bound(path, articles, tags, None, "tag")
    return np.stack((articles, tags), axis=1)


def load_citations(path, n_articles: int | None = None) -> np.ndarray:
    """Read a citations file, line i holding 'count cited_id ...' for citing
    article i, into an (n, 2) array of (citing, cited) rows. Given
    ``n_articles``, an edge naming an article past the last is a BoundsError.
    """
    lines, ids, _ = _lines(path)
    _bound(path, lines, ids, n_articles, "article")
    _bound(path, lines, lines, n_articles, "article")
    return np.stack((lines, ids), axis=1)


# --------------------------------------------------------------------------
# matrix builders
# --------------------------------------------------------------------------

def select_vocabulary(raw_docs: list, stop_words, top_n: int) -> Vocabulary:
    """Pick the top_n tokens by TF-IDF after stop-word removal.

    Score is (max per-document count) * ln(n_docs / doc_freq); ties break
    lexicographically. If fewer than top_n distinct tokens survive, all are
    returned with a warning.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    n_docs = len(raw_docs)
    doc_freq = Counter()
    max_tf = Counter()
    for doc in raw_docs:
        counts = Counter(tok for tok in doc if tok not in stop_words)
        doc_freq.update(counts.keys())
        for tok, count in counts.items():
            if count > max_tf[tok]:
                max_tf[tok] = count
    if not doc_freq:
        raise DataError("no candidate tokens after stop-word removal")
    scored = [(max_tf[tok] * math.log(n_docs / doc_freq[tok]), tok) for tok in doc_freq]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    if len(scored) < top_n:
        warnings.warn(
            f"requested {top_n} vocabulary tokens but only {len(scored)} are available"
        )
    chosen = scored[:top_n]
    tokens = [tok for _, tok in chosen]
    return Vocabulary(
        tokens=tokens,
        doc_freq=np.array([doc_freq[t] for t in tokens], dtype=np.int64),
        max_tf=np.array([max_tf[t] for t in tokens], dtype=np.int64),
        scores=np.array([s for s, _ in chosen], dtype=np.float64),
    )


def build_bow(raw_docs: list, vocab: Vocabulary) -> ContentMatrix:
    """Count vocabulary tokens per document and divide each row by its max.

    Out-of-vocabulary tokens are dropped; documents with no vocabulary tokens
    become zero rows.
    """
    if len(vocab) == 0:
        raise ValueError("vocabulary is empty")
    index = {tok: i for i, tok in enumerate(vocab.tokens)}
    rows = [[index[tok] for tok in doc if tok in index] for doc in raw_docs]
    docs = np.repeat(np.arange(len(rows)), list(map(len, rows)))
    cols = np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=docs.size)
    return ContentMatrix(_row_max_normalised(
        _csr(docs, cols, (len(raw_docs), len(vocab)), np.ones(cols.size))))


def build_tag_matrix(assignments: list, citations: list, min_articles_per_tag: int,
                     n_articles: int | None = None,
                     n_tags: int | None = None) -> TagMatrix:
    """Filter rare tags, then propagate tags one hop along citation edges.

    Tags assigned to fewer than ``min_articles_per_tag`` distinct articles
    (and tags no article carries) are dropped before propagation. Each
    citation (x, y) unions the pre-propagation tag row of y into the row of
    x; propagation is not transitive.
    """
    pairs = np.asarray(assignments, dtype=np.int64).reshape(-1, 2)
    edges = np.asarray(citations, dtype=np.int64).reshape(-1, 2)
    if n_articles is None:
        n_articles = int(max(pairs[:, 0].max(initial=-1), edges.max(initial=-1))) + 1
    if n_tags is None:
        n_tags = int(pairs[:, 1].max(initial=-1)) + 1
    for what, cells, limits in (("tag assignment", pairs, (n_articles, n_tags)),
                                ("citation", edges, (n_articles, n_articles))):
        bad = cells[((cells < 0) | (cells >= limits)).any(axis=1)]
        if bad.size:
            raise BoundsError(f"{what} ({bad[0, 0]}, {bad[0, 1]}) out of range")

    base = _csr(pairs[:, 0], pairs[:, 1], (n_articles, n_tags))
    base = base[:, np.bincount(base.indices, minlength=n_tags) >= max(min_articles_per_tag, 1)]
    cites = _csr(edges[:, 0], edges[:, 1], (n_articles, n_articles))
    return TagMatrix(_csr(*(base + cites @ base).nonzero(), base.shape))
