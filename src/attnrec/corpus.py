"""Ingest CiteULike-style data files into the three model inputs.

Produces the user-article interaction matrix, the normalized bag-of-words
content matrix over a TF-IDF-selected vocabulary, and the binary tag matrix
with one-hop citation propagation.
"""

from __future__ import annotations

import math
import re
import warnings
from collections import namedtuple
from dataclasses import dataclass
from importlib import resources
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


# Per token its document (line) and word id; the sorted words, by id; the document count.
Tokens = namedtuple("Tokens", "docs ids words n_docs")


@dataclass
class Vocabulary:
    """Selected tokens, ordered by descending TF-IDF score, ties ascending."""

    tokens: list
    doc_freq: np.ndarray
    max_tf: np.ndarray
    scores: np.ndarray

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


def read_raw_docs(path) -> Tokens:
    """The tokens (maximal a-z runs once Unicode-lowercased) of one document per line,
    lines split as text mode splits them; a non-UTF-8 byte is a ParseError naming the line."""
    lines = Path(path).read_bytes().splitlines()
    try:
        text = "\n".join([line.decode("utf-8") for line in lines])
    except UnicodeDecodeError as exc:  # the first line equal to the bad one is the bad one
        raise ParseError(f"{path}: line {lines.index(exc.object) + 1}: {exc}") from None
    # '?' for each character that is not ASCII; the padding ends every run
    buf = np.frombuffer(text.lower().encode("ascii", "replace") + bytes(8), np.uint8)
    edges = np.flatnonzero(np.diff((buf >= 97) & (buf <= 122), prepend=False))
    starts, sizes = edges[::2], edges[1::2] - edges[::2]
    # Words are told apart by fixed-width keys, so memory stays within the token bytes: up to
    # 8 letters the bytes zero-padded as a big-endian u64, past that one S{size} key per size.
    short, long = np.flatnonzero(sizes <= 8), np.flatnonzero(sizes > 8)
    eight = np.ndarray((buf.size - 7,), ">u8", buf, strides=(1,))  # the 8 bytes at each offset
    shift = (64 - 8 * sizes[short]).astype(np.uint64)
    groups = [(short, eight[starts[short]].astype(np.uint64) >> shift << shift)]
    long = long[np.argsort(sizes[long], kind="stable")]
    lengths, firsts = np.unique(sizes[long], return_index=True)
    groups += [(group, buf[starts[group, None] + np.arange(size)].view(f"S{size}"))
               for size, group in zip(lengths.tolist(), np.split(long, firsts[1:]))]
    ids, words = np.empty(sizes.size, dtype=np.int64), []
    for group, keys in groups:
        uniq, inverse = np.unique(keys.ravel(), return_inverse=True)
        ids[group] = len(words) + inverse.ravel()
        uniq = uniq.astype(">u8").view("S8") if uniq.dtype == np.uint64 else uniq
        words += [word.decode("ascii") for word in uniq.tolist()]
    rank = np.argsort(np.array(words, dtype=object))
    ends = np.searchsorted(starts, np.flatnonzero(buf == 10))  # the tokens before each break
    docs = np.repeat(np.arange(ends.size + 1), np.diff(ends, prepend=0, append=starts.size))
    return Tokens(docs, np.argsort(rank)[ids], [words[i] for i in rank], len(lines))


# --------------------------------------------------------------------------
# file loaders
# --------------------------------------------------------------------------

_TOKEN = re.compile(rb"[^ \t\r\n]+")


def _lines(path, pairs=False) -> tuple:
    """The ids of a file whose line i+1 lists the ids of row i: the row of
    each id, the ids, and the id count of each line. With ``pairs`` an id is
    a 'term:count' entry with a positive count, read as two values.

    A line opens with the number of ids that follow, so it may not be empty.
    A number is ASCII digits after an optional '-', 18 characters at most so
    that int64 holds it; numbers part at spaces and tabs, and lines end at
    LF, CRLF or CR, as text mode ends them. Any other input is a ParseError
    naming the file, the first bad line, and its token. One numpy pass over
    the bytes reads the file; line numbers are worked out only on error.
    """
    raw = Path(path).read_bytes()
    buf = np.frombuffer(raw + b" ", np.uint8)  # buf[-1], also read before byte 0, is blank
    stops = np.flatnonzero((buf == 10) | (buf == 13))
    stops = stops[(buf[stops] == 10) | (buf[stops + 1] != 10)]  # a CRLF ends at its LF
    if raw[-1:] not in (b"", b"\n", b"\r"):  # a last line without its break
        stops = np.append(stops, len(raw))
    num = np.zeros(buf.size + 1, dtype=bool)  # num[i + 1]: byte i is a digit or '-'
    num[1:] = (buf >= 45) & (buf != 58)  # exact on lines of allowed bytes; others fail
    starts, ends = np.flatnonzero(num[1:] != num[:-1]).reshape(-1, 2).T  # the numbers
    sizes = np.diff(np.searchsorted(starts, stops), prepend=0)  # numbers per line
    firsts = np.cumsum(sizes) - sizes
    digit = lambda at: (buf[at] >= 48) & (buf[at] <= 57)  # are the bytes at ``at`` digits

    # (where, message) of each fault; the first is reported, on a tie the first listed.
    minus = np.flatnonzero(buf == 45)
    odd = raw.translate(None, b"0123456789- \t\r\n" + b":" * pairs)
    faults = [([raw.index(odd[:1])] if odd else [], "invalid literal {}"),
              (minus[num[minus] | ~digit(minus + 1)], "invalid literal {}"),
              (starts[ends - starts > 18], "number too large in {}: over 18 characters"),
              (stops[sizes == 0], "empty line")]
    if pairs:  # each entry is one colon between two numbers, each count positive
        colons = np.flatnonzero(buf == 58)
        counts, terms = buf[starts - 1] == 58, buf[ends] == 58  # numbers after, before one
        unpaired = counts == terms  # neither or both, or a line's count before a colon
        heads = firsts[sizes > 0]
        unpaired[heads] = terms[heads]
        faults += [(colons[~digit(colons - 1) | ~num[colons + 2]], "invalid literal {}"),
                   (starts[unpaired], "an entry is not term:count: {}")]
    faults = [(np.min(where), message) for where, message in faults if len(where)]

    # Values are read from the lines before the first fault, which may hold an earlier one.
    clean = int(np.searchsorted(stops, min(faults)[0])) if faults else stops.size
    n = sizes[:clean].sum()
    text = raw[:stops[clean - 1] + 1 if clean else 0]
    values = np.fromstring(text.replace(b":", b" ") if pairs else text, np.int64, sep=" ")
    sizes, firsts = sizes[:clean], firsts[:clean]
    found = (sizes - 1) // (1 + pairs)
    if (wrong := np.flatnonzero(values[firsts] != found)).size:
        i = firsts[wrong[0]]
        faults.append((starts[i], f"declared {values[i]} ids but found {found[wrong[0]]}"))
    if pairs and (low := starts[:n][counts[:n] & (values <= 0)]).size:
        faults.append((low[0], "a term count is not positive: {}"))
    if faults:
        pos, message = min(faults, key=lambda fault: fault[0])
        line = int(np.searchsorted(stops, pos))
        begin = stops[line - 1] + 1 if line else 0
        token = next((m.group() for m in _TOKEN.finditer(raw, begin) if m.end() > pos), b"")
        raise ParseError(f"{path}: line {line + 1}: " + message.format(repr(token)))
    return np.repeat(np.arange(sizes.size), found), np.delete(values, firsts), found.tolist()


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
    articles, values, sizes = _lines(path, pairs=True)
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

def select_vocabulary(tokens: Tokens, stop_words, top_n: int) -> Vocabulary:
    """Pick the top_n words by TF-IDF after stop-word removal.

    Score is (max per-document count) * ln(n_docs / doc_freq); ties break
    lexicographically. If fewer than top_n distinct words survive, all are
    returned with a warning.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    kept = ~np.array([word in stop_words for word in tokens.words], dtype=bool)[tokens.ids]
    # one cell per (word, document), word-major; tf is the word's count there
    cells, tf = np.unique(tokens.ids[kept] * tokens.n_docs + tokens.docs[kept], return_counts=True)
    word = cells // max(tokens.n_docs, 1)
    firsts = np.flatnonzero(np.diff(word, prepend=-1))
    if not firsts.size:
        raise DataError("no candidate tokens after stop-word removal")
    doc_freq, max_tf = np.diff(firsts, append=word.size), np.maximum.reduceat(tf, firsts)
    freqs, inverse = np.unique(doc_freq, return_inverse=True)  # math.log, as np.log may round
    scores = max_tf * np.array([math.log(tokens.n_docs / f) for f in freqs.tolist()])[inverse]
    if firsts.size < top_n:
        warnings.warn(f"requested {top_n} vocabulary tokens but only {firsts.size} are available")
    chosen = np.argsort(-scores, kind="stable")[:top_n]  # words ascend, so ties do too
    return Vocabulary([tokens.words[i] for i in word[firsts][chosen].tolist()],
                      doc_freq[chosen], max_tf[chosen], scores[chosen])


def build_bow(tokens: Tokens, vocab: Vocabulary) -> ContentMatrix:
    """Count vocabulary words per document and divide each row by its max.

    Out-of-vocabulary words are dropped; documents with no vocabulary words
    become zero rows.
    """
    if not vocab.tokens:
        raise ValueError("vocabulary is empty")
    index = {tok: i for i, tok in enumerate(vocab.tokens)}
    cols = np.array([index.get(word, -1) for word in tokens.words], dtype=np.int64)[tokens.ids]
    kept = cols >= 0
    return ContentMatrix(_row_max_normalised(_csr(
        tokens.docs[kept], cols[kept], (tokens.n_docs, len(vocab.tokens)), np.ones(kept.sum()))))


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
