"""Ingest CiteULike-style data files into the three model inputs.

Produces the user-article interaction matrix, the normalized bag-of-words
content matrix over a TF-IDF-selected vocabulary, and the binary tag matrix
with one-hop citation propagation.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np
from scipy import sparse

from . import storage
from .errors import BoundsError, DataError, ParseError


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
        users = np.asarray(users, dtype=np.int64)
        articles = np.asarray(articles, dtype=np.int64)
        if users.size and (users.min() < 0 or users.max() >= n_users):
            raise BoundsError("user index out of range")
        if articles.size and (articles.min() < 0 or articles.max() >= n_articles):
            raise BoundsError("article index out of range")
        mat = sparse.csr_matrix(
            (np.ones(users.size), (users, articles)), shape=(n_users, n_articles)
        )
        mat.sum_duplicates()
        mat.data[:] = 1.0  # duplicates collapse back to binary preference
        mat.sort_indices()
        return cls(mat)

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
    _index: dict = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.tokens)

    def index(self) -> dict:
        if self._index is None:
            self._index = {tok: i for i, tok in enumerate(self.tokens)}
        return self._index

    def save(self, path):
        lines = ["token\tdoc_freq\tmax_tf\tscore"]
        for i, tok in enumerate(self.tokens):
            lines.append(
                f"{tok}\t{int(self.doc_freq[i])}\t{int(self.max_tf[i])}\t{float(self.scores[i])!r}"
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        tokens, dfs, tfs, scores = [], [], [], []
        for line in lines[1:]:
            tok, df, tf, score = line.split("\t")
            tokens.append(tok)
            dfs.append(int(df))
            tfs.append(int(tf))
            scores.append(float(score))
        return cls(tokens, np.array(dfs, dtype=np.int64),
                   np.array(tfs, dtype=np.int64), np.array(scores, dtype=np.float64))


# --------------------------------------------------------------------------
# text utilities
# --------------------------------------------------------------------------

def load_stop_words(path=None) -> frozenset:
    """Stop-word set; defaults to the bundled standard English list."""
    if path is None:
        text = resources.files("attnrec.data").joinpath("stopwords.txt").read_text("utf-8")
    else:
        text = Path(path).read_text(encoding="utf-8")
    return frozenset(w for w in text.split() if w)


def tokenize(text: str) -> list:
    """Lowercase and keep maximal alphabetic runs; digits and punctuation split."""
    tokens = []
    word = []
    for ch in text.lower():
        if "a" <= ch <= "z":
            word.append(ch)
        elif word:
            tokens.append("".join(word))
            word = []
    if word:
        tokens.append("".join(word))
    return tokens


def read_raw_docs(path) -> list:
    """One document (title+abstract already concatenated) per line."""
    docs = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            docs.append(tokenize(line))
    return docs


# --------------------------------------------------------------------------
# file loaders
# --------------------------------------------------------------------------

def _parse_counted_line(parts, lineno: int, path) -> list:
    """Parse 'count id id ...' and validate the declared count."""
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise ParseError(f"{path}: line {lineno}: non-integer token") from None
    count, ids = values[0], values[1:]
    if count != len(ids):
        raise ParseError(
            f"{path}: line {lineno}: declared {count} ids but found {len(ids)}"
        )
    if any(i < 0 for i in ids):
        raise ParseError(f"{path}: line {lineno}: negative index")
    return ids


def load_interactions(path, n_articles: int | None = None) -> InteractionMatrix:
    """Read a users file: line i holds 'count article_id ...' for user i.

    When ``n_articles`` is omitted it is inferred as max article id + 1.
    """
    users, articles = [], []
    n_lines = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                raise ParseError(f"{path}: line {lineno}: empty line")
            ids = _parse_counted_line(parts, lineno, path)
            n_lines += 1
            for article in ids:
                users.append(lineno - 1)
                articles.append(article)
    if n_lines == 0:
        raise DataError(f"{path}: no users")
    articles_arr = np.array(articles, dtype=np.int64)
    if n_articles is None:
        n_articles = int(articles_arr.max()) + 1 if articles_arr.size else 0
    elif articles_arr.size and articles_arr.max() >= n_articles:
        raise BoundsError(
            f"{path}: article index {int(articles_arr.max())} >= declared count {n_articles}"
        )
    return InteractionMatrix.from_pairs(
        np.array(users, dtype=np.int64), articles_arr, n_lines, n_articles
    )


def load_mult_content(path, vocab_size: int | None = None) -> ContentMatrix:
    """Read a mult-format content file: 'num_terms term_id:count ...' per line.

    Counts are max-normalized per row into (0, 1].
    """
    rows, cols, vals = [], [], []
    n_rows = 0
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if not parts:
                raise ParseError(f"{path}: line {lineno}: empty line")
            try:
                declared = int(parts[0])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: bad term count") from None
            entries = parts[1:]
            if declared != len(entries):
                raise ParseError(
                    f"{path}: line {lineno}: declared {declared} terms but found {len(entries)}"
                )
            counts = {}
            for entry in entries:
                try:
                    term, count = entry.split(":")
                    term, count = int(term), int(count)
                except ValueError:
                    raise ParseError(
                        f"{path}: line {lineno}: bad term:count entry {entry!r}"
                    ) from None
                if term < 0 or count <= 0:
                    raise ParseError(f"{path}: line {lineno}: bad entry {entry!r}")
                counts[term] = counts.get(term, 0) + count
            if counts:
                peak = max(counts.values())
                for term, count in counts.items():
                    rows.append(lineno - 1)
                    cols.append(term)
                    vals.append(count / peak)
            n_rows = lineno
    if n_rows == 0:
        raise DataError(f"{path}: no articles")
    cols_arr = np.array(cols, dtype=np.int64)
    if vocab_size is None:
        vocab_size = int(cols_arr.max()) + 1 if cols_arr.size else 0
    elif cols_arr.size and cols_arr.max() >= vocab_size:
        raise BoundsError(
            f"{path}: term index {int(cols_arr.max())} >= declared vocab size {vocab_size}"
        )
    mat = sparse.csr_matrix(
        (np.array(vals, dtype=np.float64), (np.array(rows, dtype=np.int64), cols_arr)),
        shape=(n_rows, vocab_size),
    )
    mat.sort_indices()
    return ContentMatrix(mat)


def load_tag_assignments(path, counted: bool = False) -> list:
    """Read a tags file (line i = article i's tag ids) into (article, tag) pairs.

    ``counted=True`` reads the 'count tag tag ...' variant used by the
    CiteULike item-tag files.
    """
    pairs = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if counted:
                if not parts:
                    raise ParseError(f"{path}: line {lineno}: empty line")
                ids = _parse_counted_line(parts, lineno, path)
            else:
                try:
                    ids = [int(p) for p in parts]
                except ValueError:
                    raise ParseError(f"{path}: line {lineno}: non-integer tag id") from None
                if any(i < 0 for i in ids):
                    raise ParseError(f"{path}: line {lineno}: negative tag id")
            for tag in ids:
                pairs.append((lineno - 1, tag))
    return pairs


def load_citations(path, fmt: str = "pairs") -> list:
    """Read citation edges as (citing, cited) pairs.

    ``fmt='pairs'`` expects one 'citing cited' pair per line; ``fmt='adjacency'``
    expects line i to hold 'count cited_id ...' for citing article i.
    """
    if fmt not in ("pairs", "adjacency"):
        raise ValueError(f"unknown citations format {fmt!r}")
    edges = []
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            parts = line.split()
            if fmt == "adjacency":
                if not parts:
                    raise ParseError(f"{path}: line {lineno}: empty line")
                for cited in _parse_counted_line(parts, lineno, path):
                    edges.append((lineno - 1, cited))
                continue
            if not parts:
                continue
            if len(parts) != 2:
                raise ParseError(
                    f"{path}: line {lineno}: expected 'citing cited', got {len(parts)} tokens"
                )
            try:
                citing, cited = int(parts[0]), int(parts[1])
            except ValueError:
                raise ParseError(f"{path}: line {lineno}: non-integer article id") from None
            if citing < 0 or cited < 0:
                raise ParseError(f"{path}: line {lineno}: negative article id")
            edges.append((citing, cited))
    return edges


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
        for tok, count in counts.items():
            doc_freq[tok] += 1
            if count > max_tf[tok]:
                max_tf[tok] = count
    candidates = sorted(doc_freq)
    if not candidates:
        raise DataError("no candidate tokens after stop-word removal")
    scored = [
        (max_tf[tok] * math.log(n_docs / doc_freq[tok]), tok) for tok in candidates
    ]
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
    index = vocab.index()
    rows, cols, vals = [], [], []
    for doc_id, doc in enumerate(raw_docs):
        counts = Counter(index[tok] for tok in doc if tok in index)
        if not counts:
            continue
        peak = max(counts.values())
        for col, count in counts.items():
            rows.append(doc_id)
            cols.append(col)
            vals.append(count / peak)
    mat = sparse.csr_matrix(
        (np.array(vals, dtype=np.float64),
         (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(len(raw_docs), len(vocab)),
    )
    mat.sort_indices()
    return ContentMatrix(mat)


def build_tag_matrix(assignments: list, citations: list, min_articles_per_tag: int,
                     n_articles: int | None = None,
                     n_tags: int | None = None) -> TagMatrix:
    """Filter rare tags, then propagate tags one hop along citation edges.

    Tags assigned to fewer than ``min_articles_per_tag`` distinct articles are
    dropped before propagation. Each citation (x, y) unions the
    pre-propagation tag row of y into the row of x; propagation is not
    transitive.
    """
    if n_articles is None:
        ids = [a for a, _ in assignments] + [i for edge in citations for i in edge]
        n_articles = max(ids) + 1 if ids else 0
    if n_tags is None:
        n_tags = max((t for _, t in assignments), default=-1) + 1

    articles_per_tag = {}
    for article, tag in set(assignments):
        if article < 0 or article >= n_articles:
            raise BoundsError(f"article index {article} out of range")
        if tag < 0 or tag >= n_tags:
            raise BoundsError(f"tag index {tag} out of range")
        articles_per_tag.setdefault(tag, set()).add(article)

    kept = sorted(
        tag for tag, members in articles_per_tag.items()
        if len(members) >= min_articles_per_tag
    )
    remap = {tag: col for col, tag in enumerate(kept)}

    base_rows = [set() for _ in range(n_articles)]
    for tag, members in articles_per_tag.items():
        col = remap.get(tag)
        if col is None:
            continue
        for article in members:
            base_rows[article].add(col)

    final_rows = [set(row) for row in base_rows]
    for citing, cited in citations:
        if not (0 <= citing < n_articles and 0 <= cited < n_articles):
            raise BoundsError(f"citation ({citing}, {cited}) references unknown article")
        final_rows[citing] |= base_rows[cited]

    rows, cols = [], []
    for article, tags in enumerate(final_rows):
        for col in sorted(tags):
            rows.append(article)
            cols.append(col)
    mat = sparse.csr_matrix(
        (np.ones(len(rows), dtype=np.float64),
         (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(n_articles, len(kept)),
    )
    mat.sort_indices()
    return TagMatrix(mat)
