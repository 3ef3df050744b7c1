"""Per-row reference implementations of the corpus builders.

These are the loop versions that ``attnrec.corpus`` replaced with numpy
kernels: a tag builder that filters and propagates through Python sets
article by article, a row-max normalisation over one ``Counter`` per row,
a line parser that splits each decoded line and reads its tokens with
``int``, and a text path that decodes and tokenizes each line with a regex
and scores the vocabulary over one ``Counter`` per document. The tests
require the numpy code to give exactly the same results on valid input.
"""

import math
import re
from collections import Counter
from pathlib import Path

import numpy as np
from scipy import sparse

from attnrec.errors import ParseError


def build_tag_matrix(assignments, citations, min_articles_per_tag, n_articles, n_tags):
    articles_per_tag = {}
    for article, tag in set(assignments):
        articles_per_tag.setdefault(tag, set()).add(article)

    kept = sorted(tag for tag, members in articles_per_tag.items()
                  if len(members) >= min_articles_per_tag)
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
    return mat


def row_max_normalised(rows, n_cols):
    """CSR of per-row ``(col, count)`` lists: the counts of each column are
    summed, then divided by the row's largest sum."""
    data_rows, cols, vals = [], [], []
    for row, cells in enumerate(rows):
        counts = Counter()
        for col, count in cells:
            counts[col] += count
        if not counts:
            continue
        peak = max(counts.values())
        for col, count in counts.items():
            data_rows.append(row)
            cols.append(col)
            vals.append(count / peak)
    mat = sparse.csr_matrix(
        (np.array(vals, dtype=np.float64),
         (np.array(data_rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(len(rows), n_cols),
    )
    mat.sort_indices()
    return mat


def lines(path, pairs=False):
    """The rows, values and per-line id counts of a counted id file, or with
    ``pairs`` of a mult file, read line by line as text mode splits it."""
    sizes, values = [], []
    for line in Path(path).read_bytes().splitlines():
        parts = line.decode("utf-8").split()
        if not parts or int(parts[0]) != len(parts) - 1:
            raise ValueError(f"line {len(sizes) + 1} is empty or miscounted")
        for part in parts[1:]:
            fields = part.split(":")
            if len(fields) != 1 + pairs or (pairs and int(fields[1]) <= 0):
                raise ValueError(f"line {len(sizes) + 1}: {part!r}")
            values.extend(map(int, fields))
        sizes.append(len(parts) - 1)
    return np.repeat(np.arange(len(sizes)), sizes), np.array(values, dtype=np.int64), sizes


def tokenize(text: str) -> list:
    """Lowercase and keep maximal a-z runs; digits and punctuation split."""
    return re.findall("[a-z]+", text.lower())


def read_raw_docs(path) -> list:
    """One token list per line, each line decoded alone as UTF-8; lines split
    as text mode splits them."""
    docs = []
    for line in Path(path).read_bytes().splitlines():
        try:
            docs.append(tokenize(line.decode("utf-8")))
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: line {len(docs) + 1}: {exc}") from None
    return docs


def select_vocabulary(docs, stop_words, top_n):
    """(tokens, doc_freq, max_tf, scores) of the top_n tokens by
    max_tf * ln(n_docs / doc_freq), ties in token order; None without any
    candidate token."""
    doc_freq, max_tf = Counter(), Counter()
    for doc in docs:
        counts = Counter(tok for tok in doc if tok not in stop_words)
        doc_freq.update(counts.keys())
        for tok, count in counts.items():
            max_tf[tok] = max(max_tf[tok], count)
    if not doc_freq:
        return None
    scored = sorted(((max_tf[tok] * math.log(len(docs) / doc_freq[tok]), tok)
                     for tok in doc_freq), key=lambda pair: (-pair[0], pair[1]))[:top_n]
    tokens = [tok for _, tok in scored]
    return (tokens, [doc_freq[t] for t in tokens], [max_tf[t] for t in tokens],
            [score for score, _ in scored])


def build_bow(docs, tokens):
    """Max-normalised counts of ``tokens`` per document."""
    index = {tok: i for i, tok in enumerate(tokens)}
    return row_max_normalised([[(index[tok], 1) for tok in doc if tok in index]
                               for doc in docs], len(tokens))
