"""Synthetic corpus with planted clusters, for offline end-to-end checks.

Articles are grouped into clusters. Each cluster owns a private word pool
and a private tag pool; a document draws most tokens from its cluster pool
and the rest from a shared pool, tags come from the cluster pool, and
citations stay within the cluster. Users prefer one cluster (occasionally
two) and sample their library from it with a popularity skew, so both a
popularity baseline and a content-aware model have signal to find, but the
content signal is much stronger.

Output files use the CiteULike text conventions the preprocessor expects:
    users.dat      per user: count followed by article ids
    docs.txt       one document per line
    tags.dat       per article: count followed by tag ids
    citations.dat  per article: count followed by the ids it cites
    truth.json     planted assignments, for diagnostics only
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError


@dataclass
class SynthConfig:
    n_users: int = 500
    n_articles: int = 800
    n_clusters: int = 8
    words_per_cluster: int = 25
    shared_words: int = 40
    doc_length: int = 80
    cluster_token_fraction: float = 0.85
    tags_per_cluster: int = 5
    min_tags_per_article: int = 2
    max_tags_per_article: int = 4
    citations_per_article: int = 2
    min_library: int = 10
    max_library: int = 20
    two_cluster_fraction: float = 0.2
    popularity_exponent: float = 0.8
    seed: int = 0

    def validate(self):
        if self.n_clusters < 1 or self.n_articles < self.n_clusters:
            raise ConfigError("need at least one article per cluster")
        if not 2 <= self.min_library <= self.max_library:
            raise ConfigError("library bounds must satisfy 2 <= min <= max")
        cluster_size = self.n_articles // self.n_clusters
        if self.max_library > cluster_size:
            raise ConfigError("max library exceeds cluster size")
        if not 0.0 <= self.cluster_token_fraction <= 1.0:
            raise ConfigError("cluster token fraction must lie in [0, 1]")
        shared = round(self.doc_length * self.cluster_token_fraction) < self.doc_length
        for name, least in (("n_users", 1), ("doc_length", 1), ("words_per_cluster", 1),
                            ("tags_per_cluster", 1), ("shared_words", int(shared)),
                            ("min_tags_per_article", 1), ("citations_per_article", 0)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if self.min_tags_per_article > self.max_tags_per_article:
            raise ConfigError("min_tags_per_article must not exceed max_tags_per_article")


@dataclass
class SynthData:
    libraries: list        # per user: sorted article ids
    docs: list             # per article: raw text
    tags: list             # per article: sorted tag ids
    citations: list        # (citing, cited) pairs
    article_cluster: np.ndarray
    user_clusters: list    # per user: list of preferred cluster ids
    config: SynthConfig


def _word(prefix: str, i: int) -> str:
    """Alphabetic-only token; survives lowercase letter-run tokenization."""
    letters = []
    i += 1
    while i:
        i, rem = divmod(i - 1, 26)
        letters.append(chr(ord("a") + rem))
    return prefix + "".join(reversed(letters))


def generate(config: SynthConfig) -> SynthData:
    config.validate()
    rng = np.random.default_rng(config.seed)
    c = config.n_clusters

    # Cluster k's words are ids k*wpc ... k*wpc + wpc - 1; the shared pool follows.
    wpc = config.words_per_cluster
    words = np.array([_word("zw", i) for i in range(c * wpc)]
                     + [_word("zs", w) for w in range(config.shared_words)], dtype=object)

    article_cluster = np.arange(config.n_articles) % c
    rng.shuffle(article_cluster)
    cluster_members = [np.flatnonzero(article_cluster == k) for k in range(c)]

    # Draws and swaps on word ids match rng.choice and rng.shuffle on word lists.
    docs = []
    n_cluster_tokens = int(round(config.doc_length * config.cluster_token_fraction))
    for j in range(config.n_articles):
        ids = np.concatenate((
            wpc * article_cluster[j] + rng.integers(0, wpc, size=n_cluster_tokens),
            c * wpc + rng.integers(0, config.shared_words,
                                   size=config.doc_length - n_cluster_tokens)))
        rng.shuffle(ids)
        docs.append(" ".join(words[ids]))

    tags = []
    for j in range(config.n_articles):
        base = config.tags_per_cluster * int(article_cluster[j])
        n_tags = int(rng.integers(config.min_tags_per_article,
                                  config.max_tags_per_article + 1))
        n_tags = min(n_tags, config.tags_per_cluster)
        chosen = rng.choice(config.tags_per_cluster, size=n_tags, replace=False)
        tags.append(sorted(base + int(t) for t in chosen))

    citations = []
    for j in range(config.n_articles):
        peers = cluster_members[article_cluster[j]]
        peers = peers[peers != j]
        n_cites = min(config.citations_per_article, peers.size)
        for cited in rng.choice(peers, size=n_cites, replace=False):
            citations.append((j, int(cited)))

    # Within-cluster popularity skew: weight 1/(rank+1)^q over a fixed
    # random order, so some articles are globally popular and POP is a
    # meaningful baseline.
    cluster_weights = []
    for k in range(c):
        order = rng.permutation(cluster_members[k].size)
        w = 1.0 / (order + 1.0) ** config.popularity_exponent
        cluster_weights.append(w / w.sum())

    libraries, user_clusters = [], []
    for _ in range(config.n_users):
        if c > 1 and rng.random() < config.two_cluster_fraction:
            prefs = sorted(int(x) for x in rng.choice(c, size=2, replace=False))
        else:
            prefs = [int(rng.integers(c))]
        size = int(rng.integers(config.min_library, config.max_library + 1))
        per = [size - size // 2, size // 2] if len(prefs) == 2 else [size]
        lib = []
        for k, quota in zip(prefs, per):
            lib.extend(int(x) for x in rng.choice(
                cluster_members[k], size=quota, replace=False, p=cluster_weights[k]))
        libraries.append(sorted(set(lib)))
        user_clusters.append(prefs)

    return SynthData(libraries, docs, tags, citations, article_cluster,
                     user_clusters, config)


def _counted(rows):
    """One 'count id id ...' line per row."""
    return (" ".join(map(str, [len(row), *row])) for row in rows)


def write_dataset(data: SynthData, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    cited = [[] for _ in data.tags]
    for citing, target in data.citations:
        cited[citing].append(target)
    files = {"users.dat": _counted(data.libraries), "docs.txt": data.docs,
             "tags.dat": _counted(data.tags), "citations.dat": _counted(cited)}
    for name, lines in files.items():
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.writelines(line + "\n" for line in lines)
    truth = {
        "article_cluster": [int(x) for x in data.article_cluster],
        "user_clusters": data.user_clusters,
        "config": asdict(data.config),
    }
    with open(os.path.join(out_dir, "truth.json"), "w") as fh:
        json.dump(truth, fh, indent=2, sort_keys=True)
        fh.write("\n")
