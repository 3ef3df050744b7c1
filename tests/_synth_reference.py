"""Reference synthetic generator, for byte-identity tests.

It is ``attnrec.synth.generate`` as it was when every document token was
drawn through ``rng.choice`` on a list of words and each token list was
shuffled as a list. The tests require the id-based generator to give the
same fields and files from the same config.
"""

import numpy as np

from attnrec.synth import SynthConfig, SynthData, _word


def generate(config: SynthConfig) -> SynthData:
    config.validate()
    rng = np.random.default_rng(config.seed)
    c = config.n_clusters

    wpc = config.words_per_cluster
    all_cluster_words = [_word("zw", i) for i in range(c * wpc)]
    cluster_words = [all_cluster_words[k * wpc:(k + 1) * wpc] for k in range(c)]
    shared_pool = [_word("zs", w) for w in range(config.shared_words)]

    article_cluster = np.arange(config.n_articles) % c
    rng.shuffle(article_cluster)
    cluster_members = [np.flatnonzero(article_cluster == k) for k in range(c)]

    docs = []
    for j in range(config.n_articles):
        pool = cluster_words[article_cluster[j]]
        n_cluster_tokens = int(round(config.doc_length * config.cluster_token_fraction))
        tokens = list(rng.choice(pool, size=n_cluster_tokens))
        tokens += list(rng.choice(shared_pool, size=config.doc_length - n_cluster_tokens))
        rng.shuffle(tokens)
        docs.append(" ".join(tokens))

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

