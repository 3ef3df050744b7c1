"""Per-user reference implementations of the evaluation kernels.

These are the loop versions that ``attnrec.evaluation`` replaced with
block-vectorised kernels: one split built user by user, one full stable
argsort per ranked list, and set-based metrics. The tests require the
vectorised code to give exactly the same matrices, lists and reports.
"""

import numpy as np

from attnrec.corpus import InteractionMatrix
from attnrec.evaluation import MetricReport


def make_split(r, p, rng):
    train_u, train_a, test_u, test_a = [], [], [], []
    for i in range(r.n_users):
        items = r.user_items(i)
        if items.size <= p:
            train_u.extend([i] * items.size)
            train_a.extend(items)
            continue
        keep = rng.choice(items, size=p, replace=False)
        keep_set = set(int(x) for x in keep)
        train_u.extend([i] * p)
        train_a.extend(sorted(keep_set))
        held = [int(x) for x in items if int(x) not in keep_set]
        test_u.extend([i] * len(held))
        test_a.extend(held)
    train = InteractionMatrix.from_pairs(train_u, train_a, r.n_users, r.n_articles)
    test = InteractionMatrix.from_pairs(test_u, test_a, r.n_users, r.n_articles)
    return train, test


def top_k(scores, k, exclude=None):
    s = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-s, kind="stable")
    if exclude is not None:
        keep = np.ones(s.shape[0], dtype=bool)
        keep[np.asarray(exclude, dtype=np.intp)] = False
        order = order[keep[order]]
    return order[:k]


def recall_at_k(recommended, test_items, k):
    test = set(int(x) for x in test_items)
    hits = sum(1 for x in recommended[:k] if int(x) in test)
    return hits / len(test)


def ndcg_at_k(recommended, test_items, k):
    test = set(int(x) for x in test_items)
    dcg = 0.0
    for i, article in enumerate(recommended[:k], start=1):
        if int(article) in test:
            dcg += 1.0 / np.log2(i + 1)
    ideal = sum(1.0 / np.log2(i + 1) for i in range(1, min(len(test), k) + 1))
    return dcg / ideal


def evaluate(score_row, r_train, r_test, ks, *, variant="", setting="", split=0):
    """``score_row(i)`` returns the dense article scores of user i."""
    ks = sorted(int(k) for k in ks)
    recall_sums = {k: 0.0 for k in ks}
    ndcg_sums = {k: 0.0 for k in ks}
    n_scored = 0
    for i in range(r_test.n_users):
        held = r_test.user_items(i)
        if held.size == 0:
            continue
        recommended = top_k(score_row(i), ks[-1], exclude=r_train.user_items(i))
        n_scored += 1
        for k in ks:
            recall_sums[k] += recall_at_k(recommended, held, k)
            ndcg_sums[k] += ndcg_at_k(recommended, held, k)
    return [MetricReport(variant, setting, split, k, recall_sums[k] / n_scored,
                         ndcg_sums[k] / n_scored, n_scored) for k in ks]
