"""Ranking evaluation: train/test splits, top-k selection, recall and nDCG.

A split keeps P randomly chosen articles per user for training and holds the
rest out for testing. Users owning P articles or fewer keep everything in
training and are skipped when metrics are averaged, since they have nothing
to rank. Ties in scores always break toward the lower article id so results
are reproducible across runs and platforms.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass

import numpy as np

from .corpus import InteractionMatrix
from .errors import ConfigError

DEFAULT_KS = (50, 100, 150, 200, 250, 300)


def make_split(r: InteractionMatrix, p: int, rng: np.random.Generator):
    """One (train, test) pair keeping p articles per user in train."""
    if p < 1:
        raise ConfigError(f"split size must be >= 1, got {p}")
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


def make_splits(r: InteractionMatrix, p: int, seed: int, n_repeats: int = 4) -> list:
    """Independent splits; index 0 is conventionally used for validation."""
    return [make_split(r, p, np.random.default_rng([seed, i])) for i in range(n_repeats)]


def top_k(scores: np.ndarray, k: int, exclude=None) -> np.ndarray:
    """Indices of the k largest scores, ties toward the lower index.

    Indices listed in ``exclude`` are removed from the candidate pool
    entirely, so they can never appear in the result.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    s = np.asarray(scores, dtype=np.float64)
    order = np.argsort(-s, kind="stable")
    if exclude is not None:
        keep = np.ones(s.shape[0], dtype=bool)
        keep[np.asarray(exclude, dtype=np.intp)] = False
        order = order[keep[order]]
    return order[:k]


def recall_at_k(recommended, test_items, k: int) -> float:
    """Fraction of the held-out set found in the first k recommendations."""
    test = set(int(x) for x in test_items)
    if not test:
        raise ConfigError("recall undefined for an empty test set")
    hits = sum(1 for x in recommended[:k] if int(x) in test)
    return hits / len(test)


def ndcg_at_k(recommended, test_items, k: int) -> float:
    """Positional gain against the best achievable ordering.

    Gain at rank i (1-based) is 1/log2(i + 1) when the article is held out.
    The ideal ordering packs all min(|test|, k) hits at the top.
    """
    test = set(int(x) for x in test_items)
    if not test:
        raise ConfigError("nDCG undefined for an empty test set")
    dcg = 0.0
    for i, article in enumerate(recommended[:k], start=1):
        if int(article) in test:
            dcg += 1.0 / np.log2(i + 1)
    ideal = sum(1.0 / np.log2(i + 1) for i in range(1, min(len(test), k) + 1))
    return dcg / ideal


@dataclass
class MetricReport:
    """One averaged measurement: a variant/setting/split/cutoff cell."""

    variant: str
    setting: str
    split: int
    k: int
    recall: float
    ndcg: float
    n_users: int


def evaluate(score_fn, r_train: InteractionMatrix, r_test: InteractionMatrix,
             ks=DEFAULT_KS, *, variant: str = "", setting: str = "",
             split: int = 0) -> list:
    """Average recall and nDCG over users with a nonempty test set.

    ``score_fn(i)`` returns dense article scores for user i. Training
    articles are excluded from every recommendation list.
    """
    ks = sorted(int(k) for k in ks)
    max_k = ks[-1]
    recall_sums = {k: 0.0 for k in ks}
    ndcg_sums = {k: 0.0 for k in ks}
    n_scored = 0
    for i in range(r_test.n_users):
        held = r_test.user_items(i)
        if held.size == 0:
            continue
        scores = score_fn(i)
        recommended = top_k(scores, max_k, exclude=r_train.user_items(i))
        n_scored += 1
        for k in ks:
            recall_sums[k] += recall_at_k(recommended, held, k)
            ndcg_sums[k] += ndcg_at_k(recommended, held, k)
    if n_scored == 0:
        raise ConfigError("no user has held-out articles to evaluate")
    return [
        MetricReport(variant, setting, split, k,
                     recall_sums[k] / n_scored, ndcg_sums[k] / n_scored, n_scored)
        for k in ks
    ]


def average_reports(reports: list) -> list:
    """Collapse splits: mean recall/ndcg per (variant, setting, k), split = -1."""
    groups = {}
    for rep in reports:
        groups.setdefault((rep.variant, rep.setting, rep.k), []).append(rep)
    out = []
    for (variant, setting, k), reps in sorted(groups.items()):
        out.append(MetricReport(
            variant, setting, -1, k,
            float(np.mean([r.recall for r in reps])),
            float(np.mean([r.ndcg for r in reps])),
            min(r.n_users for r in reps),
        ))
    return out


def improvement_pct(ours: float, baseline: float) -> float:
    """Relative gain of ours over baseline, in percent."""
    if baseline <= 0:
        raise ConfigError("baseline metric must be positive to compare")
    return (ours - baseline) / baseline * 100.0


def reports_to_csv(reports: list, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "setting", "split", "k", "recall", "ndcg", "n_users"])
        for rep in reports:
            writer.writerow([rep.variant, rep.setting, rep.split, rep.k,
                             f"{rep.recall:.10f}", f"{rep.ndcg:.10f}", rep.n_users])


def reports_to_json(reports: list, path):
    with open(path, "w") as fh:
        json.dump([asdict(rep) for rep in reports], fh, indent=2, sort_keys=True)
        fh.write("\n")
