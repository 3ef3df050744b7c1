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
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from types import SimpleNamespace

import numpy as np
from scipy import sparse

from . import blas
from .corpus import InteractionMatrix
from .errors import ConfigError, NumericalError

BLOCK_SCORES = 1 << 18  # values per block of users: 2 MB of f64, about 4 MB per worker


def make_split(r: InteractionMatrix, p: int, rng: np.random.Generator):
    """One (train, test) pair keeping p articles per user in train, both cut
    from r's sorted CSR rows. A user with n > p articles draws ``rng.choice(n,
    p, replace=False)``. At p = 1 that is one bounded draw in [0, n) (Floyd's
    algorithm, nothing to shuffle), so one ``rng.integers`` call replays them
    all. At p > 1 choice shuffles its picks by rejection sampling, which takes
    a varying number of words per user, so each user keeps its own call."""
    if p < 1:
        raise ConfigError(f"split size must be >= 1, got {p}")
    indptr, counts = r.matrix.indptr, np.diff(r.matrix.indptr)
    keep = np.repeat(counts <= p, counts)  # over CSR positions; small libraries stay whole
    big = np.flatnonzero(counts > p)
    if p == 1:
        keep[indptr[big] + rng.integers(0, counts[big])] = True
    else:
        for i in big:
            keep[indptr[i] + rng.choice(counts[i], size=p, replace=False)] = True
    return tuple(InteractionMatrix(sparse.csr_matrix(
        (np.ones(mask.sum()), r.matrix.indices[mask], np.append(0, np.cumsum(mask))[indptr]),
        shape=r.matrix.shape)) for mask in (keep, ~keep))


def _pack(rows, ids, n_rows: int, width: int) -> np.ndarray:
    """(n_rows, width) block of ``ids``, grouped by ascending ``rows`` and in
    rank order within a row; -1 past a row's last id."""
    out = np.full((n_rows, width), -1, dtype=np.int64)
    out[np.arange(width) < np.bincount(rows, minlength=n_rows)[:, None]] = ids
    return out


def top_k(scores, k: int, exclude=None, *, order=None) -> np.ndarray:
    """Indices of the k largest scores, ties toward the lower index.

    Excluded indices leave the candidate pool entirely, so a list holds
    min(k, candidates) ids. One score row with a sequence of ids to exclude
    gives one list. A CSR ``exclude`` (its ``indptr`` and ``indices``) with
    n rows, with an (n, m) score block or one (m,) row shared by all n, gives
    an (n, min(k, m)) block whose rows are padded with -1 past their
    candidates. A shared row's stable descending argsort may come as
    ``order``.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    s = np.asarray(scores, dtype=np.float64)
    if np.isnan(s).any():
        raise NumericalError("scores to rank must not be NaN")
    if not hasattr(exclude, "indptr"):
        ids = np.asarray([] if exclude is None else exclude, dtype=np.intp)
        picks = _rank(s[None, :], k, np.array([0, ids.size]), ids)[0]
        return picks[picks >= 0]
    return _rank(s, k, exclude.indptr, exclude.indices, order)


def _rank(s, k, indptr, indices, order=None) -> np.ndarray:
    """The block form of top_k, with the exclusions as CSR arrays."""
    n_rows, m = indptr.size - 1, s.shape[-1]
    kk = min(k, m)
    if kk == 0:  # no article to rank
        return np.empty((n_rows, 0), dtype=np.int64)
    ex_rows = np.repeat(np.arange(n_rows), np.diff(indptr))
    if s.ndim == 1:
        # One shared row: rank it once. No row loses more of its head than
        # it excludes, so the head holds every row's first kk candidates.
        order = np.argsort(-s, kind="stable") if order is None else order
        head = order[:kk + int(np.diff(indptr).max(initial=0))]
        at = np.full(m, head.size)  # each article's head column; a spare one past it
        at[head] = np.arange(head.size)
        take = np.ones((n_rows, head.size + 1), dtype=bool)
        take[ex_rows, at[indices]] = False
        take = take[:, :-1] & (np.cumsum(take[:, :-1], axis=1) <= kk)
        rows, pos = np.nonzero(take)
        return _pack(rows, head[pos], n_rows, kk)
    # Exact either way, but rows of many tied scores partition far faster negated.
    part = np.negative(s)
    part[ex_rows, indices] = np.inf
    part.partition(kk - 1, axis=1)
    kth = -part[:, kk - 1, None]  # the kk-th largest candidate score of each row
    need = kk - np.count_nonzero(part[:, :kk] < part[:, kk - 1, None], axis=1)
    take, tie = s > kth, s == kth
    take[ex_rows, indices] = tie[ex_rows, indices] = False
    straddle = np.flatnonzero(np.count_nonzero(tie, axis=1) > need)  # keep lowest tied ids
    tie[straddle] &= np.cumsum(tie[straddle], axis=1) <= need[straddle, None]
    # Ids ascend within each packed row, so a stable row sort keeps ties
    # toward the lower id; padding sorts last, after any real -inf score.
    picks = _pack(*np.divmod(np.flatnonzero(take | tie), m), n_rows, kk)
    keys = np.where(picks < 0, np.inf, np.negative(s[np.arange(n_rows)[:, None], picks]))
    return np.take_along_axis(picks, np.argsort(keys, axis=1, kind="stable"), axis=1)


def _cut(matrix, rows):
    """CSR ``rows`` of ``matrix`` cut straight from its arrays, as the
    ``indptr``, ``indices`` and ``shape`` that top_k and the metrics read."""
    starts = matrix.indptr[rows]
    counts = matrix.indptr[rows + 1] - starts
    indptr = np.concatenate(([0], np.cumsum(counts)))
    at = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
    return SimpleNamespace(indptr=indptr, indices=matrix.indices[at],
                           shape=(rows.size, matrix.shape[1]))


def _hits(recommended, test_items, k, metric: str):
    """Hit flags of the first max(k) ranked ids, each row's held-out count and
    the cutoffs as an array; of one list with its held-out ids, or of a block
    of ids padded with -1 with its held-out rows as a CSR matrix."""
    asked = [int(c) for c in np.atleast_1d(k)]
    ranked = np.asarray(recommended, dtype=np.int64)[..., :max(asked)]
    if ranked.ndim == 2:
        held, n_held = np.zeros(test_items.shape, dtype=bool), np.diff(test_items.indptr)
        held[np.repeat(np.arange(n_held.size), n_held), test_items.indices] = True
        found = held[np.arange(ranked.shape[0])[:, None], ranked] & (ranked >= 0)
    else:
        test = np.fromiter({int(x) for x in test_items}, dtype=np.int64)
        found, n_held = np.isin(ranked, test)[None, :], np.array([test.size])
    if np.any(n_held == 0):
        raise ConfigError(f"{metric} undefined for an empty test set")
    cap = max(ranked.shape[-1], int(n_held.max()))  # no value moves past it, so any int fits
    ks = np.array([min(c, cap) for c in asked], dtype=np.int64)
    if found.shape[1] < ks.max():
        found = np.pad(found, ((0, 0), (0, ks.max() - found.shape[1])))
    return found, n_held, ks


def _shaped(out, recommended, k):
    """(rows, cutoffs) values without the axes that an int k or one list lack."""
    out = out if np.ndim(k) else out[:, 0]
    return out if np.ndim(recommended) == 2 else out[0] if np.ndim(k) else float(out[0])


def recall_at_k(recommended, test_items, k):
    """Fraction of the held-out set found in the first k recommendations:
    a float for one list, an array with one value per row for a block.
    A sequence of cutoffs adds a last axis with one value per cutoff, each
    equal to its int-k value; all are read off one hit matrix."""
    hits, n_held, ks = _hits(recommended, test_items, k, "recall")
    return _shaped(np.cumsum(hits, axis=1)[:, ks - 1] / n_held[:, None], recommended, k)


def ndcg_at_k(recommended, test_items, k):
    """Positional gain against the best achievable ordering.

    Gain at rank i (1-based) is 1/log2(i + 1) when the article is held out.
    The ideal ordering packs all min(|test|, k) hits at the top. Gains are
    summed in rank order, as a running total would add them, so a sequence
    of cutoffs reads each off one running total, shaped as in recall_at_k.
    """
    hits, n_held, ks = _hits(recommended, test_items, k, "nDCG")
    gains = 1.0 / np.log2(np.arange(2, ks.max() + 2))
    dcg = np.cumsum(hits * gains, axis=1)[:, ks - 1]
    return _shaped(dcg / np.cumsum(gains)[np.minimum(n_held[:, None], ks) - 1], recommended, k)


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
             ks, *, variant: str = "", setting: str = "", split: int = 0) -> list:
    """Average recall and nDCG over users with a nonempty test set.

    ``score_fn(users)`` takes an index array of users and returns their
    article scores: a (len(users), n_articles) block, or one (n_articles,)
    row, sorted once, when the scores do not depend on the user. Users are
    ranked in blocks of about BLOCK_SCORES values, training articles
    excluded, one run of blocks per thread of min(blocks, CPUs // BLAS threads).
    """
    ks = sorted(int(k) for k in ks)
    users = np.flatnonzero(np.diff(r_test.matrix.indptr))
    if users.size == 0:
        raise ConfigError("no user has held-out articles to evaluate")
    # a user takes n_articles scores and about four K-wide arrays to rank
    step = max(1, BLOCK_SCORES // (r_test.n_articles + 4 * min(ks[-1], r_test.n_articles)))
    probe = score_fn(users[:1])  # a shared row is sorted once, before the blocks start
    order = np.argsort(-np.asarray(probe, float), kind="stable") if np.ndim(probe) == 1 else None

    def rank(part):  # one loop per run of blocks, so scores outlive the next block's GEMM
        out = []
        for start in range(0, part.size, step):
            block = part[start:start + step]
            scores = score_fn(block)
            ranked = top_k(scores, ks[-1], exclude=_cut(r_train.matrix, block), order=order)
            held = _cut(r_test.matrix, block)
            out.append(np.stack([recall_at_k(ranked, held, ks), ndcg_at_k(ranked, held, ks)], 1))
        return np.concatenate(out)

    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(-(-users.size // step), cpus // (blas.threads() or cpus))  # unread: 1
    if workers > 1:
        edges = -(-np.arange(1, workers) * users.size // (workers * step)) * step  # block edges
        with ThreadPoolExecutor(workers) as pool:
            values = np.concatenate(list(pool.map(rank, np.split(users, edges))))
    else:
        values = rank(users)
    sums = np.cumsum(values, axis=0)[-1] / users.size  # summed in user order
    return [MetricReport(variant, setting, split, k, float(sums[0, j]),
                         float(sums[1, j]), int(users.size))
            for j, k in enumerate(ks)]


def average_reports(reports: list) -> list:
    """Collapse splits: mean recall/ndcg per (variant, setting, k), split = -1."""
    groups = {}
    for rep in reports:
        groups.setdefault((rep.variant, rep.setting, rep.k), []).append(rep)
    return [MetricReport(variant, setting, -1, k, float(np.mean([r.recall for r in reps])),
                         float(np.mean([r.ndcg for r in reps])), min(r.n_users for r in reps))
            for (variant, setting, k), reps in sorted(groups.items())]


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
