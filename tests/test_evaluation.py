import csv
import io
import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

import _eval_reference as ref
from attnrec import blas, cf, cli, storage
from attnrec import evaluation as ev
from attnrec.corpus import InteractionMatrix
from attnrec.errors import ConfigError, NumericalError


def _library_matrix(libraries, n_articles):
    users = [i for i, lib in enumerate(libraries) for _ in lib]
    articles = [a for lib in libraries for a in lib]
    return InteractionMatrix.from_pairs(users, articles, len(libraries), n_articles)


def test_make_split_partitions_each_library():
    rng = np.random.default_rng(0)
    libraries = [sorted(rng.choice(30, size=rng.integers(2, 12), replace=False).tolist())
                 for _ in range(15)]
    r = _library_matrix(libraries, 30)
    train, test = ev.make_split(r, 3, np.random.default_rng(1))
    for i, lib in enumerate(libraries):
        tr = set(train.user_items(i).tolist())
        te = set(test.user_items(i).tolist())
        assert tr | te == set(lib)
        assert tr & te == set()
        if len(lib) > 3:
            assert len(tr) == 3
        else:
            assert tr == set(lib) and not te


def test_make_split_eleven_articles_p_ten():
    r = _library_matrix([list(range(11))], 11)
    train, test = ev.make_split(r, 10, np.random.default_rng(2))
    assert train.user_items(0).size == 10
    assert test.user_items(0).size == 1


def test_make_split_deterministic_per_seed():
    libraries = [[0, 1, 2, 3, 4], [2, 3, 4, 5, 6, 7]]
    r = _library_matrix(libraries, 8)
    a_train, a_test = ev.make_split(r, 2, np.random.default_rng(7))
    b_train, b_test = ev.make_split(r, 2, np.random.default_rng(7))
    assert np.array_equal(a_train.matrix.toarray(), b_train.matrix.toarray())
    assert np.array_equal(a_test.matrix.toarray(), b_test.matrix.toarray())


def test_cli_splits_vary_by_index_and_repeat_per_seed():
    rng = np.random.default_rng(3)
    libraries = [sorted(rng.choice(40, size=10, replace=False).tolist())
                 for _ in range(10)]
    r = _library_matrix(libraries, 40)
    config = cli.load_config(None, {"p": 1, "seed": 5})
    splits = [cli._split(config, r, index) for index in range(4)]
    first = splits[0][0].matrix.toarray()
    assert any(not np.array_equal(first, s[0].matrix.toarray()) for s in splits[1:])
    again = cli._split(config, r, 2)
    assert np.array_equal(splits[2][1].matrix.toarray(), again[1].matrix.toarray())


def test_top_k_ordering_and_exclusion():
    scores = np.array([0.1, 0.9, 0.5])
    assert ev.top_k(scores, 2).tolist() == [1, 2]
    assert ev.top_k(scores, 2, exclude=[1]).tolist() == [2, 0]
    assert ev.top_k(np.zeros(3), 3).tolist() == [0, 1, 2]
    # k beyond the candidate pool returns everything available
    assert ev.top_k(scores, 10, exclude=[0]).tolist() == [1, 2]


@pytest.mark.parametrize("k", [0, -2])
def test_top_k_rejects_k_below_one(k):
    with pytest.raises(ConfigError, match="k must be >= 1"):
        ev.top_k(np.array([0.1, 0.9, 0.5]), k)


def test_top_k_over_no_article_is_empty():
    # A list, a block and a shared row each keep their shape with no column.
    assert ev.top_k(np.array([]), 3).tolist() == []
    exclude = sparse.csr_matrix((2, 0))
    assert ev.top_k(np.empty((2, 0)), 3, exclude=exclude).shape == (2, 0)
    assert ev.top_k(np.array([]), 3, exclude=exclude).shape == (2, 0)


def test_recall_hand_values():
    assert ev.recall_at_k([5, 7, 9], {7, 11}, 3) == 0.5
    assert ev.recall_at_k([1, 2], {1, 2}, 2) == 1.0
    assert ev.recall_at_k([3, 4], {5}, 2) == 0.0
    with pytest.raises(ConfigError):
        ev.recall_at_k([1], set(), 1)


def test_ndcg_hand_values():
    # relevance [1, 0, 1] with two held-out articles
    got = ev.ndcg_at_k([0, 1, 2], {0, 2}, 3)
    expected = (1.0 + 0.5) / (1.0 + 1.0 / math.log2(3.0))
    assert abs(got - expected) < 1e-12
    assert abs(got - 0.9197207891481876) < 1e-12
    assert ev.ndcg_at_k([4, 5], {4, 5}, 2) == 1.0
    assert ev.ndcg_at_k([4, 5], {6}, 2) == 0.0


def test_evaluate_two_user_hand_oracle():
    r_train = _library_matrix([[0], [1], [0, 1, 2, 3]], 4)
    r_test = _library_matrix([[1, 2], [0], []], 4)
    score_rows = {0: np.array([9.0, 5.0, 7.0, 1.0]),
                  1: np.array([1.0, 8.0, 2.0, 4.0])}

    def score_fn(users):
        assert all(int(i) in score_rows for i in users), \
            "users without test items must be skipped"
        return np.stack([score_rows[int(i)] for i in users])

    reports = ev.evaluate(score_fn, r_train, r_test, ks=[2, 3],
                          variant="toy", setting="P=1", split=1)
    by_k = {rep.k: rep for rep in reports}
    assert by_k[2].n_users == 2
    # user 0 ranks [2, 1, 3] after excluding its training article; user 1
    # ranks [3, 2, 0]; hand-evaluated recall and gain follow
    assert by_k[2].recall == pytest.approx(0.5)
    assert by_k[2].ndcg == pytest.approx(0.5)
    assert by_k[3].recall == pytest.approx(1.0)
    assert by_k[3].ndcg == pytest.approx(0.75)
    assert by_k[2].variant == "toy" and by_k[2].split == 1


def test_evaluate_all_articles_gives_full_recall():
    rng = np.random.default_rng(4)
    libraries = [sorted(rng.choice(20, size=8, replace=False).tolist())
                 for _ in range(6)]
    r = _library_matrix(libraries, 20)
    train, test = ev.make_split(r, 2, np.random.default_rng(0))
    scores = rng.normal(size=20)
    reports = ev.evaluate(lambda i: scores, train, test, ks=[20])
    assert reports[0].recall == pytest.approx(1.0)


def test_recall_monotone_in_k():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(5, 30))
        ranked = rng.permutation(n).tolist()
        test_set = set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        values = [ev.recall_at_k(ranked, test_set, k) for k in range(1, n + 1)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(0.0 <= v <= 1.0 for v in values)
        assert values[-1] == pytest.approx(1.0)


def test_metrics_stay_in_unit_interval():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        ranked = rng.permutation(n).tolist()
        test_set = set(rng.choice(n, size=int(rng.integers(1, n)), replace=False).tolist())
        k = int(rng.integers(1, n + 1))
        assert 0.0 <= ev.recall_at_k(ranked, test_set, k) <= 1.0
        assert 0.0 <= ev.ndcg_at_k(ranked, test_set, k) <= 1.0


def test_average_reports():
    reports = [
        ev.MetricReport("cata++", "P=1", 1, 50, 0.4, 0.3, 10),
        ev.MetricReport("cata++", "P=1", 2, 50, 0.6, 0.5, 10),
        ev.MetricReport("cata++", "P=1", 1, 100, 0.7, 0.6, 10),
    ]
    avg = ev.average_reports(reports)
    by_k = {rep.k: rep for rep in avg}
    assert by_k[50].recall == pytest.approx(0.5)
    assert by_k[50].ndcg == pytest.approx(0.4)
    assert by_k[50].split == -1
    assert by_k[100].recall == pytest.approx(0.7)


def test_improvement_pct():
    assert ev.improvement_pct(0.6, 0.5) == pytest.approx(20.0)
    assert ev.improvement_pct(0.4, 0.5) == pytest.approx(-20.0)
    with pytest.raises(ConfigError):
        ev.improvement_pct(0.5, 0.0)


def test_report_writers_roundtrip(tmp_path):
    reports = [ev.MetricReport("wrmf", "P=10", 1, 50, 0.25, 0.125, 7),
               ev.MetricReport("wrmf", "P=10", -1, 50, 0.25, 0.125, 7)]
    csv_path = tmp_path / "reports.csv"
    json_path = tmp_path / "reports.json"
    ev.reports_to_csv(reports, csv_path)
    storage.write_json(json_path, [asdict(rep) for rep in reports])
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["variant"] == "wrmf"
    assert float(rows[0]["recall"]) == 0.25
    assert rows[1]["split"] == "-1"
    data = json.loads(json_path.read_text())
    assert data[0]["ndcg"] == 0.125
    assert data[0]["setting"] == "P=10"
    assert json_path.read_text() == json.dumps(data, indent=2, sort_keys=True) + "\n"


def _same_matrix(a, b):
    return (a.matrix.shape == b.matrix.shape
            and np.array_equal(a.matrix.indptr, b.matrix.indptr)
            and np.array_equal(a.matrix.indices, b.matrix.indices)
            and np.array_equal(a.matrix.data, b.matrix.data))


def _random_matrix(rng, n_users, n_articles, density):
    users, articles = np.nonzero(rng.random((n_users, n_articles)) < density)
    return InteractionMatrix.from_pairs(users, articles, n_users, n_articles)


@pytest.mark.parametrize("p", [1, 2, 5, 10])
def test_make_split_equals_per_user_loop(p):
    rng = np.random.default_rng(p)
    for seed in range(5):
        r = _random_matrix(rng, 40, 60, rng.uniform(0.05, 0.4))
        fast = ev.make_split(r, p, np.random.default_rng([seed, 1]))
        slow = ref.make_split(r, p, np.random.default_rng([seed, 1]))
        assert _same_matrix(fast[0], slow[0]) and _same_matrix(fast[1], slow[1])


def _edge_libraries(p, seed):
    """Libraries of 0, 1, p and p + 1 saves, one of 10,001, where
    ``Generator.choice`` weighs its tail shuffle (population over 10,000),
    and random ones between."""
    rng = np.random.default_rng(seed)
    sizes = [0, 1, p, p + 1, 10_001, 0, p + 1, *rng.integers(0, 3 * p + 3, size=30)]
    return _library_matrix([np.sort(rng.choice(10_050, size=n, replace=False)).tolist()
                            for n in sizes], 10_050)


@pytest.mark.parametrize("p", [1, 2, 10])
def test_make_split_equals_reference_on_edge_libraries(tmp_path, p):
    r = _edge_libraries(p, seed=p)
    fast_rng, slow_rng = np.random.default_rng([p, 3]), np.random.default_rng([p, 3])
    fast, slow = ev.make_split(r, p, fast_rng), ref.make_split(r, p, slow_rng)
    for name, got, want in zip(("train", "test"), fast, slow):
        assert _same_matrix(got, want)
        got.save(tmp_path / f"{name}-fast.bin")
        want.save(tmp_path / f"{name}-slow.bin")
        assert ((tmp_path / f"{name}-fast.bin").read_bytes()
                == (tmp_path / f"{name}-slow.bin").read_bytes())
    # The split consumes exactly as much of the stream as the per-user loop.
    assert fast_rng.integers(2**62) == slow_rng.integers(2**62)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_top_k_equals_stable_argsort_with_exclusion(data):
    m = data.draw(st.integers(1, 30))
    scores = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m)),
                      dtype=np.float64)
    exclude = data.draw(st.lists(st.integers(0, m - 1), max_size=m))
    k = data.draw(st.integers(1, m + 5))
    got = ev.top_k(scores, k, exclude=exclude)
    assert got.tolist() == ref.top_k(scores, k, exclude=exclude).tolist()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_top_k_block_rows_equal_one_row_calls(data):
    n, m = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 20))
    block = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n * m,
                                        max_size=n * m)), dtype=np.float64).reshape(n, m)
    excluded = [sorted(set(data.draw(st.lists(st.integers(0, m - 1), max_size=m))))
                for _ in range(n)]
    exclude = sparse.csr_matrix(
        (np.ones(sum(map(len, excluded))), np.concatenate([[], *excluded]).astype(int),
         np.cumsum([0] + [len(e) for e in excluded])), shape=(n, m))
    k = data.draw(st.integers(1, m + 3))
    for scores in (block, block[0]):       # a block, and one row shared by all
        got = ev.top_k(scores, k, exclude=exclude)
        assert got.shape == (n, min(k, m))
        for i in range(n):
            row = scores if scores.ndim == 1 else scores[i]
            want = ref.top_k(row, k, exclude=excluded[i]).tolist()
            assert got[i].tolist() == want + [-1] * (got.shape[1] - len(want))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_top_k_blocks_of_32_rows_and_more_equal_reference(data):
    # Rows as many as evaluate's blocks hold, of few values, so that ties
    # straddle each row's kth; -inf scores; k past some rows' candidates, so
    # that rows pad; and exclusions unsorted and repeated within a row.
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n, m = data.draw(st.integers(32, 40)), data.draw(st.integers(1, 60))
    k = data.draw(st.integers(1, m + 3))
    values = np.array([-np.inf, -1.0, 0.0, 1.0, 2.0])
    block = rng.choice(values, size=(n, m), p=rng.dirichlet(np.ones(values.size)))
    excluded = [rng.integers(0, m, size=rng.integers(0, m + 3)) for _ in range(n)]
    exclude = SimpleNamespace(indptr=np.cumsum([0] + [e.size for e in excluded]),
                              indices=np.concatenate(excluded))
    for scores in (block, block[0]):       # a block, and one row shared by all
        got = ev.top_k(scores, k, exclude=exclude)
        assert got.shape == (n, min(k, m))
        for i in range(n):
            row = scores if scores.ndim == 1 else scores[i]
            want = ref.top_k(row, k, exclude=excluded[i]).tolist()
            assert got[i].tolist() == want + [-1] * (got.shape[1] - len(want))


def test_top_k_refuses_nan_scores():
    with pytest.raises(NumericalError, match="NaN"):
        ev.top_k(np.array([1.0, np.nan, 0.0]), 2)


def test_block_metrics_equal_single_list_metrics():
    rng = np.random.default_rng(8)
    ranked = np.array([rng.permutation(12)[:7] for _ in range(5)])
    ranked[1, 4:] = -1                       # a row with fewer candidates
    member = rng.random((5, 12)) < 0.3
    member[:, 0] = True
    held = sparse.csr_matrix(member)
    for k in (1, 3, 7, 9):
        recall, ndcg = ev.recall_at_k(ranked, held, k), ev.ndcg_at_k(ranked, held, k)
        for i in range(5):
            ids = ranked[i][ranked[i] >= 0].tolist()
            test = np.flatnonzero(member[i]).tolist()
            assert recall[i] == ref.recall_at_k(ids, test, k) == ev.recall_at_k(ids, test, k)
            assert ndcg[i] == ref.ndcg_at_k(ids, test, k) == ev.ndcg_at_k(ids, test, k)


@pytest.mark.parametrize("block_scores", [1, 50, 1 << 18])
def test_evaluate_equals_per_user_reference(monkeypatch, block_scores):
    monkeypatch.setattr(ev, "BLOCK_SCORES", block_scores)
    monkeypatch.setattr(ev, "MIN_BLOCK", 1)
    rng = np.random.default_rng(9)
    n_users, n_articles = 30, 25
    cells = rng.random((n_users, n_articles))
    # training densities up to 0.9 leave some users fewer candidates than K
    in_train = cells < rng.uniform(0.0, 0.9, size=(n_users, 1))
    in_test = ~in_train & (rng.random((n_users, n_articles)) < 0.4)
    train, test = (InteractionMatrix.from_pairs(*np.nonzero(mask), n_users, n_articles)
                   for mask in (in_train, in_test))
    tied = rng.integers(0, 3, size=(n_users, n_articles)).astype(np.float64)
    shared = tied[0]
    for ks in ([1, 5, 10], [20, 24], [5, 40]):        # 40 > n_articles
        assert (ev.evaluate(lambda users: tied[users], train, test, ks)
                == ref.evaluate(lambda i: tied[i], train, test, ks))
        assert (ev.evaluate(lambda users: shared, train, test, ks)
                == ref.evaluate(lambda i: shared, train, test, ks))


@pytest.mark.parametrize("ks", [[1, 3, 7], [2, 25], [5, 40]])   # 40 > 25 articles
def test_cutoff_sequence_equals_each_int_cutoff(ks):
    rng = np.random.default_rng(len(ks) + ks[-1])
    n, m = 6, 25
    ranked = np.array([rng.permutation(m) for _ in range(n)])
    ranked[2, 10:] = -1                      # rows with fewer candidates
    ranked[4, 1:] = -1
    member = rng.random((n, m)) < 0.3
    member[:, 3] = True
    held = sparse.csr_matrix(member)
    recall, ndcg = ev.recall_at_k(ranked, held, ks), ev.ndcg_at_k(ranked, held, ks)
    assert recall.shape == ndcg.shape == (n, len(ks))
    for j, k in enumerate(ks):
        assert (recall[:, j] == ev.recall_at_k(ranked, held, k)).all()
        assert (ndcg[:, j] == ev.ndcg_at_k(ranked, held, k)).all()
    for i in range(n):
        ids, test = ranked[i][ranked[i] >= 0], np.flatnonzero(member[i])
        one_recall, one_ndcg = ev.recall_at_k(ids, test, ks), ev.ndcg_at_k(ids, test, ks)
        assert one_recall.shape == one_ndcg.shape == (len(ks),)
        for j, k in enumerate(ks):
            r, g = ev.recall_at_k(ids, test, k), ev.ndcg_at_k(ids, test, k)
            assert type(r) is float and type(g) is float
            assert one_recall[j] == r == recall[i, j] == ref.recall_at_k(ids, test, k)
            assert one_ndcg[j] == g == ndcg[i, j] == ref.ndcg_at_k(ids, test, k)


def test_a_cutoff_past_int64_reads_as_the_whole_ranking():
    # No value moves once k passes the ranked width and every held-out count,
    # which here exceeds the width, so a k too large for an int64 gives the
    # whole ranking's values in list and block form, alone or in a sequence.
    rng = np.random.default_rng(12)
    n, m, huge = 5, 12, 10**30
    ranked = np.array([rng.permutation(m) for _ in range(n)])
    ranked[1, 4:] = -1
    member = rng.random((n, 3 * m)) < 0.5
    member[:, 0] = True
    held = sparse.csr_matrix(member)
    recall, ndcg = ev.recall_at_k(ranked, held, [3, huge]), ev.ndcg_at_k(ranked, held, [3, huge])
    assert (recall[:, 1] == ev.recall_at_k(ranked, held, huge)).all()
    assert (ndcg[:, 1] == ev.ndcg_at_k(ranked, held, huge)).all()
    for i in range(n):
        ids, test = ranked[i][ranked[i] >= 0], np.flatnonzero(member[i])
        assert len(test) > m
        r, g = ev.recall_at_k(ids, test, huge), ev.ndcg_at_k(ids, test, huge)
        assert r == recall[i, 1] == ref.recall_at_k(ids.tolist(), test, huge)
        assert g == ndcg[i, 1] == ref.ndcg_at_k(ids.tolist(), test, huge)
        assert ev.recall_at_k(ids, test, [3, huge]).tolist() == recall[i].tolist()
        assert ev.ndcg_at_k(ids, test, [3, huge]).tolist() == ndcg[i].tolist()


# (k, articles scored above the tie block): the block of 24 tied scores out of
# 40 lies wholly above the k-th position, straddles it, or lies below it; the
# last case asks for more than any row's candidates.
@pytest.mark.parametrize("k, n_above", [(30, 0), (12, 4), (20, 10), (4, 10), (45, 3)])
def test_top_k_on_rows_mostly_of_one_tied_score(k, n_above):
    rng = np.random.default_rng([k, n_above])
    n, m, n_tied = 8, 40, 24
    block = np.empty((n, m))
    excluded = []
    for i in range(n):
        cols = rng.permutation(m)
        tied, rest = cols[:n_tied], cols[n_tied:]
        block[i, tied] = rng.choice([0.0, -0.0], size=n_tied)   # -0.0 == 0.0 ties too
        block[i, rest[:n_above]] = rng.permutation(np.arange(1.0, n_above + 1))
        block[i, rest[n_above:]] = -rng.permutation(np.arange(1.0, m - n_tied - n_above + 1))
        # exclusions inside the tie block, and a few elsewhere
        excluded.append(np.sort(np.concatenate([rng.choice(tied, size=rng.integers(0, 6),
                                                           replace=False),
                                                rng.choice(rest, size=rng.integers(0, 3),
                                                           replace=False)])))
    exclude = sparse.csr_matrix(
        (np.ones(sum(map(len, excluded))), np.concatenate(excluded).astype(int),
         np.cumsum([0] + [len(e) for e in excluded])), shape=(n, m))
    got = ev.top_k(block, k, exclude=exclude)
    assert got.shape == (n, min(k, m))
    for i in range(n):
        want = ref.top_k(block[i], k, exclude=excluded[i]).tolist()
        assert got[i].tolist() == want + [-1] * (got.shape[1] - len(want))


@pytest.mark.parametrize("block_scores", [1, 300, 1 << 18])
def test_evaluate_wrmf_with_cold_articles_equals_reference(monkeypatch, block_scores):
    # At P = 1 most articles have no training save, so ALS gives them all one
    # shared factor row and each user's scores are mostly one tied value.
    monkeypatch.setattr(ev, "BLOCK_SCORES", block_scores)
    monkeypatch.setattr(ev, "MIN_BLOCK", 1)
    rng = np.random.default_rng(12)
    r = _random_matrix(rng, 30, 80, 0.08)
    train, test = ev.make_split(r, 1, np.random.default_rng(1))
    model = cf.init_model(30, 80, 4, lambda_u=0.1, lambda_v=0.1, seed=2)
    cf.train_als(train, model, np.zeros_like(model.V), max_sweeps=3)
    cold = train.item_counts() == 0
    assert cold.sum() > 40 and np.unique(model.V[cold], axis=0).shape[0] == 1
    scores = cf.predict_scores(model, np.arange(30))
    for ks in ([1, 5, 10], [20, 60], [50, 100]):        # 100 > n_articles
        assert (ev.evaluate(lambda users: scores[users], train, test, ks)
                == ref.evaluate(lambda i: scores[i], train, test, ks))


def test_evaluate_computes_each_metric_once_per_block(monkeypatch):
    monkeypatch.setattr(ev, "BLOCK_SCORES", 200)
    monkeypatch.setattr(ev, "MIN_BLOCK", 1)
    rng = np.random.default_rng(13)
    r = _random_matrix(rng, 30, 25, 0.3)
    train, test = ev.make_split(r, 2, np.random.default_rng(1))
    calls = {"top_k": [], "recall_at_k": [], "ndcg_at_k": []}
    for name, seen in calls.items():
        real = getattr(ev, name)
        monkeypatch.setattr(ev, name, lambda *a, real=real, seen=seen, **kw:
                            seen.append(a[2] if len(a) > 2 else kw) or real(*a, **kw))
    scores = rng.random((30, 25))
    reports = ev.evaluate(lambda users: scores[users], train, test, [10, 5, 20])
    assert [rep.k for rep in reports] == [5, 10, 20]
    blocks = len(calls["top_k"])
    assert blocks > 1
    assert calls["recall_at_k"] == calls["ndcg_at_k"] == [[5, 10, 20]] * blocks


@pytest.mark.parametrize("variant", ["wrmf", "pop"])
def test_evaluate_in_blocks_equals_reference(monkeypatch, variant):
    # Blocks of 7 users over 26 evaluated users: the last block is shorter.
    monkeypatch.setattr(ev, "BLOCK_SCORES", 7 * (80 + 4 * 10))
    monkeypatch.setattr(ev, "MIN_BLOCK", 1)
    rng = np.random.default_rng(14)
    r = _random_matrix(rng, 30, 80, 0.08)
    train, test = ev.make_split(r, 1, np.random.default_rng(2))
    users = np.flatnonzero(np.diff(test.matrix.indptr))
    assert users.size % 7 != 0
    model = cf.init_model(30, 80, 4, lambda_u=0.1, lambda_v=0.1, seed=3)
    cf.train_als(train, model, np.zeros_like(model.V), max_sweeps=2)
    if variant == "wrmf":
        row = lambda i: cf.predict_scores(model, i)  # noqa: E731
    else:
        model, row = None, lambda i: train.item_counts().astype(np.float64)  # noqa: E731
    reference = ref.evaluate(row, train, test, [5, 10])
    sizes, orders, real = [], [], ev.top_k
    monkeypatch.setattr(ev, "top_k", lambda s, k, **kw: sizes.append(kw["exclude"].shape[0])
                        or orders.append(kw["order"]) or real(s, k, **kw))
    assert ev.evaluate(cli._scorer(model, train), train, test, [5, 10]) == reference
    # blocks may be ranked in any order on a pool, so compare the multiset of sizes
    assert Counter(sizes) == Counter([7] * (users.size // 7) + [users.size % 7])
    if variant == "wrmf":
        assert orders == [None] * len(sizes)
    else:  # the shared row is sorted once for every block
        assert orders[0] is not None and all(o is orders[0] for o in orders)


def test_evaluate_reports_equal_across_block_layouts(monkeypatch):
    # A real wrmf scorer over an F-order V, as cmd_evaluate gives it: blocks of
    # the old 14-row rule, of the 32-row floor, and of a height that would
    # leave one user last all report the same bits, and no block holds one user.
    rng = np.random.default_rng(21)
    r = _random_matrix(rng, 90, 150, 0.06)
    train, test = ev.make_split(r, 1, np.random.default_rng(3))
    users = np.flatnonzero(np.diff(test.matrix.indptr))
    model = cf.init_model(90, 150, 6, lambda_u=0.1, lambda_v=0.1, seed=4)
    cf.train_als(train, model, np.zeros_like(model.V), max_sweeps=2)
    model.V = np.asfortranarray(model.V)
    lone = next(h for h in range(2, users.size) if users.size % h == 1)
    sizes, real = [], ev.top_k
    monkeypatch.setattr(ev, "top_k", lambda s, k, **kw: sizes.append(len(s)) or real(s, k, **kw))
    reports = []
    for floor, block_scores in ((1, 14 * (150 + 4 * 20)), (32, 1), (lone, 1)):
        monkeypatch.setattr(ev, "MIN_BLOCK", floor)
        monkeypatch.setattr(ev, "BLOCK_SCORES", block_scores)
        sizes.clear()
        reports.append(ev.evaluate(cli._scorer(model, train), train, test, [5, 20]))
        assert sum(sizes) == users.size and min(sizes) > 1 and len(sizes) > 1
    assert max(sizes) == lone + 1  # the last block, which took in the lone user
    assert reports[0] == reports[1] == reports[2]


def _pool(monkeypatch, cpus, blas_threads=1):
    """Make evaluate see ``cpus`` CPUs and one OpenBLAS of ``blas_threads``
    threads, or none at None, on any host; returns the worker counts of the
    pools it starts."""
    count = [blas_threads]
    monkeypatch.setattr(blas, "_libraries", lambda: [] if blas_threads is None else [
        (lambda: count[0], lambda n: count.__setitem__(0, n))])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    pools = []

    class Pool(ev.ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(ev, "ThreadPoolExecutor", Pool)
    return pools


def _ragged_split():
    """A wrmf model over 30 evaluated users; blocks of 4 leave a last block of 2."""
    r = _random_matrix(np.random.default_rng(14), 30, 80, 0.08)
    train, test = ev.make_split(r, 1, np.random.default_rng(2))
    assert np.count_nonzero(np.diff(test.matrix.indptr)) == 30
    model = cf.init_model(30, 80, 4, lambda_u=0.1, lambda_v=0.1, seed=3)
    cf.train_als(train, model, np.zeros_like(model.V), max_sweeps=2)
    return model, train, test


@pytest.mark.parametrize("variant", ["wrmf", "pop"])
def test_evaluate_on_a_pool_equals_the_serial_run_and_reference(monkeypatch, variant):
    monkeypatch.setattr(ev, "BLOCK_SCORES", 4 * (80 + 4 * 10))  # 8 blocks, the last of 2
    monkeypatch.setattr(ev, "MIN_BLOCK", 1)
    model, train, test = _ragged_split()
    if variant == "pop":
        model = None
    row = (lambda i: train.item_counts().astype(np.float64)) if model is None else \
        (lambda i: cf.predict_scores(model, i))
    reference = ref.evaluate(row, train, test, [5, 10])
    sizes, real = [], ev.top_k
    monkeypatch.setattr(ev, "top_k", lambda s, k, **kw: sizes.append(kw["exclude"].shape[0])
                        or real(s, k, **kw))
    pools = _pool(monkeypatch, cpus=8, blas_threads=None)  # no OpenBLAS to pin: serial
    serial = ev.evaluate(cli._scorer(model, train), train, test, [5, 10])
    assert pools == [] and serial == reference and sizes == [4] * 7 + [2]
    # more workers than this host has cores, switching threads as often as it can
    pools = _pool(monkeypatch, cpus=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            sizes.clear()
            assert ev.evaluate(cli._scorer(model, train), train, test, [5, 10]) == serial
            assert Counter(sizes) == Counter([4] * 7 + [2])  # a serial run's blocks
    finally:
        sys.setswitchinterval(interval)
    assert pools == [8] * 5


def test_worker_count_is_the_blocks_or_cpus_whatever_the_blas_count(monkeypatch):
    monkeypatch.setattr(ev, "BLOCK_SCORES", 4 * (80 + 4 * 10))  # 8 blocks
    monkeypatch.setattr(ev, "MIN_BLOCK", 1)
    model, train, test = _ragged_split()
    for cpus, threads, want in ((2, 1, [2]), (4, 2, [4]), (2, 2, [2]), (1, 1, []),
                                (64, 1, [8]), (2, 4, [2]), (2, None, []), (64, None, [])):
        pools = _pool(monkeypatch, cpus, threads)
        ev.evaluate(cli._scorer(model, train), train, test, [5, 10])
        assert pools == want, (cpus, threads)
        assert [get() for get, _ in blas._libraries()] == ([] if threads is None else [threads])


def test_nan_scores_in_a_worker_block_raise_numerical_error(monkeypatch):
    monkeypatch.setattr(ev, "BLOCK_SCORES", 4 * (80 + 4 * 10))
    monkeypatch.setattr(ev, "MIN_BLOCK", 1)
    model, train, test = _ragged_split()
    pools = _pool(monkeypatch, cpus=4)
    first = np.flatnonzero(np.diff(test.matrix.indptr))[0]
    poisoned = []

    def score_fn(users):
        scores = cf.predict_scores(model, users)
        if first not in users:  # every block but the first, and not the caller's probe
            poisoned.append(threading.get_ident())
            scores[-1, 3] = np.nan
        return scores

    with pytest.raises(NumericalError, match="NaN"):
        ev.evaluate(score_fn, train, test, [5, 10])
    assert pools == [4] and poisoned and threading.get_ident() not in poisoned


def test_blas_thread_reader_falls_back_without_a_mapped_openblas(monkeypatch):
    def no_proc(*args, **kwargs):
        raise FileNotFoundError("/proc/self/maps")

    try:
        for fake in (lambda *a, **kw: io.StringIO("7f00-7f01 r-xp 0 08:01 1 /usr/lib/libc.so.6\n"),
                     no_proc):
            monkeypatch.setattr(blas, "open", fake, raising=False)
            blas._libraries.cache_clear()  # the lookup is made once per process
            assert blas._libraries() == []
            with blas.single_threaded() as pinned:
                assert pinned is False
    finally:  # the next lookup reads the real maps again
        blas._libraries.cache_clear()


@pytest.mark.parametrize("threads", [1, 2])
def test_blas_thread_reader_reads_the_loaded_openblas(threads):
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if threads > cpus:
        pytest.skip(f"OpenBLAS caps its threads at the {cpus} CPUs of this host")
    src = str(Path(ev.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "from attnrec import blas; print([get() for get, _ in blas._libraries()])"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    counts = json.loads(done.stdout)
    assert counts and set(counts) == {threads}


_SCORED_THREADS = """
import json
import numpy as np
from attnrec import blas, cf
from attnrec import evaluation as ev
from attnrec.corpus import InteractionMatrix
users, articles = np.nonzero(np.random.default_rng(14).random((30, 80)) < 0.08)
r = InteractionMatrix.from_pairs(users, articles, 30, 80)
train, test = ev.make_split(r, 1, np.random.default_rng(2))
model = cf.init_model(30, 80, 4, lambda_u=0.1, lambda_v=0.1, seed=3)
ev.BLOCK_SCORES, ev.MIN_BLOCK = 4 * (80 + 4 * 10), 1  # several blocks, so a pool
read, seen = lambda: [get() for get, _ in blas._libraries()], []

def score_fn(block):
    seen.append(read())
    return cf.predict_scores(model, block)

before = read()
ev.evaluate(score_fn, train, test, [5, 10])
print(json.dumps([before, seen, read()]))
"""


def test_evaluate_scores_every_block_at_one_blas_thread():
    src = str(Path(ev.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _SCORED_THREADS], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    before, seen, after = json.loads(done.stdout)
    assert before and len(seen) > 2  # the probe and every block
    assert all(counts == [1] * len(before) for counts in seen) and after == before


@pytest.mark.parametrize("seed", range(4))
def test_top_k_block_and_shared_row_equal_reference_on_extreme_scores(seed):
    # Ties, signed zeros, both infinities and rows with fewer candidates than k:
    # every row of both paths must equal its own full stable argsort.
    rng = np.random.default_rng([20, seed])
    values = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, -0.0, np.inf, -np.inf])
    for _ in range(250):
        n, m, k = int(rng.integers(1, 8)), int(rng.integers(1, 41)), int(rng.integers(1, 50))
        block = rng.choice(values, size=(n, m), p=[0.14] * 5 + [0.1] * 3)
        exclude = sparse.csr_matrix(rng.random((n, m)) < rng.random())
        for scores in (block, block[0]):       # the block path, and one shared row
            got = ev.top_k(scores, k, exclude=exclude)
            assert got.shape == (n, min(k, m))
            for i in range(n):
                row = scores if scores.ndim == 1 else scores[i]
                want = ref.top_k(row, k, exclude=exclude[i].indices).tolist()
                assert got[i].tolist() == want + [-1] * (got.shape[1] - len(want))


@pytest.mark.parametrize("ks", [[2, 4], [3, 9]])   # max(ks) within and past 6 ranked ids
def test_hits_padded_or_not_equal_single_list_metrics(ks):
    rng = np.random.default_rng(ks[-1])
    ranked = np.array([rng.permutation(15)[:6] for _ in range(4)])
    ranked[2, 3:] = -1                       # a row with fewer candidates
    member = rng.random((4, 15)) < 0.4
    member[:, ranked[:, 0]] = True
    held = sparse.csr_matrix(member)
    hits, _, _ = ev._hits(ranked, held, ks, "recall")
    assert hits.shape == (4, ks[-1])      # cut to, or padded out to, max(ks)
    recall, ndcg = ev.recall_at_k(ranked, held, ks), ev.ndcg_at_k(ranked, held, ks)
    for i in range(4):
        ids = ranked[i][ranked[i] >= 0].tolist()
        test = np.flatnonzero(member[i]).tolist()
        for j, k in enumerate(ks):
            assert recall[i, j] == ref.recall_at_k(ids, test, k)
            assert ndcg[i, j] == ref.ndcg_at_k(ids, test, k)
