import csv
import json
import math

import numpy as np
import pytest

from attnrec import evaluation as ev
from attnrec.corpus import InteractionMatrix
from attnrec.errors import ConfigError


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


def test_make_splits_vary_by_index():
    rng = np.random.default_rng(3)
    libraries = [sorted(rng.choice(40, size=10, replace=False).tolist())
                 for _ in range(10)]
    r = _library_matrix(libraries, 40)
    splits = ev.make_splits(r, 1, seed=5, n_repeats=4)
    assert len(splits) == 4
    first = splits[0][0].matrix.toarray()
    assert any(not np.array_equal(first, s[0].matrix.toarray()) for s in splits[1:])
    again = ev.make_splits(r, 1, seed=5, n_repeats=4)
    assert np.array_equal(splits[2][1].matrix.toarray(), again[2][1].matrix.toarray())


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

    def score_fn(i):
        assert i in score_rows, "users without test items must be skipped"
        return score_rows[i]

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
    ev.reports_to_json(reports, json_path)
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert rows[0]["variant"] == "wrmf"
    assert float(rows[0]["recall"]) == 0.25
    assert rows[1]["split"] == "-1"
    data = json.loads(json_path.read_text())
    assert data[0]["ndcg"] == 0.125
    assert data[0]["setting"] == "P=10"
