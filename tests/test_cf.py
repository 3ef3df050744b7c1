import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import _als_reference as reference
from attnrec import cf, evaluation, storage
from attnrec.corpus import InteractionMatrix
from attnrec.errors import ConfigError, DataError

RTOL = 1e-9


def naive_objective(r_dense, U, V, prior, lu, lv, a, b):
    """Direct double loop over every user-article cell."""
    total = 0.0
    for i in range(U.shape[0]):
        for j in range(V.shape[0]):
            c = a if r_dense[i, j] else b
            p = 1.0 if r_dense[i, j] else 0.0
            total += c * (p - float(U[i] @ V[j])) ** 2
    total += lu * float((U ** 2).sum())
    total += lv * float(((V - prior) ** 2).sum())
    return 0.5 * total


def _random_instance(seed, n_users=6, n_articles=9, d=3, density=0.3):
    rng = np.random.default_rng(seed)
    dense = (rng.random((n_users, n_articles)) < density).astype(float)
    users, articles = np.nonzero(dense)
    r = InteractionMatrix.from_pairs(users, articles, n_users, n_articles)
    model = cf.init_model(n_users, n_articles, d, lambda_u=0.7, lambda_v=0.3,
                          a=1.0, b=0.01, seed=seed)
    prior = rng.normal(scale=0.3, size=(n_articles, d))
    return dense, r, model, prior


def test_objective_matches_brute_force():
    for seed in range(8):
        dense, r, model, prior = _random_instance(seed)
        fast = cf.objective(r, model, prior)
        slow = naive_objective(dense, model.U, model.V, prior,
                               model.lambda_u, model.lambda_v, model.a, model.b)
        assert abs(fast - slow) <= RTOL * max(1.0, abs(slow))


def test_update_user_matches_dense_normal_equations():
    for seed in range(6):
        dense, r, model, prior = _random_instance(seed)
        d = model.d
        for i in range(r.n_users):
            got = reference.update_user(i, r, model)
            lhs = model.lambda_u * np.eye(d)
            rhs = np.zeros(d)
            for j in range(r.n_articles):
                c = model.a if dense[i, j] else model.b
                p = 1.0 if dense[i, j] else 0.0
                lhs += c * np.outer(model.V[j], model.V[j])
                rhs += c * p * model.V[j]
            expected = np.linalg.solve(lhs, rhs)
            assert np.allclose(got, expected, rtol=1e-8, atol=1e-10)


def test_update_item_matches_dense_normal_equations():
    for seed in range(6):
        dense, r, model, prior = _random_instance(seed)
        d = model.d
        for j in range(r.n_articles):
            got = reference.update_item(j, r, model, prior)
            lhs = model.lambda_v * np.eye(d)
            rhs = model.lambda_v * prior[j]
            for i in range(r.n_users):
                c = model.a if dense[i, j] else model.b
                p = 1.0 if dense[i, j] else 0.0
                lhs += c * np.outer(model.U[i], model.U[i])
                rhs += c * p * model.U[i]
            expected = np.linalg.solve(lhs, rhs)
            assert np.allclose(got, expected, rtol=1e-8, atol=1e-10)


def test_closed_form_user_row_is_a_minimum():
    dense, r, model, prior = _random_instance(11)
    rng = np.random.default_rng(0)
    i = 2
    star = reference.update_user(i, r, model)

    def row_obj(u):
        total = 0.0
        for j in range(r.n_articles):
            c = model.a if dense[i, j] else model.b
            p = 1.0 if dense[i, j] else 0.0
            total += c * (p - float(u @ model.V[j])) ** 2
        return 0.5 * (total + model.lambda_u * float(u @ u))

    base = row_obj(star)
    for _ in range(20):
        assert base <= row_obj(star + rng.normal(scale=1e-3, size=star.shape)) + 1e-15


def test_train_als_trace_monotone_and_stops():
    _, r, model, prior = _random_instance(3, n_users=12, n_articles=15)
    trace = cf.train_als(r, model, prior, max_sweeps=15, tol=1e-7)
    assert len(trace) >= 2
    for prev, cur in zip(trace, trace[1:]):
        assert cur <= prev + 1e-9 * max(1.0, abs(prev))


def test_train_als_tol_inf_runs_exactly_one_sweep():
    _, r, model, prior = _random_instance(4)
    trace = cf.train_als(r, model, prior, max_sweeps=10, tol=np.inf)
    assert len(trace) == 2


def test_train_als_sweep_equals_public_row_updates():
    # The row-solution checks solve single rows through the kernel; this pins
    # them to the sweep that trains.
    _, r, trained, prior = _random_instance(5, n_users=20, n_articles=24)
    _, _, by_rows, _ = _random_instance(5, n_users=20, n_articles=24)
    cf.train_als(r, trained, prior, max_sweeps=1, tol=0.0)
    for i in range(r.n_users):
        by_rows.U[i] = reference.update_user(i, r, by_rows)
    for j in range(r.n_articles):
        by_rows.V[j] = reference.update_item(j, r, by_rows, prior)
    assert np.array_equal(trained.U, by_rows.U)
    assert np.array_equal(trained.V, by_rows.V)


def _split_instance(p, seed, n_users=40, n_articles=70, d=4):
    """Users 0 and 1 save nothing and every other user saves ``p`` random
    articles, as in a P-split; many articles then have no observation."""
    rng = np.random.default_rng(seed)
    users = np.repeat(np.arange(2, n_users), p)
    articles = np.concatenate([rng.choice(n_articles, size=p, replace=False)
                               for _ in range(2, n_users)])
    r = InteractionMatrix.from_pairs(users, articles, n_users, n_articles)
    model = cf.init_model(n_users, n_articles, d, lambda_u=0.7, lambda_v=0.3, seed=seed)
    return r, model


@pytest.mark.parametrize("chunk_values", [None, 40])
@pytest.mark.parametrize("p", [1, 5])
@pytest.mark.parametrize("prior_scale", [0.0, 0.3])
def test_sweep_matches_row_loop_reference(monkeypatch, chunk_values, p, prior_scale):
    if chunk_values is not None:
        # 40 values hold two rows of d=4, so the c >= d groups span chunks;
        # a c < d chunk holds 40 // (4 * max(c, 1)) rows (10 at c = 1).
        monkeypatch.setattr(cf, "_CHUNK_VALUES", chunk_values)
    r, model = _split_instance(p, seed=p)
    _, expected = _split_instance(p, seed=p)
    prior = np.random.default_rng(1).normal(scale=prior_scale, size=model.V.shape)
    counts = r.item_counts()
    assert (counts == 0).any() and (np.bincount(counts) > 2).sum() >= 2
    assert (np.diff(r.matrix.indptr) == 0).sum() == 2
    cf.train_als(r, model, prior, max_sweeps=1, tol=0.0)
    reference.sweep(r, expected, prior)
    for got, want in ((model.U, expected.U), (model.V, expected.V)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


# Users (rows) and articles (columns) with 0, d - 1, d and d + 1 saves at d = 4,
# so both halves take the c < d and the c >= d solve, next to the switch.
_BOUNDARY = np.array([[0, 0, 0, 0, 0, 0],
                      [0, 1, 1, 1, 0, 0],
                      [0, 1, 1, 1, 1, 0],
                      [0, 1, 1, 1, 1, 1],
                      [0, 0, 1, 1, 1, 1],
                      [0, 0, 1, 1, 1, 0]])


@pytest.mark.parametrize("chunk_values", [None, 1])
def test_sweep_matches_reference_at_the_solve_switch(monkeypatch, chunk_values):
    if chunk_values is not None:
        monkeypatch.setattr(cf, "_CHUNK_VALUES", chunk_values)
    users, articles = np.nonzero(_BOUNDARY)
    r = InteractionMatrix.from_pairs(users, articles, *_BOUNDARY.shape)
    model, expected = (cf.init_model(*_BOUNDARY.shape, 4, lambda_u=0.7, lambda_v=0.3, seed=4)
                       for _ in range(2))
    for counts in (np.diff(r.matrix.indptr), r.item_counts()):
        assert {0, 3, 4, 5} <= set(counts.tolist())
    prior = np.random.default_rng(5).normal(scale=0.3, size=model.V.shape)
    cf.train_als(r, model, prior, max_sweeps=2, tol=0.0)
    for _ in range(2):
        reference.sweep(r, expected, prior)
    for got, want in ((model.U, expected.U), (model.V, expected.V)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("p", [1, 5])
def test_train_als_is_bit_exact_across_chunk_sizes(monkeypatch, p):
    # At p = 1 users take the c < d solve, at p = 5 > d = 4 the direct one.
    r, model = _split_instance(p, seed=2)
    _, small = _split_instance(p, seed=2)
    prior = np.random.default_rng(3).normal(scale=0.3, size=model.V.shape)
    cf.train_als(r, model, prior, max_sweeps=3, tol=0.0)
    monkeypatch.setattr(cf, "_CHUNK_VALUES", 1)  # one row per chunk
    cf.train_als(r, small, prior, max_sweeps=3, tol=0.0)
    assert np.array_equal(model.U, small.U)
    assert np.array_equal(model.V, small.V)


def test_objective_trace_equals_a_fresh_objective_after_each_sweep():
    # train_als hands the objective the Gram matrix V^T V that it also gives
    # the next user half; each trace entry must still be the objective that
    # the model of that sweep gives when computed from scratch.
    r, model = _split_instance(1, seed=6)
    prior = np.random.default_rng(7).normal(scale=0.3, size=model.V.shape)
    full = cf.train_als(r, model, prior, max_sweeps=3, tol=0.0)
    assert len(full) == 4
    for sweeps in range(4):
        _, fresh = _split_instance(1, seed=6)
        trace = cf.train_als(r, fresh, prior, max_sweeps=sweeps, tol=0.0)
        assert trace == full[:sweeps + 1]
        assert trace[-1] == cf.objective(r, fresh, prior)


def test_cold_article_inherits_prior_exactly():
    dense, r, model, prior = _random_instance(6)
    # article 0 never interacted with anyone, and the user side is all zero
    dense[:, 0] = 0.0
    users, articles = np.nonzero(dense)
    r = InteractionMatrix.from_pairs(users, articles, *dense.shape)
    model.U[:] = 0.0
    got = reference.update_item(0, r, model, prior)
    assert np.array_equal(got, prior[0])


def test_make_prior_variants():
    z = np.full((4, 2), 0.5)
    y = np.full((4, 2), 0.25)
    assert np.array_equal(cf.make_prior("wrmf", 4, 2), np.zeros((4, 2)))
    assert np.array_equal(cf.make_prior("cata", 4, 2, text_latent=z), z)
    assert np.array_equal(cf.make_prior("cata-tags", 4, 2, tag_latent=y), y)
    assert np.array_equal(cf.make_prior("cata++", 4, 2, text_latent=z, tag_latent=y),
                          z + y)
    with pytest.raises(ConfigError):
        cf.make_prior("cata", 4, 2)
    with pytest.raises(ConfigError):
        cf.make_prior("cata++", 4, 2, text_latent=z, tag_latent=np.zeros((3, 2)))


def test_zero_prior_reduces_to_plain_wrmf_bitwise():
    _, r, m_wrmf, _ = _random_instance(7)
    _, _, m_cata, _ = _random_instance(7)
    zeros = np.zeros_like(m_wrmf.V)
    cf.train_als(r, m_wrmf, zeros, max_sweeps=4, tol=0.0)
    m_cata.variant = "cata++"
    cf.train_als(r, m_cata, cf.make_prior("cata++", r.n_articles, m_cata.d,
                                          text_latent=zeros, tag_latent=zeros),
                 max_sweeps=4, tol=0.0)
    assert np.array_equal(m_wrmf.U, m_cata.U)
    assert np.array_equal(m_wrmf.V, m_cata.V)


def test_confidence_ordering_enforced():
    with pytest.raises(ConfigError):
        cf.init_model(3, 3, 2, lambda_u=1.0, lambda_v=1.0, a=0.01, b=1.0)
    with pytest.raises(ConfigError):
        cf.init_model(3, 3, 2, lambda_u=1.0, lambda_v=1.0, a=1.0, b=0.0)


def test_init_model_factor_range():
    model = cf.init_model(50, 60, 16, lambda_u=1.0, lambda_v=1.0, seed=3)
    bound = 1.0 / np.sqrt(16)
    for factors in (model.U, model.V):
        assert np.all(factors >= 0.0)
        assert np.all(factors <= bound)


def test_prior_shape_mismatch_rejected():
    _, r, model, _ = _random_instance(8)
    with pytest.raises(ConfigError):
        cf.train_als(r, model, np.zeros((2, 2)))


def test_pop_baseline_ties_ascending():
    # The pop scorer ranks the item_counts() row through top_k.
    r = InteractionMatrix.from_pairs([0, 1, 0, 1], [2, 2, 3, 1], 2, 5)
    order = evaluation.top_k(r.item_counts().astype(np.float64), 5)
    # counts: [0, 1, 2, 1, 0] -> article 2 first, then 1 before 3, then 0 before 4
    assert order.tolist() == [2, 1, 3, 0, 4]


def test_predict_scores():
    _, r, model, _ = _random_instance(9)
    scores = cf.predict_scores(model, 1)
    assert np.allclose(scores, model.V @ model.U[1])
    block = cf.predict_scores(model, np.array([4, 1]))
    assert block.shape == (2, model.V.shape[0])
    assert np.allclose(block, model.U[[4, 1]] @ model.V.T)
    for bad in (99, -1, np.array([0, 6])):
        with pytest.raises(IndexError):
            cf.predict_scores(model, bad)


def test_factor_checkpoint_roundtrip(tmp_path):
    _, r, model, prior = _random_instance(10)
    cf.train_als(r, model, prior, max_sweeps=2, tol=0.0)
    path = tmp_path / "factors.bin"
    cf.save_factors(path, model, sweeps=2)
    again, sweeps = cf.load_factors(path)
    assert sweeps == 2
    assert again.variant == model.variant
    assert again.lambda_u == model.lambda_u
    # stored at f32 precision
    assert np.allclose(again.U, model.U, atol=1e-5)
    assert np.allclose(again.V, model.V, atol=1e-5)


@pytest.mark.parametrize("drop", ["lambda_u", "variant", "U", "V"])
def test_load_factors_names_file_and_missing_key(tmp_path, drop):
    _, _, model, _ = _random_instance(11)
    tensors = {name: t for name, t in (("U", model.U), ("V", model.V)) if name != drop}
    meta = {"lambda_u": 0.7, "lambda_v": 0.3, "a": 1.0, "b": 0.01, "variant": "wrmf"}
    meta.pop(drop, None)
    path = tmp_path / "factors.bin"
    storage.write_tensors(path, tensors, meta)
    with pytest.raises(DataError, match=rf"factors\.bin.*'{drop}'"):
        cf.load_factors(path)


@pytest.mark.parametrize("key, value", [("lambda_u", "x"), ("a", None),
                                        ("b", True), ("variant", 3)])
def test_load_factors_names_file_and_wrong_typed_key(tmp_path, key, value):
    _, _, model, _ = _random_instance(12)
    meta = {"lambda_u": 0.7, "lambda_v": 0.3, "a": 1.0, "b": 0.01, "variant": "wrmf",
            key: value}
    path = tmp_path / "factors.bin"
    storage.write_tensors(path, {"U": model.U, "V": model.V}, meta)
    with pytest.raises(DataError, match=rf"factors\.bin.*{key}="):
        cf.load_factors(path)


@pytest.mark.parametrize("bad, message", [
    ({"a": 0.01, "b": 1.0}, "a > b > 0"),
    ({"lambda_v": -1.0}, "nonnegative"),
    ({"variant": "nope"}, "unknown variant 'nope'"),
])
def test_load_factors_refuses_invalid_hyperparameters_as_data(tmp_path, bad, message):
    _, _, model, _ = _random_instance(14)
    meta = {"lambda_u": 0.7, "lambda_v": 0.3, "a": 1.0, "b": 0.01, "variant": "wrmf", **bad}
    path = tmp_path / "factors.bin"
    storage.write_tensors(path, {"U": model.U, "V": model.V}, meta)
    with pytest.raises(DataError, match=rf"factors\.bin: .*{message}"):
        cf.load_factors(path)


@pytest.mark.parametrize("V", [np.zeros((9, 2)), np.zeros(9)])
def test_load_factors_rejects_factor_width_mismatch_as_data(tmp_path, V):
    _, _, model, _ = _random_instance(13)
    meta = {"lambda_u": 0.7, "lambda_v": 0.3, "a": 1.0, "b": 0.01, "variant": "wrmf"}
    path = tmp_path / "factors.bin"
    storage.write_tensors(path, {"U": model.U, "V": V}, meta)
    with pytest.raises(DataError, match=r"factors\.bin.*width"):
        cf.load_factors(path)


def test_loaded_factors_score_as_their_f64_copies(tmp_path):
    _, _, model, _ = _random_instance(8, n_users=7, n_articles=11, d=4)
    path = tmp_path / "f.bin"
    cf.save_factors(path, model)
    loaded, _ = cf.load_factors(path)
    assert loaded.U.dtype == np.float32 and loaded.V.dtype == np.float64
    f64 = cf.FactorModel(U=loaded.U.astype(np.float64), V=loaded.V, lambda_u=0.7,
                         lambda_v=0.3)
    block = np.array([6, 0, 3])
    assert np.array_equal(cf.predict_scores(loaded, block), f64.U[block] @ f64.V.T)
    assert np.array_equal(cf.predict_scores(loaded, 2), f64.U[2] @ f64.V.T)


_ALS_BITS = """
import hashlib
import json
import numpy as np
from scipy import sparse
from attnrec import cf
from attnrec.corpus import InteractionMatrix
cells = sparse.random(600, 400, density=0.03, random_state=1, format="coo")
r = InteractionMatrix.from_pairs(cells.row, cells.col, 600, 400)
model = cf.init_model(600, 400, 25, lambda_u=0.1, lambda_v=0.1, seed=1)
trace = cf.train_als(r, model, np.zeros_like(model.V), max_sweeps=2)
print(hashlib.sha256(model.U.tobytes() + model.V.tobytes()).hexdigest(), json.dumps(trace))
"""


def test_als_bits_do_not_depend_on_the_blas_thread_count():
    # At this shape a two-thread OpenBLAS sums the objective's products in
    # another order, so an unpinned train_als traces other last bits.
    src = str(Path(cf.__file__).resolve().parents[1])
    outputs = set()
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-c", _ALS_BITS], env=env, capture_output=True,
                              text=True, check=True, timeout=300)
        outputs.add(done.stdout)
    assert len(outputs) == 1
