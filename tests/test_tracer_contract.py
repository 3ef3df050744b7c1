"""The benchmark tracer (perfbench/tracing.py) binds functions and methods
of the program by name. These tests hold the program to that contract: every
name it wraps exists where it looks, the program's calls go through the
wrapped names, and every original comes back afterwards."""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from attnrec import autoencoder, cf, cli, corpus, evaluation, nn, storage

MODS = SimpleNamespace(cli=cli, corpus=corpus, storage=storage, nn=nn,
                       autoencoder=autoencoder, cf=cf, evaluation=evaluation)


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _namespaces():
    """Every attnrec module and every class defined in one."""
    modules = list(vars(MODS).values())
    return modules + [value for module in modules for value in vars(module).values()
                      if isinstance(value, type) and value.__module__ == module.__name__]


def test_every_patch_point_exists_and_every_original_comes_back():
    tracer = _tracer()
    points = {(owner, attr) for owner, attr, _ in tracer._patches(MODS)}
    missing = [f"{owner.__name__}.{attr}" for owner, attr in points if attr not in vars(owner)]
    assert not missing
    before = {owner: dict(vars(owner)) for owner in _namespaces()}
    with tracer.installed(MODS):
        for owner, attr in points:
            assert vars(owner)[attr].__wrapped__ is before[owner][attr]
        changed = {(owner, attr) for owner, names in before.items() for attr in names
                   if vars(owner)[attr] is not names[attr]}
        assert changed == points
    for owner, names in before.items():
        assert vars(owner).keys() == names.keys()
        assert all(vars(owner)[attr] is value for attr, value in names.items())


def test_encode_runs_through_the_traced_names():
    tracer = _tracer()
    ae = autoencoder.AttentiveAutoencoder(6, [4, 3], seed=0)
    with tracer.installed(MODS):
        latent = ae.encode(np.eye(6))
    assert latent.shape == (6, 3)
    assert tracer.calls["autoencoder.encode"] == 1
    assert tracer.calls["nn.attention.forward"] == 1
    assert tracer.calls["nn.dense.forward"] == 2
    assert tracer.calls["nn.batchnorm.forward"] == 2


def _corpus_spans(tracer) -> set:
    return {f"corpus.{attr}" for owner, attr, _ in tracer._patches(MODS) if owner is corpus}


def test_ingest_fires_each_traced_corpus_span_once(tmp_path):
    # Guards against one loader reaching another through its wrapped name,
    # which would count that span twice.
    data = tmp_path / "data"
    assert cli.main(["synth", "--data-dir", str(data), "--n-users", "40", "--n-articles", "60",
                     "--n-clusters", "4", "--min-library", "4", "--max-library", "8"]) == 0
    (tmp_path / "mult").mkdir()
    (tmp_path / "mult" / "users.dat").write_text("2 0 3\n1 1\n2 2 3\n")
    (tmp_path / "mult" / "mult.dat").write_text("2 0:1 4:2\n1 1:3\n0\n2 2:1 0:1\n")
    (tmp_path / "mult" / "tags.dat").write_text("2 0 1\n1 1\n0\n1 0\n")
    (tmp_path / "mult" / "citations.dat").write_text("1 3\n0\n2 0 1\n0\n")
    mult = ["--content-format", "mult"]
    text = {"corpus.read_raw_docs", "corpus.select_vocabulary", "corpus.build_bow"}
    for directory, extra, skipped in ((data, [], set()), (tmp_path / "mult", mult, text)):
        tracer = _tracer()
        with tracer.installed(MODS):
            assert cli.main(["preprocess", "--data-dir", str(directory),
                             "--out-dir", str(tmp_path / "runs"), "--variant", "cata++",
                             "--vocab-size", "5", "--min-articles-per-tag", "1", *extra]) == 0
        assert {name: tracer.calls[name] for name in _corpus_spans(tracer)} == {
            name: int(name not in skipped) for name in _corpus_spans(tracer)}


def test_cold_train_fires_split_and_objective_spans_per_split(tmp_path):
    data, out = tmp_path / "data", tmp_path / "runs"
    assert cli.main(["synth", "--data-dir", str(data), "--n-users", "40", "--n-articles", "60",
                     "--n-clusters", "4", "--min-library", "4", "--max-library", "8"]) == 0
    flags = ["--data-dir", str(data), "--out-dir", str(out), "--variant", "wrmf", "--d", "4",
             "--splits", "1,2", "--max-sweeps", "3", "--tol", "0"]
    tracer = _tracer()
    with tracer.installed(MODS):
        assert cli.main(["preprocess", *flags]) == 0
        assert cli.main(["train", *flags]) == 0
    keys = tracer.keys["evaluation.make_split"]
    assert tracer.calls["evaluation.make_split"] == len(keys) == len(set(keys)) == 2
    assert tracer.calls["cf.train_als"] == 2
    assert tracer.calls["cf.objective"] == 2 * (3 + 1)
