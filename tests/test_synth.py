import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import _synth_reference as synth_ref
from _corpus_reference import tokenize
from attnrec import cli, corpus, synth
from attnrec.errors import ConfigError

SMALL = dict(n_users=30, n_articles=48, n_clusters=4, min_library=4,
             max_library=8, doc_length=30, seed=11)


def test_generation_is_deterministic(tmp_path):
    a = synth.generate(synth.SynthConfig(**SMALL))
    b = synth.generate(synth.SynthConfig(**SMALL))
    assert a.libraries == b.libraries
    assert a.docs == b.docs
    assert a.tags == b.tags
    assert np.array_equal(a.article_cluster, b.article_cluster)
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    synth.write_dataset(a, dir_a)
    synth.write_dataset(b, dir_b)
    for name in ("users.dat", "docs.txt", "tags.dat", "citations.dat", "truth.json"):
        assert filecmp.cmp(dir_a / name, dir_b / name, shallow=False)


def test_libraries_follow_planted_clusters():
    data = synth.generate(synth.SynthConfig(**SMALL))
    for lib, prefs in zip(data.libraries, data.user_clusters):
        assert SMALL["min_library"] <= len(lib) <= SMALL["max_library"]
        assert {int(data.article_cluster[j]) for j in lib} <= set(prefs)


def test_tags_and_citations_stay_within_cluster():
    cfg = synth.SynthConfig(**SMALL)
    data = synth.generate(cfg)
    for j, row in enumerate(data.tags):
        k = int(data.article_cluster[j])
        lo, hi = k * cfg.tags_per_cluster, (k + 1) * cfg.tags_per_cluster
        assert row and all(lo <= t < hi for t in row)
    for citing, cited in data.citations:
        assert data.article_cluster[citing] == data.article_cluster[cited]
        assert citing != cited


def test_documents_survive_tokenization():
    cfg = synth.SynthConfig(**SMALL)
    data = synth.generate(cfg)
    for doc in data.docs:
        tokens = tokenize(doc)
        assert len(tokens) == cfg.doc_length


def test_truth_file_contents(tmp_path):
    data = synth.generate(synth.SynthConfig(**SMALL))
    synth.write_dataset(data, tmp_path)
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert len(truth["article_cluster"]) == SMALL["n_articles"]
    assert truth["config"]["seed"] == SMALL["seed"]


@pytest.mark.parametrize("citations_per_article", [0, 2])
def test_written_dataset_reads_back_through_the_loaders(tmp_path, citations_per_article):
    data = synth.generate(synth.SynthConfig(**SMALL, citations_per_article=citations_per_article))
    # Articles 0, 3, 6, ... cite nothing, and the edges are out of order.
    data.citations = [edge for edge in reversed(data.citations) if edge[0] % 3]
    synth.write_dataset(data, tmp_path)
    n_articles = SMALL["n_articles"]
    r = corpus.load_interactions(tmp_path / "users.dat", n_articles=n_articles)
    assert [r.user_items(i).tolist() for i in range(r.n_users)] == data.libraries
    tags = corpus.load_tag_assignments(tmp_path / "tags.dat", n_articles=n_articles)
    assert tags.tolist() == [[j, t] for j, row in enumerate(data.tags) for t in row]
    citations = corpus.load_citations(tmp_path / "citations.dat", n_articles=n_articles)
    assert sorted(map(tuple, citations.tolist())) == sorted(data.citations)
    assert (tmp_path / "citations.dat").read_text().splitlines()[::3] == ["0"] * 16


def test_config_validation():
    with pytest.raises(ConfigError):
        synth.SynthConfig(n_articles=10, n_clusters=20).validate()
    with pytest.raises(ConfigError):
        # default max library exceeds the per-cluster article count
        synth.SynthConfig(n_articles=48, n_clusters=4, min_library=4,
                          max_library=30).validate()
    with pytest.raises(ConfigError):
        synth.SynthConfig(min_library=1).validate()


# (config, the name of the test): the default and two other seeds, the
# citeulike-a shape, an odd small config with no cluster tokens, and one
# with no shared tokens.
REFERENCE_CONFIGS = [
    (dict(), "default"),
    (dict(seed=7), "seed 7"),
    (dict(n_users=5551, n_articles=16980, n_clusters=80, words_per_cluster=100,
          shared_words=400, tags_per_cluster=93, min_tags_per_article=3,
          max_tags_per_article=8, min_library=10, max_library=64, seed=3), "citeulike shape"),
    (dict(n_clusters=3, n_articles=90, doc_length=17, cluster_token_fraction=0.0,
          words_per_cluster=4, min_library=2, max_library=20), "odd"),
    (dict(cluster_token_fraction=1.0, seed=2), "cluster tokens only"),
]


@pytest.mark.parametrize("config", [c for c, _ in REFERENCE_CONFIGS],
                         ids=[name for _, name in REFERENCE_CONFIGS])
def test_generate_equals_reference(tmp_path, config):
    # Later draws share the generator's stream, so equal tags, citations and
    # libraries also show that document drawing leaves the stream unchanged.
    fast = synth.generate(synth.SynthConfig(**config))
    slow = synth_ref.generate(synth.SynthConfig(**config))
    for field in ("libraries", "docs", "tags", "citations", "user_clusters", "config"):
        assert getattr(fast, field) == getattr(slow, field), field
    assert np.array_equal(fast.article_cluster, slow.article_cluster)
    synth.write_dataset(fast, tmp_path / "fast")
    synth.write_dataset(slow, tmp_path / "slow")
    for name in ("users.dat", "docs.txt", "tags.dat", "citations.dat", "truth.json"):
        assert filecmp.cmp(tmp_path / "fast" / name, tmp_path / "slow" / name,
                           shallow=False), name


@pytest.mark.parametrize("flag, value, field", [
    ("--doc-length", "-5", "doc_length"),
    ("--doc-length", "0", "doc_length"),
    ("--n-users", "-3", "n_users"),
    ("--n-users", "0", "n_users"),
])
def test_synth_cli_refuses_counts_below_one(tmp_path, capsys, flag, value, field):
    rc = cli.main(["synth", "--data-dir", str(tmp_path / "data"), flag, value])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "data").exists()


@pytest.mark.parametrize("overrides, field", [
    (dict(words_per_cluster=0), "words_per_cluster"),
    (dict(tags_per_cluster=0), "tags_per_cluster"),
    (dict(shared_words=0), "shared_words"),
    (dict(min_tags_per_article=0), "min_tags_per_article"),
    (dict(min_tags_per_article=5, max_tags_per_article=4), "min_tags_per_article"),
    (dict(citations_per_article=-1), "citations_per_article"),
])
def test_config_validation_names_the_field(overrides, field):
    with pytest.raises(ConfigError, match=field):
        synth.SynthConfig(**overrides).validate()


def test_no_shared_words_is_valid_without_shared_tokens():
    config = synth.SynthConfig(**SMALL, shared_words=0, cluster_token_fraction=1.0)
    config.validate()
    assert all(len(tokenize(doc)) == SMALL["doc_length"] for doc in synth.generate(config).docs)


def test_importing_synth_loads_only_its_own_imports():
    # The package exports nothing, so one module's import loads what it imports.
    src = str(Path(synth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = ("import sys, attnrec.synth; print(' '.join(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('attnrec', 'scipy'))))")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert done.stdout.split() == ["attnrec", "attnrec.errors", "attnrec.synth"]
