import csv
import json
import logging
import os
import shutil
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import _corpus_reference as ref
from attnrec import cli, corpus, evaluation, storage
from attnrec.corpus import InteractionMatrix
from attnrec.errors import NumericalError, ParseError

COMMON = ["--variant", "cata++", "--p", "1", "--d", "6",
          "--text-widths", "24,6", "--tag-widths", "10,6",
          "--epochs", "8", "--batch-size", "32", "--vocab-size", "60",
          "--min-articles-per-tag", "3", "--splits", "1",
          "--max-sweeps", "6", "--ks", "5,10", "--seed", "3"]


@pytest.fixture()
def workspace(tmp_path):
    data = tmp_path / "data"
    runs = tmp_path / "runs"
    rc = cli.main(["synth", "--data-dir", str(data), "--seed", "3",
                   "--n-users", "40", "--n-articles", "60", "--n-clusters", "4",
                   "--min-library", "4", "--max-library", "8",
                   "--doc-length", "30"])
    assert rc == 0
    return data, runs


def _args(command, data, runs, *extra):
    return [command, "--data-dir", str(data), "--out-dir", str(runs),
            *COMMON, *extra]


def _single_run_dir(runs, prefix):
    matches = [d for d in os.listdir(runs) if d.startswith(prefix)]
    assert len(matches) == 1
    return runs / matches[0]


def test_full_pipeline(workspace, capsys, monkeypatch):
    data, runs = workspace
    assert cli.main(_args("preprocess", data, runs)) == 0
    pre = _single_run_dir(runs, "preprocess-")
    manifest = json.loads((pre / "manifest.json").read_text())
    assert manifest["stats"]["n_users"] == 40
    assert manifest["stats"]["n_articles"] == 60
    assert set(manifest["inputs"]) == {"users.dat", "docs.txt", "tags.dat",
                                       "citations.dat"}

    assert cli.main(_args("train", data, runs)) == 0
    train = _single_run_dir(runs, "train-")
    for name in ("text_ae.bin", "tag_ae.bin", "factors-split1.bin",
                 "objective_trace.json", "manifest.json"):
        assert (train / name).exists()
    traces = json.loads((train / "objective_trace.json").read_text())
    values = traces["1"]
    assert all(b <= a + 1e-9 * max(1.0, abs(a)) for a, b in zip(values, values[1:]))

    def unread(path):
        raise AssertionError(f"evaluate and recommend need only interactions.bin, read {path}")
    monkeypatch.setattr(storage, "read_content", unread)
    monkeypatch.setattr(storage, "read_tags", unread)

    assert cli.main(_args("evaluate", data, runs, "--compare", "pop")) == 0
    evald = _single_run_dir(runs, "evaluate-")
    with open(evald / "reports.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # one split plus the averaged rows, two cutoffs each
    assert len(rows) == 4
    assert {row["k"] for row in rows} == {"5", "10"}
    assert all(0.0 <= float(row["recall"]) <= 1.0 for row in rows)
    with open(evald / "improvement.csv", newline="") as fh:
        improvement = list(csv.DictReader(fh))
    assert [row["k"] for row in improvement] == ["5", "10"]
    assert improvement[0]["baseline"] == "pop"

    capsys.readouterr()
    assert cli.main(_args("recommend", data, runs, "7", "--k", "4")) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4
    ranks = [int(line.split("\t")[0]) for line in lines]
    assert ranks == [1, 2, 3, 4]


def test_evaluate_is_idempotent(workspace):
    data, runs = workspace
    assert cli.main(_args("preprocess", data, runs)) == 0
    assert cli.main(_args("train", data, runs)) == 0
    assert cli.main(_args("evaluate", data, runs)) == 0
    evald = _single_run_dir(runs, "evaluate-")
    first = (evald / "reports.csv").read_bytes()
    assert cli.main(_args("evaluate", data, runs)) == 0
    assert (evald / "reports.csv").read_bytes() == first


def test_wrmf_trains_without_autoencoders(workspace):
    data, runs = workspace
    args = lambda cmd: [cmd, "--data-dir", str(data), "--out-dir", str(runs),
                        "--variant", "wrmf", "--p", "1", "--d", "6",
                        "--splits", "1", "--max-sweeps", "4",
                        "--ks", "5", "--seed", "3"]
    assert cli.main(args("preprocess")) == 0
    assert cli.main(args("train")) == 0
    train = _single_run_dir(runs, "train-")
    assert not (train / "text_ae.bin").exists()
    assert (train / "factors-split1.bin").exists()
    assert cli.main(args("evaluate")) == 0


def test_pop_variant_needs_no_training(workspace):
    data, runs = workspace
    args = ["--data-dir", str(data), "--out-dir", str(runs), "--variant", "pop",
            "--p", "1", "--splits", "1", "--ks", "5",
            "--seed", "3"]
    assert cli.main(["preprocess", *args]) == 0
    assert cli.main(["evaluate", *args]) == 0
    evald = _single_run_dir(runs, "evaluate-")
    assert (evald / "reports.json").exists()


def test_missing_input_exits_2(tmp_path):
    rc = cli.main(["preprocess", "--data-dir", str(tmp_path / "nowhere"),
                   "--out-dir", str(tmp_path / "runs"), "--variant", "wrmf"])
    assert rc == 2


def test_usage_error_exits_1(tmp_path):
    assert cli.main(["evaluate", "--variant", "nonsense"]) == 1
    assert cli.main(["train", "--no-such-flag"]) == 1


def test_evaluate_before_train_exits_2(workspace):
    data, runs = workspace
    assert cli.main(_args("preprocess", data, runs)) == 0
    assert cli.main(_args("evaluate", data, runs)) == 2


def test_numerical_failure_exits_3(workspace, monkeypatch):
    data, runs = workspace
    assert cli.main(_args("preprocess", data, runs)) == 0

    def explode(*args, **kwargs):
        raise NumericalError("objective diverged")

    monkeypatch.setattr(cli.cf, "train_als", explode)
    assert cli.main(_args("train", data, runs)) == 3
    # the failed run publishes nothing
    assert not [d for d in os.listdir(runs) if d.startswith("train-")]


def test_singular_als_system_exits_3_naming_half_and_sweep(tmp_path, capsys):
    # 20 users give the user factors a Gram matrix of rank <= 20 < d = 50, so at
    # lambda_v = 0 the article half's shared b G + lambda_v I is singular.
    data, runs = tmp_path / "data", tmp_path / "runs"
    assert cli.main(["synth", "--data-dir", str(data), "--seed", "3", "--n-users", "20",
                     "--n-articles", "200", "--n-clusters", "4", "--min-library", "4",
                     "--max-library", "8"]) == 0
    args = ["--data-dir", str(data), "--out-dir", str(runs), "--variant", "wrmf",
            "--d", "50", "--lambda-v", "0", "--splits", "1"]
    assert cli.main(["preprocess", *args]) == 0
    capsys.readouterr()
    assert cli.main(["train", *args]) == 3
    err = capsys.readouterr().err
    assert "ALS article half of sweep 0" in err and "Traceback" not in err
    assert not [d for d in os.listdir(runs) if d.startswith("train-")]


def test_config_file_and_flag_precedence(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"p": 2, "d": 4, "variant": "wrmf", "seed": 9}))
    config = cli.load_config(path, {"p": 1})
    assert config.p == 1          # flag beats file
    assert config.d == 4          # file beats default
    assert config.variant == "wrmf"
    assert config.seed == 9


def test_config_file_unknown_key_rejected(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lambda_w": 3}))
    rc = cli.main(["train", "--config", str(path)])
    assert rc == 1


def test_config_file_value_of_the_wrong_type_exits_1(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"lambda_u": "x"}))
    assert cli.main(["train", "--config", str(path), "--out-dir", str(tmp_path)]) == 1
    assert "Traceback" not in capsys.readouterr().err


def test_config_validation_errors():
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"variant": "cata", "text_widths": "8,4", "d": 6})
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"p": 0})
    with pytest.raises(cli.ConfigError):
        cli.load_config(None, {"splits": "1,-1"})


@pytest.mark.parametrize("flag, value, field", [
    ("--epochs", "-1", "epochs"),
    ("--batch-size", "0", "batch_size"),
    ("--batch-size", "1", "batch_size"),
    ("--tol", "-1e-4", "tol"),
    ("--tol", "nan", "tol"),
    ("--max-sweeps", "0", "max_sweeps"),
    ("--vocab-size", "0", "vocab_size"),
    ("--splits", "1,1", "splits"),
    ("--ks", "5,5", "ks"),
    ("--splits", "-1", "splits"),
    ("--splits", "", "splits"),
    ("--text-widths", "", "text_widths"),
    ("--tag-widths", ",", "tag_widths"),
])
def test_out_of_range_config_values_exit_1(tmp_path, capsys, flag, value, field):
    rc = cli.main(["train", "--out-dir", str(tmp_path), f"{flag}={value}"])
    assert rc == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("field", ["text_widths", "tag_widths"])
def test_an_empty_width_list_in_a_config_file_exits_1_naming_it(tmp_path, capsys, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({field: []}))
    assert cli.main(["train", "--out-dir", str(tmp_path), "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert f"{field} must end at d=50, got []" in err and "Traceback" not in err


def test_a_config_file_that_is_not_utf8_exits_1(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_bytes(b'{"d": 5\xff}')
    assert cli.main(["train", "--out-dir", str(tmp_path), "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config file is not valid JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["--tags-format", "plain"], "unrecognized arguments: --tags-format"),
    ({"citations_format": "adjacency"}, "unknown config keys: citations_format"),
])
def test_the_removed_format_options_exit_1(tmp_path, capsys, argv, message):
    # tags.dat and citations.dat have one counted line format, with no option.
    if isinstance(argv, dict):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(argv))
        argv = ["--config", str(path)]
    assert cli.main(["preprocess", "--out-dir", str(tmp_path), *argv]) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_zero_tol_is_valid():
    assert cli.load_config(None, {"tol": 0.0}).tol == 0.0


def test_recommend_rejects_k_below_one(workspace, capsys):
    data, runs = workspace
    args = ["--data-dir", str(data), "--out-dir", str(runs), "--variant", "pop",
            "--splits", "1"]
    assert cli.main(["preprocess", *args]) == 0
    for k in ("0", "-2"):
        capsys.readouterr()
        assert cli.main(["recommend", *args, "3", "--k", k]) == 1
        assert capsys.readouterr().out == ""


def test_concurrent_runs_of_one_config_both_succeed(tmp_path):
    # Each build stages privately: a second build of the same key must not
    # disturb the first one's staging, and the later finisher stands down.
    config = cli.ExperimentConfig(out_dir=str(tmp_path / "runs"))
    key, staged = {"inputs": {}}, []

    def build(tmp):
        staged.append(tmp)
        (Path(tmp) / "out.txt").write_text("same")
        if len(staged) == 1:  # the inner build of the same key publishes first
            assert cli._stage(config, "train", key, build) == final
        return {}

    final = os.path.join(config.out_dir, "train-" + cli._digest12(key))
    assert cli._stage(config, "train", key, build) == final
    assert os.listdir(config.out_dir) == [os.path.basename(final)]
    assert (Path(final) / "out.txt").read_text() == "same"
    assert len(set(staged)) == 2


def _printed(out, prefix):
    """The run directory a command printed after ``prefix``."""
    return [line[len(prefix):] for line in out.splitlines() if line.startswith(prefix)]


def test_run_dir_hash_scoping(workspace, capsys):
    data, runs = workspace
    printed = []
    for seed in ("3", "42"):
        assert cli.main(_args("preprocess", data, runs, "--seed", seed)) == 0
        assert cli.main(_args("train", data, runs, "--seed", seed)) == 0
        out = capsys.readouterr().out
        printed.append((_printed(out, "preprocess cache: "), _printed(out, "train outputs: ")))
    # the master seed feeds training but not preprocessing
    assert printed[0][0] == printed[1][0]
    assert printed[0][1] != printed[1][1]


def test_data_dir_env_default(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert cli.main(["synth", "--data-dir", str(data), "--seed", "1",
                     "--n-users", "12", "--n-articles", "24",
                     "--n-clusters", "2", "--min-library", "3",
                     "--max-library", "6", "--doc-length", "20"]) == 0
    monkeypatch.setenv(cli.DATA_DIR_ENV, str(data))
    rc = cli.main(["preprocess", "--out-dir", str(tmp_path / "runs"),
                   "--variant", "wrmf"])
    assert rc == 0


def test_evaluate_compare_derives_each_split_once(workspace, monkeypatch):
    data, runs = workspace
    extra = ("--variant", "wrmf", "--splits", "1,2")
    calls = []
    make_split = evaluation.make_split
    monkeypatch.setattr(evaluation, "make_split",
                        lambda *a: calls.append(1) or make_split(*a))
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("train", data, runs, *extra)) == 0
    assert len(calls) == 2
    assert cli.main(_args("evaluate", data, runs, *extra, "--compare", "pop")) == 0
    assert len(calls) == 2


def test_recommend_with_incomplete_factor_checkpoint_exits_2(workspace, capsys):
    data, runs = workspace
    extra = ("--variant", "wrmf")
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("train", data, runs, *extra)) == 0
    path = _single_run_dir(runs, "train-") / "factors-split1.bin"
    tensors, meta = storage.read_tensors(path)
    del meta["lambda_u"]
    storage.write_tensors(path, tensors, meta)
    capsys.readouterr()
    assert cli.main(_args("recommend", data, runs, *extra, "3")) == 2
    err = capsys.readouterr().err
    assert "factors-split1.bin" in err and "'lambda_u'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("damage", ["wrong_type", "width", "weights"])
def test_recommend_with_damaged_factor_checkpoint_exits_2(workspace, capsys, damage):
    data, runs = workspace
    extra = ("--variant", "wrmf")
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("train", data, runs, *extra)) == 0
    path = _single_run_dir(runs, "train-") / "factors-split1.bin"
    tensors, meta = storage.read_tensors(path)
    if damage == "wrong_type":
        meta["lambda_u"] = "x"
    elif damage == "weights":
        meta["a"], meta["b"] = 0.01, 1.0
    else:
        tensors["V"] = tensors["V"][:, 1:]
    storage.write_tensors(path, tensors, meta)
    capsys.readouterr()
    assert cli.main(_args("recommend", data, runs, *extra, "3")) == 2
    err = capsys.readouterr().err
    assert "factors-split1.bin" in err
    assert {"wrong_type": "lambda_u='x'", "width": "width",
            "weights": "a > b > 0"}[damage] in err
    assert "Traceback" not in err


def test_train_derives_only_the_configured_splits(workspace, monkeypatch):
    data, runs = workspace
    extra = ("--variant", "wrmf", "--splits", "2")
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    calls = []
    make_split = evaluation.make_split
    monkeypatch.setattr(evaluation, "make_split",
                        lambda *a: calls.append(1) or make_split(*a))
    assert cli.main(_args("train", data, runs, *extra)) == 0
    assert len(calls) == 1


def test_split_index_past_four_trains_and_recommends(workspace, capsys):
    # A split is drawn from the split seed and its index alone; no count bounds it.
    data, runs = workspace
    extra = ("--variant", "wrmf", "--splits", "5")
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("train", data, runs, *extra)) == 0
    assert (_single_run_dir(runs, "train-") / "factors-split5.bin").is_file()
    capsys.readouterr()
    assert cli.main(_args("recommend", data, runs, *extra, "--k", "3", "3")) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_recommend_rejects_a_negative_split(workspace, capsys):
    data, runs = workspace
    assert cli.main(_args("preprocess", data, runs, "--variant", "pop")) == 0
    capsys.readouterr()
    assert cli.main(_args("recommend", data, runs, "--variant", "pop", "--split", "-1",
                          "3")) == 1
    out, err = capsys.readouterr()
    assert out == "" and "split must be >= 0" in err and "Traceback" not in err


def test_readme_config_example_matches_the_defaults():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Config files", 1)[1]
    example = json.loads(section.split("```json", 1)[1].split("```", 1)[0])
    defaults = {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
                for f in fields(cli.ExperimentConfig)
                if f.name not in ("data_dir", "out_dir")}
    assert example == defaults


def test_recommend_with_nan_factors_exits_2(workspace, capsys):
    data, runs = workspace
    extra = ("--variant", "wrmf")
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("train", data, runs, *extra)) == 0
    path = _single_run_dir(runs, "train-") / "factors-split1.bin"
    tensors, meta = storage.read_tensors(path)
    tensors["U"][0, 0] = float("nan")
    storage.write_tensors(path, tensors, meta)
    capsys.readouterr()
    assert cli.main(_args("recommend", data, runs, *extra, "3")) == 2
    err = capsys.readouterr().err
    assert "factors-split1.bin" in err
    assert "Traceback" not in err


def test_cache_format_bump_makes_old_directories_stale(workspace, monkeypatch):
    data, runs = workspace
    assert cli.main(_args("preprocess", data, runs)) == 0
    old = _single_run_dir(runs, "preprocess-")
    monkeypatch.setitem(storage._VERSIONS, storage.MAGIC_CONTENT,
                        storage._VERSIONS[storage.MAGIC_CONTENT] + 1)
    assert cli.main(_args("preprocess", data, runs)) == 0
    fresh = [d for d in os.listdir(runs) if d.startswith("preprocess-")]
    assert len(fresh) == 2 and old.name in fresh
    assert cli.main(_args("train", data, runs)) == 0


@pytest.fixture(scope="module")
def preprocessed(tmp_path_factory):
    root = tmp_path_factory.mktemp("preprocessed")
    data, runs = root / "data", root / "runs"
    assert cli.main(["synth", "--data-dir", str(data), "--seed", "3",
                     "--n-users", "40", "--n-articles", "60", "--n-clusters", "4",
                     "--min-library", "4", "--max-library", "8",
                     "--doc-length", "30"]) == 0
    assert cli.main(_args("preprocess", data, runs)) == 0
    return data, runs


@pytest.mark.parametrize("flag, value, field", [
    ("--lambda-u", "nan", "lambda_u"),
    ("--lambda-u", "-1", "lambda_u"),
    ("--lambda-v", "inf", "lambda_v"),
    ("--lambda-v", "-0.5", "lambda_v"),
    ("--a", "nan", "a=nan"),
    ("--a", "0.01", "a=0.01"),
    ("--b", "inf", "b=inf"),
    ("--b", "0", "b=0"),
    ("--seed", "-1", "seed"),
    ("--min-articles-per-tag", "-1", "min_articles_per_tag"),
])
def test_bad_hyperparameters_exit_1_before_pretraining(preprocessed, capsys, flag, value,
                                                       field):
    data, runs = preprocessed
    capsys.readouterr()
    assert cli.main(_args("train", data, runs, f"{flag}={value}")) == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not [d for d in os.listdir(runs) if d.startswith("ae-")]


@pytest.mark.parametrize("field, value", [
    ("lambda_u", "x"),
    ("lambda_v", True),
    ("epochs", 1.5),
    ("d", 6.0),
    ("batch_size", True),
    ("seed", "3"),
    ("text_widths", [24, 6.5]),
    ("ks", "5,x"),
    ("splits", 1),
    ("variant", 3),
])
def test_wrong_typed_config_value_exits_1_naming_it(preprocessed, tmp_path, capsys, field,
                                                    value):
    data, runs = preprocessed
    flags = dict(zip(COMMON[::2], COMMON[1::2]))
    flags.pop("--" + field.replace("_", "-"), None)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({field: value}))
    capsys.readouterr()
    argv = ["train", "--data-dir", str(data), "--out-dir", str(runs), "--config", str(path),
            *[part for pair in flags.items() for part in pair]]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not [d for d in os.listdir(runs) if d.startswith("ae-")]


def _tree(directory) -> dict:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


def _stages(runs) -> set:
    return {d for d in os.listdir(runs) if d.startswith("ae-")}


def test_sweep_pretrains_once_and_matches_a_cold_run(workspace, monkeypatch, tmp_path,
                                                     capsys, caplog):
    data, runs = workspace
    calls = []
    pretrain = cli.ae_mod.pretrain
    monkeypatch.setattr(cli.ae_mod, "pretrain",
                        lambda *a, **k: calls.append(1) or pretrain(*a, **k))
    caplog.set_level(logging.INFO, logger=cli.logger.name)
    assert cli.main(_args("preprocess", data, runs)) == 0
    for lam in ("0.1", "1", "10"):
        assert cli.main(_args("train", data, runs, "--lambda-v", lam)) == 0
    assert len(calls) == 2
    stages = _stages(runs)
    assert len(stages) == 2
    logged = [r.getMessage() for r in caplog.records]
    for stage in stages:
        assert sum(m.startswith(f"stage miss: {stage}") for m in logged) == 1
        assert sum(m == f"stage hit: {stage}" for m in logged) == 2
    warm = Path(capsys.readouterr().out.splitlines()[-1].split(": ", 1)[1])

    cold = tmp_path / "cold"
    assert cli.main(_args("preprocess", data, cold)) == 0
    assert cli.main(_args("train", data, cold, "--lambda-v", "10")) == 0
    assert len(calls) == 4
    assert _tree(warm) == _tree(_single_run_dir(cold, "train-"))
    assert _stages(cold) == stages


def test_stage_keys_follow_autoencoder_inputs_only(workspace):
    data, runs = workspace
    assert cli.main(_args("preprocess", data, runs)) == 0
    assert cli.main(_args("train", data, runs)) == 0
    base = _stages(runs)
    assert {d.split("-")[1] for d in base} == {"text", "tag"}
    # factorization settings reuse both stages
    for extra in (("--lambda-u", "1"), ("--a", "2", "--b", "0.1"), ("--p", "2"),
                  ("--splits", "0")):
        assert cli.main(_args("train", data, runs, *extra)) == 0
        assert _stages(runs) == base
    seen = set(base)
    for extra, renewed in ((("--epochs", "4"), 2), (("--text-widths", "20,6"), 1),
                           (("--seed", "4"), 2)):
        assert cli.main(_args("train", data, runs, *extra)) == 0
        assert len(_stages(runs) - seen) == renewed, extra
        seen = _stages(runs)
    # new contents under the same data directory re-key both stages
    assert cli.main(["synth", "--data-dir", str(data), "--seed", "4",
                     "--n-users", "40", "--n-articles", "60", "--n-clusters", "4",
                     "--min-library", "4", "--max-library", "8",
                     "--doc-length", "30"]) == 0
    assert cli.main(_args("preprocess", data, runs)) == 0
    assert cli.main(_args("train", data, runs)) == 0
    assert len(_stages(runs) - seen) == 2


def test_wrmf_and_pop_create_no_stage(workspace):
    data, runs = workspace
    for variant in ("wrmf", "pop"):
        assert cli.main(_args("preprocess", data, runs, "--variant", variant)) == 0
        assert cli.main(_args("train", data, runs, "--variant", variant)) == 0
    assert not _stages(runs)


@pytest.mark.parametrize("variant, prefix", [("cata", "ae-text-"),
                                             ("cata-tags", "ae-tag-")])
def test_variant_creates_only_its_stage(workspace, variant, prefix):
    data, runs = workspace
    assert cli.main(_args("preprocess", data, runs, "--variant", variant)) == 0
    assert cli.main(_args("train", data, runs, "--variant", variant)) == 0
    stages = _stages(runs)
    assert len(stages) == 1 and stages.pop().startswith(prefix)


@pytest.mark.parametrize("damage", ["truncate", "flip"])
def test_damaged_cached_latent_exits_2(workspace, capsys, damage):
    data, runs = workspace
    assert cli.main(_args("preprocess", data, runs)) == 0
    assert cli.main(_args("train", data, runs)) == 0
    path = _single_run_dir(runs, "ae-text-") / "latent.bin"
    raw = bytearray(path.read_bytes())
    if damage == "truncate":
        del raw[-8:]
    else:
        raw[-3] ^= 0x10
    path.write_bytes(bytes(raw))
    capsys.readouterr()
    assert cli.main(_args("train", data, runs, "--lambda-v", "1")) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


@pytest.mark.parametrize("n_articles", [60, 90])
def test_stale_parents_are_refused(workspace, capsys, n_articles):
    # New data of the same shape, or with more articles, under the same
    # --data-dir: the factors trained on the old data must not be used.
    data, runs = workspace
    assert cli.main(_args("preprocess", data, runs)) == 0
    assert cli.main(_args("train", data, runs)) == 0
    assert cli.main(["synth", "--data-dir", str(data), "--seed", "4",
                     "--n-users", "40", "--n-articles", str(n_articles), "--n-clusters", "4",
                     "--min-library", "4", "--max-library", "8",
                     "--doc-length", "30"]) == 0
    assert cli.main(_args("preprocess", data, runs)) == 0
    for command, extra in (("recommend", ("3",)), ("evaluate", ())):
        capsys.readouterr()
        assert cli.main(_args(command, data, runs, *extra)) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        missing = captured.err.split("missing ", 1)[1].split(";")[0]
        assert os.path.basename(missing).startswith("train-")
        assert not os.path.exists(missing)


def _flip(path, offset, mask=0x40):
    raw = bytearray(path.read_bytes())
    raw[offset] ^= mask
    path.write_bytes(bytes(raw))


def _refused(capsys, argv, *names):
    capsys.readouterr()
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert all(str(name) in captured.err for name in names), captured.err
    return captured.err


def test_undecodable_factor_metadata_exits_2(workspace, capsys):
    # Byte 9 opens the RXTN metadata JSON: "{" becomes ";".
    data, runs = workspace
    assert cli.main(_args("preprocess", data, runs)) == 0
    assert cli.main(_args("train", data, runs)) == 0
    path = _single_run_dir(runs, "train-") / "factors-split1.bin"
    _flip(path, 9)
    for command, extra in (("recommend", ("3",)), ("evaluate", ())):
        _refused(capsys, _args(command, data, runs, *extra), path)


def test_factors_that_do_not_fit_the_interactions_exit_2(workspace, capsys):
    # Byte 9 is the low byte of interactions.bin's n_cols: 60 articles become 124.
    data, runs = workspace
    assert cli.main(_args("preprocess", data, runs)) == 0
    assert cli.main(_args("train", data, runs)) == 0
    interactions = _single_run_dir(runs, "preprocess-") / "interactions.bin"
    _flip(interactions, 9)
    assert storage.read_interactions(interactions).shape[1] == 124
    factors = _single_run_dir(runs, "train-") / "factors-split1.bin"
    for command, extra in (("recommend", ("3",)), ("evaluate", ())):
        _refused(capsys, _args(command, data, runs, *extra), factors, interactions)


def test_compare_across_article_universes_exits_2(workspace, capsys):
    # Without content, wrmf takes n_articles from the largest saved id + 1
    # (55 here), while cata++ takes it from the content file (60).
    data, runs = workspace
    users = data / "users.dat"
    lines = []
    for line in users.read_text().splitlines():
        kept = [i for i in line.split()[1:] if int(i) < 55]
        lines.append(" ".join([str(len(kept))] + kept))
    users.write_text("\n".join(lines) + "\n")
    for variant in ("cata++", "wrmf"):
        assert cli.main(_args("preprocess", data, runs, "--variant", variant)) == 0
        assert cli.main(_args("train", data, runs, "--variant", variant)) == 0
    assert {json.loads((runs / d / "manifest.json").read_text())["stats"]["n_articles"]
            for d in os.listdir(runs) if d.startswith("preprocess-")} == {55, 60}
    for variant, compare in (("wrmf", "cata++"), ("cata++", "wrmf")):
        err = _refused(capsys, _args("evaluate", data, runs, "--variant", variant,
                                     "--compare", compare))
        assert "factors-split1.bin" in err and "interactions.bin" in err
    assert not any(d.startswith("evaluate-") for d in os.listdir(runs))


@pytest.mark.parametrize("variant, stat", [("wrmf", "n_users"), ("cata++", "vocab_size"),
                                           ("cata++", "n_tags")])
def test_an_edited_preprocess_stat_exits_2_naming_the_manifest(workspace, capsys, variant, stat):
    # A hit prints the manifest's stats, so each must be the count its cache
    # header holds: a changed value, a float of the same value and a missing
    # stat are all refused.
    data, runs = workspace
    argv = _args("preprocess", data, runs, "--variant", variant)
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    path = _single_run_dir(runs, "preprocess-") / "manifest.json"
    text = path.read_text()
    manifest = json.loads(text)
    stats = manifest["stats"]
    for edited in ({**stats, stat: 999}, {**stats, stat: float(stats[stat])},
                   {name: value for name, value in stats.items() if name != stat}):
        path.write_text(json.dumps({**manifest, "stats": edited}, indent=2, sort_keys=True))
        err = _refused(capsys, argv, path)
        assert "stats" in err and "cache headers" in err
    path.write_text(text)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_preprocess_hit_makes_no_corpus_call(workspace, capsys, monkeypatch):
    data, runs = workspace
    calls = []
    for name in ("build_bow", "load_interactions"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name,
                            lambda *a, real=real, **k: calls.append(1) or real(*a, **k))
    assert cli.main(_args("preprocess", data, runs)) == 0
    first = capsys.readouterr().out
    assert len(calls) == 2
    assert cli.main(_args("preprocess", data, runs)) == 0
    assert capsys.readouterr().out == first
    assert len(calls) == 2

    path = _single_run_dir(runs, "preprocess-") / "interactions.bin"
    raw = bytearray(path.read_bytes())
    raw[-1] ^= 0x01
    path.write_bytes(bytes(raw))
    assert cli.main(_args("preprocess", data, runs)) == 2
    err = capsys.readouterr().err
    assert str(path) in err and "Traceback" not in err


def test_rounds_into_fresh_out_dirs_are_byte_identical(workspace, tmp_path, capsys):
    # What the benchmark's round-identity check needs: no path, time or host
    # in any manifest or key, so that a round's tree repeats byte for byte.
    data, _ = workspace
    trees = []
    for name in ("one", "two"):
        runs = tmp_path / name
        for command, extra in (("preprocess", ()), ("train", ()),
                               ("evaluate", ("--compare", "pop")), ("evaluate", ()),
                               ("recommend", ("3",))):
            assert cli.main(_args(command, data, runs, *extra)) == 0
        for manifest in runs.glob("*/manifest.json"):
            text = manifest.read_text()
            assert str(runs) not in text and str(data) not in text
        trees.append(_tree(runs))
    assert trees[0] == trees[1]
    assert len([d for d in os.listdir(runs) if d.startswith("evaluate-")]) == 2


def test_nan_scores_in_a_worker_block_exit_3(workspace, capsys, monkeypatch):
    data, runs = workspace
    extra = ("--variant", "wrmf")
    for command in ("preprocess", "train"):
        assert cli.main(_args(command, data, runs, *extra)) == 0
    # blocks of 5 users on a pool of 4, on any host
    monkeypatch.setattr(evaluation, "BLOCK_SCORES", 5 * (60 + 4 * 10))
    monkeypatch.setattr(evaluation, "MIN_BLOCK", 1)
    monkeypatch.setattr(evaluation.blas, "_libraries", lambda: [(lambda: 1, lambda n: None)])
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    real, callers = cli.cf.predict_scores, []

    def poisoned(model, users):
        scores = real(model, users)
        if callers:  # every block, but not the one-user probe the calling thread makes
            scores[0, 0] = float("nan")
        callers.append(threading.get_ident())
        return scores

    monkeypatch.setattr(cli.cf, "predict_scores", poisoned)
    assert cli.main(_args("evaluate", data, runs, *extra)) == 3
    assert "NaN" in capsys.readouterr().err
    assert callers[0] == threading.get_ident() and set(callers[1:]) - {callers[0]}
    assert not list(runs.glob("evaluate-*"))


def test_evaluate_scores_an_f_order_v_and_recommend_a_c_order_one(workspace, monkeypatch):
    # A block's U[block] @ V.T reads a C-contiguous V.T; recommend's one-user
    # product is a GEMV, whose bits would change with the layout.
    data, runs = workspace
    extra = ("--variant", "wrmf")
    for command in ("preprocess", "train"):
        assert cli.main(_args(command, data, runs, *extra)) == 0
    real, layouts = cli.cf.predict_scores, []
    monkeypatch.setattr(cli.cf, "predict_scores", lambda model, users: layouts.append(
        (np.ndim(users), model.V.flags.f_contiguous, model.V.dtype == np.float64))
        or real(model, users))
    assert cli.main(_args("evaluate", data, runs, *extra)) == 0
    assert layouts and set(layouts) == {(1, True, True)}
    layouts.clear()
    assert cli.main(_args("recommend", data, runs, *extra, "3")) == 0
    assert layouts == [(0, False, True)]


def test_evaluate_stage_is_byte_identical_across_blas_thread_counts(tmp_path):
    # evaluate pins BLAS to one thread and ranks the README quick start's four
    # user blocks on one thread per CPU, whatever OPENBLAS_NUM_THREADS says;
    # both runs must publish the same stage and print the same lines.
    data, runs = tmp_path / "data", tmp_path / "runs"
    flags = ["--data-dir", str(data), "--variant", "cata++", "--d", "25",
             "--text-widths", "100,25", "--tag-widths", "25", "--epochs", "5",
             "--vocab-size", "200", "--splits", "1"]
    assert cli.main(["synth", "--data-dir", str(data)]) == 0
    for command in ("preprocess", "train"):
        assert cli.main([command, "--out-dir", str(runs), *flags]) == 0
    src = str(Path(cli.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"runs-{threads}"
        shutil.copytree(runs, out)
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run([sys.executable, "-m", "attnrec.cli", "evaluate", "--out-dir",
                               str(out), *flags, "--compare", "pop"],
                              env=env, capture_output=True, text=True, check=True, timeout=300)
        stage = _single_run_dir(out, "evaluate-")
        outputs.append((stage.name, _tree(stage), done.stdout.replace(str(out), "<runs>")))
    assert outputs[0] == outputs[1]


def _split_stages(runs) -> dict:
    """Each split stage by its manifest's (p, index)."""
    found = {}
    for name in os.listdir(runs):
        if name.startswith("split-"):
            manifest = json.loads((runs / name / "manifest.json").read_text())
            found[manifest["p"], manifest["index"]] = runs / name
    return found


@pytest.mark.parametrize("p", [1, 2])
def test_split_stage_holds_the_derived_split(workspace, tmp_path, p):
    # recommend --variant pop needs no train stage, so it builds the split
    # stage itself; its bytes are what make_split gives on the split stream.
    data, runs = workspace
    extra = ("--variant", "pop", "--p", str(p))
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    for index in range(4):
        assert cli.main(_args("recommend", data, runs, *extra, "--split", str(index), "3")) == 0
    stages = _split_stages(runs)
    assert sorted(stages) == [(p, index) for index in range(4)]
    pre = _single_run_dir(runs, "preprocess-")
    interactions = InteractionMatrix.load(pre / "interactions.bin")
    seed = cli.ExperimentConfig(seed=3).seeds()["split"]
    for index in range(4):
        expected = evaluation.make_split(interactions, p, np.random.default_rng([seed, index]))
        for name, matrix in zip(("train.bin", "test.bin"), expected):
            matrix.save(tmp_path / name)
            assert (stages[p, index] / name).read_bytes() == (tmp_path / name).read_bytes()
        manifest = json.loads((stages[p, index] / "manifest.json").read_text())
        assert manifest["inputs"] == {"preprocess": pre.name}
        assert set(manifest) == {"inputs", "p", "seed", "index", "stats", "files"}


def test_recommend_and_evaluate_after_train_derive_no_split(workspace, monkeypatch):
    data, runs = workspace
    extra = ("--variant", "wrmf")
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("train", data, runs, *extra)) == 0
    calls = []
    make_split = evaluation.make_split
    monkeypatch.setattr(evaluation, "make_split",
                        lambda *a: calls.append(1) or make_split(*a))
    for command, more in (("recommend", ("3",)), ("recommend", ("--variant", "pop", "5")),
                          ("evaluate", ("--compare", "pop")), ("evaluate", ())):
        assert cli.main(_args(command, data, runs, *extra, *more)) == 0
    assert calls == []


@pytest.mark.parametrize("damage", ["truncate", "flip"])
def test_damaged_split_stage_exits_2(workspace, capsys, damage):
    data, runs = workspace
    extra = ("--variant", "wrmf")
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("train", data, runs, *extra)) == 0
    path = _single_run_dir(runs, "split-") / "train.bin"
    raw = bytearray(path.read_bytes())
    if damage == "truncate":
        del raw[-4:]
    else:
        raw[-3] ^= 0x10
    path.write_bytes(bytes(raw))
    for command, more in (("recommend", ("3",)), ("evaluate", ())):
        _refused(capsys, _args(command, data, runs, *extra, *more), path)
    assert not any(d.startswith("evaluate-") for d in os.listdir(runs))


def test_split_stage_is_keyed_by_what_reaches_the_split(workspace):
    data, runs = workspace
    extra = ("--variant", "wrmf")
    splits = lambda: {d for d in os.listdir(runs) if d.startswith("split-")}
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("train", data, runs, *extra, "--lambda-v", "0.1")) == 0
    base = splits()
    assert len(base) == 1
    # settings the derivation does not read reuse the one stage
    for command, more in (("train", ("--lambda-v", "10")), ("train", ("--tol", "0.5")),
                          ("train", ("--max-sweeps", "3")), ("evaluate", ("--tol", "0.5")),
                          ("recommend", ("--variant", "pop", "3")),
                          ("evaluate", ("--variant", "pop"))):
        assert cli.main(_args(command, data, runs, *extra, *more)) == 0
        assert splits() == base, more
    assert len([d for d in os.listdir(runs) if d.startswith("preprocess-")]) == 1
    seen = base
    for more in (("--p", "2"), ("--seed", "4")):
        assert cli.main(_args("recommend", data, runs, *extra, *more, "--variant", "pop",
                              "3")) == 0
        assert len(splits() - seen) == 1, more
        seen = splits()
    # new contents under the same data directory re-key it
    assert cli.main(["synth", "--data-dir", str(data), "--seed", "4",
                     "--n-users", "40", "--n-articles", "60", "--n-clusters", "4",
                     "--min-library", "4", "--max-library", "8",
                     "--doc-length", "30"]) == 0
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("recommend", data, runs, *extra, "--variant", "pop", "3")) == 0
    assert len(splits() - seen) == 1


def test_pop_on_damaged_interactions_exits_2(workspace, capsys):
    # Byte 9 is the low byte of interactions.bin's n_cols: 60 articles become
    # 124. Pop has no factors to check, but the split stage built before the
    # damage no longer fits the file.
    data, runs = workspace
    extra = ("--variant", "wrmf")
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("train", data, runs, *extra)) == 0
    interactions = _single_run_dir(runs, "preprocess-") / "interactions.bin"
    _flip(interactions, 9)
    split = _single_run_dir(runs, "split-") / "train.bin"
    for command, more in (("recommend", ("3",)), ("evaluate", ())):
        err = _refused(capsys, _args(command, data, runs, "--variant", "pop", *more),
                       split, interactions)
        assert "124" in err


def test_one_parser_serves_every_call_without_carrying_values(workspace, tmp_path,
                                                              monkeypatch):
    data, runs = workspace
    args = lambda cmd, out, *extra: [cmd, "--data-dir", str(data), "--out-dir", str(out),
                                     "--variant", "wrmf", "--p", "1", "--d", "6",
                                     "--splits", "1", "--max-sweeps", "4",
                                     "--ks", "5", "--seed", "3", *extra]
    assert cli.build_parser() is cli.build_parser()
    seen, real = [], cli.cmd_train
    monkeypatch.setattr(cli, "cmd_train",
                        lambda config, a: seen.append(config.lambda_v) or real(config, a))
    assert cli.main(args("preprocess", runs)) == 0
    assert cli.main(args("train", runs, "--lambda-v", "10", "--no-such-flag")) == 1
    assert cli.main(args("train", runs, "--lambda-v", "10")) == 0
    assert cli.main(args("train", runs)) == 0
    assert seen == [10.0, 0.1] and cli.ExperimentConfig().lambda_v == 0.1
    # the same two commands, each in a process of its own
    fresh = tmp_path / "fresh"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    for cmd in ("preprocess", "train"):
        subprocess.run([sys.executable, "-m", "attnrec.cli", *args(cmd, fresh)],
                       check=True, env=env)
    trained = _single_run_dir(fresh, "train-")
    assert (runs / trained.name).is_dir()
    assert _tree(runs / trained.name) == _tree(trained)


@pytest.mark.parametrize("name, line, message", [
    ("tags.dat", "1 2\n", "article 60 out of range for 60 articles"),
    ("citations.dat", "1 75\n", "article 75 out of range for 60 articles"),
])
def test_out_of_range_tag_or_citation_line_names_its_file(workspace, capsys, name, line,
                                                          message):
    data, runs = workspace
    path = data / name
    n_lines = len(path.read_text().splitlines())
    with open(path, "a") as fh:
        fh.write(line)
    err = _refused(capsys, _args("preprocess", data, runs), path, message)
    assert f"{path}: line {n_lines + 1}: {message}" in err
    assert not list(runs.glob("preprocess-*"))


def test_recommend_and_train_read_only_the_split_train_file(workspace, capsys, monkeypatch):
    # A split hit checks and reads only the files its caller uses: recommend
    # and train read train.bin, evaluate reads both.
    data, runs = workspace
    extra = ("--variant", "wrmf")
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("train", data, runs, *extra)) == 0
    test_bin = _single_run_dir(runs, "split-") / "test.bin"
    _flip(test_bin, len(test_bin.read_bytes()) - 2)
    opened = []
    for module, name in ((cli, "_sha256_file"), (storage, "read_interactions")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda path, real=real: opened.append(
            os.path.basename(path)) or real(path))
    for command, more in (("recommend", ("3",)), ("recommend", ("--variant", "pop", "3")),
                          ("train", ("--lambda-v", "5"))):
        assert cli.main(_args(command, data, runs, *extra, *more)) == 0
    assert "train.bin" in opened and "test.bin" not in opened
    for more in ((), ("--variant", "pop")):
        _refused(capsys, _args("evaluate", data, runs, *extra, *more), test_bin)
    assert not any(d.startswith("evaluate-") for d in os.listdir(runs))


def test_article_id_past_u32_names_users_dat_line(workspace, capsys):
    # wrmf takes n_articles from the largest id + 1, which a cache's u32
    # column count must hold.
    data, runs = workspace
    users = data / "users.dat"
    n_lines = len(users.read_text().splitlines())
    with open(users, "a") as fh:
        fh.write("2 3 5000000000\n")
    err = _refused(capsys, _args("preprocess", data, runs, "--variant", "wrmf"), users)
    assert f"{users}: line {n_lines + 1}: article 5000000000 out of range" in err
    assert not list(runs.glob("preprocess-*"))


def test_recommend_refuses_a_split_that_was_not_trained(workspace, capsys):
    data, runs = workspace
    extra = ("--variant", "wrmf", "--splits", "1,2")
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("train", data, runs, *extra)) == 0
    capsys.readouterr()
    assert cli.main(_args("recommend", data, runs, *extra, "--split", "7", "3")) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert "split 7 was not trained" in err and "1,2" in err


def test_recommend_pop_accepts_any_split(workspace, capsys):
    data, runs = workspace
    extra = ("--variant", "pop", "--splits", "1")
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    capsys.readouterr()
    assert cli.main(_args("recommend", data, runs, *extra, "--split", "7", "--k", "3",
                          "3")) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


@pytest.mark.parametrize("name, variant", [("users.dat", "wrmf"), ("docs.txt", "cata++"),
                                           ("tags.dat", "cata-tags"),
                                           ("citations.dat", "cata-tags")])
def test_a_byte_that_is_not_utf8_exits_2_naming_its_line(workspace, capsys, name, variant):
    data, runs = workspace
    path = data / name
    n_lines = len(path.read_bytes().splitlines())
    with open(path, "ab") as fh:
        fh.write(b"1 \xff3\n")
    err = _refused(capsys, _args("preprocess", data, runs, "--variant", variant), path)
    message = ("'utf-8' codec can't decode byte 0xff" if name == "docs.txt"
               else "invalid literal b'\\xff3'")  # an id file names the token
    assert f"{path}: line {n_lines + 1}: {message}" in err
    assert not list(runs.glob("preprocess-*"))


@pytest.mark.parametrize("end", [b"\n", b"\r\n", b"\r"])
def test_a_utf8_sequence_cut_at_a_line_end_exits_2_naming_its_line(workspace, capsys, end):
    # Decoded alone, the line ends inside the sequence: "unexpected end of
    # data". Decoded with the rest of the file, the break after it would be a
    # bad continuation byte instead.
    data, runs = workspace
    path = data / "docs.txt"
    lines = path.read_bytes().splitlines()
    path.write_bytes(end.join(lines[:3] + [b"cut \xe2\x82"] + lines[3:]) + end)
    err = _refused(capsys, _args("preprocess", data, runs), path)
    with pytest.raises(ParseError) as want:
        ref.read_raw_docs(path)
    assert f"{want.value}\n" in err
    assert (f"{path}: line 4: 'utf-8' codec can't decode bytes in position 4-5: "
            "unexpected end of data") in err
    assert not list(runs.glob("preprocess-*"))


@pytest.mark.parametrize("name", ["tags.dat", "citations.dat"])
@pytest.mark.parametrize("line, message", [
    (b"\n", "empty line"),
    (b"2 1\n", "declared 2 ids but found 1"),
    (b"1 x\n", "invalid literal"),
    (b"1 -1\n", "-1 out of range"),
])
def test_a_bad_tag_or_citation_line_exits_2_naming_it(workspace, capsys, name, line, message):
    data, runs = workspace
    path = data / name
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:1] + [line] + lines[2:]))
    err = _refused(capsys, _args("preprocess", data, runs, "--variant", "cata-tags"), path)
    assert f"{path}: line 2: " in err and message in err
    assert not list(runs.glob("preprocess-*"))


def test_only_a_split_miss_reads_all_of_interactions_bin(workspace, monkeypatch):
    # Train, evaluate and recommend take the shape from the header; a split
    # stage that is not there yet is derived from the whole file.
    data, runs = workspace
    extra = ("--variant", "wrmf")
    assert cli.main(_args("preprocess", data, runs, *extra)) == 0
    assert cli.main(_args("train", data, runs, *extra)) == 0
    read, real = [], storage.read_interactions
    monkeypatch.setattr(storage, "read_interactions",
                        lambda path: read.append(os.path.basename(path)) or real(path))
    for command, more in (("recommend", ("3",)), ("recommend", ("--variant", "pop", "3")),
                          ("train", ("--lambda-v", "5")), ("evaluate", ())):
        assert cli.main(_args(command, data, runs, *extra, *more)) == 0
    assert "interactions.bin" not in read
    assert cli.main(_args("recommend", data, runs, "--variant", "pop", "--split", "7", "3")) == 0
    assert read[-2:] == ["interactions.bin", "train.bin"]


def test_a_cutoff_past_int64_reports_the_whole_ranking(workspace):
    # With 60 articles, K = 1e11 and K = 1e30 rank every article, as K = 60 does.
    data, runs = workspace
    huge = ["100000000000", "1" + "0" * 30]
    argv = lambda command: _args(command, data, runs, "--variant", "wrmf",
                                 "--ks", ",".join(["60", *huge]))
    for command in ("preprocess", "train", "evaluate"):
        assert cli.main(argv(command)) == 0
    reports = json.loads((_single_run_dir(runs, "evaluate-") / "reports.json").read_text())
    rows = {(rep["split"], rep["k"]): (rep["recall"], rep["ndcg"], rep["n_users"])
            for rep in reports}
    for split in (1, -1):
        assert rows[split, 60][0] == 1.0
        assert rows[split, 60] == rows[split, int(huge[0])] == rows[split, int(huge[1])]


@pytest.mark.parametrize("variant", ["wrmf", "pop"])
def test_recommend_over_no_article_prints_nothing(tmp_path, capsys, variant):
    data, runs = tmp_path / "data", tmp_path / "runs"
    data.mkdir()
    (data / "users.dat").write_text("0\n0\n")
    argv = ["--data-dir", str(data), "--out-dir", str(runs), "--variant", variant]
    for command in ("preprocess", "train"):
        assert cli.main([command, *argv]) == 0
    capsys.readouterr()
    assert cli.main(["recommend", *argv, "0"]) == 0
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["preprocess", "synth"])
def test_a_path_that_cannot_be_written_exits_2_naming_it(workspace, tmp_path, capsys, command):
    data, _ = workspace
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    argv = (["preprocess", "--data-dir", str(data), "--out-dir", str(blocker)]
            if command == "preprocess" else ["synth", "--out", str(blocker / "sub")])
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(blocker) in err


@pytest.mark.parametrize("kind, field, commands", [
    ("preprocess", "min_articles_per_tag",
     (("preprocess",), ("train",), ("evaluate", "--compare", "pop"), ("recommend", "3"))),
    ("ae-text", "epochs", (("train",),)),
    ("ae-tag", "batch_size", (("train",),)),
    ("split", "p", (("recommend", "3"), ("evaluate", "--ks", "7"))),
    ("train", "lambda_v", (("train",), ("evaluate", "--compare", "pop"), ("recommend", "3"))),
    ("evaluate", "ks", (("evaluate", "--compare", "pop"),)),
])
def test_an_edited_stage_manifest_exits_2_naming_it(workspace, capsys, kind, field, commands):
    # Each command that looks the stage up, as a parent or as a hit.
    data, runs = workspace
    for command, *more in (("preprocess",), ("train",), ("evaluate", "--compare", "pop")):
        assert cli.main(_args(command, data, runs, *more)) == 0
    path = _single_run_dir(runs, f"{kind}-") / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest[field] = [manifest[field]]
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    stages = set(os.listdir(runs))
    for command, *more in commands:
        _refused(capsys, _args(command, data, runs, *more), path)
    assert set(os.listdir(runs)) == stages


def test_mult_content_runs_end_to_end_whatever_ends_its_lines(workspace, tmp_path):
    # The synth docs as mult.dat against the vocabulary preprocess picks from
    # them, with every input file's lines ended by LF, CRLF or CR.
    data, _ = workspace
    docs = ref.read_raw_docs(data / "docs.txt")
    vocab = corpus.select_vocabulary(corpus.read_raw_docs(data / "docs.txt"),
                                     corpus.load_stop_words(), 60)
    index = {tok: i for i, tok in enumerate(vocab.tokens)}
    texts = {"mult.dat": []}
    for doc in docs:
        counts = Counter(index[tok] for tok in doc if tok in index)
        texts["mult.dat"].append(" ".join([str(len(counts))]
                                          + [f"{t}:{c}" for t, c in counts.items()]))
    for name in ("users.dat", "tags.dat", "citations.dat"):
        texts[name] = (data / name).read_text().splitlines()
    seen = []
    for i, end in enumerate(("\n", "\r\n", "\r")):
        copy, runs = tmp_path / f"data{i}", tmp_path / f"runs{i}"
        copy.mkdir()
        for name, lines in texts.items():
            (copy / name).write_bytes("".join(line + end for line in lines).encode())
        argv = lambda command, variant, *more: _args(
            command, copy, runs, "--content-format", "mult", "--variant", variant,
            "--epochs", "2", *more)
        assert cli.main(argv("preprocess", "cata++")) == 0
        for command, *more in (("preprocess",), ("train",), ("evaluate", "--compare", "pop"),
                               ("recommend", "3")):
            assert cli.main(argv(command, "cata", *more)) == 0
        pre = next(d for d in runs.glob("preprocess-*") if (d / "tags.bin").exists())
        seen.append(({name: (pre / name).read_bytes()
                      for name in ("content.bin", "tags.bin", "interactions.bin")},
                     sorted(d.name for d in runs.glob("ae-text-*"))))
    assert seen[0] == seen[1] == seen[2]
