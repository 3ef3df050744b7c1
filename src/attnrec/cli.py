"""Command-line pipeline: synth, preprocess, train, evaluate, recommend.

Configuration comes from defaults, then an optional JSON config file, then
individual flags, highest priority last. Every command writes its outputs
under a directory named by a hash of the settings that influence it, next
to a manifest recording input digests and derived statistics. Reruns with
identical inputs and seeds produce byte-identical artifacts, so the run
directories double as caches. Each autoencoder is a stage of its own
(``ae-text-<hash>``, ``ae-tag-<hash>``) keyed by its input digests, so train
calls that differ only in factorization settings share one pretraining.

Exit codes: 0 success, 1 usage or configuration problem, 2 bad or missing
data, 3 numerical failure during optimization.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import math
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import autoencoder as ae_mod
from . import cf, evaluation, storage, synth
from .corpus import (ContentMatrix, InteractionMatrix, TagMatrix, build_bow,
                     build_tag_matrix, load_citations, load_interactions,
                     load_mult_content, load_stop_words, load_tag_assignments,
                     read_raw_docs, select_vocabulary)
from .errors import ConfigError, DataError, Error, NumericalError

logger = logging.getLogger(__name__)

DATA_DIR_ENV = "ATTNREC_DATA_DIR"
ALL_VARIANTS = ("pop",) + cf.VARIANTS


@dataclass
class ExperimentConfig:
    data_dir: str = "data"
    out_dir: str = "runs"
    variant: str = "cata++"
    p: int = 1
    d: int = 50
    lambda_u: float = 10.0
    lambda_v: float = 0.1
    a: float = 1.0
    b: float = 0.01
    text_widths: tuple = (400, 200, 100, 50)
    tag_widths: tuple = (400, 200, 100, 50)
    epochs: int = 200
    batch_size: int = 128
    ks: tuple = (50, 100, 150, 200, 250, 300)
    seed: int = 0
    vocab_size: int = 8000
    min_articles_per_tag: int = 5
    n_splits: int = 4
    splits: tuple = (1, 2, 3)
    tol: float = 1e-4
    max_sweeps: int = 50
    content_format: str = "raw"
    tags_format: str = "plain"
    citations_format: str = "pairs"

    def validate(self):
        if self.variant not in ALL_VARIANTS:
            raise ConfigError(f"variant must be one of {ALL_VARIANTS}, got {self.variant!r}")
        for name in ("lambda_u", "lambda_v", "seed", "min_articles_per_tag", "epochs"):
            if not 0 <= getattr(self, name) < math.inf:  # also rejects NaN
                raise ConfigError(f"{name} must be a finite number >= 0, "
                                  f"got {getattr(self, name)}")
        for name, least in (("p", 1), ("d", 1), ("batch_size", 2), ("max_sweeps", 1),
                            ("vocab_size", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}")
        if not (math.isfinite(self.a) and self.a > self.b > 0):
            raise ConfigError(f"confidence weights need finite a > b > 0, "
                              f"got a={self.a}, b={self.b}")
        if not self.tol >= 0:  # also rejects NaN
            raise ConfigError(f"tol must be a number >= 0, got {self.tol}")
        if not self.ks or any(k < 1 for k in self.ks):
            raise ConfigError("ks must be a nonempty list of cutoffs >= 1")
        if self.n_splits < 1 or any(not 0 <= s < self.n_splits for s in self.splits):
            raise ConfigError("split indices must lie in [0, n_splits)")
        if self.content_format not in ("raw", "mult"):
            raise ConfigError("content_format must be 'raw' or 'mult'")
        if self.tags_format not in ("plain", "counted"):
            raise ConfigError("tags_format must be 'plain' or 'counted'")
        if self.citations_format not in ("pairs", "adjacency"):
            raise ConfigError("citations_format must be 'pairs' or 'adjacency'")
        if self.needs_text and self.text_widths[-1] != self.d:
            raise ConfigError(
                f"text widths must end at d={self.d}, got {list(self.text_widths)}")
        if self.needs_tags and self.tag_widths[-1] != self.d:
            raise ConfigError(
                f"tag widths must end at d={self.d}, got {list(self.tag_widths)}")

    @property
    def needs_text(self) -> bool:
        return self.variant in ("cata", "cata++")

    @property
    def needs_tags(self) -> bool:
        return self.variant in ("cata-tags", "cata++")

    def seeds(self) -> dict:
        """Named per-stage seeds derived from the master seed."""
        state = np.random.SeedSequence(self.seed).generate_state(6)
        names = ("synth", "split", "text_ae", "tag_ae", "factors", "spare")
        return {name: int(s) for name, s in zip(names, state)}


# Settings that influence each command's artifacts; the hash of this subset
# names the run directory, so unrelated flag changes reuse existing caches.
_PREPROCESS_KEYS = ("data_dir", "vocab_size", "min_articles_per_tag",
                    "content_format", "tags_format", "citations_format",
                    "needs_text", "needs_tags")
_TRAIN_KEYS = _PREPROCESS_KEYS + ("variant", "p", "d", "lambda_u", "lambda_v",
                                  "a", "b", "text_widths", "tag_widths",
                                  "epochs", "batch_size", "seed", "n_splits",
                                  "splits", "tol", "max_sweeps")
_EVALUATE_KEYS = _TRAIN_KEYS + ("ks",)


def load_config(path, overrides: dict) -> ExperimentConfig:
    values = {}
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        known = {f.name for f in fields(ExperimentConfig)}
        unknown = sorted(set(loaded) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values.update(loaded)
    values.update({k: v for k, v in overrides.items() if v is not None})
    config = ExperimentConfig(**{f.name: _typed(f.name, values[f.name], type(f.default))
                                 for f in fields(ExperimentConfig) if f.name in values})
    config.validate()
    return config


def _typed(name: str, value, kind: type):
    """``value`` checked against ``kind``, the type of the setting's default:
    ints refuse floats and bools, floats take ints, and lists (a sequence or
    a comma- or space-separated string) hold ints."""
    if kind is tuple:
        items = value.replace(",", " ").split() if isinstance(value, str) else value
        try:
            return tuple(_typed(name, int(x) if isinstance(x, str) else x, int) for x in items)
        except (TypeError, ValueError, ConfigError):
            raise ConfigError(f"{name} must be a list of integers, got {value!r}") from None
    if kind is float and type(value) is int:
        return float(value)
    if type(value) is not kind:
        raise ConfigError(f"{name} must be {kind.__name__}, got {value!r}")
    return value


def _config_subset(config: ExperimentConfig, keys) -> dict:
    subset = {}
    for key in keys:
        value = getattr(config, key)
        subset[key] = list(value) if isinstance(value, tuple) else value
    return subset


def _digest12(payload: dict) -> str:
    """Directory hash of ``payload`` and the cache-format versions, so that a
    format bump makes earlier directories stale rather than unreadable."""
    formats = {magic.decode(): v for magic, v in storage._VERSIONS.items()}
    text = json.dumps({**payload, "formats": formats}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def config_hash(config: ExperimentConfig, keys) -> str:
    return _digest12(_config_subset(config, keys))


def run_dir(config: ExperimentConfig, command: str) -> str:
    keys = {"preprocess": _PREPROCESS_KEYS, "train": _TRAIN_KEYS,
            "evaluate": _EVALUATE_KEYS}[command]
    return os.path.join(config.out_dir, f"{command}-{config_hash(config, keys)}")


def _sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _digests(paths) -> dict:
    return {os.path.basename(p): _sha256_file(p) for p in paths}


def _write_json(path, obj, indent=2):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def _write_manifest(directory, command, config, keys, inputs: dict, stats):
    _write_json(os.path.join(directory, "manifest.json"), {
        "command": command,
        "config": _config_subset(config, keys),
        "config_hash": config_hash(config, keys),
        "inputs": inputs,
        "stats": stats,
    })


class _RunDir:
    """Stage outputs in a private scratch directory next to the final one and
    publish it on success, replacing an earlier run's directory.

    A failed command leaves no partial run directory behind. When a
    concurrent run of the same settings publishes first, this run's staging
    is discarded: seeded runs of one config write identical bytes.
    """

    def __init__(self, final: str):
        self.final = final

    def __enter__(self):
        parent = os.path.dirname(self.final) or "."
        os.makedirs(parent, exist_ok=True)
        self.replaces = os.path.exists(self.final)
        self.tmp = tempfile.mkdtemp(prefix=os.path.basename(self.final) + ".",
                                    suffix=".partial", dir=parent)
        os.chmod(self.tmp, 0o755)  # mkdtemp makes it private to the owner
        return self.tmp

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                if self.replaces:
                    shutil.rmtree(self.final, ignore_errors=True)
                try:
                    os.rename(self.tmp, self.final)
                except OSError:
                    if not os.path.isdir(self.final):  # not a concurrent publish
                        raise
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)
        return False


def _require(path, hint: str):
    if not os.path.exists(path):
        raise DataError(f"missing {path}; run `attnrec {hint}` first")
    return path


# ---------------------------------------------------------------------------
# Commands


def cmd_synth(config: ExperimentConfig, args) -> int:
    out = args.out or config.data_dir
    scfg = synth.SynthConfig(seed=config.seed)
    for name in ("n_users", "n_articles", "n_clusters", "min_library",
                 "max_library", "doc_length"):
        value = getattr(args, name, None)
        if value is not None:
            setattr(scfg, name, value)
    data = synth.generate(scfg)
    synth.write_dataset(data, out)
    n_pairs = sum(len(lib) for lib in data.libraries)
    print(f"wrote synthetic dataset to {out}: {scfg.n_users} users, "
          f"{scfg.n_articles} articles, {n_pairs} pairs")
    return 0


def _preprocess_inputs(config: ExperimentConfig) -> list:
    paths = [os.path.join(config.data_dir, "users.dat")]
    if config.needs_text:
        name = "mult.dat" if config.content_format == "mult" else "docs.txt"
        paths.append(os.path.join(config.data_dir, name))
    if config.needs_tags:
        paths.append(os.path.join(config.data_dir, "tags.dat"))
        paths.append(os.path.join(config.data_dir, "citations.dat"))
    return paths


def cmd_preprocess(config: ExperimentConfig, args) -> int:
    inputs = _preprocess_inputs(config)
    for path in inputs:
        if not os.path.exists(path):
            raise DataError(f"missing input file: {path}")
    final = run_dir(config, "preprocess")
    stats = {}
    with _RunDir(final) as tmp:
        content = None
        n_articles = None
        if config.needs_text:
            if config.content_format == "mult":
                content = load_mult_content(inputs[1], vocab_size=config.vocab_size)
                stats["vocab_size"] = content.vocab_size
            else:
                docs = read_raw_docs(inputs[1])
                vocab = select_vocabulary(docs, load_stop_words(), config.vocab_size)
                vocab.save(os.path.join(tmp, "vocab.tsv"))
                content = build_bow(docs, vocab)
                stats["vocab_size"] = len(vocab)
            content.save(os.path.join(tmp, "content.bin"))
            n_articles = content.n_articles

        interactions = load_interactions(os.path.join(config.data_dir, "users.dat"),
                                         n_articles=n_articles)
        if n_articles is None:
            n_articles = interactions.n_articles
        interactions.save(os.path.join(tmp, "interactions.bin"))
        stats.update(n_users=interactions.n_users, n_articles=n_articles,
                     n_pairs=interactions.n_pairs)

        if config.needs_tags:
            assignments = load_tag_assignments(
                os.path.join(config.data_dir, "tags.dat"),
                counted=config.tags_format == "counted")
            citations = load_citations(os.path.join(config.data_dir, "citations.dat"),
                                       fmt=config.citations_format)
            tag_matrix = build_tag_matrix(assignments, citations,
                                          config.min_articles_per_tag,
                                          n_articles=n_articles)
            tag_matrix.save(os.path.join(tmp, "tags.bin"))
            stats["n_tags"] = tag_matrix.n_tags

        _write_manifest(tmp, "preprocess", config, _PREPROCESS_KEYS, _digests(inputs), stats)
    print(f"preprocess cache: {final}")
    for key, value in sorted(stats.items()):
        print(f"  {key}: {value}")
    return 0


def _cached(config: ExperimentConfig, name: str) -> str:
    """Path of one file in the preprocess cache, which must exist."""
    return _require(os.path.join(run_dir(config, "preprocess"), name), "preprocess")


_AE_STAGE_FORMAT = 2  # bump when an ae-* directory's layout or training arithmetic changes


def _ae_stage(config: ExperimentConfig, name: str, path: str, load, digest: str) -> str:
    """The directory of the pretrained ``name`` autoencoder, published on a miss.
    Its key is what reaches the autoencoder: the digest of its input cache
    (not the data directory), widths, epochs, batch size and seed. Factorization
    settings and splits never do, so a sweep over them pretrains once."""
    settings = {"stage": f"ae-{name}", "format": _AE_STAGE_FORMAT,
                "input": {os.path.basename(path): digest},
                "widths": list(getattr(config, f"{name}_widths")),
                "epochs": config.epochs, "batch_size": config.batch_size,
                "seed": config.seeds()[f"{name}_ae"]}
    final = os.path.join(config.out_dir, f"ae-{name}-{_digest12(settings)}")
    if os.path.isdir(final):
        logger.info("stage hit: %s", os.path.basename(final))
        _verify_stage(final)
        return final
    logger.info("stage miss: %s; pretraining", os.path.basename(final))
    matrix = load(path)
    with _RunDir(final) as tmp:
        seed = settings["seed"]
        model = ae_mod.AttentiveAutoencoder(matrix.matrix.shape[1], settings["widths"], seed=seed)
        losses = ae_mod.pretrain(model, matrix, epochs=config.epochs,
                                 batch_size=config.batch_size, seed=seed)
        logger.info("%s autoencoder: %d epochs, final loss %s", name, len(losses),
                    losses[-1] if losses else "n/a")
        files = [os.path.join(tmp, n)
                 for n in (f"{name}_ae.bin", f"{name}_ae_loss.json", "latent.bin")]
        ae_mod.save_autoencoder(model, files[0])
        _write_json(files[1], losses, indent=None)
        ae_mod.save_latent(files[2], model.encode(matrix))
        _write_json(os.path.join(tmp, "manifest.json"),
                    {"settings": settings, "files": _digests(files)})
    return final


def _verify_stage(stage: str):
    """Refuse a published stage whose files differ from its manifest's digests."""
    path = os.path.join(stage, "manifest.json")
    try:
        with open(path) as fh:
            files = json.load(fh)["files"]
        bad = [n for n, digest in files.items()
               if _sha256_file(os.path.join(stage, n)) != digest]
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: unreadable stage manifest: {exc}") from None
    if bad:
        raise DataError(f"{os.path.join(stage, bad[0])}: contents differ from the "
                        f"digest in {path}; delete {stage} to pretrain again")


def cmd_train(config: ExperimentConfig, args) -> int:
    interactions = InteractionMatrix.load(_cached(config, "interactions.bin"))
    cache = run_dir(config, "preprocess")
    # Hashed once: these digests key the autoencoder stages and fill the manifest.
    inputs = _digests(os.path.join(cache, n) for n in os.listdir(cache) if n.endswith(".bin"))
    stages, latents = {}, {}
    for name, needed, cls, cache_name in (
            ("text", config.needs_text, ContentMatrix, "content.bin"),
            ("tag", config.needs_tags, TagMatrix, "tags.bin")):
        if needed:
            stages[name] = _ae_stage(config, name, _cached(config, cache_name),
                                     cls.load, inputs[cache_name])
            latents[name] = ae_mod.load_latent(os.path.join(stages[name], "latent.bin"))
    final = run_dir(config, "train")
    with _RunDir(final) as tmp:
        for name, stage in stages.items():
            for file in (f"{name}_ae.bin", f"{name}_ae_loss.json"):
                shutil.copyfile(os.path.join(stage, file), os.path.join(tmp, file))

        stats = {"variant": config.variant,
                 "stages": {name: os.path.basename(s) for name, s in stages.items()}}
        if config.variant == "pop":
            # Popularity needs no factors; the manifest still records the run.
            stats["note"] = "popularity baseline has no trainable parameters"
        else:
            prior = cf.make_prior(config.variant, interactions.n_articles, config.d,
                                  latents.get("text"), latents.get("tag"))
            traces = {}
            for index in config.splits:
                r_train, _ = _split(config, interactions, index)
                model = cf.init_model(interactions.n_users, interactions.n_articles,
                                      config.d, lambda_u=config.lambda_u,
                                      lambda_v=config.lambda_v, a=config.a,
                                      b=config.b, variant=config.variant,
                                      seed=config.seeds()["factors"])
                trace = cf.train_als(r_train, model, prior,
                                     max_sweeps=config.max_sweeps, tol=config.tol)
                cf.save_factors(os.path.join(tmp, f"factors-split{index}.bin"),
                                model, sweeps=len(trace) - 1)
                traces[str(index)] = trace
                logger.info("split %d: %d sweeps, objective %.6f -> %.6f",
                            index, len(trace) - 1, trace[0], trace[-1])
            _write_json(os.path.join(tmp, "objective_trace.json"), traces)
            stats["sweeps"] = {k: len(v) - 1 for k, v in traces.items()}

        _write_manifest(tmp, "train", config, _TRAIN_KEYS, inputs, stats)
    print(f"train outputs: {final}")
    return 0


def _split(config: ExperimentConfig, interactions, index):
    """The (train, test) matrices of one split."""
    rng = np.random.default_rng([config.seeds()["split"], index])
    return evaluation.make_split(interactions, config.p, rng)


def _scorer(config: ExperimentConfig, r_train, train_dir, index):
    """Scores for an int user or an index array; pop gives one shared row."""
    if config.variant == "pop":
        counts = r_train.item_counts().astype(np.float64)
        return lambda users: counts
    path = _require(os.path.join(train_dir, f"factors-split{index}.bin"), "train")
    model, _ = cf.load_factors(path)
    return lambda users: cf.predict_scores(model, users)


def _evaluate_variant(config: ExperimentConfig, splits: dict) -> list:
    train_dir = None
    if config.variant != "pop":
        train_dir = _require(run_dir(config, "train"), "train")
    setting = f"P={config.p}"
    reports = []
    for index, (r_train, r_test) in splits.items():
        score_fn = _scorer(config, r_train, train_dir, index)
        reports.extend(evaluation.evaluate(score_fn, r_train, r_test, config.ks,
                                           variant=config.variant,
                                           setting=setting, split=index))
    return reports + evaluation.average_reports(reports)


def cmd_evaluate(config: ExperimentConfig, args) -> int:
    interactions = InteractionMatrix.load(_cached(config, "interactions.bin"))
    splits = {index: _split(config, interactions, index) for index in config.splits}
    reports = _evaluate_variant(config, splits)

    compare_reports = None
    if args.compare:
        if args.compare == config.variant:
            raise ConfigError("--compare variant matches the evaluated variant")
        base_cfg = ExperimentConfig(**{**asdict(config), "variant": args.compare})
        base_cfg.validate()
        compare_reports = _evaluate_variant(base_cfg, splits)

    final = run_dir(config, "evaluate")
    with _RunDir(final) as tmp:
        evaluation.reports_to_csv(reports, os.path.join(tmp, "reports.csv"))
        evaluation.reports_to_json(reports, os.path.join(tmp, "reports.json"))
        if compare_reports is not None:
            _write_improvement(tmp, reports, compare_reports, args.compare)
        _write_manifest(tmp, "evaluate", config, _EVALUATE_KEYS, {},
                        {"n_reports": len(reports)})
    print(f"evaluation reports: {final}")
    for rep in reports:
        if rep.split == -1:
            print(f"  {rep.variant} {rep.setting} K={rep.k}: "
                  f"recall={rep.recall:.4f} ndcg={rep.ndcg:.4f}")
    return 0


def _write_improvement(tmp, ours: list, base: list, base_name: str):
    """Relative gain of the evaluated variant over the comparison variant,
    in percent, on the cross-split averages."""
    ours_avg = {r.k: r for r in ours if r.split == -1}
    base_avg = {r.k: r for r in base if r.split == -1}
    rows = []
    for k in sorted(ours_avg):
        if k not in base_avg:
            continue
        rows.append({
            "k": k,
            "baseline": base_name,
            "recall_improvement_pct": evaluation.improvement_pct(
                ours_avg[k].recall, base_avg[k].recall),
            "ndcg_improvement_pct": evaluation.improvement_pct(
                ours_avg[k].ndcg, base_avg[k].ndcg),
        })
    _write_json(os.path.join(tmp, "improvement.json"), rows)
    with open(os.path.join(tmp, "improvement.csv"), "w") as fh:
        fh.write("k,baseline,recall_improvement_pct,ndcg_improvement_pct\n")
        for row in rows:
            fh.write(f"{row['k']},{row['baseline']},"
                     f"{row['recall_improvement_pct']:.6f},"
                     f"{row['ndcg_improvement_pct']:.6f}\n")


def cmd_recommend(config: ExperimentConfig, args) -> int:
    interactions = InteractionMatrix.load(_cached(config, "interactions.bin"))
    if not 0 <= args.user_id < interactions.n_users:
        raise ConfigError(f"user id must lie in [0, {interactions.n_users})")
    index = args.split if args.split is not None else config.splits[0]
    if not 0 <= index < config.n_splits:
        raise ConfigError(f"split must lie in [0, {config.n_splits})")
    train_dir = None
    if config.variant != "pop":
        train_dir = _require(run_dir(config, "train"), "train")
    r_train, _ = _split(config, interactions, index)
    scores = _scorer(config, r_train, train_dir, index)(args.user_id)
    picks = evaluation.top_k(scores, args.k, exclude=r_train.user_items(args.user_id))
    for rank, article in enumerate(picks, start=1):
        print(f"{rank}\t{int(article)}\t{scores[article]:.6f}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


class _Parser(argparse.ArgumentParser):
    """Usage problems exit 1, matching the documented code for config errors."""

    def error(self, message):
        raise ConfigError(message)


def _add_config_flags(sub):
    sub.add_argument("--config", metavar="FILE", help="JSON config file")
    sub.add_argument("--data-dir", dest="data_dir",
                     help=f"input directory (default ${DATA_DIR_ENV} or ./data)")
    sub.add_argument("--out-dir", dest="out_dir", help="run directory root")
    sub.add_argument("--variant", choices=ALL_VARIANTS)
    sub.add_argument("--p", type=int, help="training articles per user in a split")
    sub.add_argument("--d", type=int, help="latent dimensionality")
    sub.add_argument("--lambda-u", dest="lambda_u", type=float)
    sub.add_argument("--lambda-v", dest="lambda_v", type=float)
    sub.add_argument("--a", type=float, help="confidence on observed pairs")
    sub.add_argument("--b", type=float, help="confidence on unobserved pairs")
    sub.add_argument("--text-widths", dest="text_widths",
                     help="comma-separated encoder widths for text")
    sub.add_argument("--tag-widths", dest="tag_widths",
                     help="comma-separated encoder widths for tags")
    sub.add_argument("--epochs", type=int)
    sub.add_argument("--batch-size", dest="batch_size", type=int)
    sub.add_argument("--ks", help="comma-separated ranking cutoffs")
    sub.add_argument("--seed", type=int)
    sub.add_argument("--vocab-size", dest="vocab_size", type=int)
    sub.add_argument("--min-articles-per-tag", dest="min_articles_per_tag", type=int)
    sub.add_argument("--n-splits", dest="n_splits", type=int)
    sub.add_argument("--splits", help="comma-separated split indices to use")
    sub.add_argument("--tol", type=float, help="relative objective stop threshold")
    sub.add_argument("--max-sweeps", dest="max_sweeps", type=int)
    sub.add_argument("--content-format", dest="content_format",
                     choices=("raw", "mult"))
    sub.add_argument("--tags-format", dest="tags_format",
                     choices=("plain", "counted"))
    sub.add_argument("--citations-format", dest="citations_format",
                     choices=("pairs", "adjacency"))


def build_parser() -> _Parser:
    parser = _Parser(prog="attnrec",
                     description="Hybrid recommender over implicit feedback "
                                 "with autoencoder content priors.")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    subs = parser.add_subparsers(dest="command", required=True)

    p_synth = subs.add_parser("synth", help="write a synthetic dataset")
    _add_config_flags(p_synth)
    p_synth.add_argument("--out", help="output directory (default: data dir)")
    p_synth.add_argument("--n-users", dest="n_users", type=int)
    p_synth.add_argument("--n-articles", dest="n_articles", type=int)
    p_synth.add_argument("--n-clusters", dest="n_clusters", type=int)
    p_synth.add_argument("--min-library", dest="min_library", type=int)
    p_synth.add_argument("--max-library", dest="max_library", type=int)
    p_synth.add_argument("--doc-length", dest="doc_length", type=int)

    p_pre = subs.add_parser("preprocess", help="build binary caches from raw files")
    _add_config_flags(p_pre)

    p_train = subs.add_parser("train", help="pretrain autoencoders and run ALS")
    _add_config_flags(p_train)

    p_eval = subs.add_parser("evaluate", help="rank held-out articles and report")
    _add_config_flags(p_eval)
    p_eval.add_argument("--compare", choices=ALL_VARIANTS,
                        help="also evaluate this variant and emit an improvement table")

    p_rec = subs.add_parser("recommend", help="print top-k articles for one user")
    _add_config_flags(p_rec)
    p_rec.add_argument("user_id", type=int)
    p_rec.add_argument("--k", type=int, default=10)
    p_rec.add_argument("--split", type=int,
                       help="which split's checkpoint to use")
    return parser


_CONFIG_FLAG_NAMES = tuple(f.name for f in fields(ExperimentConfig))


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s")
        overrides = {name: getattr(args, name, None) for name in _CONFIG_FLAG_NAMES}
        if overrides.get("data_dir") is None:
            overrides["data_dir"] = os.environ.get(DATA_DIR_ENV)
        config = load_config(args.config, overrides)
        handler = {"synth": cmd_synth, "preprocess": cmd_preprocess,
                   "train": cmd_train, "evaluate": cmd_evaluate,
                   "recommend": cmd_recommend}[args.command]
        return handler(config, args)
    except Error as exc:  # ConfigError and any other Error exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DataError) else 3 if isinstance(exc, NumericalError) else 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
