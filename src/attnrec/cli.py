"""Command-line pipeline: synth, preprocess, train, evaluate, recommend.

Configuration comes from defaults, then an optional JSON config file, then
individual flags, highest priority last. Every cached directory is a stage,
``<out_dir>/<kind>-<hash>``, named by one function (``_stage``) from a key
of the settings that reach it plus the content of its inputs: the SHA-256
of each raw file for ``preprocess``, of the input cache for ``ae-text`` and
``ae-tag``, and parent stage names for ``split``, ``train`` and ``evaluate``. No key
holds a path, so changed data yields new names and a stale parent is a
missing one, refused with exit 2. A stage found under its name is reused
after its files are checked against the digests in its manifest; it is
never rebuilt or replaced. Seeded runs produce byte-identical directories.

Exit codes: 0 success, 1 usage or configuration problem, 2 bad or missing
data, 3 numerical failure during optimization.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, fields, replace

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
_CHOICES = {"variant": ALL_VARIANTS, "content_format": ("raw", "mult")}


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
    splits: tuple = (1, 2, 3)
    tol: float = 1e-4
    max_sweeps: int = 50
    content_format: str = "raw"

    def validate(self):
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, got {getattr(self, name)!r}")
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
        for name, least in (("ks", 1), ("splits", 0)):
            values = getattr(self, name)
            if not values or min(values) < least or len(set(values)) < len(values):
                raise ConfigError(f"{name} must be a nonempty list of distinct "
                                  f"integers >= {least}, got {list(values)}")
        for name in self.autoencoders:
            widths = list(getattr(self, f"{name}_widths"))
            if widths[-1:] != [self.d]:  # an empty list too
                raise ConfigError(f"{name}_widths must end at d={self.d}, got {widths}")

    @property
    def autoencoders(self) -> tuple:
        """The content autoencoders the variant pretrains, "text" and/or "tag"."""
        return cf.LATENTS.get(self.variant, ())

    def seeds(self) -> dict:
        """Named per-stage seeds derived from the master seed."""
        state = np.random.SeedSequence(self.seed).generate_state(6)
        names = ("synth", "split", "text_ae", "tag_ae", "factors", "spare")
        return {name: int(s) for name, s in zip(names, state)}


def load_config(path, overrides: dict) -> ExperimentConfig:
    values = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are both one
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


_STAGE_FORMAT = 4  # bump when a stage directory's layout or the arithmetic behind it changes


def _digest12(payload: dict) -> str:
    """Directory hash of ``payload``, the stage format and the cache-format
    versions, so that a format bump makes earlier directories stale rather
    than unreadable."""
    formats = {magic.decode(): v for magic, v in storage._VERSIONS.items()}
    formats["stage"] = _STAGE_FORMAT
    text = json.dumps({**payload, "formats": formats}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_json(path, obj, indent=2):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=indent, sort_keys=True)
        fh.write("\n")


def _stage(config: ExperimentConfig, kind: str, key: dict, build=None, reads=None) -> str:
    """The directory ``<out_dir>/<kind>-<hash of key>`` of one pipeline stage.

    ``key`` holds the ``inputs`` (digests or stage names) and the settings
    that reach the stage, never a path, so a stale parent is a missing one.
    Every lookup refuses a manifest whose key differs from ``key``. Without
    ``build`` the stage is a parent that must exist. With it, a hit is
    verified against its manifest, only in the files ``reads`` names when
    given; a miss runs ``build(tmp)``, which returns stats, and publishes the
    key, the stats and the file digests.

    ``tmp`` is a private staging directory next to the final one, renamed
    into place on success and removed either way, so a failed build leaves
    no partial stage. A published stage is never replaced: when a concurrent
    build of the same key publishes first, the rename fails and this staging
    is discarded, since builds of one key write identical bytes.
    """
    final = os.path.join(config.out_dir, f"{kind}-{_digest12(key)}")
    if os.path.isdir(final):
        stored = {n: v for n, v in _manifest(final).items() if n not in ("stats", "files")}
        if stored != json.loads(json.dumps(key)):  # JSON has no tuples
            raise DataError(f"{final}/manifest.json: its key is not the one that names "
                            f"the stage; delete {final} to build it again")
        if build is None:
            return final
        logger.info("stage hit: %s", os.path.basename(final))
        digests = _manifest(final, "files")
        for name in digests if reads is None else reads:
            path = os.path.join(final, name)
            if not os.path.isfile(path) or _sha256_file(path) != digests.get(name):
                raise DataError(f"{path}: contents differ from the digest in "
                                f"{final}/manifest.json; delete {final} to build it again")
        return final
    if build is None:
        raise DataError(f"missing {final}; run `attnrec {kind}` first")
    logger.info("stage miss: %s", os.path.basename(final))
    parent = config.out_dir or "."
    os.makedirs(parent, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=os.path.basename(final) + ".", suffix=".partial", dir=parent)
    try:
        os.chmod(tmp, 0o755)  # mkdtemp makes it private to the owner
        stats = build(tmp)
        files = {n: _sha256_file(os.path.join(tmp, n)) for n in sorted(os.listdir(tmp))}
        _write_json(os.path.join(tmp, "manifest.json"), {**key, "stats": stats, "files": files})
        try:
            os.rename(tmp, final)
        except OSError:
            if not os.path.isdir(final):  # not a concurrent publish
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return final


def _manifest(stage: str, field: str | None = None) -> dict:
    """A published stage's manifest, or its ``stats`` or ``files`` object."""
    path = os.path.join(stage, "manifest.json")
    try:
        with open(path) as fh:
            manifest = dict(json.load(fh))
        return manifest if field is None else dict(manifest[field])
    except (OSError, ValueError, LookupError, TypeError) as exc:
        raise DataError(f"{path}: unreadable stage manifest: {exc!r}") from None


def _preprocess_key(config: ExperimentConfig) -> dict:
    """The SHA-256 of each raw input file and the settings that shape the
    caches; the data directory's path is not part of it."""
    names = ["users.dat"]
    if "text" in config.autoencoders:
        names.append("mult.dat" if config.content_format == "mult" else "docs.txt")
    if "tag" in config.autoencoders:
        names += ["tags.dat", "citations.dat"]
    paths = [os.path.join(config.data_dir, name) for name in names]
    for path in paths:
        if not os.path.isfile(path):
            raise DataError(f"missing input file: {path}")
    return {"inputs": {os.path.basename(path): _sha256_file(path) for path in paths},
            **{name: getattr(config, name) for name in (
                "vocab_size", "min_articles_per_tag", "content_format", "autoencoders")}}


_AE_CACHES = {"text": (ContentMatrix, "content.bin"), "tag": (TagMatrix, "tags.bin")}


def _ae_key(config: ExperimentConfig, files: dict, name: str) -> dict:
    """What reaches the ``name`` autoencoder: the digest of its input cache,
    read from the preprocess manifest's ``files``, its widths, epochs, batch
    size and seed. Factorization settings and splits never do, so a sweep
    over them pretrains once."""
    cache = _AE_CACHES[name][1]
    return {"inputs": {cache: files.get(cache)},
            "widths": getattr(config, f"{name}_widths"), "epochs": config.epochs,
            "batch_size": config.batch_size, "seed": config.seeds()[f"{name}_ae"]}


def _train_key(config: ExperimentConfig, pre: str) -> dict:
    """The preprocess and autoencoder stage names and the factorization and
    split settings; widths and epochs reach it only through the stage names."""
    files = _manifest(pre, "files")
    inputs = {"preprocess": os.path.basename(pre),
              **{f"ae-{name}": f"ae-{name}-{_digest12(_ae_key(config, files, name))}"
                 for name in config.autoencoders}}
    return {"inputs": inputs,
            **{name: getattr(config, name) for name in (
                "variant", "p", "d", "lambda_u", "lambda_v", "a", "b", "seed",
                "splits", "tol", "max_sweeps")}}


def _trained(config: ExperimentConfig, pre: str) -> str:
    """The train directory that evaluate and recommend score ``config.variant``
    with, looked up as a parent; "pop" for the popularity baseline, which has
    none."""
    if config.variant == "pop":
        return "pop"
    return _stage(config, "train", _train_key(config, pre))


# ---------------------------------------------------------------------------
# Commands


_SYNTH_FLAGS = ("n_users", "n_articles", "n_clusters", "min_library", "max_library",
                "doc_length")


def cmd_synth(config: ExperimentConfig, args) -> int:
    out = args.out or config.data_dir
    scfg = synth.SynthConfig(seed=config.seed)
    for name in _SYNTH_FLAGS:
        value = getattr(args, name, None)
        if value is not None:
            setattr(scfg, name, value)
    data = synth.generate(scfg)
    synth.write_dataset(data, out)
    n_pairs = sum(len(lib) for lib in data.libraries)
    print(f"wrote synthetic dataset to {out}: {scfg.n_users} users, "
          f"{scfg.n_articles} articles, {n_pairs} pairs")
    return 0


def cmd_preprocess(config: ExperimentConfig, args) -> int:
    final = _stage(config, "preprocess", _preprocess_key(config),
                   lambda tmp: _preprocess(config, tmp))
    stats = _manifest(final, "stats")
    if json.dumps(stats, sort_keys=True) != json.dumps(_cache_stats(final), sort_keys=True):
        raise DataError(f"{final}/manifest.json: its stats are not the counts in the cache "
                        f"headers; delete {final} to build it again")
    print(f"preprocess cache: {final}")
    for key, value in sorted(stats.items()):
        print(f"  {key}: {value}")
    return 0


def _cache_stats(stage: str) -> dict:
    """The stats of a preprocess stage, from its caches' (rows, cols, nnz) headers."""
    stats = {}
    for name, magic, names in (
            ("interactions.bin", storage.MAGIC_INTERACTIONS, ("n_users", "n_articles", "n_pairs")),
            ("content.bin", storage.MAGIC_CONTENT, ("n_articles", "vocab_size")),
            ("tags.bin", storage.MAGIC_TAGS, ("n_articles", "n_tags"))):
        if os.path.isfile(path := os.path.join(stage, name)):
            stats.update(zip(names, storage._csr_header(path, magic, name == "content.bin")[1:]))
    return stats


def _preprocess(config: ExperimentConfig, tmp: str) -> dict:
    raw = config.data_dir
    content = None
    n_articles = None
    if "text" in config.autoencoders:
        if config.content_format == "mult":
            content = load_mult_content(os.path.join(raw, "mult.dat"),
                                        vocab_size=config.vocab_size)
        else:
            docs = read_raw_docs(os.path.join(raw, "docs.txt"))
            vocab = select_vocabulary(docs, load_stop_words(), config.vocab_size)
            vocab.save(os.path.join(tmp, "vocab.tsv"))
            content = build_bow(docs, vocab)
        content.save(os.path.join(tmp, "content.bin"))
        n_articles = content.n_articles

    interactions = load_interactions(os.path.join(raw, "users.dat"), n_articles=n_articles)
    if n_articles is None:
        n_articles = interactions.n_articles
    interactions.save(os.path.join(tmp, "interactions.bin"))

    if "tag" in config.autoencoders:
        assignments = load_tag_assignments(os.path.join(raw, "tags.dat"), n_articles=n_articles)
        citations = load_citations(os.path.join(raw, "citations.dat"), n_articles=n_articles)
        tag_matrix = build_tag_matrix(assignments, citations,
                                      config.min_articles_per_tag,
                                      n_articles=n_articles)
        tag_matrix.save(os.path.join(tmp, "tags.bin"))
    return _cache_stats(tmp)


def _pretrain(config: ExperimentConfig, name: str, pre: str, tmp: str) -> dict:
    cls, cache = _AE_CACHES[name]
    matrix = cls.load(os.path.join(pre, cache))
    seed = config.seeds()[f"{name}_ae"]
    model = ae_mod.AttentiveAutoencoder(matrix.matrix.shape[1],
                                        getattr(config, f"{name}_widths"), seed=seed)
    losses = ae_mod.pretrain(model, matrix, epochs=config.epochs,
                             batch_size=config.batch_size, seed=seed)
    logger.info("%s autoencoder: %d epochs, final loss %s", name, len(losses),
                losses[-1] if losses else "n/a")
    ae_mod.save_autoencoder(model, os.path.join(tmp, f"{name}_ae.bin"))
    _write_json(os.path.join(tmp, f"{name}_ae_loss.json"), losses, indent=None)
    ae_mod.save_latent(os.path.join(tmp, "latent.bin"), model.encode(matrix))
    return {}


def cmd_train(config: ExperimentConfig, args) -> int:
    pre = _stage(config, "preprocess", _preprocess_key(config))
    files = _manifest(pre, "files")
    stages = {name: _stage(config, f"ae-{name}", _ae_key(config, files, name),
                           lambda tmp, name=name: _pretrain(config, name, pre, tmp))
              for name in config.autoencoders}
    final = _stage(config, "train", _train_key(config, pre),
                   lambda tmp: _fit(config, pre, stages, tmp))
    print(f"train outputs: {final}")
    return 0


def _fit(config: ExperimentConfig, pre: str, stages: dict, tmp: str) -> dict:
    latents = {}
    for name, stage in stages.items():
        for file in (f"{name}_ae.bin", f"{name}_ae_loss.json"):
            shutil.copyfile(os.path.join(stage, file), os.path.join(tmp, file))
        latents[name] = ae_mod.load_latent(os.path.join(stage, "latent.bin"))
    if config.variant == "pop":  # popularity needs no factors
        return {}
    shape = storage.interactions_shape(os.path.join(pre, "interactions.bin"))
    prior = cf.make_prior(config.variant, shape[1], config.d,
                          latents.get("text"), latents.get("tag"))
    traces = {}
    for index in config.splits:
        r_train, = _stored_split(config, pre, shape, index, "train.bin")
        model = cf.init_model(*shape, config.d, lambda_u=config.lambda_u,
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
    return {"sweeps": {k: len(v) - 1 for k, v in traces.items()}}


def _split(config: ExperimentConfig, interactions, index):
    """The (train, test) matrices of one split."""
    rng = np.random.default_rng([config.seeds()["split"], index])
    return evaluation.make_split(interactions, config.p, rng)


def _stored_split(config: ExperimentConfig, pre: str, shape, index, *names):
    """The matrices ``names`` ("train.bin", "test.bin" or both) of one split
    from its ``split`` stage; a miss derives the split once from the
    ``interactions.bin`` of ``pre``, and a hit checks and reads only those
    files. Each is refused unless it fits ``shape``, that file's."""
    source = os.path.join(pre, "interactions.bin")
    key = {"inputs": {"preprocess": os.path.basename(pre)}, "p": config.p,
           "seed": config.seeds()["split"], "index": index}

    def build(tmp):
        split = _split(config, InteractionMatrix.load(source), index)
        for name, matrix in zip(("train.bin", "test.bin"), split):
            matrix.save(os.path.join(tmp, name))
        return {}

    stage = _stage(config, "split", key, build, names)
    out = [InteractionMatrix.load(os.path.join(stage, name)) for name in names]
    for name, r in zip(names, out):
        if r.matrix.shape != shape:
            raise DataError(f"{stage}/{name}: split of {r.n_users} x {r.n_articles} does not "
                            f"fit the {shape[0]} x {shape[1]} of {source}")
    return out


def _model(config: ExperimentConfig, train_dir: str, index, shape, source):
    """The factors of one split, refused unless they fit ``shape``, that of
    the file ``source``; None for pop, which has none."""
    if config.variant == "pop":
        return None
    path = os.path.join(train_dir, f"factors-split{index}.bin")
    model, _ = cf.load_factors(path)
    if (len(model.U), len(model.V)) != shape:
        raise DataError(f"{path}: factors for {len(model.U)} users x {len(model.V)} articles "
                        f"do not fit the {shape[0]} x {shape[1]} of {source}")
    return model


def _scorer(model, r_train):
    """Scores for an int user or an index array; pop, with no model, gives
    one shared row of training counts."""
    if model is None:
        counts = r_train.item_counts().astype(np.float64)
        return lambda users: counts
    return lambda users: cf.predict_scores(model, users)


def cmd_evaluate(config: ExperimentConfig, args) -> int:
    if args.compare == config.variant:
        raise ConfigError("--compare variant matches the evaluated variant")
    pre = _stage(config, "preprocess", _preprocess_key(config))
    scored = [(config, _trained(config, pre))]
    if args.compare:
        base = replace(config, variant=args.compare)
        base.validate()
        base_pre = (pre if base.variant == "pop"
                    else _stage(base, "preprocess", _preprocess_key(base)))
        scored.append((base, _trained(base, base_pre)))
    key = {"inputs": {"preprocess": os.path.basename(pre),
                      "scored": [os.path.basename(t) for _, t in scored]},
           "compare": args.compare,
           **{name: getattr(config, name) for name in ("p", "seed", "splits", "ks")}}

    def build(tmp):
        source = os.path.join(pre, "interactions.bin")
        shape = storage.interactions_shape(source)
        reports = [[] for _ in scored]
        for index in config.splits:
            models = [m and replace(m, V=np.asfortranarray(m.V))  # so V.T is C-contiguous
                      for m in (_model(c, t, index, shape, source) for c, t in scored)]
            r_train, r_test = _stored_split(config, pre, shape, index, "train.bin", "test.bin")
            for out, (c, _), model in zip(reports, scored, models):
                out.extend(evaluation.evaluate(_scorer(model, r_train), r_train, r_test,
                                               config.ks, variant=c.variant,
                                               setting=f"P={config.p}", split=index))
        reports = [out + evaluation.average_reports(out) for out in reports]
        evaluation.reports_to_csv(reports[0], os.path.join(tmp, "reports.csv"))
        evaluation.reports_to_json(reports[0], os.path.join(tmp, "reports.json"))
        if args.compare:  # gains over the comparison variant's cross-split averages, in %
            ours = {r.k: r for r in reports[0] if r.split == -1}
            base = {r.k: r for r in reports[1] if r.split == -1}
            gain = evaluation.improvement_pct
            rows = [{"k": k, "baseline": args.compare,
                     "recall_improvement_pct": gain(ours[k].recall, base[k].recall),
                     "ndcg_improvement_pct": gain(ours[k].ndcg, base[k].ndcg)}
                    for k in sorted(ours) if k in base]
            _write_json(os.path.join(tmp, "improvement.json"), rows)
            with open(os.path.join(tmp, "improvement.csv"), "w") as fh:
                fh.write("k,baseline,recall_improvement_pct,ndcg_improvement_pct\n")
                fh.writelines(f"{r['k']},{r['baseline']},{r['recall_improvement_pct']:.6f},"
                              f"{r['ndcg_improvement_pct']:.6f}\n" for r in rows)
        return {"n_reports": len(reports[0])}

    final = _stage(config, "evaluate", key, build)
    print(f"evaluation reports: {final}")
    with open(os.path.join(final, "reports.json")) as fh:
        for rep in json.load(fh):
            if rep["split"] == -1:
                print(f"  {rep['variant']} {rep['setting']} K={rep['k']}: "
                      f"recall={rep['recall']:.4f} ndcg={rep['ndcg']:.4f}")
    return 0


def cmd_recommend(config: ExperimentConfig, args) -> int:
    pre = _stage(config, "preprocess", _preprocess_key(config))
    source = os.path.join(pre, "interactions.bin")
    shape = storage.interactions_shape(source)
    if not 0 <= args.user_id < shape[0]:
        raise ConfigError(f"user id must lie in [0, {shape[0]})")
    index = args.split if args.split is not None else config.splits[0]
    if index < 0:
        raise ConfigError(f"split must be >= 0, got {index}")
    if config.variant != "pop" and index not in config.splits:
        raise ConfigError(f"split {index} was not trained; --splits trains "
                          f"{','.join(map(str, config.splits))}")
    model = _model(config, _trained(config, pre), index, shape, source)
    r_train, = _stored_split(config, pre, shape, index, "train.bin")
    scores = _scorer(model, r_train)(args.user_id)
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


_HELP = {"data_dir": f"input directory (default ${DATA_DIR_ENV} or ./data)",
         "out_dir": "run directory root", "p": "training articles per user in a split",
         "d": "latent dimensionality", "a": "confidence on observed pairs",
         "b": "confidence on unobserved pairs",
         "text_widths": "comma-separated encoder widths for text",
         "tag_widths": "comma-separated encoder widths for tags",
         "ks": "comma-separated ranking cutoffs", "splits": "comma-separated split indices to use",
         "tol": "relative objective stop threshold"}


@functools.cache  # parsing keeps no state, and building costs more than a parse
def build_parser() -> _Parser:
    parser = _Parser(prog="attnrec",
                     description="Hybrid recommender over implicit feedback "
                                 "with autoencoder content priors.")
    parser.add_argument("--verbose", action="store_true", help="debug logging")
    # One flag per config field, named after it and typed by its default.
    config_flags = argparse.ArgumentParser(add_help=False)
    config_flags.add_argument("--config", metavar="FILE", help="JSON config file")
    for field in fields(ExperimentConfig):
        kind = type(field.default)
        config_flags.add_argument("--" + field.name.replace("_", "-"), dest=field.name,
                                  type=kind if kind in (int, float) else None,
                                  choices=_CHOICES.get(field.name), help=_HELP.get(field.name))
    subs = parser.add_subparsers(dest="command", required=True)
    sub = {name: subs.add_parser(name, parents=[config_flags], help=text) for name, text in (
        ("synth", "write a synthetic dataset"),
        ("preprocess", "build binary caches from raw files"),
        ("train", "pretrain autoencoders and run ALS"),
        ("evaluate", "rank held-out articles and report"),
        ("recommend", "print top-k articles for one user"))}
    sub["synth"].add_argument("--out", help="output directory (default: data dir)")
    for name in _SYNTH_FLAGS:
        sub["synth"].add_argument("--" + name.replace("_", "-"), dest=name, type=int)
    sub["evaluate"].add_argument("--compare", choices=ALL_VARIANTS,
                                 help="also evaluate this variant and emit an improvement table")
    sub["recommend"].add_argument("user_id", type=int)
    sub["recommend"].add_argument("--k", type=int, default=10)
    sub["recommend"].add_argument("--split", type=int, help="which split's checkpoint to use")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if args.verbose else logging.WARNING,
            format="%(levelname)s %(name)s: %(message)s")
        overrides = {field.name: getattr(args, field.name) for field in fields(ExperimentConfig)}
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
    except OSError as exc:  # a path that cannot be read or written; its message names it
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
