"""Benchmark of the attnrec pipeline as a user drives it: the CLI's
``preprocess``, ``train``, ``evaluate`` and ``recommend`` commands, called
in-process through ``attnrec.cli.main`` on synthetic data.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload small-sweep --seed 1 --seconds 50 --trace 0

One run is one process. It imports the program once, generates the
workload's inputs from ``--seed`` with ``attnrec.synth`` (several times, to
time set-up as a median), then runs whole rounds of CLI calls into a fresh
``--out-dir`` each, starting another round only while it is expected to end
within ``--seconds``. ``--trace 1`` instead runs one untraced and one traced
round, checks that both leave byte-identical artifacts, and reports the
per-layer metrics of the traced round plus the tracing overhead.

Every CLI call and every output check is one attempted operation. The last
stdout line is the result object; the line before it is a record with
provenance, counts and check outcomes, which ``perfbench/compare.py``
reads. Metric names and units come from BENCHMARK.json at the repository
root; ``perfbench/layers.json`` says which end-to-end metric each layer
metric should move, on which workload.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

sys.path.insert(0, str(HERE))
from tracing import Tracer  # noqa: E402

# --------------------------------------------------------------------------
# workloads

# The README quick start: 500 users x 800 articles, 8 clusters.
QUICK_START_FLAGS = ("--variant", "cata++", "--d", "25", "--text-widths", "100,25",
                     "--tag-widths", "25", "--epochs", "100", "--vocab-size", "200",
                     "--splits", "1,2,3")

# Synth settings whose realised counts land near citeulike-a (criterion 9).
CITEULIKE_SHAPE = dict(n_users=5551, n_articles=16980, n_clusters=80,
                       words_per_cluster=100, shared_words=400, tags_per_cluster=93,
                       min_tags_per_article=3, max_tags_per_article=8,
                       min_library=10, max_library=64)
CITEULIKE_COUNTS = {"users": 5551, "articles": 16980, "pairs": 204986,
                    "vocab": 8000, "tags": 7386}
# Relative tolerance on the counts the generator does not fix exactly
# (pairs, tags); users, articles and vocabulary must match exactly.
SHAPE_TOLERANCE = 0.02

RECOMMEND_K = 10
MIN_LIFT_OVER_POP = 1.2     # criterion 8: recall@50 at least 1.2x popularity


@dataclass(frozen=True)
class Workload:
    name: str
    synth: dict            # SynthConfig fields besides the seed
    flags: tuple           # config flags shared by every CLI call of a round
    lambda_v: tuple        # one train + evaluate --compare pop per point
    shape_check: bool      # check the realised counts against citeulike-a
    min_lift: float | None  # required recall@50 ratio over pop, per evaluate
    setups: int            # input generations per run; setup_s takes their median
    preprocess_calls: int  # per round; preprocess_s is the median over the run
    recommend_calls: int   # per round; recommend_mean_ms is over the run
    train_repeats: int     # extra first-point train calls per round, see Round.repeat


WORKLOADS = {w.name: w for w in (
    Workload("small-sweep", {}, QUICK_START_FLAGS, ("0.1", "1", "10"),
             shape_check=False, min_lift=MIN_LIFT_OVER_POP,
             setups=9, preprocess_calls=30, recommend_calls=100, train_repeats=0),
    Workload("citeulike-rank", CITEULIKE_SHAPE,
             ("--variant", "wrmf", "--d", "50", "--splits", "1", "--tol", "0",
              "--max-sweeps", "2"),
             ("0.1",), shape_check=True, min_lift=None,
             setups=3, preprocess_calls=7, recommend_calls=30, train_repeats=3),
)}


# --------------------------------------------------------------------------
# program import


def import_program():
    """Import attnrec from this checkout's ``src``; exit with an error if it
    is absent, so the benchmark never measures some other installed copy."""
    if not (SRC / "attnrec" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'attnrec'}")
    sys.path.insert(0, str(SRC))
    # One BLAS thread: on a two-vCPU shared host a second one, which waits
    # on the slower of two contended cores, about doubled the spread of
    # times between runs. Set before numpy loads OpenBLAS.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    import numpy
    import scipy
    from attnrec import autoencoder, cf, cli, corpus, evaluation, nn, storage, synth
    if Path(cli.__file__).resolve().parent != (SRC / "attnrec").resolve():
        sys.exit(f"perfbench: imported attnrec from {cli.__file__}, not {SRC}")
    return SimpleNamespace(numpy=numpy, scipy=scipy, autoencoder=autoencoder, cf=cf,
                           cli=cli, corpus=corpus, evaluation=evaluation, nn=nn,
                           storage=storage, synth=synth)


# --------------------------------------------------------------------------
# operations and checks


class Ops:
    """Counts attempted and failed operations; a failure is logged, never raised."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name, fn, *args):
        """Run one check; it fails by returning False or raising."""
        self.attempted += 1
        try:
            ok = fn(*args)
        except Exception:  # the run must go on and report every failure
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failures.append(name)
            print(f"perfbench: FAILED {name}", file=sys.stderr)
        return ok


def tree_digest(directory) -> dict:
    out = {}
    for path in sorted(Path(directory).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(directory))] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    return out


def trace_non_increasing(train_dir) -> bool:
    traces = json.loads((train_dir / "objective_trace.json").read_text())
    return bool(traces) and all(
        all(b <= a for a, b in zip(t, t[1:])) for t in traces.values())


def reports_valid(eval_dir) -> bool:
    rows = json.loads((eval_dir / "reports.json").read_text())
    groups = {}
    for row in rows:
        if not (0.0 <= row["recall"] <= 1.0 and 0.0 <= row["ndcg"] <= 1.0):
            return False
        groups.setdefault((row["variant"], row["split"]), []).append(row)
    for group in groups.values():
        recalls = [r["recall"] for r in sorted(group, key=lambda r: r["k"])]
        if any(b < a for a, b in zip(recalls, recalls[1:])):
            return False
    return bool(rows)


def lift_at_50(eval_dir) -> float:
    rows = json.loads((eval_dir / "improvement.json").read_text())
    pct = next(r["recall_improvement_pct"] for r in rows if r["k"] == 50)
    return 1.0 + pct / 100.0


def mean_report(eval_dir, variant, k) -> dict:
    rows = json.loads((eval_dir / "reports.json").read_text())
    return next(r for r in rows
                if r["variant"] == variant and r["split"] == -1 and r["k"] == k)


def flag_value(flags, name):
    return flags[flags.index(name) + 1]


def spread(items, parts) -> list:
    """``items`` cut into ``parts`` contiguous slices of near-equal length."""
    items = list(items)
    return [items[len(items) * i // parts:len(items) * (i + 1) // parts]
            for i in range(parts)]


# --------------------------------------------------------------------------
# one round of CLI calls


class Round:
    """The CLI calls of one round, timed per call, into a fresh --out-dir."""

    def __init__(self, prog, ops, workload, data_dir, out_dir, tracer=None):
        self.prog, self.ops, self.workload = prog, ops, workload
        self.data_dir = data_dir
        self.base = ("--data-dir", str(data_dir), "--out-dir", str(out_dir))
        self.out_dir = out_dir
        self.tracer = tracer
        self.seconds = {"preprocess": [], "train": [], "evaluate": [], "recommend": []}
        self.quality = {}
        self.manifest = {}
        self.pre_dir = None     # preprocess run directory, once the first call printed it

    def call(self, command, flags, *positional):
        argv = [command, *self.base, *flags, *positional]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.ExitStack() as stack:
            stack.enter_context(contextlib.redirect_stdout(out))
            stack.enter_context(contextlib.redirect_stderr(err))
            if self.tracer is not None:
                stack.enter_context(self.tracer.installed(self.prog))
                stack.enter_context(self.tracer.command(f"cli.{command}"))
            start = time.perf_counter()
            try:
                code = self.prog.cli.main(argv)
            except Exception:  # a traceback is one failed call, not the end of the run
                traceback.print_exc(file=err)
                code = None
            elapsed = time.perf_counter() - start
        self.seconds[command].append(elapsed)
        if not self.ops.check(f"{command} exit 0", lambda: code == 0):
            print(err.getvalue(), file=sys.stderr, end="")
        return out.getvalue()

    def locate(self, stdout, prefix, name):
        """The run directory a CLI call printed after ``prefix``; None, and
        one failed check, when it printed none."""
        def find():
            for line in stdout.splitlines():
                if line.startswith(prefix):
                    return Path(line[len(prefix):].strip())
            raise ValueError(f"no {prefix!r} line in CLI output")

        found = []
        self.ops.check(f"{name} outputs found", lambda: found.append(find()) is None)
        return found[0] if found else None

    def run(self):
        """preprocess, train at the first lambda_v point, then the remaining
        train/evaluate calls and the train repeats. The recommend calls and
        the repeated preprocess calls are spread over the gaps between those
        long calls, so their medians sample the whole round rather than one
        stretch of it."""
        w, ops = self.workload, self.ops
        self.pre_dir = self.locate(self.call("preprocess", w.flags), "preprocess cache:",
                                   "preprocess")
        if self.pre_dir is None:
            return
        self.manifest = json.loads((self.pre_dir / "manifest.json").read_text())["stats"]
        first_flags = (*w.flags, "--lambda-v", w.lambda_v[0])
        train_dir = self.train(first_flags)
        if train_dir is None:
            return
        oracle = {}
        ops.check("recommend oracle built", lambda: oracle.setdefault(
            "expected", self.recommend_oracle(first_flags, train_dir)) is not None)
        long_calls = [("evaluate", first_flags)]
        for lam in w.lambda_v[1:]:
            flags = (*w.flags, "--lambda-v", lam)
            long_calls += [("train", flags), ("evaluate", flags)]
        for i in range(w.train_repeats):    # every other slot, from the first
            long_calls.insert(2 * i, ("repeat", first_flags))
        n_users = self.manifest["n_users"]
        users = [round(i * (n_users - 1) / (w.recommend_calls - 1))
                 for i in range(w.recommend_calls)]
        gaps = len(long_calls) + 1
        user_slices = spread(users, gaps)
        preprocess_slices = spread(range(w.preprocess_calls - 1), gaps)
        for gap in range(gaps):
            for _ in preprocess_slices[gap]:
                self.call("preprocess", w.flags)
            for user in user_slices[gap]:
                self.recommend(first_flags, user, oracle)
            if gap == len(long_calls):
                break
            command, flags = long_calls[gap]
            if command == "train":
                train_dir = self.train(flags)
            elif command == "repeat":
                self.repeat(flags, gap)
            elif train_dir is not None:
                self.evaluate(flags, train_dir, quality=flags == first_flags)

    def repeat(self, flags, index):
        """The first point's train call again, into a fresh --out-dir of its
        own after the preprocess call it needs there. A workload whose round
        has one short train call uses repeats so that train_s, the round's
        total over all train calls, spans the round; the fresh directory keeps
        a repeat from finding the earlier call's outputs."""
        base = self.base
        self.base = ("--data-dir", str(self.data_dir),
                     "--out-dir", str(self.out_dir / f"repeat{index}"))
        try:
            if self.locate(self.call("preprocess", self.workload.flags), "preprocess cache:",
                           f"repeat {index} preprocess") is not None:
                self.train(flags)
        finally:
            self.base = base

    def train(self, flags):
        lam = flag_value(flags, "--lambda-v")
        train_dir = self.locate(self.call("train", flags), "train outputs:",
                                f"lambda_v={lam} train")
        if train_dir is not None:
            self.ops.check(f"lambda_v={lam} objective non-increasing",
                           trace_non_increasing, train_dir)
        return train_dir

    def evaluate(self, flags, train_dir, quality):
        lam, ops, w = flag_value(flags, "--lambda-v"), self.ops, self.workload
        eval_dir = self.locate(self.call("evaluate", flags, "--compare", "pop"),
                               "evaluation reports:", f"lambda_v={lam} evaluate")
        if eval_dir is None:
            return
        ops.check(f"lambda_v={lam} recall/ndcg in [0,1], recall monotone in K",
                  reports_valid, eval_dir)
        if w.min_lift is not None:
            ops.check(f"lambda_v={lam} recall@50 >= {w.min_lift}x pop",
                      lambda: lift_at_50(eval_dir) >= w.min_lift)
        if quality:
            ops.check("quality metrics readable", self.read_quality, flags, train_dir, eval_dir)

    def read_quality(self, flags, train_dir, eval_dir):
        variant = flag_value(flags, "--variant")
        self.quality = {
            "recall_at_300": mean_report(eval_dir, variant, 300)["recall"],
            "ndcg_at_50": mean_report(eval_dir, variant, 50)["ndcg"],
            "als_objective": json.loads(
                (train_dir / "objective_trace.json").read_text())["1"][-1],
        }
        for name in ("text", "tag"):
            loss_file = train_dir / f"{name}_ae_loss.json"
            if loss_file.exists():
                self.quality[f"{name}_ae_loss"] = json.loads(loss_file.read_text())[-1]
        return True

    def recommend_oracle(self, flags, train_dir):
        """What recommend must print: top_k(predict_scores(model, u), k,
        exclude=train items), from the saved factors of the same split.
        Workload flags leave --seed and --p at their defaults, so the
        default config derives the same split."""
        prog = self.prog
        split = int(flag_value(flags, "--splits").split(",")[0])
        interactions = prog.corpus.InteractionMatrix.load(self.pre_dir / "interactions.bin")
        split_seed = prog.cli.ExperimentConfig().seeds()["split"]
        r_train, _ = prog.evaluation.make_split(
            interactions, 1, prog.numpy.random.default_rng([split_seed, split]))
        model, _ = prog.cf.load_factors(train_dir / f"factors-split{split}.bin")

        def expected(user):
            return [int(a) for a in prog.evaluation.top_k(
                prog.cf.predict_scores(model, user), RECOMMEND_K,
                exclude=r_train.user_items(user))]

        return expected

    def recommend(self, flags, user, oracle):
        out = self.call("recommend", flags, "--k", str(RECOMMEND_K), str(user))
        self.ops.check(f"recommend user {user} matches oracle", lambda: [
            int(line.split("\t")[1]) for line in out.splitlines()] == oracle["expected"](user))

    def wall(self) -> float:
        return sum(sum(v) for v in self.seconds.values())


# --------------------------------------------------------------------------
# set-up, shape check and provenance


def setup(prog, workload, seed, work, times):
    """Generate and write the inputs ``times`` times into fresh
    directories. Returns the first directory, the median seconds, the file
    digests of every copy, and the generated data."""
    seconds, digests, data = [], [], None
    for i in range(times):
        target = work / f"data{i}"
        start = time.perf_counter()
        data = prog.synth.generate(prog.synth.SynthConfig(seed=seed, **workload.synth))
        prog.synth.write_dataset(data, target)
        seconds.append(time.perf_counter() - start)
        digests.append(tree_digest(target))
        if i:
            shutil.rmtree(target)
    return work / "data0", statistics.median(seconds), digests, data


def citeulike_counts(prog, data, manifest) -> dict:
    """Realised counts of a citeulike-shaped dataset. Users and pairs come
    from the preprocess manifest; vocabulary is the distinct non-stop-word
    tokens, capped at the requested 8000; tags are those kept by the tag
    matrix builder at the default minimum of 5 articles per tag."""
    words = set()
    for doc in data.docs:
        words.update(doc.split())
    words -= prog.corpus.load_stop_words()
    assignments = [(a, t) for a, row in enumerate(data.tags) for t in row]
    tags = prog.corpus.build_tag_matrix(assignments, data.citations, 5,
                                        n_articles=len(data.docs))
    return {"users": manifest["n_users"], "articles": len(data.docs),
            "pairs": manifest["n_pairs"],
            "vocab": min(len(words), CITEULIKE_COUNTS["vocab"]), "tags": tags.n_tags}


def shape_matches(counts) -> bool:
    for key, want in CITEULIKE_COUNTS.items():
        tolerance = SHAPE_TOLERANCE if key in ("pairs", "tags") else 0.0
        if abs(counts[key] - want) > tolerance * want:
            return False
    return True


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, read through its own
    getter; None when the library or symbol is not found."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def provenance(prog) -> dict:
    def git(*cmd):
        try:
            # The ceiling keeps git from reporting a repository above the checkout.
            done = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                                  text=True, timeout=60,
                                  env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    blas = {}
    try:
        blas = dict(prog.numpy.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError):
        pass
    return {
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": None if status is None else status != "",
        "python": platform.python_version(),
        "numpy": prog.numpy.__version__,
        "scipy": prog.scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration"),
                 "threads": _openblas_threads(),
                 "env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS",
                                                    "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                         if k in os.environ}},
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# a run


def check_spans(ops, workload, tracer):
    """Each span fires on the workloads layers.json assigns it to and stays
    silent on the ones it names as bypassing it."""
    layers = json.loads((HERE / "layers.json").read_text())["layers"]
    for entry in layers:
        for span in entry["spans"]:
            calls = tracer.calls.get(span, 0)
            if workload in entry["fires_on"]:
                ops.check(f"span {span} fires", lambda: calls > 0)
            if workload in entry["absent_on"]:
                ops.check(f"span {span} absent", lambda: calls == 0)


def run_rounds(prog, ops, workload, data_dir, work, seconds, tracer):
    if tracer is not None:
        # Repeats only re-run the first train call, so the untraced and the
        # traced round leave them out and a traced run stays well inside its
        # time limit.
        workload = replace(workload, train_repeats=0)
        rounds = []
        for i, t in enumerate((None, tracer), start=1):
            rounds.append(Round(prog, ops, workload, data_dir, work / f"round{i}", t))
            rounds[-1].run()
        return rounds
    rounds, slowest, start = [], 0.0, time.perf_counter()
    while True:
        round_start = time.perf_counter()
        rounds.append(Round(prog, ops, workload, data_dir, work / f"round{len(rounds) + 1}"))
        rounds[-1].run()
        slowest = max(slowest, time.perf_counter() - round_start)
        if time.perf_counter() - start + slowest > seconds:
            return rounds


def measure(prog, workload, args, import_s, work):
    ops = Ops()
    # A traced run reports no setup_s, so it generates the inputs once.
    data_dir, gen_s, digests, data = setup(prog, workload, args.seed, work,
                                           1 if args.trace else workload.setups)
    ops.check("set-ups write identical inputs", lambda: all(d == digests[0] for d in digests))
    tracer = Tracer() if args.trace else None
    rounds = run_rounds(prog, ops, workload, data_dir, work, args.seconds, tracer)

    first = tree_digest(rounds[0].out_dir)
    for i, rnd in enumerate(rounds[1:], start=2):
        ops.check(f"round {i} artifacts identical to round 1",
                  lambda: tree_digest(rnd.out_dir) == first)
    counts = {"round_wall_s": [r.wall() for r in rounds], "manifest": rounds[0].manifest,
              "call_s": {c: [s for r in rounds for s in r.seconds[c]] for c in rounds[0].seconds}}
    if workload.shape_check:
        ops.check("citeulike-a shape", lambda: shape_matches(counts.setdefault(
            "shape", citeulike_counts(prog, data, rounds[0].manifest))))
    del data

    timed = rounds[:1] if tracer is not None else rounds
    latencies = [s for r in timed for s in r.seconds["recommend"]]
    preprocess = [s for r in timed for s in r.seconds["preprocess"]]
    counts["recommend_samples"] = len(latencies)

    def median_of(command):
        return statistics.median(sum(r.seconds[command]) for r in timed)

    e2e = {
        "setup_s": import_s + gen_s,
        # Short calls are averaged, not taken at a percentile: on a shared host
        # their times fall into a fast and a slow mode, and a percentile jumps
        # between the modes while the mean follows the share of each. The
        # percentiles stay in the record.
        "preprocess_s": statistics.fmean(preprocess) if preprocess else None,
        "recommend_mean_ms": 1000 * statistics.fmean(latencies) if latencies else None,
        "train_s": median_of("train"),
        "evaluate_s": median_of("evaluate"),
        "recommend_p50_ms": 1000 * statistics.median(latencies) if latencies else None,
        "recommend_p90_ms": (1000 * statistics.quantiles(latencies, n=10,
                                                          method="inclusive")[8]
                             if len(latencies) > 1 else None),
        "wall_s": statistics.median(r.wall() for r in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        **rounds[0].quality,
    }
    layer = {}
    if tracer is not None:
        check_spans(ops, workload.name, tracer)
        plain, traced = rounds
        layer = tracer.metrics()
        layer["trace.overhead_s"] = traced.wall() - plain.wall()
        layer["trace.overhead_frac"] = layer["trace.overhead_s"] / (plain.wall() or 1.0)
        for name in ("text", "tag"):
            layer[f"autoencoder.{name}_loss"] = rounds[0].quality.get(f"{name}_ae_loss", 0.0)
    return ops, e2e, layer, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="workload input seed")
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="measuring time; whole rounds, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced round")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr)

    start = time.perf_counter()
    prog = import_program()
    import_s = time.perf_counter() - start

    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=work_root))
    try:
        ops, e2e, layer, counts = measure(prog, WORKLOADS[args.workload], args, import_s, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()   # only when no other run is using it

    if args.trace:
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: layer.get(name, 0.0) for name in wanted}
    else:
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {name: e2e.get(name) for name in wanted}
        for name, value in values.items():
            ops.check(f"metric {name} measured", lambda: value is not None and value > 0)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": provenance(prog), "counts": counts,
        "end_to_end": e2e, "per_layer": layer,
        "attempted": ops.attempted, "failures": ops.failures,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not ops.failures, "attempted": ops.attempted,
                      "failed": len(ops.failures), "metrics": metrics}))
    return 0 if not ops.failures else 1


if __name__ == "__main__":
    sys.exit(main())
