"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces public functions and methods of the attnrec modules
with timing wrappers while one CLI call runs, then puts the originals
back. Each wrapper is bound where its caller looks the name up: ``cli``
imports the corpus loaders by name and ``autoencoder`` imports the BCE
functions and the attention gate by name, so those are patched in the
importing module as well as in the defining one.

Spans nest on one stack (the program runs in one thread), so a span's
self time is its duration minus the time of its direct children. Spans are
aggregated in memory as they close and turned into metrics at the end.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager


def _digest_arrays(*arrays) -> str:
    h = hashlib.sha1()
    for array in arrays:
        h.update(memoryview(array).cast("B"))
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self._stack = []                 # open spans: [name, start, child_seconds]
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)     # work counters, e.g. bytes, flops, rows
        self.keys = defaultdict(list)        # per-call identity keys, for useful_frac
        self.cpu = defaultdict(float)        # process CPU seconds per command span

    # -- spans -------------------------------------------------------------

    def _open(self, name):
        self._stack.append([name, time.perf_counter(), 0.0])

    def _close(self):
        name, start, children = self._stack.pop()
        elapsed = time.perf_counter() - start
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - children
        if self._stack:
            self._stack[-1][2] += elapsed

    @contextmanager
    def span(self, name):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    @contextmanager
    def command(self, name):
        """Top-level span for one CLI call; also records its CPU time."""
        cpu0 = time.process_time()
        with self.span(name):
            yield
        self.cpu[name] += time.process_time() - cpu0

    def wrap(self, name, fn, before=None, after=None):
        """Time ``fn`` as span ``name``. ``before(arguments)`` and
        ``after(result, arguments)`` get the call's arguments by parameter
        name and run outside the span, so what they cost (hashing inputs,
        stat-ing files) is not charged to the layer."""
        tracer = self
        signature = inspect.signature(fn) if before or after else None

        def wrapper(*args, **kwargs):
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                arguments = bound.arguments
            if before is not None:
                before(arguments)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close()
            if after is not None:
                after(result, arguments)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self, mods):
        """Patch the wrappers into the program's modules for the duration."""
        saved = []
        try:
            for owner, attr, wrapper in self._patches(mods):
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _patches(self, mods):
        cli, corpus, storage = mods.cli, mods.corpus, mods.storage
        nn, ae, cf, ev = mods.nn, mods.autoencoder, mods.cf, mods.evaluation
        patches = []

        def fn(owners, attr, name, **hooks):
            wrapper = self.wrap(name, getattr(owners[0], attr), **hooks)
            patches.extend((owner, attr, wrapper) for owner in owners)

        for attr in ("read_raw_docs", "select_vocabulary", "build_bow",
                     "load_interactions", "load_tag_assignments",
                     "load_citations", "build_tag_matrix"):
            fn((corpus, cli), attr, f"corpus.{attr}")

        def count_bytes(name):
            def after(result, arguments):
                self.counts[f"{name}.bytes"] += os.path.getsize(arguments["path"])
            return after

        for attr in ("read_interactions", "read_content", "read_tags", "read_tensors"):
            fn((storage,), attr, "storage.read", after=count_bytes("storage.read"))
        for attr in ("write_interactions", "write_content", "write_tags", "write_tensors"):
            fn((storage,), attr, "storage.write", after=count_bytes("storage.write"))

        fn((ae,), "pretrain", "autoencoder.pretrain", before=self._pretrain_key)
        fn((ae,), "bce_loss", "nn.bce")
        fn((ae,), "bce_grad", "nn.bce")
        fn((ae,), "attention_bottleneck", "nn.attention.forward")
        fn((ae.AttentiveAutoencoder,), "encode", "autoencoder.encode")

        for cls, label in ((nn.Dense, "dense"), (nn.BatchNorm, "batchnorm"),
                           (nn.ReLU, "relu"), (nn.Attention, "attention"),
                           (nn.Sigmoid, "sigmoid")):
            dense = cls is nn.Dense   # dW = x^T dout and dx = dout W^T: twice the forward
            fn((cls,), "forward", f"nn.{label}.forward",
               before=self._dense_flops(2, "x") if dense else None)
            fn((cls,), "backward", f"nn.{label}.backward",
               before=self._dense_flops(4, "dout") if dense else None)
        fn((nn.Adam,), "step", "nn.adam.step")

        fn((cf,), "train_als", "cf.train_als", after=self._als_work)
        fn((cf,), "objective", "cf.objective")
        fn((cf,), "predict_scores", "cf.predict_scores")

        fn((ev,), "make_split", "evaluation.make_split", before=self._split_key)
        fn((ev,), "evaluate", "evaluation.evaluate", after=self._evaluated_users)
        fn((ev,), "top_k", "evaluation.top_k")
        fn((ev,), "recall_at_k", "evaluation.metrics")
        fn((ev,), "ndcg_at_k", "evaluation.metrics")
        return patches

    # -- counter hooks -----------------------------------------------------

    def _pretrain_key(self, a):
        matrix = a["data"].matrix      # ContentMatrix or TagMatrix rows, CSR
        key = (_digest_arrays(matrix.data, matrix.indices, matrix.indptr),
               tuple(a["ae"].widths), a["epochs"], a["batch_size"], a["seed"])
        self.keys["autoencoder.pretrain"].append(key)
        self.counts["autoencoder.pretrain.rows"] += matrix.shape[0] * a["epochs"]

    def _dense_flops(self, factor, rows):
        def before(a):
            w = a["self"].w
            self.counts["nn.dense.flop"] += factor * a[rows].shape[0] * w.shape[0] * w.shape[1]
        return before

    def _als_work(self, trace, a):
        sweeps = len(trace) - 1
        self.counts["cf.sweeps"] += sweeps
        model = a["model"]
        self.counts["cf.row_solves"] += sweeps * (model.U.shape[0] + model.V.shape[0])

    def _split_key(self, a):
        state = json.dumps(a["rng"].bit_generator.state, sort_keys=True, default=str)
        matrix = a["r"].matrix
        self.keys["evaluation.make_split"].append(
            (_digest_arrays(matrix.indices, matrix.indptr), a["p"], state))

    def _evaluated_users(self, reports, a):
        if reports:
            self.counts["evaluation.users"] += reports[0].n_users

    # -- results -----------------------------------------------------------

    def useful_frac(self, name) -> float:
        """Distinct call keys over calls: the share of calls not repeating
        work an earlier call of the run already did."""
        keys = self.keys[name]
        return len(set(keys)) / len(keys) if keys else 0.0

    def metrics(self) -> dict:
        """Every per-layer number this run produced, keyed by metric name.
        A span that never fired has no entries; a rate over it reads 0."""
        out = {}
        for name, calls in self.calls.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.total_s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        for name in ("storage.read.bytes", "storage.write.bytes", "cf.sweeps"):
            out[name] = self.counts[name]

        def ratio(num, den):
            return num / den if den > 0 else 0.0

        out["autoencoder.pretrain.rows_per_s"] = ratio(
            self.counts["autoencoder.pretrain.rows"], self.total["autoencoder.pretrain"])
        out["autoencoder.pretrain.useful_frac"] = self.useful_frac("autoencoder.pretrain")
        out["nn.dense.gflop_per_s"] = ratio(
            self.counts["nn.dense.flop"] / 1e9,
            self.total["nn.dense.forward"] + self.total["nn.dense.backward"])
        als_self = self.self_time["cf.train_als"]   # row solves and Gram products
        out["cf.sweep_s"] = ratio(als_self, self.counts["cf.sweeps"])
        out["cf.row_solves_per_s"] = ratio(self.counts["cf.row_solves"], als_self)
        out["evaluation.users_per_s"] = ratio(
            self.counts["evaluation.users"], self.total["evaluation.evaluate"])
        out["evaluation.make_split.useful_frac"] = self.useful_frac("evaluation.make_split")
        for name, cpu in self.cpu.items():
            out["process.cpu_util." + name.split(".", 1)[1]] = ratio(cpu, self.total[name])
        return out
