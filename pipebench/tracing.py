"""Traced run: the pipeline inside this process, its layers timed from
the benchmark's own code.

``pathrep`` is left unchanged.  For each stage the run first calls
``pathrep.cli.main`` untraced, then again with wrappers installed around
public functions of each module; the wrappers record spans (name, start,
end, parent span, stage) and counters in memory.  Per-layer metrics come
from those spans and counters, and ``trace.overhead_pct`` compares the
traced stage times with the untraced ones of the same process.  Both
passes must write identical outputs.
"""

import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
import tracemalloc

import workloads
from checks import check_same_outputs
from roads import CheckFailed

# metric -> (unit, better); each moves the end-to-end metric named in README.md
PER_LAYER = {
    "cli.import_s": ("s", "lower"),
    "cli.digest_s": ("s", "lower"),
    "graph.load_s": ("s", "lower"),
    "synth.gen_paths_s": ("s", "lower"),
    "features.walks_s": ("s", "lower"),
    "features.sgns_s": ("s", "lower"),
    "features.sgns_pairs": ("count", "higher"),
    "features.sgns_pairs_per_s": ("1/s", "higher"),
    "sampling.negatives_s": ("s", "lower"),
    "sampling.topk_s": ("s", "lower"),
    "sampling.topk_calls": ("count", "lower"),
    "sampling.topk_distinct_od": ("count", "higher"),
    "sampling.topk_calls_per_od": ("ratio", "lower"),
    "sampling.stream_paths": ("count", "lower"),
    "sampling.backfilled_sets": ("count", "lower"),
    "training.epoch_s": ("s", "lower"),
    "training.adam_s": ("s", "lower"),
    "training.checkpoint_s": ("s", "lower"),
    "encoder.forward_s": ("s", "lower"),
    "encoder.backward_s": ("s", "lower"),
    "encoder.calls_per_batch": ("count", "lower"),
    "training.distinct_paths_per_batch": ("count", "higher"),
    "infomax.objective_s": ("s", "lower"),
    "autodiff.backward_s": ("s", "lower"),
    "autodiff.records_per_batch": ("count", "lower"),
    "training.embed_s": ("s", "lower"),
    "training.embed_paths_per_s": ("1/s", "higher"),
    "training.finetune_epoch_s": ("s", "lower"),
    "downstream.ridge_s": ("s", "lower"),
    "downstream.gp_fit_s": ("s", "lower"),
    "downstream.gp_predict_s": ("s", "lower"),
    "downstream.rank_metrics_s": ("s", "lower"),
    "downstream.gp_peak_mb": ("MB", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

GRAPH_LOADERS = ("graph.load_graph", "graph.load_paths", "graph.load_features",
                 "graph.validate_path")


class Tracer:
    """Spans and per-stage counters, kept in memory."""

    def __init__(self):
        self.spans = []            # [name, start, end, parent index, stage]
        self.stack = []
        self.stage = None
        self.counters = {}         # (stage, name) -> number
        self.sets = {}             # (stage, name) -> set
        self.samples = {}          # (stage, name) -> [number]
        self.batch_paths = set()

    def open(self, name):
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.stage])
        self.stack.append(len(self.spans) - 1)

    def close(self):
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def count(self, name, n=1):
        key = (self.stage, name)
        self.counters[key] = self.counters.get(key, 0) + n

    def add(self, name, item):
        self.sets.setdefault((self.stage, name), set()).add(item)

    def sample(self, name, value):
        self.samples.setdefault((self.stage, name), []).append(value)


def _wrap(tracer, name, fn, before=None, after=None, span=True):
    def wrapped(*args, **kwargs):
        if before:
            before(args, kwargs)
        if span:
            tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            if span:
                tracer.close()
        if after:
            after(args, kwargs, result)
        return result
    return wrapped


def _wrap_stream(tracer, fn):
    """Count the paths a ``shortest_path_stream`` generator yields."""
    def wrapped(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tracer.count("stream_paths")
            yield item
    return wrapped


class Probes:
    """Installs the wrappers into every loaded ``pathrep`` module and
    removes them again."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.saved = []

    def install(self):
        from pathrep import autodiff, downstream
        t = self.tracer
        last_pairs = []

        def topk_call(args, kwargs):
            t.count("topk_calls")
            t.add("topk_od", (args[1], args[2]))

        def before_backward(args, kwargs):
            t.sample("records", len(args[0].records))
            t.sample("batch_paths", len(t.batch_paths))
            t.batch_paths = set()

        def mem_start(args, kwargs):
            tracemalloc.start()

        def mem_stop(args, kwargs, result):
            t.sample("gp_peak_bytes", tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()

        spanned = {
            "cli._digest": {}, "synth.gen_paths": {},
            "graph.load_graph": {}, "graph.load_paths": {},
            "graph.load_features": {}, "graph.validate_path": {},
            "features.generate_walks": {},
            "features.train_sgns": {"after": lambda a, k, r: t.count(
                "sgns_pairs", last_pairs.pop() * a[1].epochs)},
            "features._skipgram_pairs": {"span": False,
                                         "after": lambda a, k, r: last_pairs.append(len(r[0]))},
            "sampling.sample_negatives": {"after": lambda a, k, r: t.count(
                "backfilled_sets", int(r.backfilled))},
            "sampling.diversified_top_k": {"before": topk_call},
            "graph.initial_view": {"span": False,
                                   "before": lambda a, k: t.batch_paths.add(a[2].nodes)},
            "training.train": {"before": lambda a, k: t.sample("epochs", a[0].epochs)},
            "training.adam_step": {}, "training.save_checkpoint": {},
            "training.embed_corpus": {"before": lambda a, k: t.count("embedded", len(a[3]))},
            "training.finetune": {"before": lambda a, k: t.sample("ft_epochs", k["epochs"])},
            "encoder.gru_forward": {}, "encoder.gru_backward": {},
            "infomax.global_mi": {}, "infomax.local_mi": {},
            "downstream.fit_ridge": {}, "downstream.rank_metrics": {},
            "downstream.fit_gp": {"before": mem_start, "after": mem_stop},
        }
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("pathrep.")}
        for target, opts in spanned.items():
            mod_name, attr = target.split(".")
            orig = getattr(modules[f"pathrep.{mod_name}"], attr)
            self._rebind(modules, orig, _wrap(t, target, orig, **opts))
        orig = modules["pathrep.sampling"].shortest_path_stream
        self._rebind(modules, orig, _wrap_stream(t, orig))
        for cls, attr, name, opts in (
                (autodiff.Tape, "backward", "autodiff.Tape.backward",
                 {"before": before_backward}),
                (downstream.GPRegressor, "predict", "downstream.GPRegressor.predict",
                 {"before": mem_start, "after": mem_stop})):
            orig = getattr(cls, attr)
            self.saved.append((cls, attr, orig))
            setattr(cls, attr, _wrap(t, name, orig, **opts))

    def _rebind(self, modules, orig, wrapped):
        # ``from x import f`` copies f into other modules: rebind them all
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self.saved.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def remove(self):
        for owner, attr, orig in reversed(self.saved):
            setattr(owner, attr, orig)
        self.saved = []


def import_seconds(env, repeats=3):
    """Median time to import ``pathrep.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import pathrep.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(
        float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout)
        for _ in range(repeats))


def pathrep_cli(src):
    """``pathrep.cli`` imported into this process from ``src``."""
    if src not in sys.path:
        sys.path.insert(0, src)
    import pathrep.cli
    return pathrep.cli


def run_in_process(src, argv, ops, what):
    """``pathrep <argv>`` in this process, counted in ``ops``; raises
    CheckFailed if it exits non-zero."""
    cli = pathrep_cli(src)
    out = io.StringIO()
    ops.attempted += 1
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = cli.main(list(argv))
    if code != 0:
        ops.failed += 1
        raise CheckFailed(f"{what} exited {code}: {out.getvalue().strip()[-300:]}")


def run(wl, seed, work, data, src, env, ops):
    """Traced run of one workload; returns (metrics, units, record)."""
    metrics = {"cli.import_s": import_seconds(env)}
    pathrep_cli(src)
    tracer = Tracer()
    probes = Probes(tracer)

    def traced(stage, argv):
        tracer.stage = stage
        probes.install()
        started = time.perf_counter()
        tracer.open(f"stage.{stage}")
        try:
            run_in_process(src, argv, ops, f"traced {stage}")
        finally:
            tracer.close()
            probes.remove()
        return time.perf_counter() - started

    # synth.gen_paths on the standard synth set-up: the large corpus is made
    # by the benchmark, because gen_paths cannot reach far OD pairs
    traced("synth", [*workloads.STANDARD_SYNTH, "--out", os.path.join(work, "synth")])

    plain_dir, traced_dir = os.path.join(work, "plain"), os.path.join(work, "traced")
    os.makedirs(plain_dir)
    os.makedirs(traced_dir)
    stage_times = {}
    for (stage, plain_argv), (_, traced_argv) in zip(
            workloads.stage_commands(wl, seed, data, plain_dir),
            workloads.stage_commands(wl, seed, data, traced_dir)):
        started = time.perf_counter()
        run_in_process(src, plain_argv, ops, stage)
        plain_s = time.perf_counter() - started
        stage_times[stage] = {"plain_s": plain_s, "traced_s": traced(stage, traced_argv)}
    check_same_outputs(plain_dir, traced_dir)

    plain = sum(s["plain_s"] for s in stage_times.values())
    traced_total = sum(s["traced_s"] for s in stage_times.values())
    metrics["trace.overhead_pct"] = 100.0 * (traced_total - plain) / plain
    metrics.update(layer_metrics(tracer))
    with open(os.path.join(work, "spans.json"), "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "stage"],
                   "spans": tracer.spans}, fh)
    units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    return metrics, units, {"stages": stage_times}


def layer_metrics(tracer):
    spans = tracer.spans
    kids = {}
    for i, s in enumerate(spans):
        kids.setdefault(s[3], []).append(i)

    def dur(i):
        return spans[i][2] - spans[i][1]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in kids.get(i, ()))

    def inside(i, name):
        parent = spans[i][3]
        while parent is not None:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    def pick(names, stage=None, within=None):
        return [i for i, s in enumerate(spans)
                if s[0] in names and (stage is None or s[4] == stage)
                and (within is None or inside(i, within))]

    def total(names, stage=None, within=None, own=False):
        return sum((self_time if own else dur)(i)
                   for i in pick(names, stage, within))

    def counter(stage, name):
        return tracer.counters.get((stage, name), 0)

    def samples(stage, name):
        return tracer.samples.get((stage, name), [])

    pipeline = ("features", "negatives", "train", "embed", "eval_tt", "eval_rank",
                "finetune")
    m = {}
    m["cli.digest_s"] = sum(total({"cli._digest"}, st) for st in pipeline)
    m["graph.load_s"] = sum(total(set(GRAPH_LOADERS), st, own=True) for st in pipeline)
    m["synth.gen_paths_s"] = total({"synth.gen_paths"}, "synth")

    m["features.walks_s"] = total({"features.generate_walks"}, "features")
    m["features.sgns_s"] = total({"features.train_sgns"}, "features")
    m["features.sgns_pairs"] = counter("features", "sgns_pairs")
    m["features.sgns_pairs_per_s"] = m["features.sgns_pairs"] / m["features.sgns_s"]

    m["sampling.negatives_s"] = total({"sampling.sample_negatives"}, "negatives")
    m["sampling.topk_s"] = total({"sampling.diversified_top_k"}, "negatives", own=True)
    m["sampling.topk_calls"] = counter("negatives", "topk_calls")
    m["sampling.topk_distinct_od"] = len(tracer.sets.get(("negatives", "topk_od"), ()))
    m["sampling.topk_calls_per_od"] = m["sampling.topk_calls"] / m["sampling.topk_distinct_od"]
    m["sampling.stream_paths"] = counter("negatives", "stream_paths")
    m["sampling.backfilled_sets"] = counter("negatives", "backfilled_sets")

    train = "training.train"
    checkpoint_s = total({"training.save_checkpoint"}, "train")
    epochs = sum(samples("train", "epochs"))
    m["training.epoch_s"] = (total({train}, "train") - checkpoint_s) / epochs
    m["training.adam_s"] = total({"training.adam_step"}, "train")
    m["training.checkpoint_s"] = checkpoint_s
    m["encoder.forward_s"] = total({"encoder.gru_forward"}, "train", train)
    m["encoder.backward_s"] = total({"encoder.gru_backward"}, "train", train)
    batches = len(samples("train", "records"))
    m["encoder.calls_per_batch"] = len(pick({"encoder.gru_forward"}, "train", train)) / batches
    m["training.distinct_paths_per_batch"] = statistics.fmean(samples("train", "batch_paths"))
    m["infomax.objective_s"] = total({"infomax.global_mi", "infomax.local_mi"},
                                     "train", own=True)
    m["autodiff.backward_s"] = total({"autodiff.Tape.backward"}, "train", own=True)
    m["autodiff.records_per_batch"] = statistics.fmean(samples("train", "records"))

    m["training.embed_s"] = total({"training.embed_corpus"}, "embed")
    m["training.embed_paths_per_s"] = counter("embed", "embedded") / m["training.embed_s"]
    m["training.finetune_epoch_s"] = (total({"training.finetune"}, "finetune")
                                      / sum(samples("finetune", "ft_epochs")))

    m["downstream.ridge_s"] = total({"downstream.fit_ridge"}, "eval_tt")
    m["downstream.gp_fit_s"] = total({"downstream.fit_gp"}, "eval_rank")
    m["downstream.gp_predict_s"] = total({"downstream.GPRegressor.predict"}, "eval_rank")
    m["downstream.rank_metrics_s"] = total({"downstream.rank_metrics"}, "eval_rank")
    m["downstream.gp_peak_mb"] = max(samples("eval_rank", "gp_peak_bytes")) / 2**20
    return m
