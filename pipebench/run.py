"""Pipeline benchmark: run the ``pathrep`` pipeline as a user does and
report its end-to-end metrics, or, with ``--trace 1``, its per-layer split.

    python3 pipebench/run.py --workload standard --seed 1 --seconds 30 --trace 0

Untraced, every ``pathrep <subcommand>`` runs as its own process, timed
from outside, one stage at a time.  A run makes its inputs (the set-up),
then makes passes over the pipeline and reports each stage's median wall
time over its runs.  After the first pass it checks every stage output
with ``checks.py`` and runs the program's eval over all
``QUALITY_SPLITS``; later passes must reproduce the first pass's outputs
byte for byte.  The last line of standard output is one JSON
object; the full record goes to ``.pipebench_work/<workload>/result.json``.
"""

import time

STARTED = time.perf_counter()   # set-up time counts from here

import argparse
import filecmp
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".pipebench_work")

# One BLAS thread, at or below nproc, for every stage and for this process.
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = BLAS_THREADS

sys.path.insert(0, HERE)
import checks                      # noqa: E402
import tracing                     # noqa: E402
import workloads                   # noqa: E402
from roads import CheckFailed      # noqa: E402

STAGE_ENV = dict(os.environ, PYTHONPATH=SRC)

END_TO_END = {                     # metric -> unit
    "setup_s": "s", "features_s": "s", "negatives_s": "s", "train_s": "s",
    "embed_s": "s", "eval_s": "s", "finetune_s": "s", "pipeline_s": "s",
    "peak_rss_mb": "MB", "tt_mae_s": "s", "rank_mae": "score",
    "finetune_mae_s": "s",
}
SINGLE_STAGES = ("features", "negatives", "train", "embed", "finetune")


def run_stage(argv, log):
    """Run ``pathrep <argv>`` in a child process.

    Returns (wall seconds, peak RSS in MB from the child's rusage, exit
    code, its output).
    """
    started = time.perf_counter()
    with open(log, "w+") as fh:
        proc = subprocess.Popen([sys.executable, "-m", "pathrep.cli", *argv],
                                stdout=fh, stderr=subprocess.STDOUT,
                                env=STAGE_ENV, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
        fh.seek(0)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, fh.read()


def environment():
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
    }


def make_inputs(wl, data, log_dir):
    """The set-up: write graph.csv, paths.txt and labels.csv into ``data``.

    Returns (own travel times or None, exit code of the set-up).
    """
    if wl.name == "standard":
        _, _, code, _ = run_stage([*workloads.STANDARD_SYNTH, "--out", data],
                                  os.path.join(log_dir, "synth.log"))
        return None, code
    return workloads.make_large(data), 0


class Ops:
    """Operations attempted and failed: stage processes, the set-up and
    in-process evals."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0


def check_first_pass(wl, data, out, logs, own_times, ops):
    """Check every output of the first pass; returns the MAE metrics."""
    graph_file = os.path.join(data, "graph.csv")
    labels = os.path.join(data, "labels.csv")
    feats = os.path.join(out, "features.txt")
    emb = os.path.join(out, "embeddings.txt")
    ckpt = os.path.join(out, "ckpt")
    edges, paths = checks.check_paths(graph_file, os.path.join(data, "paths.txt"))
    checks.check_labels(labels, paths, own_times)
    checks.check_features(feats, edges)
    checks.check_negatives(os.path.join(out, "negatives.jsonl"), edges, paths, wl.k)
    checks.check_losstrace(os.path.join(ckpt, "losstrace.csv"), wl.train_epochs, wl.k)
    checks.check_embeddings(emb, ckpt, feats, paths, wl.train_epochs)

    # the program's eval over every quality split, in this process
    quality = os.path.join(out, "quality")
    os.makedirs(quality)
    tt, tt_mean, rank = [], [], []
    for split in workloads.QUALITY_SPLITS:
        for task, argv in workloads.eval_commands(emb, labels, quality, split):
            tracing.run_in_process(SRC, argv, ops, f"{task} split {split}")
        mae, mean_mae = checks.check_ridge_mae(
            os.path.join(quality, f"eval_tt_{split}.csv"), emb, labels, split)
        tt.append(mae)
        tt_mean.append(mean_mae)
        rank.append(checks.read_eval(os.path.join(quality, f"eval_rank_{split}.csv"))["mae"])
    first = workloads.QUALITY_SPLITS[0]
    for task in ("tt", "rank"):
        name = f"eval_{task}_{first}.csv"
        if not filecmp.cmp(os.path.join(out, name), os.path.join(quality, name),
                           shallow=False):
            raise CheckFailed(f"{name}: the eval process and the in-process eval differ")
    tt_mae = statistics.fmean(tt)
    checks.check_beats_mean("tt_mae_s", tt_mae, statistics.fmean(tt_mean))
    rank_mae = statistics.fmean(rank)
    if not 0 < rank_mae < 1:
        raise CheckFailed(f"rank MAE {rank_mae} outside (0, 1)")
    # The GP's ranking MAE is not held to the training mean's: on this
    # program it is about twice as large (see CHANGES.md).

    ft_line = [ln for ln in logs["finetune"].splitlines() if ln.startswith("finetune:")]
    reported = float(ft_line[-1].split("MAE ")[1].split()[0])
    _, ft_mean = checks.check_finetune(os.path.join(out, "finetune"), feats, paths,
                                       labels, reported)
    checks.check_beats_mean("finetune_mae_s", reported, ft_mean)
    return {"tt_mae_s": tt_mae, "rank_mae": rank_mae, "finetune_mae_s": reported}


# Stages not in ``Workload.once`` run in every pass and report the median
# of their runs: a single run of a 1-5 s stage moved by a quarter between
# runs on a 2-core machine shared with other work.
MIN_PASSES = 3


def measure(wl, seed, seconds, work, data, own_times, ops):
    """Passes over the pipeline; returns (metrics, record).

    The first pass runs every stage and its outputs are checked; later
    passes run the stages not in ``wl.once`` again, until ``MIN_PASSES``
    passes and ``seconds`` of measuring are done, and must rewrite the same
    bytes.
    """
    out = os.path.join(work, "out")
    first = os.path.join(work, "first")
    os.makedirs(out)
    runs = {}                      # stage -> [(wall seconds, peak RSS MB)]
    quality = {}
    passes = 0
    measure_start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - measure_start < seconds:
        logs = {}
        for stage, argv in workloads.stage_commands(wl, seed, data, out):
            if passes and stage in wl.once:
                continue
            ops.attempted += 1
            wall, rss, code, logs[stage] = run_stage(
                argv, os.path.join(out, f"{stage}.log"))
            if code != 0:
                ops.failed += 1
                raise CheckFailed(f"stage {stage} exited {code}: "
                                  f"{logs[stage].strip()[-300:]}")
            runs.setdefault(stage, []).append((wall, rss))
        if passes == 0:
            quality = check_first_pass(wl, data, out, logs, own_times, ops)
            for name in checks.OUTPUTS:
                os.makedirs(os.path.dirname(os.path.join(first, name)), exist_ok=True)
                shutil.copyfile(os.path.join(out, name), os.path.join(first, name))
        else:
            checks.check_same_outputs(first, out)
        passes += 1

    wall = {stage: statistics.median(w for w, _ in r) for stage, r in runs.items()}
    metrics = {f"{s}_s": wall[s] for s in SINGLE_STAGES}
    metrics["eval_s"] = wall["eval_tt"] + wall["eval_rank"]
    metrics["pipeline_s"] = sum(wall.values())
    metrics["peak_rss_mb"] = max(rss for r in runs.values() for _, rss in r)
    metrics.update(quality)
    return metrics, {"passes": passes, "stage_runs": runs}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pathrep", "cli.py")):
        print(f"error: no pathrep sources under {SRC}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    work = os.path.join(WORK, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    data = os.path.join(work, "data")
    os.makedirs(data)
    ops = Ops()
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    metrics, units, correct = {}, {}, True
    try:
        ops.attempted += 1
        own_times, code = make_inputs(wl, data, work)
        setup_s = time.perf_counter() - STARTED
        record["environment"] = environment()
        print("environment " + json.dumps(record["environment"], sort_keys=True))
        if code != 0:
            ops.failed += 1
            raise CheckFailed(f"the set-up exited {code}")
        if args.trace:
            metrics, units, record["traced"] = tracing.run(
                wl, args.seed, work, data, SRC, STAGE_ENV, ops)
        else:
            metrics, detail = measure(wl, args.seed, args.seconds, work, data,
                                      own_times, ops)
            metrics["setup_s"] = setup_s
            units = END_TO_END
            record.update(detail)
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        record["check_failed"] = str(exc)
        correct = False
    result = {"correct": correct, "attempted": ops.attempted, "failed": ops.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items() if name in metrics}}
    for name, m in result["metrics"].items():
        print(f"{name:<36} {m['value']:>14.6g} {m['unit']}")
    record["result"] = result
    with open(os.path.join(work, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0 if correct and not ops.failed else 1


if __name__ == "__main__":
    sys.exit(main())
