"""Show that every check in ``checks.py`` can fail.

Each case copies the outputs of the last untraced run of a workload,
corrupts one of them and requires the check to fail with the expected
message; the clean copy must pass every check first.

    python3 pipebench/run.py --workload large --seed 1 --seconds 30 --trace 0
    python3 pipebench/selftest.py --workload large
"""

import argparse
import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import checks                                     # noqa: E402
import run                                        # noqa: E402
import workloads                                  # noqa: E402
from roads import CheckFailed, interior_jaccard   # noqa: E402


class Case:
    def __init__(self, src, dst, wl, own_times):
        self.src, self.dst, self.wl, self.own_times = src, dst, wl, own_times

    def fresh(self):
        """A clean copy of the run's inputs and outputs."""
        shutil.rmtree(self.dst, ignore_errors=True)
        shutil.copytree(self.src, self.dst)
        return self

    def f(self, *parts):
        return os.path.join(self.dst, *parts)

    def edit(self, name, fn):
        """Rewrite a text file: ``fn`` maps its lines to new lines."""
        with open(self.f(name)) as fh:
            lines = fh.read().splitlines()
        with open(self.f(name), "w") as fh:
            fh.write("\n".join(fn(lines)) + "\n")

    def edit_record(self, fn, pick):
        """Rewrite the first negatives record for which ``pick`` holds."""
        def change(lines):
            for i, line in enumerate(lines):
                rec = json.loads(line)
                if pick(rec):
                    fn(rec)
                    lines[i] = json.dumps(rec, sort_keys=True)
                    return lines
            raise SystemExit("selftest: no negatives record fits a case")
        self.edit("out/negatives.jsonl", change)

    # the checks, as run.check_first_pass calls them
    def paths(self):
        return checks.check_paths(self.f("data/graph.csv"), self.f("data/paths.txt"))

    def labels(self):
        _, paths = self.paths()
        checks.check_labels(self.f("data/labels.csv"), paths, self.own_times)

    def features(self):
        edges, _ = self.paths()
        checks.check_features(self.f("out/features.txt"), edges)

    def negatives(self):
        edges, paths = self.paths()
        checks.check_negatives(self.f("out/negatives.jsonl"), edges, paths, self.wl.k)

    def losstrace(self):
        checks.check_losstrace(self.f("out/ckpt/losstrace.csv"),
                               self.wl.train_epochs, self.wl.k)

    def embeddings(self):
        _, paths = self.paths()
        checks.check_embeddings(self.f("out/embeddings.txt"), self.f("out/ckpt"),
                                self.f("out/features.txt"), paths,
                                self.wl.train_epochs)

    def ridge(self):
        return checks.check_ridge_mae(self.f("out/eval_tt_0.csv"),
                                      self.f("out/embeddings.txt"),
                                      self.f("data/labels.csv"), 0)

    def finetune(self, scale=1.0):
        _, paths = self.paths()
        with open(self.f("out/finetune.log")) as fh:
            line = [ln for ln in fh if ln.startswith("finetune:")][-1]
        reported = float(line.split("MAE ")[1].split()[0]) * scale
        checks.check_finetune(self.f("out/finetune"), self.f("out/features.txt"),
                              paths, self.f("data/labels.csv"), reported)


def non_edge_hop(lines):
    p = [int(x) for x in lines[0].split(",")]
    p[1] = max(p) + 2 if max(p) + 2 not in p else max(p) + 3
    lines[0] = ",".join(map(str, p))
    return lines


def repeat_node(lines):
    p = lines[0].split(",")
    lines[0] = ",".join(p + [p[-2]])
    return lines


def label_rows(lines):
    return lines[0], [ln.split(",") for ln in lines[1:]]


def rescale_group(lines):
    header, rows = label_rows(lines)
    for r in rows:
        if r[2] == rows[0][2]:
            r[3] = repr(float(r[3]) * 0.9)
    return [header] + [",".join(r) for r in rows]


def swap_group_scores(lines):
    header, rows = label_rows(lines)
    by_group = {}
    for r in rows:
        by_group.setdefault(r[2], []).append(r)
    for members in by_group.values():
        a = min(members, key=lambda r: float(r[1]))
        b = max(members, key=lambda r: float(r[1]))
        if float(a[3]) > float(b[3]) + 1e-6:
            a[3], b[3] = b[3], a[3]
            return [header] + [",".join(r) for r in rows]
    raise SystemExit("selftest: no group with two distinct times")


def slower_time(lines):
    header, rows = label_rows(lines)
    rows[0][1] = repr(float(rows[0][1]) * 1.01)
    return [header] + [",".join(r) for r in rows]


def nan_entry(lines):
    row = lines[1].split()
    row[0] = "nan"
    lines[1] = " ".join(row)
    return lines


def shuffle_rows(lines):
    rows = lines[1:]
    random.Random(0).shuffle(rows)
    return [lines[0]] + rows


def drop_row(lines):
    n, d = lines[0].split()
    return [f"{int(n) - 1} {d}"] + lines[1:-1]


def sorted_record(rec, negs, kinds):
    ann = sorted(zip((interior_jaccard(rec["_base"], n) for n in negs), negs, kinds))
    rec["overlaps"] = [a for a, _, _ in ann]
    rec["negatives"] = [list(n) for _, n, _ in ann]
    rec["kinds"] = [k for _, _, k in ann]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]
    src = os.path.join(run.WORK, wl.name)
    if not os.path.isdir(os.path.join(src, "out")):
        print(f"error: no untraced run under {src}", file=sys.stderr)
        return 2
    dst = os.path.join(run.WORK, "selftest")
    own_times = None
    if wl.name == "large":
        own_times = workloads.make_large(os.path.join(run.WORK, "selftest-large"))
    c = Case(src, dst, wl, own_times)
    paths = checks.check_paths(os.path.join(src, "data", "graph.csv"),
                               os.path.join(src, "data", "paths.txt"))[1]

    def neg_edit(fn, pick=lambda rec: True):
        def apply(case):
            def change(rec):
                rec["_base"] = paths[rec["path_id"]]
                fn(rec)
                del rec["_base"]
            case.edit_record(change, pick)
        return apply

    def has_div(rec):
        return "diversified" in rec["kinds"] and len(set(rec["overlaps"])) > 1

    def wrong_endpoint(rec):
        negs = [tuple(n) for n in rec["negatives"]]
        j = rec["kinds"].index("diversified")
        other = next(p for p in paths if (p[0], p[-1]) != (negs[j][0], negs[j][-1])
                     and p != rec["_base"])
        negs[j] = other
        sorted_record(rec, negs, rec["kinds"])

    def equals_input(rec):
        negs = [tuple(n) for n in rec["negatives"]]
        negs[0] = tuple(rec["_base"])
        sorted_record(rec, negs, rec["kinds"])

    def unsorted(rec):
        for key in ("negatives", "overlaps", "kinds"):
            rec[key] = rec[key][::-1]

    def bad_overlap(rec):
        rec["overlaps"][0] += 0.01

    def neg_hop(rec):
        rec["negatives"][0][1] = max(rec["negatives"][0]) + 2

    def flip_backfilled(rec):
        rec["backfilled"] = not rec["backfilled"]

    def trace_edit(fn):
        def change(lines):
            rows = [ln.split(",") for ln in lines[1:]]
            fn(rows)
            return [lines[0]] + [",".join(r) for r in rows]
        return lambda case: case.edit("out/ckpt/losstrace.csv", change)

    def positive_value(rows):
        rows[1][2] = "0.1"
        rows[1][3] = repr(float(rows[1][1]) + 0.1)

    def joint_falls(rows):
        first = float(rows[0][3])
        rows[-1][1] = repr(first - 0.5 - float(rows[-1][2]))
        rows[-1][3] = repr(first - 0.5)

    def embedding_nudge(case):
        case.edit("out/embeddings.txt", lambda lines: [lines[0]] + [
            " ".join([repr(float(lines[1].split()[0]) + 1e-6)] + lines[1].split()[1:])]
            + lines[2:])

    def truncate_params(case):
        with open(case.f("out/ckpt/params.bin"), "rb+") as fh:
            fh.truncate(os.path.getsize(case.f("out/ckpt/params.bin")) - 8)

    def wrong_mae(case):
        case.edit("out/eval_tt_0.csv", lambda lines: [
            f"mae,{float(ln.split(',')[1]) * 1.001!r}" if ln.startswith("mae,") else ln
            for ln in lines])

    def shortest_check(case):
        edges, _ = case.paths()
        with open(case.f("out/negatives.jsonl")) as fh:
            rec = next(r for r in map(json.loads, fh) if "diversified" in r["kinds"])
        neg = rec["negatives"][rec["kinds"].index("diversified")]
        # the length a graph with each edge 1 m shorter would give
        checks.check_not_shorter(edges, [neg],
                                 checks.path_length(edges, neg) + 1.0, "selftest")

    def beats_mean(case):
        _, mean_mae = case.ridge()
        checks.check_beats_mean("tt_mae_s", mean_mae, mean_mae)

    def other_pass(case):
        shutil.copytree(case.f("out"), case.f("other"))
        with open(case.f("other/negatives.jsonl"), "a") as fh:
            fh.write("\n")
        checks.check_same_outputs(case.f("out"), case.f("other"))

    cases = [
        ("paths: non-edge hop", lambda k: k.edit("data/paths.txt", non_edge_hop),
         Case.paths, "no edge"),
        ("paths: repeated node", lambda k: k.edit("data/paths.txt", repeat_node),
         Case.paths, "repeats a node"),
        ("labels: group scores do not sum to 1",
         lambda k: k.edit("data/labels.csv", rescale_group), Case.labels, "sum to"),
        ("labels: faster path scores lower",
         lambda k: k.edit("data/labels.csv", swap_group_scores), Case.labels,
         "scores lower"),
        ("features: non-finite entry",
         lambda k: k.edit("out/features.txt", nan_entry), Case.features, "non-finite"),
        ("features: rows shuffled",
         lambda k: k.edit("out/features.txt", shuffle_rows), Case.features, "margin"),
        ("features: a row missing",
         lambda k: k.edit("out/features.txt", drop_row), Case.features, "rows for"),
        ("negatives: non-edge hop", neg_edit(neg_hop), Case.negatives, "no edge"),
        ("negatives: unsorted overlaps", neg_edit(unsorted, has_div), Case.negatives,
         "decrease"),
        ("negatives: overlap is not the Jaccard", neg_edit(bad_overlap),
         Case.negatives, "Jaccard is"),
        ("negatives: diversified with other endpoints",
         neg_edit(wrong_endpoint, lambda r: "diversified" in r["kinds"]),
         Case.negatives, "endpoints"),
        ("negatives: a negative equals the input", neg_edit(equals_input),
         Case.negatives, "equals the input"),
        ("negatives: backfilled flag wrong", neg_edit(flip_backfilled),
         Case.negatives, "backfilled flag"),
        ("negatives: shorter than the shortest path", lambda k: None,
         shortest_check, "below the shortest"),
        ("losstrace: value above 0", trace_edit(positive_value), Case.losstrace,
         "outside"),
        ("losstrace: joint objective falls", trace_edit(joint_falls), Case.losstrace,
         "joint objective went"),
        ("embeddings: a value moved by 1e-6", embedding_nudge, Case.embeddings,
         "own GRU gives"),
        ("checkpoint: params.bin short", truncate_params, Case.embeddings,
         "params.bin holds"),
        ("eval: wrong ridge MAE", wrong_mae, Case.ridge, "ridge refit gives"),
        ("eval: MAE no better than the mean", lambda k: None, beats_mean,
         "does not beat"),
        ("finetune: wrong MAE", lambda k: None, lambda k: k.finetune(1.001),
         "finetune reports MAE"),
        ("repeat pass: output differs", lambda k: None, other_pass,
         "differs from"),
    ]
    if own_times is not None:
        cases.insert(4, ("labels: travel time not the benchmark's",
                         lambda k: k.edit("data/labels.csv", slower_time),
                         Case.labels, "row 0 time"))

    c.fresh()
    for check in (Case.paths, Case.labels, Case.features, Case.negatives,
                  Case.losstrace, Case.embeddings, Case.ridge, Case.finetune):
        check(c)
    print("clean outputs: every check passes")
    failures = 0
    for name, corrupt, check, expected in cases:
        corrupt(c.fresh())
        try:
            check(c)
            outcome = "NOT CAUGHT"
        except CheckFailed as exc:
            outcome = "caught" if expected in str(exc) else f"WRONG CHECK: {exc}"
        failures += outcome != "caught"
        print(f"{name:<48} {outcome}")
    shutil.rmtree(dst, ignore_errors=True)
    print(f"{len(cases) - failures} of {len(cases)} corruptions caught")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
