"""Command-line pipeline: synth | features | negatives | train | embed |
eval | finetune | ablate.

Stages communicate only through files, every run writes a JSON manifest
(resolved config, input/output digests, seed, timings) next to its
outputs, and ``--config`` loads flat key=value files with flags taking
precedence.
"""

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import downstream, graph, sampling, synth, training
from .features import SgnsConfig, WalkConfig, generate_walks, train_sgns


def _digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(outdir, subcommand, config, inputs, outputs, seed, started,
                    counters=None):
    config = {k: v for k, v in config.items()
              if isinstance(v, (str, int, float, bool, type(None)))}
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "seed": seed,
        "inputs": {p: _digest(p) for p in inputs if os.path.isfile(p)},
        "outputs": {p: _digest(p) for p in outputs if os.path.isfile(p)},
        "wall_seconds": round(time.time() - started, 3),
    }
    if counters is not None:
        manifest["counters"] = counters
    path = os.path.join(outdir, f"manifest_{subcommand}.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _load_config_file(path):
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition("=")
            out[key.strip()] = value.strip()
    return out


def _apply_config(args, parser, argv):
    """Flat key=value config file; explicit flags win."""
    if not getattr(args, "config", None):
        return args
    file_vals = _load_config_file(args.config)
    given = {a.lstrip("-").replace("-", "_").split("=")[0]
             for a in argv if a.startswith("--")}
    for key, value in file_vals.items():
        attr = key.replace("-", "_")
        if hasattr(args, attr) and attr not in given:
            current = getattr(args, attr)
            cast = type(current) if current is not None else str
            if cast is bool:
                value = value.lower() in ("1", "true", "yes")
            else:
                value = cast(value)
            setattr(args, attr, value)
    return args


def _load_corpus(g, paths_file):
    return [graph.validate_path(g, ids) for ids in graph.load_paths(paths_file)]


def _save_labels(path, times, scores, groups):
    with open(path, "w") as fh:
        fh.write("path_id,travel_time_seconds,group_id,rank_score\n")
        for i, (t, s, gid) in enumerate(zip(times, scores, groups)):
            fh.write(f"{i},{t:.9g},{gid},{s:.9g}\n")


def _load_labels(path):
    times, scores, groups = [], [], []
    with open(path) as fh:
        next(fh)
        for line in fh:
            _, t, gid, s = line.strip().split(",")
            times.append(float(t))
            groups.append(int(gid))
            scores.append(float(s))
    return np.array(times), np.array(scores), np.array(groups, dtype=np.int64)


def _negatives_to_records(neg_sets):
    return [{"path_id": i,
             "negatives": [list(p.nodes) for p in ns.negatives],
             "overlaps": list(ns.overlaps),
             "kinds": list(ns.kinds),
             "backfilled": ns.backfilled}
            for i, ns in enumerate(neg_sets)]


def _load_negatives(path, g, corpus):
    """Negative sets: one record per corpus path, ``path_id`` 0..N-1 in
    order, every negative a valid path of ``g``."""
    neg_sets = []
    with open(path) as fh:
        for i, line in enumerate(fh):
            try:
                rec = json.loads(line)
                if i >= len(corpus) or rec["path_id"] != i:
                    raise ValueError(f"path_id {rec['path_id']} for "
                                     f"{len(corpus)} corpus paths")
                negatives = tuple(graph.validate_path(g, n) for n in rec["negatives"])
                if not len(negatives) == len(rec["overlaps"]) == len(rec["kinds"]):
                    raise ValueError("negatives, overlaps and kinds differ in length")
                neg_sets.append(sampling.NegativeSet(
                    input_path=corpus[i], negatives=negatives,
                    overlaps=tuple(rec["overlaps"]), kinds=tuple(rec["kinds"]),
                    backfilled=rec["backfilled"]))
            except (KeyError, TypeError, ValueError, graph.PathError) as exc:
                raise ValueError(f"{path}: record {i}: {type(exc).__name__}: "
                                 f"{exc}") from None
    if len(neg_sets) != len(corpus):
        raise ValueError(f"{path}: {len(neg_sets)} records for "
                         f"{len(corpus)} corpus paths")
    return neg_sets


# ---- subcommands ---------------------------------------------------------


def cmd_synth(args):
    started = time.time()
    w, h = (int(x) for x in args.grid.lower().split("x"))
    cfg = synth.SynthConfig(grid_w=w, grid_h=h, n_paths=args.paths,
                            edge_noise=args.edge_noise,
                            label_noise=args.label_noise, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    g = synth.gen_graph(cfg)
    corpus = synth.gen_paths(g, cfg)
    times, scores, groups = synth.gen_labels(g, corpus, cfg)
    graph_file = os.path.join(args.out, "graph.csv")
    paths_file = os.path.join(args.out, "paths.txt")
    labels_file = os.path.join(args.out, "labels.csv")
    graph.save_graph(g, graph_file)
    graph.save_paths(corpus, paths_file)
    _save_labels(labels_file, times, scores, groups)
    _write_manifest(args.out, "synth", vars(args), [],
                    [graph_file, paths_file, labels_file], args.seed, started)
    print(f"synth: wrote {g.n} nodes, {g.m} edges, {len(corpus)} paths to {args.out}")
    return 0


def cmd_features(args):
    started = time.time()
    g = graph.load_graph(args.graph)
    walks = generate_walks(g, WalkConfig(walks_per_node=args.walks,
                                         walk_length=args.walk_length,
                                         p=args.p, q=args.q, seed=args.seed))
    table = train_sgns(walks, SgnsConfig(dim=args.dim, window=args.window,
                                         negatives=args.negatives,
                                         epochs=args.epochs, lr=args.lr,
                                         seed=args.seed), g.n)
    graph.save_features(table, args.out)
    _write_manifest(os.path.dirname(args.out) or ".", "features", vars(args),
                    [args.graph], [args.out], args.seed, started)
    print(f"features: wrote {table.shape[0]}x{table.shape[1]} table to {args.out}")
    return 0


def cmd_negatives(args):
    started = time.time()
    g = graph.load_graph(args.graph)
    corpus = _load_corpus(g, args.paths)
    counters = {}
    neg_sets = sampling.make_negatives(corpus, g, args.seed, k=args.k,
                                       taus=(args.tau1, args.tau2),
                                       strategy=args.strategy, counters=counters)
    with open(args.out, "w") as fh:
        for rec in _negatives_to_records(neg_sets):
            fh.write(json.dumps(rec, sort_keys=True) + "\n")
    _write_manifest(os.path.dirname(args.out) or ".", "negatives", vars(args),
                    [args.graph, args.paths], [args.out], args.seed, started,
                    counters=counters)
    print(f"negatives: wrote {len(neg_sets)} sets to {args.out}")
    return 0


def cmd_train(args):
    started = time.time()
    g = graph.load_graph(args.graph)
    features = graph.load_features(args.features)
    corpus = _load_corpus(g, args.paths)
    neg_sets = _load_negatives(args.negatives, g, corpus)
    if args.k < max(ns.k for ns in neg_sets):
        neg_sets = [sampling.NegativeSet(ns.input_path, ns.negatives[:args.k],
                                         ns.overlaps[:args.k], ns.kinds[:args.k],
                                         ns.backfilled) for ns in neg_sets]
    cfg = training.TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                               lr=args.lr, k=args.k, curriculum=args.curriculum,
                               mode=args.mode, d_out=args.dim_out, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    model, trace = training.train(cfg, g, features, corpus, neg_sets,
                                  checkpoint_dir=args.out)
    trace_file = os.path.join(args.out, "losstrace.csv")
    with open(trace_file, "w") as fh:
        fh.write("epoch,global,local,joint,stage\n")
        for row in trace:
            fh.write(f"{row['epoch']},{row['global']:.9g},{row['local']:.9g},"
                     f"{row['joint']:.9g},{row['stage']}\n")
    _write_manifest(args.out, "train", vars(args),
                    [args.graph, args.features, args.paths, args.negatives],
                    [trace_file, os.path.join(args.out, "manifest.txt"),
                     os.path.join(args.out, "params.bin")], args.seed, started)
    print(f"train: final joint objective {trace[-1]['joint']:.4f} "
          f"after {cfg.epochs} epochs -> {args.out}")
    return 0


def cmd_embed(args):
    started = time.time()
    g = graph.load_graph(args.graph)
    features = graph.load_features(args.features)
    corpus = _load_corpus(g, args.paths)
    model = training.load_checkpoint(args.ckpt)
    emb = training.embed_corpus(model, g, features, corpus)
    graph.save_features(emb, args.out)
    _write_manifest(os.path.dirname(args.out) or ".", "embed", vars(args),
                    [args.graph, args.features, args.paths], [args.out],
                    0, started)
    print(f"embed: wrote {emb.shape[0]}x{emb.shape[1]} matrix to {args.out}")
    return 0


def cmd_eval(args):
    started = time.time()
    emb = graph.load_features(args.embeddings)
    times, scores, groups = _load_labels(args.labels)
    if args.task == "travel-time":
        y = times
    else:
        y = scores
    if args.task == "ranking":
        tr, va, te = downstream.split_indices_grouped(groups, args.split_seed)
    else:
        tr, va, te = downstream.split_indices(len(y), args.split_seed)
    reg = downstream.fit(args.regressor, emb[tr], y[tr])
    pred = reg.predict(emb[te])
    if args.task == "travel-time":
        rep = downstream.metrics(pred, y[te])
        line = f"MAE={rep.mae:.6g} MARE={rep.mare:.6g} MAPE={rep.mape:.6g}"
    else:
        rep = downstream.rank_metrics(pred, y[te], groups[te])
        line = (f"MAE={rep.mae:.6g} tau={rep.tau:.6g} rho={rep.rho:.6g} "
                f"skipped_groups={rep.skipped_groups}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("metric,value\n")
            fh.write(f"mae,{rep.mae:.9g}\nmare,{rep.mare:.9g}\nmape,{rep.mape:.9g}\n")
            if args.task == "ranking":
                fh.write(f"tau,{rep.tau:.9g}\nrho,{rep.rho:.9g}\n")
        _write_manifest(os.path.dirname(args.out) or ".", "eval", vars(args),
                        [args.embeddings, args.labels], [args.out],
                        args.split_seed, started)
    print(f"eval[{args.task}/{args.regressor}]: {line}")
    return 0


def cmd_finetune(args):
    started = time.time()
    g = graph.load_graph(args.graph)
    features = graph.load_features(args.features)
    corpus = _load_corpus(g, args.paths)
    times, _, _ = _load_labels(args.labels)
    model = training.load_checkpoint(args.ckpt)
    labeled = list(zip(corpus, times))
    sup, history = training.finetune(model, g, features, labeled,
                                     epochs=args.epochs, lr=args.lr,
                                     seed=args.seed)
    pred = training.predict_supervised(sup, g, features, corpus)
    rep = downstream.metrics(pred, times)
    os.makedirs(args.out, exist_ok=True)
    training.save_checkpoint(sup, args.out)
    _write_manifest(args.out, "finetune", vars(args),
                    [args.graph, args.features, args.paths, args.labels],
                    [os.path.join(args.out, "params.bin")], args.seed, started)
    print(f"finetune: train MSE {history[-1]:.6g}, MAE {rep.mae:.6g} -> {args.out}")
    return 0


def cmd_ablate(args):
    started = time.time()
    g = graph.load_graph(args.graph)
    features = graph.load_features(args.features)
    corpus = _load_corpus(g, args.paths)
    times, _, _ = _load_labels(args.labels)
    seeds = [int(s) for s in args.seeds.split(",")]

    if args.axis == "mi-mode":
        variants = [("global", {"mode": "global"}),
                    ("local", {"mode": "local"}),
                    ("joint", {"mode": "joint"})]
    elif args.axis == "sampling-strategy":
        variants = [("random", {"strategy": "random"}),
                    ("topk", {"strategy": "topk"}),
                    ("curriculum", {"strategy": "curriculum"})]
    elif args.axis == "K":
        variants = [(f"K={k}", {"k": k}) for k in (1, 2, 3, 4)]
    else:
        raise ValueError(f"unknown axis {args.axis!r}")

    rows = []
    for name, overrides in variants:
        maes = []
        for seed in seeds:
            k = overrides.get("k", args.k)
            strategy = overrides.get("strategy", "curriculum")
            neg_sets = sampling.make_negatives(corpus, g, seed, k=k,
                                               strategy=strategy)
            cfg = training.TrainConfig(
                epochs=args.epochs, lr=args.lr, k=k,
                mode=overrides.get("mode", "joint"),
                curriculum="staged" if strategy == "curriculum" else "all",
                d_out=args.dim_out, seed=seed)
            model, _ = training.train(cfg, g, features, corpus, neg_sets)
            emb = training.embed_corpus(model, g, features, corpus)
            tr, va, te = downstream.split_indices(len(corpus), seed)
            reg = downstream.fit("ridge", emb[tr], times[tr])
            maes.append(downstream.metrics(reg.predict(emb[te]), times[te]).mae)
        rows.append((name, float(np.mean(maes))))

    header = f"{'variant':<16}{'mae':>12}"
    print(header)
    print("-" * len(header))
    for name, mae in rows:
        print(f"{name:<16}{mae:>12.6g}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("variant,mae\n")
            for name, mae in rows:
                fh.write(f"{name},{mae:.9g}\n")
        _write_manifest(os.path.dirname(args.out) or ".", "ablate", vars(args),
                        [args.graph, args.features, args.paths, args.labels],
                        [args.out], seeds[0], started)
    return 0


# ---- parser --------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pathrep",
        description="Unsupervised path representation learning pipeline")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("synth", help="generate a synthetic grid network + labels")
    add_common(p)
    p.add_argument("--grid", default="8x8")
    p.add_argument("--paths", type=int, default=200)
    p.add_argument("--edge-noise", type=float, default=0.2)
    p.add_argument("--label-noise", type=float, default=0.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("features", help="node2vec-style node features")
    add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--walks", type=int, default=10)
    p.add_argument("--walk-length", type=int, default=20)
    p.add_argument("--window", type=int, default=5)
    p.add_argument("--negatives", type=int, default=5)
    p.add_argument("--epochs", type=int, default=3)
    p.add_argument("--lr", type=float, default=0.025)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("negatives", help="curriculum negative sampling")
    add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--paths", required=True)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--tau1", type=float, default=0.6)
    p.add_argument("--tau2", type=float, default=0.9)
    p.add_argument("--strategy", default="curriculum",
                   choices=["curriculum", "random", "topk"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_negatives)

    p = sub.add_parser("train", help="train the path encoder")
    add_common(p)
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--paths", required=True)
    p.add_argument("--negatives", required=True)
    p.add_argument("--epochs", type=int, default=100)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--curriculum", default="staged", choices=["staged", "all"])
    p.add_argument("--mode", default="joint", choices=["joint", "global", "local"])
    p.add_argument("--dim-out", type=int, default=16)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="embed a path corpus with a checkpoint")
    add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--paths", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("eval", help="downstream regression metrics")
    add_common(p)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--task", default="travel-time",
                   choices=["travel-time", "ranking"])
    p.add_argument("--regressor", default="ridge", choices=["ridge", "gp"])
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("finetune", help="supervised fine-tuning from a checkpoint")
    add_common(p)
    p.add_argument("--ckpt", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--paths", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--epochs", type=int, default=50)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("ablate", help="run an ablation axis and compare MAE")
    add_common(p)
    p.add_argument("--axis", required=True,
                   choices=["mi-mode", "sampling-strategy", "K"])
    p.add_argument("--graph", required=True)
    p.add_argument("--features", required=True)
    p.add_argument("--paths", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--seeds", default="0,1,2")
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--k", type=int, default=4)
    p.add_argument("--dim-out", type=int, default=16)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(argv)
    args = _apply_config(args, parser, argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line machine-parsable error, nonzero exit
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
