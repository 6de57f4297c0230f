"""Checks of every stage output, computed apart from ``pathrep``.

Each check reads files and raises ``CheckFailed`` with the file and the
record at fault.  ``selftest.py`` feeds each one a corrupted output and
requires it to fail.
"""

import filecmp
import json
import math
import os

import numpy as np

from roads import (CheckFailed, adjacency, dijkstra, interior_jaccard,
                   path_length, read_graph, read_labels, read_matrix, read_paths)

LOG_FLOOR = math.log(1e-12)
# Adjacent nodes must be this much more alike (mean cosine) than all pairs;
# SGNS on the standard corpus gives about 0.9 against 0.0.
COSINE_MARGIN = 0.3
# The ridge refit: same split, same closed form, so only rounding differs.
RIDGE_LAMBDA = 1e-6


def check_paths(graph_file, paths_file):
    """Every path is a loopless walk over graph edges; node ids are dense."""
    edges = read_graph(graph_file)
    nodes = {u for u, _ in edges} | {v for _, v in edges}
    if nodes != set(range(len(nodes))):
        raise CheckFailed(f"{graph_file}: node ids are not 0..{len(nodes) - 1}")
    paths = read_paths(paths_file)
    for i, p in enumerate(paths):
        _check_path(edges, p, f"{paths_file}: path {i}")
    return edges, paths


def _check_path(edges, p, where):
    if len(p) < 2:
        raise CheckFailed(f"{where}: fewer than 2 nodes")
    if len(set(p)) != len(p):
        raise CheckFailed(f"{where}: repeats a node")
    try:
        path_length(edges, p)
    except CheckFailed as exc:
        raise CheckFailed(f"{where}: {exc}") from None


def check_labels(labels_file, paths, own_times=None):
    """Scores of each OD group sum to 1 and fall as travel time rises.

    ``own_times`` are the benchmark's own travel times, where it made the
    labels itself.
    """
    labels = read_labels(labels_file)
    if len(labels) != len(paths):
        raise CheckFailed(f"{labels_file}: {len(labels)} rows for {len(paths)} paths")
    groups = {}
    for i, (t, gid, s) in enumerate(labels):
        if not (t > 0 and 0 <= s <= 1):
            raise CheckFailed(f"{labels_file}: row {i} has time {t}, score {s}")
        if own_times is not None and abs(t - own_times[i]) > 1e-8 * own_times[i]:
            raise CheckFailed(f"{labels_file}: row {i} time {t} != {own_times[i]}")
        groups.setdefault(gid, []).append(i)
    for gid, rows in groups.items():
        ods = {(paths[i][0], paths[i][-1]) for i in rows}
        if len(ods) != 1:
            raise CheckFailed(f"{labels_file}: group {gid} mixes OD pairs {ods}")
        total = sum(labels[i][2] for i in rows)
        if abs(total - 1.0) > 1e-6:
            raise CheckFailed(f"{labels_file}: group {gid} scores sum to {total}")
        for i in rows:
            for j in rows:
                if labels[i][0] < labels[j][0] and labels[i][2] < labels[j][2] - 1e-9:
                    raise CheckFailed(f"{labels_file}: group {gid}: path {i} is "
                                      f"faster than path {j} but scores lower")


def check_features(features_file, edges):
    """N x D, finite, and adjacent nodes far more alike than all pairs."""
    n = 1 + max(max(u, v) for u, v in edges)
    table = np.array(read_matrix(features_file))
    if table.shape[0] != n:
        raise CheckFailed(f"{features_file}: {table.shape[0]} rows for {n} nodes")
    if not np.all(np.isfinite(table)):
        raise CheckFailed(f"{features_file}: non-finite entries")
    unit = table / np.maximum(np.linalg.norm(table, axis=1, keepdims=True), 1e-300)
    cos = unit @ unit.T
    u, v = np.array(list(edges)).T
    adjacent = float(cos[u, v].mean())
    every = float((cos.sum() - np.trace(cos)) / (n * (n - 1)))
    if adjacent - every < COSINE_MARGIN:
        raise CheckFailed(f"{features_file}: adjacent cosine {adjacent:.3f} vs "
                          f"all pairs {every:.3f}, margin under {COSINE_MARGIN}")
    return adjacent, every


def check_negatives(negatives_file, edges, paths, k):
    """One record per path; valid, sorted and honestly labelled negatives."""
    with open(negatives_file) as fh:
        records = [json.loads(line) for line in fh]
    if len(records) != len(paths):
        raise CheckFailed(f"{negatives_file}: {len(records)} records for "
                          f"{len(paths)} paths")
    adj = adjacency(edges)
    shortest = {}
    for i, rec in enumerate(records):
        where = f"{negatives_file}: record {i}"
        if rec["path_id"] != i:
            raise CheckFailed(f"{where}: path_id {rec['path_id']}")
        base = paths[i]
        negs = [tuple(n) for n in rec["negatives"]]
        if len(negs) != k or len(rec["overlaps"]) != k or len(rec["kinds"]) != k:
            raise CheckFailed(f"{where}: expected {k} negatives")
        for j, neg in enumerate(negs):
            _check_path(edges, neg, f"{where} negative {j}")
        check_overlaps(base, negs, rec["overlaps"], where)
        for neg, kind in zip(negs, rec["kinds"]):
            if neg == base:
                raise CheckFailed(f"{where}: a negative equals the input path")
            if kind == "diversified" and (neg[0], neg[-1]) != (base[0], base[-1]):
                raise CheckFailed(f"{where}: diversified negative {list(neg)} "
                                  f"does not share the input's endpoints")
            if kind not in ("random", "diversified", "backfill"):
                raise CheckFailed(f"{where}: unknown kind {kind!r}")
        if rec["backfilled"] != ("backfill" in rec["kinds"]):
            raise CheckFailed(f"{where}: backfilled flag disagrees with kinds")
        od = (base[0], base[-1])
        if od not in shortest:
            shortest[od] = dijkstra(adj, od[0])[0][od[1]]
        check_not_shorter(edges, [n for n, kind in zip(negs, rec["kinds"])
                                  if kind == "diversified"], shortest[od], where)
    return records


def check_overlaps(base, negs, overlaps, where):
    """Overlaps equal interior-node Jaccard and do not decrease."""
    for j, (neg, ov) in enumerate(zip(negs, overlaps)):
        own = interior_jaccard(base, neg)
        if abs(own - ov) > 1e-12:
            raise CheckFailed(f"{where}: overlap {j} is {ov}, Jaccard is {own}")
    if any(a > b for a, b in zip(overlaps, overlaps[1:])):
        raise CheckFailed(f"{where}: overlaps {overlaps} decrease")


def check_not_shorter(edges, negs, shortest, where):
    """No same-OD negative is shorter than the Dijkstra shortest length."""
    for neg in negs:
        length = path_length(edges, neg)
        if length < shortest * (1 - 1e-12):
            raise CheckFailed(f"{where}: negative {list(neg)} has length {length} "
                              f"below the shortest {shortest}")


def check_losstrace(trace_file, epochs, k):
    """Objectives lie in [ln 1e-12, 0], joint = global + local, and the
    joint objective ends above where it began."""
    with open(trace_file) as fh:
        header = fh.readline().strip()
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if header != "epoch,global,local,joint,stage":
        raise CheckFailed(f"{trace_file}: unexpected header {header!r}")
    if [int(r[0]) for r in rows] != list(range(epochs)):
        raise CheckFailed(f"{trace_file}: expected epochs 0..{epochs - 1}")
    stages = [int(r[4]) for r in rows]
    if stages != sorted(stages) or not 1 <= stages[0] <= stages[-1] <= k:
        raise CheckFailed(f"{trace_file}: curriculum stages {stages}")
    joint = []
    for r in rows:
        glob, local, jnt = (float(x) for x in r[1:4])
        for x in (glob, local):
            if not LOG_FLOOR <= x <= 0:
                raise CheckFailed(f"{trace_file}: epoch {r[0]} value {x} "
                                  f"outside [ln 1e-12, 0]")
        if abs(glob + local - jnt) > 1e-8:
            raise CheckFailed(f"{trace_file}: epoch {r[0]} joint != global + local")
        joint.append(jnt)
    if joint[-1] <= joint[0]:
        raise CheckFailed(f"{trace_file}: joint objective went from {joint[0]} "
                          f"to {joint[-1]}")


def read_checkpoint(directory):
    """(meta, {name: array}) for the ``p:`` parameters of a checkpoint."""
    with open(os.path.join(directory, "manifest.txt")) as fh:
        lines = fh.read().splitlines()
    meta = dict(kv.split("=") for kv in lines[0].split()[1:])
    shapes = [(name, int(r), int(c)) for name, r, c in
              (line.split() for line in lines[1:])]
    raw = np.fromfile(os.path.join(directory, "params.bin"), dtype="<f8")
    if raw.size != sum(r * c for _, r, c in shapes):
        raise CheckFailed(f"{directory}: params.bin holds {raw.size} values, "
                          f"manifest.txt declares {sum(r * c for _, r, c in shapes)}")
    params, offset = {}, 0
    for name, r, c in shapes:
        if name.startswith("p:"):
            params[name[2:]] = raw[offset:offset + r * c].reshape(r, c)
        offset += r * c
    return meta, params


def gru_batch(params, features, paths):
    """The path encoder over all paths at once: a padded, masked GRU.

    The program runs one path at a time; this evaluates the same cell,
    h' = (1 - z) h + z tanh(x Wc + (r h) Uc + bc), in another order.
    """
    z_max = max(len(p) for p in paths)
    d = features.shape[1]
    x = np.zeros((len(paths), z_max, d))
    mask = np.zeros((len(paths), z_max, 1))
    for i, p in enumerate(paths):
        x[i, :len(p)] = features[list(p)]
        mask[i, :len(p)] = 1.0
    h = np.zeros((len(paths), params["Uz"].shape[0]))

    def sig(a):
        return 1.0 / (1.0 + np.exp(-a))
    for t in range(z_max):
        xt = x[:, t]
        z = sig(xt @ params["Wz"] + h @ params["Uz"] + params["bz"])
        r = sig(xt @ params["Wr"] + h @ params["Ur"] + params["br"])
        c = np.tanh(xt @ params["Wc"] + (r * h) @ params["Uc"] + params["bc"])
        h = np.where(mask[:, t] > 0, (1.0 - z) * h + z * c, h)
    return h @ params["Wo"]


def check_embeddings(embeddings_file, ckpt_dir, features_file, paths, epochs):
    """embeddings.txt equals the benchmark's own GRU to 1e-9 beyond the
    9 significant digits the file keeps."""
    meta, params = read_checkpoint(ckpt_dir)
    if int(meta["epoch"]) != epochs:
        raise CheckFailed(f"{ckpt_dir}: checkpoint at epoch {meta['epoch']}, "
                          f"trained for {epochs}")
    features = np.array(read_matrix(features_file))
    own = gru_batch(params, features, paths)
    got = np.array(read_matrix(embeddings_file))
    if got.shape != own.shape:
        raise CheckFailed(f"{embeddings_file}: shape {got.shape}, expected {own.shape}")
    tol = 1e-9 + 5e-9 * np.abs(own)     # %.9g keeps 9 significant digits
    bad = np.argwhere(np.abs(got - own) > tol)
    if len(bad):
        i, j = bad[0]
        raise CheckFailed(f"{embeddings_file}: row {i} column {j} is {got[i, j]!r}, "
                          f"own GRU gives {own[i, j]!r}")
    return own


def read_eval(path):
    with open(path) as fh:
        next(fh)
        return {k: float(v) for k, v in (line.strip().split(",") for line in fh)}


def split_indices(n, seed, train=0.85, val=0.10):
    """The eval split: a seeded permutation cut 85/10/5."""
    order = np.random.default_rng(seed).permutation(n)
    n_train, n_val = int(round(train * n)), int(round(val * n))
    return order[:n_train], order[n_train + n_val:]


def check_ridge_mae(eval_file, embeddings_file, labels_file, split_seed):
    """The reported travel-time MAE equals a closed-form ridge refit on
    the same split; returns (reported MAE, MAE of the training mean)."""
    emb = np.array(read_matrix(embeddings_file))
    y = np.array([t for t, _, _ in read_labels(labels_file)])
    tr, te = split_indices(len(y), split_seed)
    xm, ym = emb[tr].mean(axis=0), y[tr].mean()
    xc = emb[tr] - xm
    w = np.linalg.solve(xc.T @ xc + RIDGE_LAMBDA * np.eye(emb.shape[1]),
                        xc.T @ (y[tr] - ym))
    own = float(np.abs((emb[te] - xm) @ w + ym - y[te]).mean())
    got = read_eval(eval_file)["mae"]
    if abs(got - own) > 1e-6 * own:
        raise CheckFailed(f"{eval_file}: MAE {got}, ridge refit gives {own}")
    return got, float(np.abs(y[te] - ym).mean())


def check_beats_mean(name, mae, mean_mae):
    if not mae < mean_mae:
        raise CheckFailed(f"{name} {mae:.6g} does not beat predicting the "
                          f"training mean ({mean_mae:.6g})")


def check_finetune(ft_dir, features_file, paths, labels_file, reported_mae):
    """The fine-tuned model's MAE, recomputed with the benchmark's GRU and
    the stored head, equals the MAE that ``finetune`` prints."""
    _, params = read_checkpoint(ft_dir)
    features = np.array(read_matrix(features_file))
    y = np.array([t for t, _, _ in read_labels(labels_file)])
    raw = gru_batch(params, features, paths) @ params["head_w"][:, 0] + params["head_b"][0, 0]
    y_mean, y_std = params["head_scale"].ravel()
    own = float(np.abs(raw * y_std + y_mean - y).mean())
    if abs(own - reported_mae) > 1e-5 * own:     # printed with 6 digits
        raise CheckFailed(f"{ft_dir}: finetune reports MAE {reported_mae}, "
                          f"its checkpoint gives {own}")
    return own, float(np.abs(y - y.mean()).mean())


# Stage outputs that every repeat of a stage must rewrite byte for byte.
OUTPUTS = ("features.txt", "negatives.jsonl", "embeddings.txt", "eval_tt_0.csv",
           "eval_rank_0.csv", "ckpt/losstrace.csv", "ckpt/params.bin",
           "finetune/params.bin")


def check_same_outputs(first, other):
    """The outputs under ``other`` have the bytes of those under ``first``."""
    for name in OUTPUTS:
        if not filecmp.cmp(os.path.join(first, name), os.path.join(other, name),
                           shallow=False):
            raise CheckFailed(f"{os.path.join(other, name)} differs from "
                              f"{os.path.join(first, name)}")
