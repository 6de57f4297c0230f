"""The two workloads: their inputs and the stage commands that run on them.

Each workload is a fixed corpus; the workload seed drives every
stochastic stage of the pipeline (walks, SGNS, random negatives, training
order and initialisation, fine-tuning).  A corpus drawn per seed would make
the timings and MAEs incomparable between seeds: over 10 seeds of
``synth --grid 8x8 --paths 200`` the negatives stage took 2.7 s to 7.1 s,
and the ridge MAE moved by a third.

``standard`` is the reference corpus of the repository's ROADMAP, made by
``pathrep synth --grid 8x8 --paths 200 --seed 7``.

``large`` is a 16x16 road grid whose graph, corpus and labels the
benchmark makes itself: Dijkstra shortest paths and detours up to
``DETOUR_FACTOR`` times longer, 2-3 paths per origin-destination (OD)
pair, travel times from the benchmark's own edge speeds.  OD pairs come in
equal numbers at each hop distance of ``LARGE_HOPS``.  The hop distance is
capped because ``sampling.shortest_path_stream`` enumerates partial paths
with no pruning: an OD pair 10 hops apart costs about 0.5 s of top-k
search, and from node 0 to node 99 of a 10x10 grid (18 hops) it reaches
``max_pops`` after about 30 s and yields nothing.
"""

import math
import os
import random
from dataclasses import dataclass

from roads import adjacency, dijkstra, walk_back

STANDARD_SYNTH = ["synth", "--grid", "8x8", "--paths", "200", "--seed", "7"]

LARGE_GRID = 16
LARGE_SEED = 16
LARGE_PATHS = 480
LARGE_HOPS = (3, 4, 5, 6, 7)
DETOUR_FACTOR = 2.0            # a detour is at most this times the shortest
BASE_LENGTH = 100.0            # meters
EDGE_NOISE = 0.2
SPEED_RANGE = (5.0, 15.0)      # m/s
RANK_TEMPERATURE = 30.0

# One eval split tests 5% of the paths: 10 on the standard corpus, so one
# split's MAE moves by a fifth between training seeds.  The MAE metrics
# are the mean of the program's eval over these split seeds; the timed
# eval stage is the first of them.
QUALITY_SPLITS = tuple(range(16))


@dataclass(frozen=True)
class Workload:
    name: str
    features: tuple            # extra `features` flags
    train_epochs: int
    finetune_epochs: int
    once: tuple                # stages long enough to be steady from one run
    k: int = 4


WORKLOADS = {
    # features at the CLI defaults but for two SGNS epochs in place of
    # three, which alone took 40 s; SGNS is still the largest stage here
    "standard": Workload("standard", features=("--epochs", "2"), train_epochs=8,
                         finetune_epochs=5, once=("features",)),
    # features kept light so that negatives, training and the GP dominate
    "large": Workload("large", features=("--walks", "2", "--walk-length", "10",
                                         "--window", "3", "--epochs", "1"),
                      train_epochs=6, finetune_epochs=5,
                      once=("negatives", "train")),
}


def stage_commands(wl, seed, data, out):
    """[(stage, argv)] for one pass of the pipeline, in order.

    ``data`` holds graph.csv, paths.txt and labels.csv; ``out`` receives
    every stage output.
    """
    g = os.path.join(data, "graph.csv")
    paths = os.path.join(data, "paths.txt")
    labels = os.path.join(data, "labels.csv")
    feats = os.path.join(out, "features.txt")
    negs = os.path.join(out, "negatives.jsonl")
    ckpt = os.path.join(out, "ckpt")
    emb = os.path.join(out, "embeddings.txt")
    s = str(seed)
    cmds = [
        ("features", ["features", "--graph", g, "--out", feats, "--seed", s,
                      *wl.features]),
        ("negatives", ["negatives", "--graph", g, "--paths", paths,
                       "--k", str(wl.k), "--out", negs, "--seed", s]),
        ("train", ["train", "--graph", g, "--features", feats, "--paths", paths,
                   "--negatives", negs, "--k", str(wl.k),
                   "--epochs", str(wl.train_epochs), "--out", ckpt, "--seed", s]),
        ("embed", ["embed", "--graph", g, "--features", feats, "--paths", paths,
                   "--ckpt", ckpt, "--out", emb]),
    ]
    cmds += eval_commands(emb, labels, out, QUALITY_SPLITS[0])
    cmds.append(("finetune", ["finetune", "--graph", g, "--features", feats,
                              "--paths", paths, "--labels", labels, "--ckpt", ckpt,
                              "--epochs", str(wl.finetune_epochs),
                              "--out", os.path.join(out, "finetune"), "--seed", s]))
    return cmds


def eval_commands(emb, labels, out, split):
    """The two downstream evaluations of one split seed."""
    return [(f"eval_{task}", ["eval", "--embeddings", emb, "--labels", labels,
                              "--task", name, "--regressor", regressor,
                              "--split-seed", str(split),
                              "--out", os.path.join(out, f"eval_{task}_{split}.csv")])
            for task, name, regressor in (("tt", "travel-time", "ridge"),
                                          ("rank", "ranking", "gp"))]


def make_large(data):
    """Write the large workload's graph, corpus and labels into ``data``.

    Returns the benchmark's own travel times, one per path.
    """
    rng = random.Random(LARGE_SEED)
    n = LARGE_GRID * LARGE_GRID
    edges, speeds = {}, {}
    for r in range(LARGE_GRID):
        for c in range(LARGE_GRID):
            u = r * LARGE_GRID + c
            for v in ([u + 1] if c + 1 < LARGE_GRID else []) + \
                     ([u + LARGE_GRID] if r + 1 < LARGE_GRID else []):
                # round-trip through the file format so that the program and
                # the benchmark see the same lengths
                length = float(f"{BASE_LENGTH * (1 + rng.uniform(-EDGE_NOISE, EDGE_NOISE)):.9g}")
                speed = rng.uniform(*SPEED_RANGE)
                edges[(u, v)] = edges[(v, u)] = length
                speeds[(u, v)] = speeds[(v, u)] = speed
    adj = adjacency(edges)

    corpus, groups = [], []
    seen_od = set()
    i = 0
    while len(corpus) < LARGE_PATHS:
        hops = LARGE_HOPS[i % len(LARGE_HOPS)]
        want = 3 if i % 2 else 2
        i += 1
        s, d = _od_at_distance(rng, hops)
        if (s, d) in seen_od:
            continue
        seen_od.add((s, d))
        dist_s, pred_s = dijkstra(adj, s)
        dist_d, pred_d = dijkstra(adj, d)       # the grid is symmetric
        shortest = walk_back(pred_s, d)
        variants = [tuple(shortest)]
        for _ in range(40):
            if len(variants) == want:
                break
            w = rng.randrange(n)
            if w in (s, d) or dist_s[w] + dist_d[w] > DETOUR_FACTOR * dist_s[d]:
                continue
            nodes = tuple(walk_back(pred_s, w) + walk_back(pred_d, w)[::-1][1:])
            if len(set(nodes)) == len(nodes) and nodes not in variants:
                variants.append(nodes)
        for nodes in variants[:LARGE_PATHS - len(corpus)]:
            corpus.append(nodes)
            groups.append(len(seen_od) - 1)

    times = [sum(edges[(u, v)] / speeds[(u, v)] for u, v in zip(p, p[1:]))
             for p in corpus]
    scores = [0.0] * len(corpus)
    for gid in sorted(set(groups)):
        members = [j for j, x in enumerate(groups) if x == gid]
        best = min(times[j] for j in members)
        weights = [math.exp(-(times[j] - best) / RANK_TEMPERATURE)
                   for j in members]
        for j, wgt in zip(members, weights):
            scores[j] = wgt / sum(weights)

    os.makedirs(data, exist_ok=True)
    with open(os.path.join(data, "graph.csv"), "w") as fh:
        fh.writelines(f"{u},{v},{w:.9g}\n" for (u, v), w in sorted(edges.items()))
    with open(os.path.join(data, "paths.txt"), "w") as fh:
        fh.writelines(",".join(map(str, p)) + "\n" for p in corpus)
    with open(os.path.join(data, "labels.csv"), "w") as fh:
        fh.write("path_id,travel_time_seconds,group_id,rank_score\n")
        fh.writelines(f"{j},{t:.9g},{gid},{sc:.9g}\n"
                      for j, (t, gid, sc) in enumerate(zip(times, groups, scores)))
    return times


def _od_at_distance(rng, hops):
    """A uniformly placed origin and a destination ``hops`` grid steps away."""
    while True:
        r0, c0 = rng.randrange(LARGE_GRID), rng.randrange(LARGE_GRID)
        dr = rng.randint(-hops, hops)
        dc = (hops - abs(dr)) * rng.choice((-1, 1))
        r1, c1 = r0 + dr, c0 + dc
        if 0 <= r1 < LARGE_GRID and 0 <= c1 < LARGE_GRID:
            return r0 * LARGE_GRID + c0, r1 * LARGE_GRID + c1
