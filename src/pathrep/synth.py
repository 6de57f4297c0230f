"""Deterministic desk-scale synthetic data: grid road networks, path
corpora, and travel-time / grouped ranking-score labels."""

from dataclasses import dataclass

import numpy as np

from .graph import Path, build_graph, validate_path
from .sampling import SearchLimit, shortest_path_stream


@dataclass(frozen=True)
class SynthConfig:
    grid_w: int = 8
    grid_h: int = 8
    edge_noise: float = 0.2        # relative length perturbation
    base_length: float = 100.0     # meters
    n_paths: int = 200
    detour_factor: float = 1.6     # corpus variants up to this x shortest
    variants_per_od: int = 3
    speed_min: float = 5.0         # m/s
    speed_max: float = 15.0
    label_noise: float = 0.0
    rank_temperature: float = 30.0
    seed: int = 0

    def __post_init__(self):
        if min(self.grid_w, self.grid_h, self.n_paths) < 1:
            raise ValueError("counts must be >= 1")
        if self.edge_noise < 0 or self.label_noise < 0:
            raise ValueError("noise must be >= 0")


def gen_graph(cfg):
    """4-connected grid, bidirectional, lengths base*(1 + U(-eta, eta))."""
    rng = np.random.default_rng(cfg.seed)
    w, h = cfg.grid_w, cfg.grid_h

    def nid(r, c):
        return r * w + c

    edges = []
    for r in range(h):
        for c in range(w):
            if c + 1 < w:
                length = cfg.base_length * (1 + rng.uniform(-cfg.edge_noise,
                                                            cfg.edge_noise))
                edges.append((nid(r, c), nid(r, c + 1), length))
                edges.append((nid(r, c + 1), nid(r, c), length))
            if r + 1 < h:
                length = cfg.base_length * (1 + rng.uniform(-cfg.edge_noise,
                                                            cfg.edge_noise))
                edges.append((nid(r, c), nid(r + 1, c), length))
                edges.append((nid(r + 1, c), nid(r, c), length))
    return build_graph(edges)


def gen_paths(g, cfg, counters=None):
    """Corpus of validated loopless paths: shortest path per sampled OD
    pair plus up to two bounded detour variants.

    If ``counters`` is a dict, it receives ``skipped_od``, the sampled OD
    pairs that gave no path, and ``search_limit_od``, the pairs whose
    search hit the enumeration limit (their variants found before it are
    kept).
    """
    rng = np.random.default_rng(cfg.seed + 1)
    corpus = []
    seen = set()
    attempts = 0
    skipped = limited = 0
    while len(corpus) < cfg.n_paths and attempts < 50 * cfg.n_paths:
        attempts += 1
        s, d = rng.choice(g.n, size=2, replace=False)
        variants = []
        try:
            for path, length in shortest_path_stream(g, int(s), int(d)):
                if not variants:
                    base_len = length
                elif length > cfg.detour_factor * base_len:
                    break
                variants.append(path)
                if len(variants) >= cfg.variants_per_od:
                    break
        except SearchLimit:
            limited += 1
        if not variants:
            skipped += 1
        for p in variants:
            if len(corpus) >= cfg.n_paths:
                break
            if p.nodes in seen:
                continue
            seen.add(p.nodes)
            corpus.append(validate_path(g, p.nodes))
    if counters is not None:
        counters["skipped_od"] = skipped
        counters["search_limit_od"] = limited
    if len(corpus) < cfg.n_paths:
        raise RuntimeError(
            f"could only generate {len(corpus)} of {cfg.n_paths} paths")
    return corpus


def edge_speeds(g, cfg):
    """Per-edge speeds (m/s), symmetric across edge directions."""
    rng = np.random.default_rng(cfg.seed + 2)
    speeds = np.zeros(g.m)
    cache = {}
    for i, (u, v) in enumerate(zip(g.edge_u, g.edge_v)):
        key = (min(u, v), max(u, v))
        if key not in cache:
            cache[key] = rng.uniform(cfg.speed_min, cfg.speed_max)
        speeds[i] = cache[key]
    return speeds


def path_travel_time(g, speeds, path):
    total = 0.0
    for u, v in zip(path.nodes, path.nodes[1:]):
        idx = g._edge_index[(u, v)]
        total += g.edge_len[idx] / speeds[idx]
    return total


def gen_labels(g, paths, cfg):
    """Travel times (seconds) and grouped ranking scores.

    Scores within an OD group are softmax(-time / temperature), so they
    lie in [0, 1], sum to 1 per group, and faster paths score higher.
    Singleton groups get score 1.0.
    """
    rng = np.random.default_rng(cfg.seed + 3)
    speeds = edge_speeds(g, cfg)
    times = np.array([path_travel_time(g, speeds, p) for p in paths])
    if cfg.label_noise > 0:
        times = times * (1 + rng.normal(0, cfg.label_noise, size=len(times)))

    group_ids = np.zeros(len(paths), dtype=np.int64)
    group_map = {}
    for i, p in enumerate(paths):
        key = (p.source, p.destination)
        group_ids[i] = group_map.setdefault(key, len(group_map))

    scores = np.zeros(len(paths))
    for gid in np.unique(group_ids):
        mask = group_ids == gid
        t = times[mask]
        logits = -t / cfg.rank_temperature
        logits -= logits.max()
        e = np.exp(logits)
        scores[mask] = e / e.sum()
    return times, scores, group_ids
