"""Curriculum negative sampling.

Negatives for an input path come from two sources: random corpus paths
(easy) and same-source/destination alternatives from a diversified
k-shortest-path stream (hard).  The final set is ordered by node overlap
with the input path so training can proceed easy-to-hard.

The stream of loopless s->d paths is an A* search guided by the exact
distance to the destination (one reverse Dijkstra, memoised per
destination within a ``make_negatives`` call), with a release rule that
keeps its order exactly (length, node sequence) under float ties.
"""

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .graph import Path


class NoPath(Exception):
    def __init__(self, s, d):
        self.s = s
        self.d = d
        super().__init__(f"no path from {s} to {d}")


class SearchLimit(NoPath):
    """The path stream popped ``max_pops`` partial paths and gave up."""

    def __init__(self, s, d, pops):
        super().__init__(s, d)
        self.pops = pops

    def __str__(self):
        return f"search from {self.s} to {self.d} stopped after {self.pops} pops"


class EmptyPartition(Exception):
    pass


@dataclass(frozen=True)
class DiversityConfig:
    k: int
    tau_div: float

    def __post_init__(self):
        if not 0 <= self.tau_div < 1:
            raise ValueError(f"tau_div must be in [0,1), got {self.tau_div}")
        if self.k < 1:
            raise ValueError("k must be >= 1")


@dataclass(frozen=True)
class NegativeSet:
    input_path: Path
    negatives: tuple          # Path, ordered easy -> hard
    overlaps: tuple           # Jaccard overlap with the input, same order
    kinds: tuple              # "random" | "diversified" | "backfill"
    backfilled: bool = False

    @property
    def k(self):
        return len(self.negatives)


def distances_to(g, d):
    """Shortest distance from every node to ``d``, inf where ``d`` cannot be
    reached: one Dijkstra over the reversed edges."""
    into = [[] for _ in range(g.n)]
    for u, v, w in zip(g.edge_u.tolist(), g.edge_v.tolist(), g.edge_len.tolist()):
        into[v].append((u, w))
    dist = [math.inf] * g.n
    dist[d] = 0.0
    heap = [(0.0, d)]
    while heap:
        dv, v = heapq.heappop(heap)
        if dv > dist[v]:
            continue
        for u, w in into[v]:
            du = dv + w
            if du < dist[u]:
                dist[u] = du
                heapq.heappush(heap, (du, u))
    return dist


# A* keys are scaled by this so that no rounding of ``length + h`` can lift
# a partial path's key above the float length of a path it completes to;
# sums of non-negative terms round by far less than 1e-9 of their value.
_DEFLATE = 1 - 1e-9


def shortest_path_stream(g, s, d, max_pops=2_000_000, dist=None):
    """Yield loopless s->d paths in increasing (length, node-sequence) order.

    A* over partial paths, guided by the exact remaining distance ``h`` to
    ``d`` (``dist``, as from ``distances_to(g, d)``; computed when None).
    Partial paths that cannot reach ``d`` are dropped.  The deflated key
    ``(length + h) * _DEFLATE`` never exceeds the length of any completion,
    so a completed path is held in a second heap, ordered by (length, node
    sequence), and released only once every queued partial path's key is
    strictly above its length.  The yields therefore come out exactly like
    a brute-force enumeration sorted by total length with ties broken
    lexicographically on the node sequence.  Raises SearchLimit once
    ``max_pops`` partial paths have been popped with more still queued.
    """
    if s == d:
        raise ValueError("source equals destination")
    h = distances_to(g, d) if dist is None else dist
    if h[s] == math.inf:
        return
    heap = [(h[s] * _DEFLATE, (s,), 0.0)]
    done = []
    pops = 0
    while heap or done:
        if done and (not heap or heap[0][0] > done[0][0]):
            length, nodes = heapq.heappop(done)
            yield Path(nodes=nodes), length
            continue
        if pops == max_pops:
            raise SearchLimit(s, d, pops)
        _, nodes, length = heapq.heappop(heap)
        pops += 1
        last = nodes[-1]
        in_path = set(nodes)
        for v, w in zip(g.out_neighbors(last).tolist(), g.out_lengths(last).tolist()):
            if v in in_path:
                continue
            if v == d:
                heapq.heappush(done, (length + w, nodes + (v,)))
            elif h[v] != math.inf:
                heapq.heappush(heap, ((length + w + h[v]) * _DEFLATE,
                                      nodes + (v,), length + w))


def k_shortest_paths(g, s, d, k):
    """Top-k loopless shortest paths, shortest first."""
    out = []
    for path, _ in shortest_path_stream(g, s, d):
        out.append(path)
        if len(out) == k:
            break
    if not out:
        raise NoPath(s, d)
    return out


def path_similarity(a, b):
    """Jaccard similarity over interior node sets (source/destination excluded).

    Endpoints are dropped because same-OD alternatives share them by
    construction; two internally disjoint alternatives score 0.
    """
    sa = set(a.nodes[1:-1])
    sb = set(b.nodes[1:-1])
    union = sa | sb
    if not union:
        return 1.0 if a.nodes == b.nodes else 0.0
    return len(sa & sb) / len(union)


def diversified_top_k(g, s, d, cfg, max_candidates=5000, dist=None):
    """Greedy diversity filter over the shortest-path stream.

    Accept a candidate iff its similarity to every already-accepted path
    is <= tau_div; stop at k accepted or when the stream dries up.
    Returns (paths, complete) where complete is False if fewer than k
    paths were accepted.  ``dist`` is passed on to the stream.
    """
    accepted = []
    seen_any = False
    for i, (path, _) in enumerate(shortest_path_stream(g, s, d, dist=dist)):
        seen_any = True
        if all(path_similarity(path, p) <= cfg.tau_div for p in accepted):
            accepted.append(path)
            if len(accepted) == cfg.k:
                return accepted, True
        if i + 1 >= max_candidates:
            break
    if not seen_any:
        raise NoPath(s, d)
    return accepted, False


def _plan(strategy, k, taus):
    """(random draws, tau of each diversified pick) for one strategy."""
    if strategy == "curriculum":
        n_random = max(1, (k + 1) // 2)
        return n_random, [taus[j % len(taus)] for j in range(k - n_random)]
    if strategy == "random":
        return k, []
    if strategy == "topk":
        return 0, [max(taus)] * k
    raise ValueError(f"unknown strategy {strategy!r}")


def _alternatives(g, s, d, cfg, max_candidates, searches):
    """Diversified s->d candidates, memoised in ``searches``; a search that
    hit the enumeration limit is stored as None.  The distances to ``d``
    that guide the searches are memoised there too, under ("dist", d)."""
    key = (s, d, cfg, max_candidates)
    if key not in searches:
        if ("dist", d) not in searches:
            searches["dist", d] = distances_to(g, d)
        try:
            searches[key], _ = diversified_top_k(g, s, d, cfg,
                                                 max_candidates=max_candidates,
                                                 dist=searches["dist", d])
        except SearchLimit:
            searches[key] = None
        except NoPath:
            searches[key] = []
    return searches[key] or []


def sample_negatives(input_path, corpus, g, seed, k=4, taus=(0.6, 0.9),
                     strategy="curriculum", max_candidates=2000, searches=None):
    """Build the negative set for one input path.

    The strategy sets the mix of easy random corpus paths and hard same-OD
    alternatives from the diversified top-k stream:

    - ``curriculum``: ceil(k/2) random paths (at least one), the rest
      diversified, their thresholds taken from ``taus`` in turn;
    - ``random``: k random paths;
    - ``topk``: k diversified paths, all at ``max(taus)``.

    A diversified pick with no unused alternative left is replaced by a
    random "backfill" path, and the set is flagged.  The result is sorted
    by overlap with the input (non-decreasing, stable).  ``searches`` is a
    dict that memoises the top-k searches, and the distances that guide
    them, across calls.
    """
    n_random, pick_taus = _plan(strategy, k, taus)
    rng = np.random.default_rng(seed)
    pool = [p for p in corpus if p.nodes != input_path.nodes]
    if len(pool) < 2:
        raise ValueError("corpus must contain at least 2 paths besides the input")

    chosen = []
    if n_random:
        idx = rng.choice(len(pool), size=min(n_random, len(pool)), replace=False)
        if strategy == "curriculum":
            idx = sorted(idx)       # corpus order; random keeps draw order
        chosen = [(pool[int(i)], "random") for i in idx]

    searches = {} if searches is None else searches
    for tau in pick_taus:
        cands = _alternatives(g, input_path.source, input_path.destination,
                              DiversityConfig(k=len(pick_taus) + 1, tau_div=tau),
                              max_candidates, searches)
        taken = {p.nodes for p, kind in chosen if kind == "diversified"}
        taken.add(input_path.nodes)
        pick = next((c for c in cands if c.nodes not in taken), None)
        if pick is not None:
            chosen.append((pick, "diversified"))

    while len(chosen) < k:
        taken = {p.nodes for p, _ in chosen}
        avail = [p for p in pool if p.nodes not in taken]
        if not avail:
            break
        chosen.append((avail[int(rng.integers(len(avail)))], "backfill"))

    annotated = sorted(((path_similarity(input_path, p), p, kind)
                        for p, kind in chosen), key=lambda t: t[0])
    kinds = tuple(kind for _, _, kind in annotated)
    return NegativeSet(
        input_path=input_path,
        negatives=tuple(p for _, p, _ in annotated),
        overlaps=tuple(ov for ov, _, _ in annotated),
        kinds=kinds,
        backfilled="backfill" in kinds,
    )


def make_negatives(corpus, g, seed, k=4, taus=(0.6, 0.9), strategy="curriculum",
                   counters=None):
    """Negative sets for every corpus path; path i draws with seed
    ``seed * 1_000_003 + i``.

    Each top-k search runs at most once per call.  If ``counters`` is a
    dict, it receives ``backfilled_sets`` and ``search_limit_od``, the
    number of OD pairs whose search hit the enumeration limit.
    """
    searches = {}
    neg_sets = [sample_negatives(path, corpus, g, seed * 1_000_003 + i, k=k,
                                 taus=taus, strategy=strategy, searches=searches)
                for i, path in enumerate(corpus)]
    if counters is not None:
        counters["backfilled_sets"] = sum(ns.backfilled for ns in neg_sets)
        counters["search_limit_od"] = len({key[:2] for key, found in searches.items()
                                           if found is None})
    return neg_sets


def curriculum_schedule(stage, ns, staged=True):
    """Active negatives at a curriculum stage (easiest first).

    Staged mode exposes the first min(stage, K) negatives; all-at-once
    mode (the ablation switch) always exposes all K.
    """
    if stage < 1:
        raise ValueError("stage must be >= 1")
    if not staged:
        return ns.negatives
    return ns.negatives[:min(stage, ns.k)]


def node_partition(input_path, active):
    """Split nodes into input-only (X) and negatives-only (Y) sets."""
    active = list(active)
    if not active:
        raise ValueError("need at least one active negative")
    neg_nodes = set()
    for p in active:
        neg_nodes.update(p.nodes)
    x = frozenset(input_path.nodes) - neg_nodes
    y = frozenset(neg_nodes) - set(input_path.nodes)
    if not x and not y:
        raise EmptyPartition(
            "input nodes equal the union of negative nodes")
    return x, y
