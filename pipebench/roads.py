"""The benchmark's own reading of the pipeline's road files, kept apart
from ``pathrep`` so that the checks do not trust the code they check.

Files are read exactly as the README of the repository describes them:
``graph.csv`` is ``u,v,length`` per line, ``paths.txt`` one comma-separated
node sequence per line, features and embeddings an ``N D`` header and N
rows, labels ``path_id,travel_time_seconds,group_id,rank_score``.
"""

import heapq
import math


class CheckFailed(Exception):
    """An output of the program is wrong."""


def read_graph(path):
    """{(u, v): length} over the directed edges, node ids as written."""
    edges = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            u, v, w = line.split(",")
            key = (int(u), int(v))
            if key in edges:
                raise CheckFailed(f"{path}:{lineno}: duplicate edge {key}")
            edges[key] = float(w)
    return edges


def adjacency(edges):
    adj = {}
    for (u, v), w in edges.items():
        adj.setdefault(u, []).append((v, w))
        adj.setdefault(v, [])
    return adj


def read_paths(path):
    with open(path) as fh:
        return [tuple(int(x) for x in line.split(","))
                for line in fh if line.strip() and not line.startswith("#")]


def read_matrix(path):
    """Rows of floats from an ``N D`` file; the header must match the rows."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    n, d = (int(x) for x in lines[0].split())
    rows = [[float(x) for x in ln.split()] for ln in lines[1:]]
    if len(rows) != n or any(len(r) != d for r in rows):
        raise CheckFailed(f"{path}: header says {n}x{d}, rows do not match")
    return rows


def read_labels(path):
    """[(travel_time, group_id, rank_score)] in path_id order."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "path_id,travel_time_seconds,group_id,rank_score":
            raise CheckFailed(f"{path}: unexpected header {header!r}")
        out = []
        for i, line in enumerate(fh):
            pid, t, gid, s = line.strip().split(",")
            if int(pid) != i:
                raise CheckFailed(f"{path}: row {i} has path_id {pid}")
            out.append((float(t), int(gid), float(s)))
    return out


def path_length(edges, nodes):
    total = 0.0
    for hop, (u, v) in enumerate(zip(nodes, nodes[1:])):
        if (u, v) not in edges:
            raise CheckFailed(f"no edge {u}->{v} at hop {hop} of {list(nodes)}")
        total += edges[(u, v)]
    return total


def dijkstra(adj, source):
    """Shortest distances and predecessors from ``source``."""
    dist = {source: 0.0}
    pred = {source: None}
    heap = [(0.0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        for v, w in adj[u]:
            alt = du + w
            if alt < dist.get(v, math.inf):
                dist[v] = alt
                pred[v] = u
                heapq.heappush(heap, (alt, v))
    return dist, pred


def walk_back(pred, target):
    """Node sequence from the Dijkstra source to ``target``."""
    nodes = [target]
    while pred[nodes[-1]] is not None:
        nodes.append(pred[nodes[-1]])
    return nodes[::-1]


def interior_jaccard(a, b):
    """Jaccard similarity of the interior node sets of two paths."""
    sa, sb = set(a[1:-1]), set(b[1:-1])
    union = sa | sb
    if not union:
        return 1.0 if tuple(a) == tuple(b) else 0.0
    return len(sa & sb) / len(union)
