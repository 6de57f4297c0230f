"""Node feature vectors via biased second-order random walks + skip-gram.

All randomness is pre-drawn with a seeded numpy generator and handed to
the kernels as arrays.  The walks advance together, one step per
iteration; skip-gram training runs its pairs in order and updates one
embedding row per target.  Every sum runs in a fixed sequential order, so
a seed fixes the walks and the table byte for byte.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class WalkConfig:
    walks_per_node: int = 10
    walk_length: int = 20
    p: float = 1.0            # return bias
    q: float = 1.0            # in-out bias
    seed: int = 0

    def __post_init__(self):
        if self.walks_per_node < 1 or self.walk_length < 2:
            raise ValueError("need walks_per_node >= 1 and walk_length >= 2")
        if self.p <= 0 or self.q <= 0:
            raise ValueError("biases p, q must be positive")


@dataclass(frozen=True)
class SgnsConfig:
    dim: int = 32
    window: int = 5
    negatives: int = 5
    epochs: int = 3
    lr: float = 0.025
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.window < 1 or self.negatives < 1:
            raise ValueError("dim, window and negatives must be >= 1")


def _walk_kernel(g, starts, uniforms, p, q):
    """All walks advance together, one step per iteration.

    The first step is uniform over the out-neighbours.  Later steps weight
    each neighbour x of ``cur`` by 1/p if x is the previous node, 1 if x is
    also a neighbour of the previous node, else 1/q, and take the first
    neighbour whose running weight reaches ``u * total``.  A walk stops at a
    node with no out-neighbours; the rest of its row stays -1.
    """
    n_walks, length = uniforms.shape[0], uniforms.shape[1] + 1
    deg = np.diff(g.indptr)
    valid = np.arange(deg.max()) < deg[:, None]
    table = np.full(valid.shape, -1, dtype=np.int64)
    table[valid] = g.neighbors
    edge_keys = g.edge_u * g.n + g.edge_v          # sorted: CSR is row-major
    out = np.full((n_walks, length), -1, dtype=np.int64)
    out[:, 0] = starts
    live = np.arange(n_walks)
    cur, prev = starts, None
    for step in range(1, length):
        moving = deg[cur] > 0
        live, cur = live[moving], cur[moving]
        if not len(live):
            break
        u = uniforms[live, step - 1]
        d = deg[cur]
        if prev is None:
            nxt = table[cur, np.minimum((u * d).astype(np.int64), d - 1)]
        else:
            prev = prev[moving]
            cand = table[cur]
            keys = prev[:, None] * g.n + cand
            at = np.minimum(np.searchsorted(edge_keys, keys), len(edge_keys) - 1)
            weight = np.where(cand == prev[:, None], 1.0 / p,
                              np.where(edge_keys[at] == keys, 1.0, 1.0 / q))
            acc = np.cumsum(np.where(valid[cur], weight, 0.0), axis=1)
            # u < 1, so the last real neighbour always reaches the target
            # and the zero-weight padding after it is never picked
            hit = acc >= (u * acc[:, -1])[:, None]
            nxt = cand[np.arange(len(cur)), np.argmax(hit, axis=1)]
        out[live, step] = nxt
        prev, cur = cur, nxt
    return out


def _sgns_epoch(win, wout, centers, contexts, negs, lr):
    """One pass over the pairs in order, each target a row update.

    Per pair the positive context comes first (label 1), then the
    negatives (label 0) that are neither the context nor the centre.
    Scores are sequential sums (``np.add.accumulate``), never BLAS dots,
    so the table does not depend on the BLAS build.
    """
    negs = np.where((negs == contexts[:, None]) | (negs == centers[:, None]), -1, negs)
    for c, o, ts in zip(centers.tolist(), contexts.tolist(), negs):
        wc = win[c]
        grad_h = np.zeros(win.shape[1])
        for t, label in [(o, 1.0)] + [(t, 0.0) for t in ts.tolist() if t >= 0]:
            wt = wout[t]
            s = np.add.accumulate(wc * wt)[-1]
            e = lr * (1.0 / (1.0 + np.exp(-s)) - label)
            grad_h += e * wt
            wt -= e * wc
        wc -= grad_h


def generate_walks(g, cfg):
    """r biased walks per node with out-degree > 0; deterministic per seed."""
    if g.m == 0:
        raise ValueError("graph has no edges")
    starts_base = np.array([v for v in range(g.n)
                            if g.indptr[v + 1] > g.indptr[v]], dtype=np.int64)
    starts = np.repeat(starts_base, cfg.walks_per_node)
    rng = np.random.default_rng(cfg.seed)
    uniforms = rng.random((len(starts), cfg.walk_length - 1))
    out = _walk_kernel(g, starts, uniforms, cfg.p, cfg.q)
    walks = []
    for row in out:
        walk = row[row >= 0]
        if len(walk):
            walks.append(walk.tolist())
    return walks


def _skipgram_pairs(walks, window):
    centers, contexts = [], []
    for walk in walks:
        n = len(walk)
        for i in range(n):
            for j in range(max(0, i - window), min(n, i + window + 1)):
                if i != j:
                    centers.append(walk[i])
                    contexts.append(walk[j])
    return (np.asarray(centers, dtype=np.int64),
            np.asarray(contexts, dtype=np.int64))


def train_sgns(walks, cfg, n_nodes):
    """Skip-gram with negative sampling over the walk corpus."""
    if not walks:
        raise ValueError("walk corpus is empty")
    centers, contexts = _skipgram_pairs(walks, cfg.window)
    rng = np.random.default_rng(cfg.seed)
    win = (rng.random((n_nodes, cfg.dim)) - 0.5) / cfg.dim
    wout = np.zeros((n_nodes, cfg.dim))

    counts = np.bincount(np.concatenate([np.asarray(w) for w in walks]),
                         minlength=n_nodes).astype(np.float64)
    weights = counts ** 0.75
    if weights.sum() == 0:
        weights = np.ones(n_nodes)
    dist = weights / weights.sum()

    for _ in range(cfg.epochs):
        order = rng.permutation(len(centers))
        negs = rng.choice(n_nodes, size=(len(centers), cfg.negatives), p=dist)
        _sgns_epoch(win, wout, centers[order], contexts[order], negs, cfg.lr)
    # summing input and output embeddings puts direct co-occurrence
    # similarity (which lives in win x wout) into the returned table
    table = win + wout
    if not np.all(np.isfinite(table)):
        raise FloatingPointError("non-finite entries after skip-gram training")
    return table
