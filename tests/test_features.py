import hashlib
import json

import numpy as np
import pytest
from scipy import stats

from pathrep import features
from pathrep.features import SgnsConfig, WalkConfig, generate_walks, train_sgns
from pathrep.graph import build_graph


def test_forced_walk_on_chain():
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0)])
    walks = generate_walks(g, WalkConfig(walks_per_node=1, walk_length=3, seed=0))
    by_start = {w[0]: w for w in walks}
    assert by_start[0] == [0, 1, 2]
    assert by_start[1] == [1, 2]       # truncated at the dead end
    assert 2 not in by_start           # zero out-degree: no walk emitted


def test_walk_count_per_node():
    g = build_graph([(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    walks = generate_walks(g, WalkConfig(walks_per_node=4, walk_length=5, seed=1))
    starts = [w[0] for w in walks]
    for v in range(3):
        assert starts.count(v) == 4


def test_uniform_transitions_when_p_q_one():
    # complete digraph on 4 nodes: every second-order step must be uniform
    edges = [(u, v, 1.0) for u in range(4) for v in range(4) if u != v]
    g = build_graph(edges)
    walks = generate_walks(g, WalkConfig(walks_per_node=300, walk_length=12,
                                         p=1.0, q=1.0, seed=7))
    counts = np.zeros((4, 4))
    for w in walks:
        for prev, nxt in zip(w[1:], w[2:]):   # second-order steps only
            counts[prev, nxt] += 1
    for u in range(4):
        obs = [counts[u, v] for v in range(4) if v != u]
        assert stats.chisquare(obs).pvalue > 0.01


def test_biased_walk_return_parameter():
    # tiny p makes returning to the previous node overwhelmingly likely
    g = build_graph([(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0)])
    walks = generate_walks(g, WalkConfig(walks_per_node=200, walk_length=6,
                                         p=0.01, q=1.0, seed=3))
    returns = total = 0
    for w in walks:
        for a, b, c in zip(w, w[1:], w[2:]):
            if b == 1:                 # node 1 has two out-neighbors
                total += 1
                returns += c == a
    assert returns / total > 0.9


def test_walks_deterministic():
    g = build_graph([(u, v, 1.0) for u in range(5) for v in range(5) if u != v])
    cfg = WalkConfig(walks_per_node=3, walk_length=8, seed=11)
    assert generate_walks(g, cfg) == generate_walks(g, cfg)


def test_isolated_node_gets_no_walks():
    g = build_graph([(0, 1, 1.0), (1, 0, 1.0), (2, 0, 0.0), (0, 2, 0.0)])
    # node 3 exists implicitly? build explicit isolated node via extra edge set
    walks = generate_walks(g, WalkConfig(walks_per_node=2, walk_length=4, seed=0))
    assert all(w[0] in (0, 1, 2) for w in walks)


def test_sgns_deterministic():
    g = build_graph([(u, v, 1.0) for u in range(6) for v in range(6) if u != v])
    walks = generate_walks(g, WalkConfig(walks_per_node=2, walk_length=6, seed=2))
    cfg = SgnsConfig(dim=8, epochs=2, seed=5)
    a = train_sgns(walks, cfg, g.n)
    b = train_sgns(walks, cfg, g.n)
    assert np.array_equal(a, b)


def test_sgns_entries_finite():
    g = build_graph([(u, v, 1.0) for u in range(6) for v in range(6) if u != v])
    walks = generate_walks(g, WalkConfig(walks_per_node=5, walk_length=10, seed=2))
    table = train_sgns(walks, SgnsConfig(dim=16, epochs=5, lr=0.1, seed=0), g.n)
    assert np.isfinite(table).all()


def test_single_node_single_dim():
    table = train_sgns([[0, 0]], SgnsConfig(dim=1, epochs=1, seed=0), 1)
    assert table.shape == (1, 1)
    assert np.isfinite(table).all()


def _mean_cos(table, group_a, group_b):
    norm = table / np.linalg.norm(table, axis=1, keepdims=True)
    vals = [norm[i] @ norm[j] for i in group_a for j in group_b if i != j]
    return np.mean(vals)


def test_two_cliques_intra_vs_inter_cosine():
    edges = []
    for base in (0, 4):
        for u in range(base, base + 4):
            for v in range(base, base + 4):
                if u != v:
                    edges.append((u, v, 1.0))
    # one bridge edge joining the communities
    edges += [(3, 4, 1.0), (4, 3, 1.0)]
    g = build_graph(edges)
    walks = generate_walks(g, WalkConfig(walks_per_node=20, walk_length=10, seed=4))
    table = train_sgns(walks, SgnsConfig(dim=8, epochs=5, seed=4), g.n)
    a, b = list(range(4)), list(range(4, 8))
    intra = (_mean_cos(table, a, a) + _mean_cos(table, b, b)) / 2
    inter = _mean_cos(table, a, b)
    assert intra > inter


def test_pair_similarity_grows_over_updates():
    # one repeated co-occurrence: dot(f0, f1) should rise epoch over epoch
    walks = [[0, 1]] * 4
    dots = []
    for epochs in range(1, 11):
        table = train_sgns(walks, SgnsConfig(dim=4, window=2, negatives=1,
                                             epochs=epochs, lr=0.1, seed=1), 3)
        dots.append(float(table[0] @ table[1]))
    assert all(b > a for a, b in zip(dots, dots[1:]))


def test_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(walks_per_node=0)
    with pytest.raises(ValueError):
        WalkConfig(p=0.0)
    with pytest.raises(ValueError):
        SgnsConfig(dim=0)
    with pytest.raises(ValueError):
        train_sgns([], SgnsConfig(), 3)


def _lattice(n=4, dead_end=False):
    """n x n grid, both directions along rows and columns, one-way
    diagonals (so triangles give the weight-1 "distance 1" case); with
    ``dead_end`` an extra node reachable from 0 has no out-edges."""
    edges = []
    for r in range(n):
        for c in range(n):
            u = r * n + c
            if c + 1 < n:
                edges += [(u, u + 1, 1.0), (u + 1, u, 1.0)]
            if r + 1 < n:
                edges += [(u, u + n, 1.0), (u + n, u, 1.0)]
                if c + 1 < n:
                    edges.append((u, u + n + 1, 1.4))
    if dead_end:
        edges += [(0, n * n, 1.0), (n + 1, n * n, 1.0)]
    return build_graph(edges)


WALK_CASES = {
    "uniform": (False, 1.0, 1.0),
    "return-in": (False, 0.5, 2.0),
    "outward": (False, 2.0, 0.25),
    "dead-end": (True, 1.0, 1.0),
    "dead-end-biased": (True, 0.5, 2.0),
}


def _case_walks(case):
    dead_end, p, q = WALK_CASES[case]
    g = _lattice(dead_end=dead_end)
    return g, generate_walks(g, WalkConfig(walks_per_node=3, walk_length=10,
                                           p=p, q=q, seed=3))


SGNS_CASES = {
    "uniform": SgnsConfig(dim=8, epochs=2, seed=5),
    "return-in": SgnsConfig(dim=16, window=3, negatives=4, epochs=1, seed=2),
    "dead-end": SgnsConfig(dim=5, window=2, negatives=3, epochs=2, lr=0.05, seed=1),
}

# First 16 hex digits of the SHA-256 of generate_walks' walks (as JSON) and
# of train_sgns' table bytes, recorded with the scalar-loop kernels that
# the NumPy kernels replaced.
PINNED_WALKS = {
    "uniform": "e57949d4bb55775b", "return-in": "f61e1e8d86890a8a",
    "outward": "a61598e38660d727", "dead-end": "9fb13f85902a16af",
    "dead-end-biased": "8736b2e1f62f1edb",
}
PINNED_SGNS = {"uniform": "a2f61df18512347f", "return-in": "35844efeb3522e8e",
               "dead-end": "adc5871c7b4c3d38"}


def _digest(data):
    return hashlib.sha256(data).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(PINNED_WALKS))
def test_walks_pinned_digest(case):
    _, walks = _case_walks(case)
    assert _digest(json.dumps(walks).encode()) == PINNED_WALKS[case]


def test_dead_end_case_stops_walks_early():
    g, walks = _case_walks("dead-end")
    dead = g.n - 1
    assert any(len(w) < 10 and w[-1] == dead for w in walks)
    assert all(w[0] != dead for w in walks)


@pytest.mark.parametrize("case", sorted(PINNED_SGNS))
def test_sgns_pinned_digest(case):
    g, walks = _case_walks(case)
    table = train_sgns(walks, SGNS_CASES[case], g.n)
    assert _digest(table.tobytes()) == PINNED_SGNS[case]


# The scalar loops that the NumPy kernels replaced, kept as references:
# same arithmetic in the same order, so the results must be equal.

def _reference_walks(g, starts, uniforms, p, q):
    out = np.full((len(starts), uniforms.shape[1] + 1), -1, dtype=np.int64)
    for w, cur in enumerate(starts):
        out[w, 0], prev = cur, -1
        for step in range(1, out.shape[1]):
            nbrs = g.neighbors[g.indptr[cur]:g.indptr[cur + 1]]
            if not len(nbrs):
                break
            u = uniforms[w, step - 1]
            if prev < 0:
                nxt = nbrs[min(int(u * len(nbrs)), len(nbrs) - 1)]
            else:
                near = set(g.neighbors[g.indptr[prev]:g.indptr[prev + 1]].tolist())
                weights = [1.0 / p if x == prev else 1.0 if x in near else 1.0 / q
                           for x in nbrs]
                target = u * sum(weights)
                acc, nxt = 0.0, nbrs[-1]
                for x, weight in zip(nbrs, weights):
                    acc += weight
                    if acc >= target:
                        nxt = x
                        break
            out[w, step] = nxt
            prev, cur = cur, nxt
    return out


def _reference_sgns_epoch(win, wout, centers, contexts, negs, lr):
    dim = win.shape[1]
    for c, o, ts in zip(centers, contexts, negs):
        grad_h = np.zeros(dim)
        for t, label in [(o, 1.0)] + [(t, 0.0) for t in ts if t != o and t != c]:
            s = 0.0
            for k in range(dim):
                s += win[c, k] * wout[t, k]
            e = lr * (1.0 / (1.0 + np.exp(-s)) - label)
            for k in range(dim):
                grad_h[k] += e * wout[t, k]
                wout[t, k] -= e * win[c, k]
        for k in range(dim):
            win[c, k] -= grad_h[k]


def _random_digraph(rng, n=12, density=0.3):
    edges = [(u, v, 1.0) for u in range(n) for v in range(n)
             if u != v and u < n - 2 and rng.random() < density]
    return build_graph(edges + [(0, n - 1, 1.0)])   # node n - 1 is a dead end


@pytest.mark.parametrize("seed,p,q", [(0, 1.0, 1.0), (1, 0.5, 2.0), (2, 2.0, 0.25),
                                      (3, 0.3, 0.7)])
def test_walk_kernel_matches_scalar_reference(seed, p, q):
    rng = np.random.default_rng(seed)
    g = _random_digraph(rng)
    starts = np.repeat(np.flatnonzero(np.diff(g.indptr)), 4)
    uniforms = rng.random((len(starts), 11))
    assert np.array_equal(features._walk_kernel(g, starts, uniforms, p, q),
                          _reference_walks(g, starts, uniforms, p, q))


@pytest.mark.parametrize("seed,dim", [(0, 3), (1, 8), (2, 17)])
def test_sgns_epoch_matches_scalar_reference(seed, dim):
    rng = np.random.default_rng(seed)
    n, pairs = 6, 300          # few nodes: negatives often hit the pair
    win = rng.normal(size=(n, dim))
    wout = rng.normal(size=(n, dim)) * 0.1
    centers, contexts = rng.integers(n, size=(2, pairs))
    negs = rng.integers(n, size=(pairs, 3))
    ref_in, ref_out = win.copy(), wout.copy()
    features._sgns_epoch(win, wout, centers, contexts, negs, 0.05)
    _reference_sgns_epoch(ref_in, ref_out, centers, contexts, negs, 0.05)
    assert np.array_equal(win, ref_in) and np.array_equal(wout, ref_out)
