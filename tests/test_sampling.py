import functools
import hashlib
import json
from collections import Counter
from itertools import islice, permutations

import numpy as np
import pytest

from pathrep import sampling, synth
from pathrep.graph import Path, build_graph, validate_path
from pathrep.sampling import (
    DiversityConfig, EmptyPartition, NoPath, SearchLimit, curriculum_schedule,
    diversified_top_k, k_shortest_paths, make_negatives, node_partition,
    path_similarity, sample_negatives, shortest_path_stream,
)


def brute_force_paths(g, s, d):
    """All loopless s->d paths sorted by (length, node sequence)."""
    out = []

    def extend(nodes, length):
        last = nodes[-1]
        if last == d:
            out.append((length, tuple(nodes)))
            return
        for v, w in zip(g.out_neighbors(last), g.out_lengths(last)):
            if int(v) not in nodes:
                extend(nodes + [int(v)], length + float(w))

    extend([s], 0.0)
    out.sort()
    return out


def random_graph(rng, n, p_edge=0.35, weight=lambda rng: float(rng.integers(1, 10))):
    edges = []
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < p_edge:
                edges.append((u, v, weight(rng)))
    return build_graph(edges) if edges else None


# Weights that make many equal-length paths whose float sums depend on the
# order of addition, and weights that make zero-length hops.
TIE_WEIGHTS = {
    "tie-heavy float": lambda rng: float(rng.choice([0.1, 0.2, 0.3, 0.7, 1.1])),
    "zero-including": lambda rng: float(rng.choice([0.0, 0.1, 0.2, 0.3, 0.7])),
}


def test_triangle_top2(triangle_graph):
    paths = k_shortest_paths(triangle_graph, 0, 2, 2)
    assert [p.nodes for p in paths] == [(0, 1, 2), (0, 2)]


def test_k1_is_shortest_path():
    import networkx as nx
    rng = np.random.default_rng(3)
    for _ in range(20):
        g = random_graph(rng, 8)
        if g is None:
            continue
        nxg = nx.DiGraph()
        for u, v, w in zip(g.edge_u, g.edge_v, g.edge_len):
            nxg.add_edge(int(u), int(v), weight=float(w))
        s, d = 0, g.n - 1
        try:
            expect = nx.shortest_path_length(nxg, s, d, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound):
            with pytest.raises(NoPath):
                k_shortest_paths(g, s, d, 1)
            continue
        got = k_shortest_paths(g, s, d, 1)[0]
        length = sum(g.edge_length(u, v) for u, v in zip(got.nodes, got.nodes[1:]))
        assert length == pytest.approx(expect)


def test_no_path():
    g = build_graph([(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(NoPath):
        k_shortest_paths(g, 0, 3, 1)


def test_stream_matches_brute_force_enumeration():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 40:
        g = random_graph(rng, int(rng.integers(4, 9)))
        if g is None:
            continue
        s, d = 0, g.n - 1
        expect = brute_force_paths(g, s, d)
        got = [(length, p.nodes) for p, length in shortest_path_stream(g, s, d)]
        assert got == expect
        checked += 1


@pytest.mark.parametrize("kind", sorted(TIE_WEIGHTS))
def test_stream_tie_order_matches_brute_force(kind):
    rng = np.random.default_rng(11)
    checked = 0
    while checked < 400:
        g = random_graph(rng, 7, p_edge=0.5, weight=TIE_WEIGHTS[kind])
        if g is None:
            continue
        s, d = 0, g.n - 1
        expect = brute_force_paths(g, s, d)[:6]
        got = [(length, p.nodes)
               for p, length in islice(shortest_path_stream(g, s, d), 6)]
        assert got == expect
        checked += 1


def test_stream_reaches_far_pairs_under_small_limit(monkeypatch):
    g = synth.gen_graph(synth.SynthConfig(grid_w=10, grid_h=10))
    monkeypatch.setattr(sampling, "shortest_path_stream",
                        functools.partial(shortest_path_stream, max_pops=2000))
    paths = k_shortest_paths(g, 0, 99, 5)
    assert len(paths) == 5
    assert len({p.nodes for p in paths}) == 5
    assert all(p.source == 0 and p.destination == 99 for p in paths)


def test_stream_unreachable_destination_searches_nothing():
    # node 100 has an out-edge only, so no path from the 10x10 grid reaches it
    g = synth.gen_graph(synth.SynthConfig(grid_w=10, grid_h=10))
    g = build_graph([*zip(g.edge_u.tolist(), g.edge_v.tolist(),
                          g.edge_len.tolist()), (100, 0, 1.0)])
    assert list(shortest_path_stream(g, 0, 100, max_pops=1)) == []
    with pytest.raises(NoPath) as info:
        k_shortest_paths(g, 0, 100, 1)
    assert not isinstance(info.value, SearchLimit)


def test_diversified_disjoint_corridors():
    # two internally node-disjoint 0->5 corridors
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (2, 5, 1.0),
                     (0, 3, 1.0), (3, 4, 1.0), (4, 5, 1.5)])
    paths, complete = diversified_top_k(g, 0, 5, DiversityConfig(k=2, tau_div=0.0))
    assert complete
    assert {p.nodes for p in paths} == {(0, 1, 2, 5), (0, 3, 4, 5)}


def test_diversified_vacuous_threshold_equals_plain_stream(small_grid):
    g, _, _ = small_grid
    plain = k_shortest_paths(g, 0, g.n - 1, 3)
    div, complete = diversified_top_k(g, 0, g.n - 1,
                                      DiversityConfig(k=3, tau_div=0.99))
    assert complete
    assert [p.nodes for p in div] == [p.nodes for p in plain]


def test_diversified_partial_set_flagged(chain_graph):
    paths, complete = diversified_top_k(chain_graph, 0, 2,
                                        DiversityConfig(k=2, tau_div=0.5))
    assert not complete
    assert len(paths) == 1


def test_diversified_pairwise_similarity_bounded(small_grid):
    g, _, _ = small_grid
    for tau in (0.0, 0.3, 0.6):
        paths, _ = diversified_top_k(g, 0, g.n - 1,
                                     DiversityConfig(k=4, tau_div=tau))
        for a, b in permutations(paths, 2):
            assert path_similarity(a, b) <= tau + 1e-12


def test_negatives_backfilled_on_unique_route():
    # input path is the unique 0->2 route: both diversified picks must fail
    g = build_graph([(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0),
                     (3, 5, 3.0)])
    corpus = [validate_path(g, ids)
              for ids in ([0, 1, 2], [3, 4, 5], [3, 5], [4, 5], [0, 1], [1, 2])]
    ns = sample_negatives(corpus[0], corpus, g, seed=0)
    assert ns.backfilled
    assert ns.k == 4


def test_negatives_grid_contract(small_grid):
    g, corpus, _ = small_grid
    ns = sample_negatives(corpus[0], corpus, g, seed=5)
    for p, kind in zip(ns.negatives, ns.kinds):
        if kind == "diversified":
            assert p.source == corpus[0].source
            assert p.destination == corpus[0].destination
    assert list(ns.overlaps) == sorted(ns.overlaps)
    assert all(0 <= ov <= 1 for ov in ns.overlaps)


def test_negatives_overlap_jaccard(small_grid):
    g, corpus, _ = small_grid
    ns = sample_negatives(corpus[0], corpus, g, seed=5)
    for p, ov in zip(ns.negatives, ns.overlaps):
        sa = set(corpus[0].nodes[1:-1])
        sb = set(p.nodes[1:-1])
        expect = len(sa & sb) / len(sa | sb) if (sa | sb) else (
            1.0 if p.nodes == corpus[0].nodes else 0.0)
        assert ov == pytest.approx(expect)


def test_negatives_deterministic(small_grid):
    g, corpus, _ = small_grid
    a = sample_negatives(corpus[3], corpus, g, seed=9)
    b = sample_negatives(corpus[3], corpus, g, seed=9)
    assert a == b


def test_negatives_alternative_strategies(small_grid):
    g, corpus, _ = small_grid
    r = sample_negatives(corpus[0], corpus, g, seed=1, strategy="random")
    assert r.kinds == ("random",) * 4
    t = sample_negatives(corpus[0], corpus, g, seed=1, strategy="topk")
    assert "random" not in t.kinds
    for p, kind in zip(t.negatives, t.kinds):
        if kind == "diversified":
            assert (p.source, p.destination) == (corpus[0].source,
                                                 corpus[0].destination)
    with pytest.raises(ValueError, match="unknown strategy"):
        sample_negatives(corpus[0], corpus, g, seed=1, strategy="hardest")


# First 16 hex digits of the SHA-256 of make_negatives' records on the
# small_grid corpus, recorded before the three strategies shared one sampler.
PINNED_DIGESTS = {
    ("curriculum", 1, 0): "17f8c6c5d2bcae4a", ("curriculum", 1, 3): "25a9f7e92c77bbd4",
    ("curriculum", 2, 0): "886c02b710913e2f", ("curriculum", 2, 3): "6168d6232cbdbd54",
    ("curriculum", 4, 0): "f7edbcdabc6b0294", ("curriculum", 4, 3): "5e708bb649ffedd4",
    ("random", 1, 0): "17f8c6c5d2bcae4a", ("random", 1, 3): "25a9f7e92c77bbd4",
    ("random", 2, 0): "8fc8458b7e953420", ("random", 2, 3): "732d82daa7be7f0c",
    ("random", 4, 0): "12a3e6d2306e0c7d", ("random", 4, 3): "ca8c79737dbb14e8",
    ("topk", 1, 0): "02b04f33b5054bc3", ("topk", 1, 3): "02b04f33b5054bc3",
    ("topk", 2, 0): "9da747573859b488", ("topk", 2, 3): "9da747573859b488",
    ("topk", 4, 0): "4799d0000e8f02a6", ("topk", 4, 3): "4799d0000e8f02a6",
}


@pytest.mark.parametrize("strategy,k,seed", sorted(PINNED_DIGESTS))
def test_make_negatives_pinned_digest(small_grid, strategy, k, seed):
    g, corpus, _ = small_grid
    h = hashlib.sha256()
    for ns in make_negatives(corpus, g, seed, k=k, strategy=strategy):
        h.update(json.dumps([[list(p.nodes) for p in ns.negatives],
                             list(ns.overlaps), list(ns.kinds),
                             ns.backfilled]).encode() + b"\n")
    assert h.hexdigest()[:16] == PINNED_DIGESTS[strategy, k, seed]


@pytest.mark.parametrize("strategy", ["curriculum", "topk"])
def test_make_negatives_searches_each_od_once(small_grid, monkeypatch, strategy):
    g, corpus, _ = small_grid
    calls = Counter()
    real = sampling.diversified_top_k

    def counted(g, s, d, cfg, **kwargs):
        calls[s, d, cfg.tau_div] += 1
        return real(g, s, d, cfg, **kwargs)

    monkeypatch.setattr(sampling, "diversified_top_k", counted)
    make_negatives(corpus, g, 0, k=4, strategy=strategy)
    assert calls and max(calls.values()) == 1
    assert {(s, d) for s, d, _ in calls} == {(p.source, p.destination)
                                             for p in corpus}


def test_curriculum_k8_uses_a_fifth_alternative():
    # six internally disjoint 0->7 routes 0->i->7, shortest first
    g = build_graph([(0, i, float(i)) for i in range(1, 7)]
                    + [(i, 7, 1.0) for i in range(1, 7)])
    corpus = [validate_path(g, ids)
              for ids in ([0, 1, 7], [0, 1], [0, 2], [0, 3], [0, 4], [1, 7])]
    ns = sample_negatives(corpus[0], corpus, g, seed=0, k=8)
    assert ns.kinds.count("diversified") == 4
    assert ns.kinds.count("random") == 4
    assert not ns.backfilled
    assert {p.nodes for p, kind in zip(ns.negatives, ns.kinds)
            if kind == "diversified"} == {(0, i, 7) for i in range(2, 6)}


def test_stream_search_limit_raised(small_grid):
    g, _, _ = small_grid
    with pytest.raises(SearchLimit) as info:
        list(shortest_path_stream(g, 0, g.n - 1, max_pops=3))
    assert isinstance(info.value, NoPath)
    assert info.value.pops == 3
    assert "stopped after 3 pops" in str(info.value)
    # a limit the search stays under changes nothing
    full = list(shortest_path_stream(g, 0, 3))
    assert list(shortest_path_stream(g, 0, 3, max_pops=10_000)) == full


def test_make_negatives_counts_search_limit(small_grid, monkeypatch):
    g, corpus, _ = small_grid
    counters = {}
    make_negatives(corpus, g, 0, k=4, counters=counters)
    assert counters["search_limit_od"] == 0
    monkeypatch.setattr(sampling, "shortest_path_stream",
                        functools.partial(shortest_path_stream, max_pops=2))
    neg_sets = make_negatives(corpus, g, 0, k=4, counters=counters)
    assert counters["search_limit_od"] == len({(p.source, p.destination)
                                               for p in corpus})
    assert counters["backfilled_sets"] == len(neg_sets)
    assert all("diversified" not in ns.kinds for ns in neg_sets)


def test_curriculum_schedule():
    ns_paths = tuple(Path((0, i, 99)) for i in range(1, 5))
    ns = sample_ns = type("NS", (), {"negatives": ns_paths, "k": 4})()
    assert curriculum_schedule(1, ns) == ns_paths[:1]
    assert curriculum_schedule(4, ns) == ns_paths
    assert curriculum_schedule(7, ns) == ns_paths
    assert curriculum_schedule(4, ns) == curriculum_schedule(1, ns, staged=False)


def test_node_partition():
    inp = Path((0, 1, 2))
    assert node_partition(inp, [Path((0, 3, 2))]) == ({1}, {3})
    assert node_partition(inp, [Path((4, 5))]) == ({0, 1, 2}, {4, 5})
    with pytest.raises(EmptyPartition):
        node_partition(inp, [Path((0, 1, 2))])


def test_node_partition_invariants(small_grid):
    g, corpus, _ = small_grid
    for i, path in enumerate(corpus[:10]):
        ns = sample_negatives(path, corpus, g, seed=i)
        x, y = node_partition(path, ns.negatives)
        for nb in ns.negatives:
            assert not (x & set(nb.nodes))
        assert not (y & set(path.nodes))
