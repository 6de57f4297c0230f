import functools

import numpy as np
import pytest

from pathrep import synth
from pathrep.graph import validate_path
from pathrep.sampling import shortest_path_stream
from pathrep.synth import SynthConfig, gen_graph, gen_labels, gen_paths


def test_2x2_grid_counts():
    g = gen_graph(SynthConfig(grid_w=2, grid_h=2, seed=0))
    assert g.n == 4
    assert g.m == 8


def test_zero_noise_uniform_lengths():
    g = gen_graph(SynthConfig(grid_w=3, grid_h=3, edge_noise=0.0, seed=0))
    assert np.allclose(g.edge_len, 100.0)


def test_graph_deterministic():
    cfg = SynthConfig(grid_w=4, grid_h=3, seed=9)
    a, b = gen_graph(cfg), gen_graph(cfg)
    assert np.array_equal(a.edge_len, b.edge_len)
    assert np.array_equal(a.edge_u, b.edge_u)


def test_paths_all_validate(small_grid):
    g, corpus, _ = small_grid
    for p in corpus:
        assert validate_path(g, p.nodes) == p


def test_paths_deterministic():
    cfg = SynthConfig(grid_w=4, grid_h=4, n_paths=15, seed=3)
    g = gen_graph(cfg)
    assert gen_paths(g, cfg) == gen_paths(g, cfg)


def test_detour_factor_one_only_shortest():
    cfg = SynthConfig(grid_w=4, grid_h=4, n_paths=15, detour_factor=1.0, seed=3)
    g = gen_graph(cfg)
    corpus = gen_paths(g, cfg)
    from pathrep.sampling import k_shortest_paths
    for p in corpus:
        assert p.nodes == k_shortest_paths(g, p.source, p.destination, 1)[0].nodes


def test_paths_at_scale():
    cfg = SynthConfig(grid_w=16, grid_h=16, n_paths=2000)
    counters = {}
    corpus = gen_paths(gen_graph(cfg), cfg, counters=counters)
    assert len(corpus) == 2000
    assert counters == {"skipped_od": 0, "search_limit_od": 0}


def test_paths_count_skipped_and_limited_pairs(monkeypatch):
    # one pop per search: only adjacent pairs give a path, and every
    # search stops at the limit
    monkeypatch.setattr(synth, "shortest_path_stream",
                        functools.partial(shortest_path_stream, max_pops=1))
    cfg = SynthConfig(grid_w=4, grid_h=4, n_paths=5)
    counters = {}
    corpus = gen_paths(gen_graph(cfg), cfg, counters=counters)
    assert all(len(p.nodes) == 2 for p in corpus)
    assert counters["skipped_od"] > 0
    assert counters["search_limit_od"] >= counters["skipped_od"] + len(corpus)


def test_detour_groups_exist(small_grid):
    g, corpus, _ = small_grid
    ods = {}
    for p in corpus:
        ods.setdefault((p.source, p.destination), []).append(p)
    assert any(len(v) >= 2 for v in ods.values())


def test_travel_time_proportional_to_length_at_uniform_speed():
    cfg = SynthConfig(grid_w=4, grid_h=4, n_paths=15, seed=3,
                      speed_min=10.0, speed_max=10.0, label_noise=0.0)
    g = gen_graph(cfg)
    corpus = gen_paths(g, cfg)
    times, _, _ = gen_labels(g, corpus, cfg)
    lengths = [sum(g.edge_length(u, v) for u, v in zip(p.nodes, p.nodes[1:]))
               for p in corpus]
    assert np.allclose(times, np.array(lengths) / 10.0)


def test_rank_scores_valid(small_grid):
    g, corpus, cfg = small_grid
    times, scores, groups = gen_labels(g, corpus, cfg)
    assert np.all((scores >= 0) & (scores <= 1))
    for gid in np.unique(groups):
        mask = groups == gid
        assert scores[mask].sum() == pytest.approx(1.0)
        if mask.sum() == 1:
            assert scores[mask][0] == pytest.approx(1.0)
        else:
            order_t = np.argsort(times[mask])
            order_s = np.argsort(-scores[mask])
            assert np.array_equal(order_t, order_s)


def test_equal_times_split_score_evenly():
    cfg = SynthConfig(grid_w=3, grid_h=3, seed=0, edge_noise=0.0,
                      speed_min=10.0, speed_max=10.0)
    g = gen_graph(cfg)
    # two equal-length 0->4 paths on the uniform grid
    paths = [validate_path(g, [0, 1, 4]), validate_path(g, [0, 3, 4])]
    _, scores, groups = gen_labels(g, paths, cfg)
    assert np.array_equal(groups, [0, 0])
    assert np.allclose(scores, [0.5, 0.5])


def test_labels_deterministic(small_grid):
    g, corpus, cfg = small_grid
    a = gen_labels(g, corpus, cfg)
    b = gen_labels(g, corpus, cfg)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_oracle_regressor_bound(small_grid):
    # zero label noise: exact per-path sums predict travel time with MAE 0
    g, corpus, cfg = small_grid
    times, _, _ = gen_labels(g, corpus, cfg)
    speeds = synth.edge_speeds(g, cfg)
    oracle = np.array([synth.path_travel_time(g, speeds, p) for p in corpus])
    assert np.abs(oracle - times).max() < 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(grid_w=0)
    with pytest.raises(ValueError):
        SynthConfig(edge_noise=-0.1)
