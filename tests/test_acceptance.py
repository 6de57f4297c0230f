"""End-to-end acceptance suite.

Each test prints exactly one PASS/FAIL line for its criterion (visible with
`pytest -s` or in captured output on failure) and then asserts it. The
empirical criteria (5-10) all run on the standard synthetic corpus: an 8x8
grid, 200 paths, seed 7. Expensive artifacts (the corpus, node features,
trained variants) are computed once per session and shared.
"""

import time

import numpy as np
import pytest

from pathrep import downstream, features, infomax, sampling, synth, training
from pathrep.autodiff import Tape
from pathrep.cli import main
from pathrep.encoder import init_encoder
from pathrep.graph import Path, build_graph
from pathrep.sampling import (
    DiversityConfig, diversified_top_k, k_shortest_paths, make_negatives,
    path_similarity,
)

pytestmark = pytest.mark.acceptance


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# ---- shared expensive artifacts -----------------------------------------


@pytest.fixture(scope="session")
def standard_corpus():
    cfg = synth.SynthConfig(grid_w=8, grid_h=8, n_paths=200, seed=7)
    g = synth.gen_graph(cfg)
    corpus = synth.gen_paths(g, cfg)
    times, scores, groups = synth.gen_labels(g, corpus, cfg)
    feats = features.train_sgns(
        features.generate_walks(g, features.WalkConfig(seed=7)),
        features.SgnsConfig(dim=32, seed=7), g.n)
    return g, corpus, times, feats


@pytest.fixture(scope="session")
def eval_split(standard_corpus):
    _, corpus, _, _ = standard_corpus
    tr, va, te = downstream.split_indices(len(corpus), 11)
    return tr, np.concatenate([va, te])


@pytest.fixture(scope="session")
def variant_mae(standard_corpus, eval_split):
    """Memoized 3-seed-average downstream MAE per training variant."""
    g, corpus, times, feats = standard_corpus
    tr, ev = eval_split
    cache = {}

    def run(mode="joint", k=4, strategy="curriculum"):
        key = (mode, k, strategy)
        if key in cache:
            return cache[key]
        maes = []
        for seed in (1, 2, 3):
            negs = make_negatives(corpus, g, seed, k=k, strategy=strategy)
            cfg = training.TrainConfig(epochs=50, seed=seed, mode=mode,
                                       k=k, d_out=16)
            model, _ = training.train(cfg, g, feats, corpus, negs)
            emb = training.embed_corpus(model, g, feats, corpus)
            reg = downstream.fit_ridge(emb[tr], times[tr], lam=1e-6)
            maes.append(downstream.metrics(reg.predict(emb[ev]),
                                           times[ev]).mae)
        cache[key] = float(np.mean(maes))
        return cache[key]

    return run


# ---- 1: gradient correctness ---------------------------------------------


def test_criterion_1_gradient_correctness():
    started = time.time()
    d, h = 4, 3
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        edges = [(i, i + 1, float(rng.integers(1, 9))) for i in range(5)]
        edges += [(i + 1, i, float(rng.integers(1, 9))) for i in range(5)]
        g = build_graph(edges)
        feats = rng.normal(size=(6, d))
        path = Path(nodes=(0, 1, 2, 3))
        negs = (Path(nodes=(1, 2)), Path(nodes=(2, 3, 4, 5)))
        sample = (path, sampling.NegativeSet(path, negs, (0.0, 0.0),
                                             ("random", "random")))
        cfg = training.TrainConfig(k=2, curriculum="all", mode="joint")

        enc = init_encoder(d, h, h, seed)
        params = dict(enc.weights)
        disc = infomax.init_discriminators(d, h, seed + 1)
        disc["W_pp"] = rng.normal(scale=0.3, size=disc["W_pp"].shape)
        disc["W_pn"] = rng.normal(scale=0.3, size=disc["W_pn"].shape)
        params.update(disc)

        def objective(tensors, tape):
            # the training step's batched objective on a batch of one:
            # one padded GRU op, then both objectives' batched pair scores
            total, _, _ = training.batch_objective(tensors, g, feats, [sample],
                                                    1, cfg, tape)
            return total

        from pathrep.autodiff import grad_check
        worst = max(worst, grad_check(objective, params))
    elapsed = time.time() - started
    report(1, worst < 1e-4 and elapsed < 30,
           f"50 instances, max relative gradient error {worst:.3g} "
           f"(< 1e-4), {elapsed:.1f}s (< 30s)")


# ---- 2: initialization identity ------------------------------------------


def test_criterion_2_init_identity():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d, d_out, z, k = 5, 3, 6, 3
        disc = infomax.init_discriminators(d, d_out, seed)
        tape = Tape()
        tensors = {name: tape.tensor(v) for name, v in disc.items()}
        p = rng.normal(size=(1, d_out))
        iv = rng.normal(size=(z, d))
        neg_reprs = [rng.normal(size=(1, d_out)) for _ in range(k)]
        x_feats = [rng.normal(size=(1, d)) for _ in range(4)]
        y_feats = [rng.normal(size=(1, d)) for _ in range(2)]
        # a batch of one: p is row 0 of the representations, its negatives
        # rows 1..k; X is feature rows 0..3, Y rows 4..5
        reprs = tape.tensor(np.vstack([p] + neg_reprs))
        glob = infomax.global_mi(tensors, reprs, [0], [iv],
                                 [list(range(1, k + 1))], tape).item()
        local = infomax.local_mi(tensors, reprs, [0], np.vstack(x_feats + y_feats),
                                 [[0, 1, 2, 3]], [[4, 5]], tape).item()
        worst = max(worst, abs(glob + np.log(2)), abs(local + np.log(2)))
    report(2, worst < 1e-9,
           f"global and local objectives at zero-init within {worst:.3g} "
           f"of -ln 2 (< 1e-9)")


# ---- 3: path-enumeration oracle -------------------------------------------


def _brute_force_paths(g, s, d):
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


def test_criterion_3_enumeration_oracle():
    started = time.time()
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 200:
        n = int(rng.integers(4, 13))
        edges = [(u, v, float(rng.integers(1, 10)))
                 for u in range(n) for v in range(n)
                 if u != v and rng.random() < 0.3]
        if not edges:
            continue
        g = build_graph(edges)
        s, d = 0, g.n - 1
        if s == d:
            continue
        k = int(rng.integers(1, 6))
        expect = _brute_force_paths(g, s, d)[:k]
        if not expect:
            with pytest.raises(sampling.NoPath):
                k_shortest_paths(g, s, d, k)
            checked += 1
            continue
        got = k_shortest_paths(g, s, d, k)
        assert [p.nodes for p in got] == [nodes for _, nodes in expect]
        div, _ = diversified_top_k(g, s, d, DiversityConfig(k=k, tau_div=0.5))
        for i in range(len(div)):
            for j in range(i + 1, len(div)):
                assert path_similarity(div[i], div[j]) <= 0.5
        checked += 1
    elapsed = time.time() - started
    report(3, elapsed < 60,
           f"200 random graphs: enumeration equals brute force exactly "
           f"(set and order, tie-break length then node sequence); "
           f"diversified outputs pairwise <= tau_div; {elapsed:.1f}s (< 60s)")


# ---- 4: curriculum contract ------------------------------------------------


def test_criterion_4_curriculum_contract(standard_corpus):
    g, corpus, _, _ = standard_corpus
    neg_sets = make_negatives(corpus, g, 7, k=4)
    checked = 0
    for path, ns in zip(corpus, neg_sets):
        overlaps = list(ns.overlaps)
        assert overlaps == sorted(overlaps)
        for neg, kind in zip(ns.negatives, ns.kinds):
            if kind == "diversified":
                assert neg.nodes[0] == path.nodes[0]
                assert neg.nodes[-1] == path.nodes[-1]
                checked += 1
    report(4, checked > 0,
           f"all {len(neg_sets)} negative sets in curriculum order "
           f"(non-decreasing overlap); {checked} diversified negatives "
           f"share the input's endpoints")


# ---- 5: training progress ---------------------------------------------------


def test_criterion_5_training_progress(standard_corpus):
    g, corpus, _, feats = standard_corpus
    started = time.time()
    negs = make_negatives(corpus, g, 7, k=4)
    cfg = training.TrainConfig(epochs=100, seed=7, d_out=16)
    model, trace = training.train(cfg, g, feats, corpus, negs)
    improvement = trace[-1]["joint"] - trace[0]["joint"]
    held_out = make_negatives(corpus, g, 999, k=4, strategy="random")
    acc = training.path_path_accuracy(model, g, feats, corpus, held_out)
    elapsed = time.time() - started
    report(5, improvement >= 0.5 and acc > 0.9 and elapsed < 300,
           f"joint objective improved {improvement:.3f} nats (>= 0.5), "
           f"held-out easy-negative accuracy {acc:.3f} (> 0.9), "
           f"{elapsed:.0f}s (< 300s)")


# ---- 6-8: ablation orderings -------------------------------------------------


def test_criterion_6_mi_mode_ordering(variant_mae):
    joint = variant_mae(mode="joint")
    local = variant_mae(mode="local")
    glob = variant_mae(mode="global")
    gap = (glob - joint) / glob
    report(6, joint <= local <= glob and gap >= 0.10,
           f"3-seed MAE joint {joint:.2f} <= local {local:.2f} <= "
           f"global {glob:.2f}; joint-vs-global gap {gap:.1%} (>= 10%)")


def test_criterion_7_negative_count_trend(variant_mae):
    k4 = variant_mae(k=4)
    k1 = variant_mae(k=1)
    report(7, k4 <= k1, f"3-seed MAE K=4 {k4:.2f} <= K=1 {k1:.2f}")


def test_criterion_8_strategy_ordering(variant_mae):
    cur = variant_mae(strategy="curriculum")
    topk = variant_mae(strategy="topk")
    rand = variant_mae(strategy="random")
    report(8, cur <= topk and cur <= rand,
           f"3-seed MAE curriculum {cur:.2f} <= top-k {topk:.2f} and "
           f"<= random {rand:.2f}")


# ---- 9: baseline separation ---------------------------------------------------


def test_criterion_9_baseline_separation(standard_corpus, eval_split,
                                         variant_mae):
    g, corpus, times, feats = standard_corpus
    tr, ev = eval_split
    base = downstream.mean_feature_baseline(g, feats, corpus)
    reg = downstream.fit_ridge(base[tr], times[tr], lam=1e-6)
    base_mae = downstream.metrics(reg.predict(base[ev]), times[ev]).mae
    learned = variant_mae(mode="joint")
    gain = (base_mae - learned) / base_mae
    report(9, gain >= 0.15,
           f"path-encoder embeddings + ridge MAE {learned:.2f} vs "
           f"mean-node-feature baseline "
           f"{base_mae:.2f}: {gain:.1%} better (>= 15%)")


# ---- 10: pre-training benefit ---------------------------------------------------


def test_criterion_10_pretraining_benefit(standard_corpus, eval_split):
    g, corpus, times, feats = standard_corpus
    tr, ev = eval_split
    negs = make_negatives(corpus, g, 7, k=4)
    pre, _ = training.train(
        training.TrainConfig(epochs=100, seed=7, d_out=16),
        g, feats, corpus, negs)
    pool = 50

    def run(seed, base, n_labels):
        rng = np.random.default_rng(seed + 100)
        lab = rng.permutation(tr)[:n_labels]
        labeled = [(corpus[i], times[i]) for i in lab]
        sup, _ = training.finetune(base, g, feats, labeled, epochs=60,
                                   seed=seed)
        pred = training.predict_supervised(sup, g, feats,
                                           [corpus[i] for i in ev])
        return downstream.metrics(pred, times[ev]).mae

    cold_maes, pre_maes = [], []
    for seed in (1, 2, 3):
        cold = training.init_model(
            feats.shape[1], training.TrainConfig(d_out=16, seed=seed))
        cold_maes.append(run(seed, cold, pool))
        pre_maes.append(run(seed, pre, int(round(0.7 * pool))))
    cold_mae = float(np.mean(cold_maes))
    pre_mae = float(np.mean(pre_maes))
    report(10, pre_mae <= cold_mae,
           f"3-seed MAE fine-tuned from checkpoint with 70% of {pool} "
           f"labels: {pre_mae:.2f} <= cold-start with all labels: "
           f"{cold_mae:.2f}")


# ---- 11: metric unit cases --------------------------------------------------------


def test_criterion_11_metric_unit_cases():
    rep = downstream.metrics(np.array([2.0, 4.0]), np.array([1.0, 5.0]))
    ok = (abs(rep.mae - 1.0) < 1e-12
          and abs(rep.mare - 2.0 / 6.0) < 1e-12
          and abs(rep.mape - 100.0 * (1.0 + 0.2) / 2.0) < 1e-12)

    groups = np.zeros(4, dtype=int)
    ident = downstream.rank_metrics(np.array([1.0, 2.0, 3.0, 4.0]),
                                    np.array([1.0, 2.0, 3.0, 4.0]), groups)
    rev = downstream.rank_metrics(np.array([4.0, 3.0, 2.0, 1.0]),
                                  np.array([1.0, 2.0, 3.0, 4.0]), groups)
    swap = downstream.rank_metrics(np.array([1.0, 2.0, 3.0, 4.0]),
                                   np.array([1.0, 2.0, 4.0, 3.0]), groups)
    ok = (ok and abs(ident.tau - 1.0) < 1e-12 and abs(ident.rho - 1.0) < 1e-12
          and abs(rev.tau + 1.0) < 1e-12 and abs(rev.rho + 1.0) < 1e-12
          and abs(swap.tau - 4.0 / 6.0) < 1e-12)
    report(11, ok,
           "MAE/MARE/MAPE arithmetic exact; tau=1/rho=1 on identity, "
           "tau=-1/rho=-1 on reversal, tau=2/3 on adjacent swap")


# ---- 12: determinism -----------------------------------------------------------------


def test_criterion_12_determinism(tmp_path):
    def run_pipeline(root):
        data = str(root / "data")
        assert main(["synth", "--grid", "4x4", "--paths", "24", "--seed",
                     "13", "--out", data]) == 0
        assert main(["features", "--graph", f"{data}/graph.csv", "--dim",
                     "6", "--seed", "13", "--out", f"{data}/features.txt"]) == 0
        assert main(["negatives", "--graph", f"{data}/graph.csv", "--paths",
                     f"{data}/paths.txt", "--k", "4", "--seed", "13",
                     "--out", f"{data}/negatives.jsonl"]) == 0
        ckpt = str(root / "ckpt")
        assert main(["train", "--graph", f"{data}/graph.csv", "--features",
                     f"{data}/features.txt", "--paths", f"{data}/paths.txt",
                     "--negatives", f"{data}/negatives.jsonl", "--epochs",
                     "3", "--dim-out", "6", "--seed", "13",
                     "--out", ckpt]) == 0
        assert main(["embed", "--graph", f"{data}/graph.csv", "--features",
                     f"{data}/features.txt", "--paths", f"{data}/paths.txt",
                     "--ckpt", ckpt, "--out", f"{data}/embeddings.txt"]) == 0
        names = ["data/graph.csv", "data/paths.txt", "data/labels.csv",
                 "data/features.txt", "data/negatives.jsonl",
                 "ckpt/params.bin", "ckpt/manifest.txt",
                 "data/embeddings.txt"]
        return {name: (root / name).read_bytes() for name in names}

    first = run_pipeline(tmp_path / "a")
    second = run_pipeline(tmp_path / "b")
    same = [name for name in first if first[name] == second[name]]
    report(12, len(same) == len(first),
           f"{len(same)}/{len(first)} pipeline artifacts byte-identical "
           f"across two same-seed runs")
