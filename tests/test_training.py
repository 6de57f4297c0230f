import os

import numpy as np
import pytest

import per_sample
from pathrep import synth
from pathrep.autodiff import Tape
from pathrep.sampling import EmptyPartition, NegativeSet, make_negatives, node_partition
from pathrep.encoder import encode
from pathrep.graph import initial_view
from pathrep.infomax import LN2
from pathrep.training import (
    Model, TrainConfig, batch_objective, embed_corpus, finetune, init_model,
    load_checkpoint, path_path_accuracy, predict_supervised, save_checkpoint,
    stage_for_epoch, train,
)


@pytest.fixture(scope="module")
def tiny_setup():
    cfg = synth.SynthConfig(grid_w=4, grid_h=4, n_paths=24, seed=2)
    g = synth.gen_graph(cfg)
    corpus = synth.gen_paths(g, cfg)
    rng = np.random.default_rng(0)
    features = rng.normal(size=(g.n, 6))
    neg_sets = make_negatives(corpus, g, seed=4)
    return g, features, corpus, neg_sets


def test_first_epoch_joint_is_minus_2ln2(tiny_setup):
    g, features, corpus, neg_sets = tiny_setup
    # one batch per epoch: the epoch-0 mean is computed before any update
    cfg = TrainConfig(epochs=1, batch_size=len(corpus), d_out=5, seed=0)
    _, trace = train(cfg, g, features, corpus, neg_sets)
    assert trace[0]["joint"] == pytest.approx(-2 * LN2, abs=1e-9)


def test_global_only_zeroes_local_column(tiny_setup):
    g, features, corpus, neg_sets = tiny_setup
    cfg = TrainConfig(epochs=2, mode="global", d_out=5, seed=0)
    _, trace = train(cfg, g, features, corpus, neg_sets)
    assert all(row["local"] == 0.0 for row in trace)
    cfg = TrainConfig(epochs=2, mode="local", d_out=5, seed=0)
    _, trace = train(cfg, g, features, corpus, neg_sets)
    assert all(row["global"] == 0.0 for row in trace)


def test_training_deterministic(tiny_setup):
    g, features, corpus, neg_sets = tiny_setup
    cfg = TrainConfig(epochs=3, d_out=5, seed=11)
    m1, t1 = train(cfg, g, features, corpus, neg_sets)
    m2, t2 = train(cfg, g, features, corpus, neg_sets)
    assert t1 == t2
    for k in m1.params:
        assert np.array_equal(m1.params[k], m2.params[k])


def test_curriculum_stages(tiny_setup):
    g, features, corpus, neg_sets = tiny_setup
    cfg = TrainConfig(epochs=8, k=4, d_out=4, seed=0)
    _, trace = train(cfg, g, features, corpus, neg_sets)
    stages = [row["stage"] for row in trace]
    assert stages == sorted(stages)
    assert stages[0] == 1
    assert stages[-1] == 4
    assert stage_for_epoch(0, cfg) == 1
    assert stage_for_epoch(cfg.epochs - 1, cfg) == 4


def test_objective_improves_on_tiny_corpus(tiny_setup):
    g, features, corpus, neg_sets = tiny_setup
    cfg = TrainConfig(epochs=25, lr=0.01, d_out=5, seed=1)
    _, trace = train(cfg, g, features, corpus, neg_sets)
    assert trace[-1]["joint"] > trace[0]["joint"]


def test_discriminators_separate_after_training(tiny_setup):
    # toy run: positive path-path pairs outscore negative pairs, and
    # input-only nodes outscore negative-only nodes
    g, features, corpus, neg_sets = tiny_setup
    cfg = TrainConfig(epochs=40, lr=0.01, d_out=5, seed=3)
    model, _ = train(cfg, g, features, corpus, neg_sets)
    enc = model.encoder()
    from pathrep.sampling import node_partition
    pos_pp, neg_pp, pos_pn, neg_pn = [], [], [], []
    for path, ns in zip(corpus, neg_sets):
        iv = initial_view(g, features, path)
        p = encode(enc, iv)
        gvec = iv.mean(axis=0) @ model.params["L"]
        pos_pp.append(p @ model.params["W_pp"] @ gvec)
        for nb in ns.negatives:
            pbar = encode(enc, initial_view(g, features, nb))
            neg_pp.append(p @ model.params["W_pp"] @ pbar)
        x, y = node_partition(path, ns.negatives)
        for n in x:
            pos_pn.append(p @ model.params["W_pn"] @ features[n])
        for n in y:
            neg_pn.append(p @ model.params["W_pn"] @ features[n])
    assert np.mean(pos_pp) > np.mean(neg_pp)
    assert np.mean(pos_pn) > np.mean(neg_pn)


def test_embed_corpus_contract(tiny_setup):
    g, features, corpus, neg_sets = tiny_setup
    cfg = TrainConfig(epochs=1, d_out=5, seed=0)
    model, _ = train(cfg, g, features, corpus, neg_sets)
    emb = embed_corpus(model, g, features, corpus)
    assert emb.shape == (len(corpus), 5)
    dup = embed_corpus(model, g, features, [corpus[0], corpus[0]])
    assert np.array_equal(dup[0], dup[1])
    again = embed_corpus(model, g, features, corpus)
    assert np.array_equal(emb, again)


def test_checkpoint_round_trip(tmp_path, tiny_setup):
    g, features, corpus, neg_sets = tiny_setup
    cfg = TrainConfig(epochs=2, d_out=5, seed=7)
    model, _ = train(cfg, g, features, corpus, neg_sets)
    save_checkpoint(model, tmp_path / "ckpt")
    loaded = load_checkpoint(tmp_path / "ckpt")
    assert loaded.adam_t == model.adam_t
    assert loaded.epoch == model.epoch
    for k in model.params:
        assert np.array_equal(loaded.params[k], model.params[k])
    a = embed_corpus(model, g, features, corpus)
    b = embed_corpus(loaded, g, features, corpus)
    assert np.array_equal(a, b)


def test_checkpoint_failed_write_keeps_old_files(tmp_path, tiny_setup, monkeypatch):
    _, features, _, _ = tiny_setup
    model = init_model(features.shape[1], TrainConfig(d_out=5, seed=0))
    ckpt = tmp_path / "ckpt"
    save_checkpoint(model, ckpt)
    before = {name: (ckpt / name).read_bytes() for name in ("manifest.txt", "params.bin")}

    def crash(src, dst):
        raise OSError("disk full")

    model.params["Wo"] += 1.0
    model.epoch = 1
    monkeypatch.setattr(os, "replace", crash)
    with pytest.raises(OSError):
        save_checkpoint(model, ckpt)
    for name, data in before.items():
        assert (ckpt / name).read_bytes() == data
    monkeypatch.undo()
    save_checkpoint(model, ckpt)
    assert load_checkpoint(ckpt).epoch == 1
    assert sorted(p.name for p in ckpt.iterdir()) == ["manifest.txt", "params.bin"]


def test_nan_loss_aborts(tiny_setup):
    g, features, corpus, neg_sets = tiny_setup
    model = init_model(features.shape[1], TrainConfig(d_out=5, seed=0))
    model.params["Wo"][:] = np.nan
    with pytest.raises(FloatingPointError):
        train(TrainConfig(epochs=1, d_out=5, seed=0), g, features, corpus,
              neg_sets, model=model)


def test_finetune_requires_labels(tiny_setup):
    g, features, corpus, neg_sets = tiny_setup
    model = init_model(features.shape[1], TrainConfig(d_out=5, seed=0))
    with pytest.raises(ValueError):
        finetune(model, g, features, [])


def test_finetune_constant_targets(tiny_setup):
    g, features, corpus, _ = tiny_setup
    model = init_model(features.shape[1], TrainConfig(d_out=5, seed=0))
    labeled = [(p, 5.0) for p in corpus]
    sup, history = finetune(model, g, features, labeled, epochs=5, lr=0.01)
    pred = predict_supervised(sup, g, features, corpus)
    # the ridge-initialized head solves a constant target exactly
    assert np.abs(pred - 5.0).mean() < 1e-8
    assert history[-1] <= history[0]


def test_accuracy_helper_range(tiny_setup):
    g, features, corpus, neg_sets = tiny_setup
    model = init_model(features.shape[1], TrainConfig(d_out=5, seed=0))
    acc = path_path_accuracy(model, g, features, corpus, neg_sets)
    assert 0.0 <= acc <= 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(curriculum="sometimes")
    with pytest.raises(ValueError):
        TrainConfig(mode="both")


# ---- batched objective against the per-sample reference ----------------


def _special_batch(corpus, neg_sets):
    """Six corpus samples plus: the first of them again, a sample whose
    negatives include another sample's input, and one whose node
    partition is empty at every stage."""
    batch = list(zip(corpus, neg_sets))[2:8]     # input lengths 2, 4 and 5
    (p0, _), (p1, ns1) = batch[:2]
    batch.append(batch[0])
    batch.append((p1, NegativeSet(p1, (p0,) + ns1.negatives[1:], ns1.overlaps,
                                  ns1.kinds)))
    batch.append((p0, NegativeSet(p0, (p0, p0), (1.0, 1.0), ("random", "random"))))
    return batch


def _objective(fn, params, g, features, batch, stage, cfg):
    tape = Tape()
    tensors = {k: tape.tensor(v, requires_grad=True) for k, v in params.items()}
    total, glob_values, local_values = fn(tensors, g, features, batch, stage, cfg, tape)
    if total is None:
        return None, glob_values, local_values, {}
    tape.backward(total)
    return (total.item(), glob_values, local_values,
            {k: t.grad for k, t in tensors.items() if t.grad is not None})


@pytest.mark.parametrize("mode", ["joint", "global", "local"])
@pytest.mark.parametrize("curriculum,stage", [("staged", 1), ("staged", 4), ("all", 1)])
@pytest.mark.parametrize("scale", [0.5, 40.0])
def test_batched_objective_matches_per_sample(tiny_setup, mode, curriculum, stage,
                                              scale):
    g, features, corpus, neg_sets = tiny_setup
    batch = _special_batch(corpus, neg_sets)
    assert len({len(path.nodes) for path, _ in batch}) > 2
    with pytest.raises(EmptyPartition):
        node_partition(batch[-1][0], batch[-1][1].negatives)
    cfg = TrainConfig(k=4, mode=mode, curriculum=curriculum, d_out=5, seed=3)
    rng = np.random.default_rng(int(scale))
    params = {k: v + rng.normal(scale=0.2, size=v.shape)
              for k, v in init_model(features.shape[1], cfg).params.items()}
    # a large scale saturates some scores, so the log floor's mask is compared too
    params["W_pp"] = rng.normal(scale=scale, size=params["W_pp"].shape)
    params["W_pn"] = rng.normal(scale=scale, size=params["W_pn"].shape)

    got = _objective(batch_objective, params, g, features, batch, stage, cfg)
    want = _objective(per_sample.batch_objective, params, g, features, batch, stage, cfg)
    assert got[0] == pytest.approx(want[0], abs=1e-10)
    for values, expected in zip(got[1:3], want[1:3]):
        assert len(values) == len(expected)
        assert np.abs(np.subtract(values, expected)).max(initial=0.0) <= 1e-10
    assert sorted(got[3]) == sorted(want[3])
    for key, grad in want[3].items():
        assert np.abs(got[3][key] - grad).max() <= 1e-10, key


def test_batched_objective_without_terms(tiny_setup):
    # local mode, every partition empty: no term, so train skips the batch
    g, features, corpus, _ = tiny_setup
    p0 = corpus[0]
    batch = [(p0, NegativeSet(p0, (p0,), (1.0,), ("random",)))] * 2
    cfg = TrainConfig(mode="local", d_out=5)
    params = init_model(features.shape[1], cfg).params
    assert _objective(batch_objective, params, g, features, batch, 1, cfg) == \
        (None, [], [], {})


def test_batch_encodes_each_distinct_path_once(tiny_setup, monkeypatch):
    # one GRU pass per batch, one initial view per distinct path: the
    # repeated sample and the input reused as a negative are merged
    from pathrep import encoder, training
    g, features, corpus, neg_sets = tiny_setup
    batch = _special_batch(corpus, neg_sets)
    cfg = TrainConfig(k=4, curriculum="all", d_out=5)
    calls = {"view": [], "gru": 0}

    def view(g_, feats, path):
        calls["view"].append(path.nodes)
        return initial_view(g_, feats, path)

    def gru(*args):
        calls["gru"] += 1
        return forward(*args)

    forward = encoder.gru_forward
    monkeypatch.setattr(training, "initial_view", view)
    monkeypatch.setattr(encoder, "gru_forward", gru)
    _objective(batch_objective, init_model(features.shape[1], cfg).params,
               g, features, batch, 1, cfg)
    distinct = {p.nodes for path, ns in batch for p in (path, *ns.negatives)}
    assert sorted(calls["view"]) == sorted(distinct)
    assert calls["gru"] == 1


def test_accuracy_matches_per_path_loop(tiny_setup):
    g, features, corpus, neg_sets = tiny_setup
    model, _ = train(TrainConfig(epochs=3, lr=0.01, d_out=5, seed=2), g,
                     features, corpus, neg_sets)
    enc = model.encoder()
    w_pp, proj = model.params["W_pp"], model.params["L"]
    correct = total = 0
    for path, ns in zip(corpus, neg_sets):
        iv = initial_view(g, features, path)
        p = encode(enc, iv)
        correct += int(p @ w_pp @ (iv.mean(axis=0) @ proj) > 0)
        for nb in ns.negatives:
            correct += int(p @ w_pp @ encode(enc, initial_view(g, features, nb)) < 0)
        total += 1 + ns.k
    acc = path_path_accuracy(model, g, features, corpus, neg_sets)
    assert 0 < acc < 1
    assert acc == correct / total


def test_predict_supervised_matches_per_path(tiny_setup):
    g, features, corpus, _ = tiny_setup
    model = init_model(features.shape[1], TrainConfig(d_out=5, seed=0))
    labeled = [(p, 10.0 + len(p.nodes)) for p in corpus]
    sup, _ = finetune(model, g, features, labeled, epochs=2, lr=0.01)
    y_mean, y_std = sup.params["head_scale"][0]
    want = [(encode(sup.encoder(), initial_view(g, features, p)) @ sup.params["head_w"])[0]
            * y_std + sup.params["head_b"][0, 0] * y_std + y_mean for p in corpus]
    got = predict_supervised(sup, g, features, corpus)
    assert np.abs(got - want).max() < 1e-12
