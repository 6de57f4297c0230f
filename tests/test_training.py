import numpy as np
import pytest

from pathrep import synth
from pathrep.sampling import make_negatives
from pathrep.encoder import encode
from pathrep.graph import initial_view
from pathrep.infomax import LN2
from pathrep.training import (
    Model, TrainConfig, embed_corpus, finetune, init_model, load_checkpoint,
    path_path_accuracy, predict_supervised, save_checkpoint, stage_for_epoch,
    train,
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
