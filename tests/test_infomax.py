import numpy as np
import pytest

from pathrep.autodiff import Tape
from pathrep.infomax import (
    LN2, SAFE_LOG_FLOOR, global_mi, init_discriminators, joint_objective, local_mi,
)


def make_disc(d=4, d_out=3, seed=0):
    return init_discriminators(d, d_out, seed)


def tensors_on(tape, params):
    return {k: tape.tensor(v, requires_grad=True) for k, v in params.items()}


def global_one(ts, p, iv, negs, tape):
    """global_mi on a batch of one: p and its negatives are rows 0..K."""
    reprs = tape.tensor(np.vstack([p] + list(negs)))
    return global_mi(ts, reprs, [0], [iv], [list(range(1, 1 + len(negs)))], tape)


def local_one(ts, p, xf, yf, tape, counters=None):
    """local_mi on a batch of one over the 1 x D feature rows xf and yf."""
    feats = np.vstack(list(xf) + list(yf)) if xf or yf else np.zeros((0, 4))
    return local_mi(ts, tape.tensor(p), [0], feats, [list(range(len(xf)))],
                    [list(range(len(xf), len(xf) + len(yf)))], tape, counters)


def sig(x):
    return 1 / (1 + np.exp(-x))


def test_zero_init_path_path_score_half():
    # both pairs score exactly 0.5, so the objective is exactly log 0.5
    tape = Tape()
    ts = tensors_on(tape, make_disc())
    rng = np.random.default_rng(0)
    p = rng.normal(size=(1, 3))
    val = global_one(ts, p, rng.normal(size=(3, 4)), [rng.normal(size=(1, 3))], tape)
    assert val.item() == np.log(0.5)


def test_zero_init_path_node_score_half():
    tape = Tape()
    ts = tensors_on(tape, make_disc())
    p = np.random.default_rng(1).normal(size=(1, 3))
    v = np.random.default_rng(2).normal(size=(1, 4))
    assert local_one(ts, p, [v], [], tape).item() == np.log(0.5)


def test_zero_node_feature_forces_half():
    params = make_disc()
    params["W_pn"] = np.random.default_rng(3).normal(size=params["W_pn"].shape)
    tape = Tape()
    ts = tensors_on(tape, params)
    p = np.random.default_rng(4).normal(size=(1, 3))
    assert local_one(ts, p, [], [np.zeros((1, 4))], tape).item() == np.log(0.5)


def test_score_monotone_in_bilinear_form():
    # a negative more aligned with p under W_pp scores higher, which
    # lowers its log(1 - score) term
    params = make_disc()
    params["W_pp"] = np.eye(3)
    iv = np.random.default_rng(5).normal(size=(3, 4))
    prev = 1.0
    for scale in (0.5, 1.0, 2.0, 4.0):
        tape = Tape()
        ts = tensors_on(tape, params)
        val = global_one(ts, np.ones((1, 3)), iv, [scale * np.ones((1, 3))], tape).item()
        assert val < prev
        prev = val


def test_global_mi_at_init_is_minus_ln2():
    rng = np.random.default_rng(5)
    tape = Tape()
    ts = tensors_on(tape, make_disc())
    p = rng.normal(size=(1, 3))
    iv = rng.normal(size=(6, 4))
    negs = [rng.normal(size=(1, 3)) for _ in range(4)]
    val = global_one(ts, p, iv, negs, tape).item()
    assert val == pytest.approx(-LN2, abs=1e-9)


def test_global_mi_k4_weighting():
    # perfect-discriminator direction: each of the 5 terms carries weight 1/5
    rng = np.random.default_rng(6)
    params = make_disc()
    params["W_pp"] = rng.normal(size=(3, 3))
    tape = Tape()
    ts = tensors_on(tape, params)
    p = rng.normal(size=(1, 3))
    iv = rng.normal(size=(5, 4))
    negs = [rng.normal(size=(1, 3)) for _ in range(4)]
    got = global_one(ts, p, iv, negs, tape).item()

    g = iv.mean(axis=0) @ params["L"]
    terms = [np.log(sig(p[0] @ params["W_pp"] @ g))]
    for nb in negs:
        terms.append(np.log(1 - sig(p[0] @ params["W_pp"] @ nb[0])))
    assert got == pytest.approx(sum(terms) / 5)


def test_global_mi_tends_to_zero_for_perfect_discriminator():
    # drive the bilinear form so positive scores ~1 and negative scores ~0
    params = make_disc(d=3, d_out=3)
    params["W_pp"] = 200 * np.eye(3)
    params["L"] = np.eye(3)
    tape = Tape()
    ts = tensors_on(tape, params)
    val = global_one(ts, np.ones((1, 3)), np.ones((2, 3)), [-np.ones((1, 3))],
                     tape).item()
    assert -1e-6 < val <= 0


def test_local_mi_at_init_is_minus_ln2():
    rng = np.random.default_rng(7)
    tape = Tape()
    ts = tensors_on(tape, make_disc())
    p = rng.normal(size=(1, 3))
    xf = [rng.normal(size=(1, 4)) for _ in range(2)]
    yf = [rng.normal(size=(1, 4)) for _ in range(3)]
    assert local_one(ts, p, xf, yf, tape).item() == pytest.approx(-LN2, abs=1e-9)


def test_local_mi_denominator_counts_both_sets():
    rng = np.random.default_rng(8)
    params = make_disc()
    params["W_pn"] = rng.normal(size=params["W_pn"].shape)
    tape = Tape()
    ts = tensors_on(tape, params)
    pv = rng.normal(size=(1, 3))
    xf = [rng.normal(size=(1, 4)) for _ in range(2)]
    yf = [rng.normal(size=(1, 4)) for _ in range(3)]
    got = local_one(ts, pv, xf, yf, tape).item()

    terms = [np.log(sig(pv[0] @ params["W_pn"] @ v[0])) for v in xf]
    terms += [np.log(1 - sig(pv[0] @ params["W_pn"] @ v[0])) for v in yf]
    assert got == pytest.approx(sum(terms) / 5)


def test_local_mi_negative_only_normalized_by_y():
    rng = np.random.default_rng(9)
    params = make_disc()
    params["W_pn"] = rng.normal(size=params["W_pn"].shape)
    tape = Tape()
    ts = tensors_on(tape, params)
    pv = rng.normal(size=(1, 3))
    yf = [rng.normal(size=(1, 4)) for _ in range(3)]
    got = local_one(ts, pv, [], yf, tape).item()

    terms = [np.log(1 - sig(pv[0] @ params["W_pn"] @ v[0])) for v in yf]
    assert got == pytest.approx(sum(terms) / 3)


def test_local_mi_requires_some_nodes():
    tape = Tape()
    ts = tensors_on(tape, make_disc())
    with pytest.raises(ValueError):
        local_one(ts, np.zeros((1, 3)), [], [], tape)


def test_joint_at_init():
    rng = np.random.default_rng(10)
    tape = Tape()
    ts = tensors_on(tape, make_disc())
    p = rng.normal(size=(1, 3))
    iv = rng.normal(size=(3, 4))
    g = global_one(ts, p, iv, [rng.normal(size=(1, 3))], tape)
    l = local_one(ts, p, [rng.normal(size=(1, 4))], [rng.normal(size=(1, 4))], tape)
    assert joint_objective(g, l, tape).item() == pytest.approx(-2 * LN2, abs=1e-9)


def test_objectives_bounded_above_by_zero():
    rng = np.random.default_rng(11)
    for seed in range(10):
        params = make_disc()
        params["W_pp"] = rng.normal(size=(3, 3))
        params["W_pn"] = rng.normal(size=(3, 4))
        tape = Tape()
        ts = tensors_on(tape, params)
        p = rng.normal(size=(1, 3))
        iv = rng.normal(size=(4, 4))
        negs = [rng.normal(size=(1, 3)) for _ in range(2)]
        assert global_one(ts, p, iv, negs, tape).item() <= 0
        xf = [rng.normal(size=(1, 4))]
        yf = [rng.normal(size=(1, 4))]
        assert local_one(ts, p, xf, yf, tape).item() <= 0


def test_projection_shape():
    # each sample's view is pooled and projected on its own: a batch of
    # three views of different lengths gives the three batch-of-one values
    rng = np.random.default_rng(0)
    params = make_disc()
    params["W_pp"] = rng.normal(size=(3, 3))
    reprs = rng.normal(size=(4, 3))
    views = [rng.normal(size=(z, 4)) for z in (7, 1, 3)]
    negatives = [[3], [0, 3], [1, 2, 0]]
    tape = Tape()
    ts = tensors_on(tape, params)
    out = global_mi(ts, tape.tensor(reprs), [0, 1, 2], views, negatives, tape)
    assert out.shape == (3, 1)
    for i in range(3):
        one = global_one(ts, reprs[i:i + 1], views[i],
                         [reprs[j:j + 1] for j in negatives[i]], tape)
        assert out.value[i, 0] == pytest.approx(one.item(), abs=1e-15)


def test_log_floor_clamps_counted():
    # a saturated negative-only node scores 1 - sigma(s) = 0 < SAFE_LOG_FLOOR
    params = make_disc()
    params["W_pn"] = np.full(params["W_pn"].shape, 100.0)
    tape = Tape()
    ts = tensors_on(tape, params)
    counters = {}
    val = local_one(ts, np.ones((1, 3)), [np.ones((1, 4))], [np.ones((1, 4))],
                    tape, counters)
    assert counters == {"log_floor_clamps": 1}
    assert val.item() == pytest.approx(np.log(SAFE_LOG_FLOOR) / 2)
