import numpy as np
import pytest

from per_sample import encode_primitive
from pathrep.autodiff import Tape, grad_check
from pathrep.encoder import (
    WEIGHT_KEYS, encode, encode_batch, encode_batch_on_tape, init_encoder,
)


def test_init_deterministic():
    a = init_encoder(4, 3, 2, seed=7)
    b = init_encoder(4, 3, 2, seed=7)
    for k in WEIGHT_KEYS:
        assert np.array_equal(a.weights[k], b.weights[k])


def test_init_biases_zero_and_bound():
    enc = init_encoder(4, 5, 2, seed=0)
    bound = np.sqrt(1 / 5)
    for k in ("bz", "br", "bc"):
        assert np.all(enc.weights[k] == 0)
    for k in ("Wz", "Uz", "Wr", "Ur", "Wc", "Uc", "Wo"):
        assert np.abs(enc.weights[k]).max() < bound


def test_scalar_state_encoder():
    enc = init_encoder(2, 1, 1, seed=0)
    out = encode(enc, np.ones((2, 2)))
    assert out.shape == (1,)
    assert np.isfinite(out).all()


def test_output_dimension_contract():
    enc = init_encoder(3, 4, 6, seed=1)
    for z in (2, 5, 11):
        assert encode(enc, np.random.default_rng(z).normal(size=(z, 3))).shape == (6,)


def test_empty_view_rejected():
    enc = init_encoder(3, 4, 2, seed=1)
    with pytest.raises(ValueError):
        encode(enc, np.zeros((0, 3)))


def test_row_order_matters():
    rng = np.random.default_rng(3)
    enc = init_encoder(4, 4, 4, seed=3)
    iv = rng.normal(size=(2, 4))
    fwd = encode(enc, iv)
    rev = encode(enc, iv[::-1])
    assert np.abs(fwd - rev).max() > 1e-9


def test_zero_view_zero_biases_gives_zero():
    enc = init_encoder(3, 4, 2, seed=5)
    out = encode(enc, np.zeros((4, 3)))
    assert np.array_equal(out, np.zeros(2))


def test_sequence_sensitivity_over_random_draws():
    rng = np.random.default_rng(0)
    changed = 0
    for seed in range(100):
        enc = init_encoder(3, 4, 3, seed=seed)
        iv = rng.normal(size=(3, 3))
        perm = iv[[1, 2, 0]]
        if np.abs(encode(enc, iv) - encode(enc, perm)).max() > 1e-9:
            changed += 1
    assert changed >= 99


def test_fused_matches_primitive_forward_and_backward():
    # one padded batch of mixed lengths against each path on its own
    rng = np.random.default_rng(9)
    enc = init_encoder(4, 3, 2, seed=9)
    enc.weights.update({k: rng.normal(scale=0.3, size=(1, 3)) for k in ("bz", "br", "bc")})
    views = [rng.normal(size=(z, 4)) for z in (5, 1, 7, 2, 5)]
    coef = rng.normal(size=(len(views), 2))

    def batched(tensors, tape):
        out = encode_batch_on_tape(tensors, views, tape)
        return out, tape.sum(tape.mul(out, tape.tensor(coef)))

    def per_path(tensors, tape):
        outs = [encode_primitive(tensors, iv, tape) for iv in views]
        loss = tape.sum(tape.mul(outs[0], tape.tensor(coef[:1])))
        for i, out in enumerate(outs[1:], start=1):
            loss = tape.add(loss, tape.sum(tape.mul(out, tape.tensor(coef[i:i + 1]))))
        return tape.concat_rows(outs), loss

    results = []
    for impl in (batched, per_path):
        tape = Tape()
        tensors = {k: tape.tensor(v, requires_grad=True)
                   for k, v in enc.weights.items()}
        out, loss = impl(tensors, tape)
        tape.backward(loss)
        results.append((out.value.copy(),
                        {k: tensors[k].grad.copy() for k in WEIGHT_KEYS}))
    (va, ga), (vb, gb) = results
    assert np.abs(va - vb).max() < 1e-12
    assert np.abs(va - encode_batch(enc, views)).max() == 0
    for k in WEIGHT_KEYS:
        assert np.abs(ga[k] - gb[k]).max() < 1e-12


def test_inference_matches_tape_forward():
    rng = np.random.default_rng(4)
    enc = init_encoder(3, 5, 4, seed=4)
    iv = rng.normal(size=(6, 3))
    tape = Tape()
    tensors = {k: tape.tensor(v) for k, v in enc.weights.items()}
    assert np.array_equal(encode(enc, iv),
                          encode_batch_on_tape(tensors, [iv], tape).value[0])


def test_encoder_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    views = [rng.normal(size=(4, 3)), rng.normal(size=(2, 3))]
    enc = init_encoder(3, 3, 2, seed=8)

    def f(tensors, tape):
        p = encode_batch_on_tape(tensors, views, tape)
        return tape.sum(tape.mul(p, p))

    assert grad_check(f, {k: v.copy() for k, v in enc.weights.items()}) < 1e-5


def test_padding_does_not_change_a_representation():
    rng = np.random.default_rng(12)
    enc = init_encoder(3, 4, 2, seed=12)
    views = [rng.normal(size=(z, 3)) for z in (1, 6, 3)]
    batch = encode_batch(enc, views)
    for iv, row in zip(views, batch):
        assert np.abs(encode(enc, iv) - row).max() < 1e-14
    assert encode_batch(enc, []).shape == (0, 2)
    with pytest.raises(ValueError):
        encode_batch(enc, [views[0], np.zeros((0, 3))])
    with pytest.raises(ValueError):
        encode_batch(enc, [rng.normal(size=(2, 4))])
