import numpy as np
import pytest

from pathrep.autodiff import ShapeMismatch, Tape, grad_check


def test_sigmoid_at_zero():
    t = Tape()
    assert t.sigmoid(t.tensor([[0.0]])).item() == 0.5


def test_matmul_identity():
    t = Tape()
    a = np.arange(9, dtype=float).reshape(3, 3)
    out = t.matmul(t.tensor(np.eye(3)), t.tensor(a))
    assert np.array_equal(out.value, a)


def test_mean_rows():
    t = Tape()
    out = t.mean_rows(t.tensor([[1.0, 3.0], [3.0, 5.0]]))
    assert np.array_equal(out.value, [[2.0, 4.0]])


def test_backward_sum_gives_ones():
    t = Tape()
    x = t.tensor(np.zeros((2, 2)), requires_grad=True)
    t.backward(t.sum(x))
    assert np.array_equal(x.grad, np.ones((2, 2)))


def test_backward_sigmoid_prime():
    t = Tape()
    w = t.tensor([[0.0]], requires_grad=True)
    t.backward(t.sigmoid(w))
    assert w.grad[0, 0] == pytest.approx(0.25)


def test_gradient_accumulation_two_paths():
    # loss = sum(x + x) -> dloss/dx = 2 everywhere
    t = Tape()
    x = t.tensor(np.ones((2, 3)), requires_grad=True)
    t.backward(t.sum(t.add(x, x)))
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))


def test_gradient_accumulation_hand_case():
    # loss = sum(x * x): dloss/dx = 2x via product-rule accumulation
    t = Tape()
    x = t.tensor([[3.0, -2.0]], requires_grad=True)
    t.backward(t.sum(t.mul(x, x)))
    assert np.array_equal(x.grad, [[6.0, -4.0]])


def test_backward_rejects_non_scalar():
    t = Tape()
    x = t.tensor(np.ones((2, 2)))
    with pytest.raises(ShapeMismatch):
        t.backward(x)


def test_shape_errors_name_both_shapes():
    t = Tape()
    a, b = t.tensor(np.ones((2, 3))), t.tensor(np.ones((2, 2)))
    with pytest.raises(ShapeMismatch, match=r"2, 3"):
        t.matmul(a, b)
    with pytest.raises(ShapeMismatch):
        t.add(a, b)
    with pytest.raises(ShapeMismatch):
        t.mul(a, b)


def test_row_broadcast_add_backward():
    t = Tape()
    a = t.tensor(np.ones((3, 2)), requires_grad=True)
    b = t.tensor(np.ones((1, 2)), requires_grad=True)
    t.backward(t.sum(t.add(a, b)))
    assert np.array_equal(a.grad, np.ones((3, 2)))
    assert np.array_equal(b.grad, [[3.0, 3.0]])


def test_safe_log_floor_zeroes_gradient():
    t = Tape()
    x = t.tensor([[1e-15, 0.5]], requires_grad=True)
    t.backward(t.sum(t.log(x, floor=1e-12)))
    assert x.grad[0, 0] == 0.0
    assert x.grad[0, 1] == pytest.approx(2.0)


def test_grad_check_quadratic():
    def f(tensors, tape):
        return tape.sum(tape.mul(tensors["w"], tensors["w"]))
    err = grad_check(f, {"w": np.array([[0.3, -1.2, 0.7]])})
    assert err < 1e-9


def test_grad_check_random_composition():
    rng = np.random.default_rng(11)
    a = rng.normal(size=(3, 4))

    def f(tensors, tape):
        h1 = tape.tanh(tape.matmul(tape.tensor(a), tensors["w1"]))
        h2 = tape.sigmoid(tape.matmul(h1, tensors["w2"]))
        pooled = tape.mean_rows(tape.mul(h2, h2))
        return tape.sum(tape.log(pooled, floor=1e-12))

    params = {"w1": rng.normal(size=(4, 5)), "w2": rng.normal(size=(5, 2))}
    assert grad_check(f, params) < 1e-8


def test_concat_rows_and_transpose_gradients():
    def f(tensors, tape):
        stacked = tape.concat_rows([tensors["a"], tensors["b"]])
        return tape.sum(tape.matmul(stacked, tape.transpose(stacked)))
    rng = np.random.default_rng(5)
    params = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=(1, 3))}
    assert grad_check(f, params) < 1e-8


def test_forward_replay_identical():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 2))

    def run():
        t = Tape()
        return t.sum(t.sigmoid(t.matmul(t.tensor(x), t.tensor(x)))).item()

    assert run() == run()


def test_row_ops_values_and_gradients():
    t = Tape()
    a = t.tensor([[1.0, 2.0], [3.0, 4.0]], requires_grad=True)
    picked = t.gather_rows(a, [1, 0, 1])
    assert np.array_equal(picked.value, [[3.0, 4.0], [1.0, 2.0], [3.0, 4.0]])
    dots = t.row_dot(picked, t.tensor(np.ones((3, 2))))
    assert np.array_equal(dots.value, [[7.0], [3.0], [7.0]])
    means = t.segment_mean(dots, [1, 0, 1], 2)
    assert np.array_equal(means.value, [[3.0], [7.0]])
    t.backward(t.sum(means))
    # row 1 is taken twice, each time with weight 1/2
    assert np.array_equal(a.grad, [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError):
        t.segment_mean(dots, [0, 0, 2], 3)

    rng = np.random.default_rng(5)
    coef = rng.normal(size=(2, 1))

    def f(ts, tape):
        rows = tape.gather_rows(ts["a"], [2, 0, 2, 1])
        means = tape.segment_mean(tape.row_dot(rows, ts["b"]), [1, 0, 1, 1], 2)
        return tape.sum(tape.mul(means, tape.tensor(coef)))

    assert grad_check(f, {"a": rng.normal(size=(3, 2)),
                          "b": rng.normal(size=(4, 2))}) < 1e-7
