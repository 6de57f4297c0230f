"""Minimal reverse-mode autodiff over dense 2-D float64 arrays.

Just the operations the encoder, discriminators and losses need; the
row ops (``gather_rows``, ``row_dot``, ``segment_mean``) let one record
score every pair of a batch.  A Tape
records one backward rule per forward op; ``backward`` walks the records
in reverse and accumulates gradients additively, so using a tensor twice
sums both path gradients.
"""

import numpy as np


class ShapeMismatch(Exception):
    def __init__(self, op, *shapes):
        self.op = op
        self.shapes = shapes
        super().__init__(f"{op}: incompatible shapes {shapes}")


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "tape")

    def __init__(self, value, requires_grad=False, tape=None):
        self.value = np.asarray(value, dtype=np.float64)
        if self.value.ndim == 0:
            self.value = self.value.reshape(1, 1)
        elif self.value.ndim == 1:
            self.value = self.value.reshape(1, -1)
        if self.value.ndim != 2:
            raise ShapeMismatch("tensor", self.value.shape)
        self.grad = None
        self.requires_grad = requires_grad
        self.tape = tape

    @property
    def shape(self):
        return self.value.shape

    def add_grad(self, g):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    def item(self):
        if self.value.size != 1:
            raise ShapeMismatch("item", self.shape)
        return float(self.value[0, 0])


class Tape:
    """Ordered record of backward rules; replayed in exact reverse."""

    def __init__(self):
        self.records = []

    def tensor(self, value, requires_grad=False):
        return Tensor(value, requires_grad=requires_grad, tape=self)

    def record(self, fn):
        self.records.append(fn)

    def _out(self, value):
        return Tensor(value, tape=self)

    # ---- forward ops -------------------------------------------------

    def matmul(self, a, b):
        if a.shape[1] != b.shape[0]:
            raise ShapeMismatch("matmul", a.shape, b.shape)
        out = self._out(a.value @ b.value)

        def bw():
            if out.grad is None:
                return
            a.add_grad(out.grad @ b.value.T)
            b.add_grad(a.value.T @ out.grad)
        self.record(bw)
        return out

    def add(self, a, b):
        # same shape, or b a row vector broadcast over a's rows
        row_bcast = b.shape[0] == 1 and a.shape[1] == b.shape[1] and a.shape[0] != 1
        if a.shape != b.shape and not row_bcast:
            raise ShapeMismatch("add", a.shape, b.shape)
        out = self._out(a.value + b.value)

        def bw():
            if out.grad is None:
                return
            a.add_grad(out.grad)
            if row_bcast:
                b.add_grad(out.grad.sum(axis=0, keepdims=True))
            else:
                b.add_grad(out.grad)
        self.record(bw)
        return out

    def mul(self, a, b):
        if a.shape != b.shape:
            raise ShapeMismatch("mul", a.shape, b.shape)
        out = self._out(a.value * b.value)

        def bw():
            if out.grad is None:
                return
            a.add_grad(out.grad * b.value)
            b.add_grad(out.grad * a.value)
        self.record(bw)
        return out

    def scale(self, a, c):
        c = float(c)
        out = self._out(a.value * c)

        def bw():
            if out.grad is None:
                return
            a.add_grad(out.grad * c)
        self.record(bw)
        return out

    def add_const(self, a, c):
        out = self._out(a.value + float(c))

        def bw():
            if out.grad is None:
                return
            a.add_grad(out.grad)
        self.record(bw)
        return out

    def sigmoid(self, a):
        val = 1.0 / (1.0 + np.exp(-a.value))
        out = self._out(val)

        def bw():
            if out.grad is None:
                return
            a.add_grad(out.grad * val * (1.0 - val))
        self.record(bw)
        return out

    def tanh(self, a):
        val = np.tanh(a.value)
        out = self._out(val)

        def bw():
            if out.grad is None:
                return
            a.add_grad(out.grad * (1.0 - val * val))
        self.record(bw)
        return out

    def log(self, a, floor=None):
        """Natural log; with a floor, inputs are clamped to floor and the
        gradient is zero where clamping bites."""
        if floor is None:
            val = np.log(a.value)
            clamped = a.value
            mask = 1.0
        else:
            clamped = np.maximum(a.value, floor)
            val = np.log(clamped)
            mask = (a.value > floor).astype(np.float64)
        out = self._out(val)

        def bw():
            if out.grad is None:
                return
            a.add_grad(out.grad * mask / clamped)
        self.record(bw)
        return out

    def transpose(self, a):
        out = self._out(a.value.T)

        def bw():
            if out.grad is None:
                return
            a.add_grad(out.grad.T)
        self.record(bw)
        return out

    def concat_rows(self, tensors):
        cols = tensors[0].shape[1]
        if any(t.shape[1] != cols for t in tensors):
            raise ShapeMismatch("concat_rows", *[t.shape for t in tensors])
        out = self._out(np.concatenate([t.value for t in tensors], axis=0))
        offsets = np.cumsum([0] + [t.shape[0] for t in tensors])

        def bw():
            if out.grad is None:
                return
            for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
                t.add_grad(out.grad[lo:hi])
        self.record(bw)
        return out

    def mean_rows(self, a):
        out = self._out(a.value.mean(axis=0, keepdims=True))
        n = a.shape[0]

        def bw():
            if out.grad is None:
                return
            a.add_grad(np.repeat(out.grad, n, axis=0) / n)
        self.record(bw)
        return out

    def gather_rows(self, a, rows):
        """The rows ``a[rows]``; a row taken twice gets both gradients."""
        rows = np.asarray(rows, dtype=np.intp)
        out = self._out(a.value[rows])

        def bw():
            if out.grad is None:
                return
            grad = np.zeros_like(a.value)
            np.add.at(grad, rows, out.grad)
            a.add_grad(grad)
        self.record(bw)
        return out

    def row_dot(self, a, b):
        """Column of the row-wise dot products a_i . b_i."""
        if a.shape != b.shape:
            raise ShapeMismatch("row_dot", a.shape, b.shape)
        out = self._out((a.value * b.value).sum(axis=1, keepdims=True))

        def bw():
            if out.grad is None:
                return
            a.add_grad(out.grad * b.value)
            b.add_grad(out.grad * a.value)
        self.record(bw)
        return out

    def segment_mean(self, a, segments, n):
        """n-row mean of the rows of ``a`` by segment: row s is the sum, in
        row order, of the rows whose segment is s, times 1/(their count)."""
        segments = np.asarray(segments, dtype=np.intp)
        if segments.shape != (a.shape[0],):
            raise ShapeMismatch("segment_mean", a.shape, segments.shape)
        counts = np.bincount(segments, minlength=n)
        if len(counts) != n or not counts.all():
            raise ValueError(f"segment_mean: every segment 0..{n - 1} needs a row")
        weight = (1.0 / counts).reshape(-1, 1)
        total = np.zeros((n, a.shape[1]))
        np.add.at(total, segments, a.value)
        out = self._out(total * weight)

        def bw():
            if out.grad is None:
                return
            a.add_grad((out.grad * weight)[segments])
        self.record(bw)
        return out

    def sum(self, a):
        out = self._out(np.array([[a.value.sum()]]))

        def bw():
            if out.grad is None:
                return
            a.add_grad(np.full_like(a.value, out.grad[0, 0]))
        self.record(bw)
        return out

    # ---- backward ----------------------------------------------------

    def backward(self, loss):
        if loss.value.shape != (1, 1):
            raise ShapeMismatch("backward", loss.shape)
        loss.add_grad(np.ones((1, 1)))
        for fn in reversed(self.records):
            fn()


def grad_check(f, params, eps=1e-5):
    """Max relative error between analytic and central-difference gradients.

    ``f`` maps a dict name->ndarray to a scalar; ``params`` is the dict of
    parameter arrays at the test point.  Analytic gradients come from
    running ``f`` through a tape where the dict values are requires-grad
    tensors.
    """
    tape = Tape()
    tensors = {k: tape.tensor(v, requires_grad=True) for k, v in params.items()}
    loss = f(tensors, tape)
    tape.backward(loss)

    max_err = 0.0
    for name, arr in params.items():
        analytic = tensors[name].grad
        if analytic is None:
            analytic = np.zeros_like(arr)
        analytic = analytic.reshape(np.asarray(arr).shape)
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            ix = it.multi_index
            orig = arr[ix]
            arr[ix] = orig + eps
            t2 = Tape()
            up = f({k: t2.tensor(v) for k, v in params.items()}, t2).item()
            arr[ix] = orig - eps
            t3 = Tape()
            down = f({k: t3.tensor(v) for k, v in params.items()}, t3).item()
            arr[ix] = orig
            fd = (up - down) / (2 * eps)
            a = analytic[ix]
            max_err = max(max_err, abs(a - fd) / max(1.0, abs(a)))
    return max_err
