"""Gated recurrent path encoder: (Z x D) initial view -> D'-vector.

The encoder runs on a batch of paths at once.  ``pad_views`` stacks the
paths' initial views into a zero-padded B x T x D array and a B x T mask;
``gru_forward`` and ``gru_backward`` step over time for every path
together, with each path's hidden state frozen past its last node, and
make the input projections of all steps one matmul.
``encode_batch_on_tape`` registers the pair on the tape as one op with a
hand-derived backward rule.
"""

from dataclasses import dataclass

import numpy as np

WEIGHT_KEYS = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wc", "Uc", "bc", "Wo")


@dataclass
class EncoderParams:
    """Gate/candidate weights, biases and the H->D' readout projection."""
    weights: dict          # name -> 2-D ndarray (biases are 1 x H)
    d: int
    h: int
    d_out: int


def init_encoder(d, h, d_out, seed):
    """Uniform(-a, a) weights with a = sqrt(1/H); zero biases."""
    if min(d, h, d_out) < 1:
        raise ValueError("dimensions must be >= 1")
    rng = np.random.default_rng(seed)
    a = np.sqrt(1.0 / h)

    def u(rows, cols):
        return rng.uniform(-a, a, size=(rows, cols))

    weights = {
        "Wz": u(d, h), "Uz": u(h, h), "bz": np.zeros((1, h)),
        "Wr": u(d, h), "Ur": u(h, h), "br": np.zeros((1, h)),
        "Wc": u(d, h), "Uc": u(h, h), "bc": np.zeros((1, h)),
        "Wo": u(h, d_out),
    }
    return EncoderParams(weights=weights, d=d, h=h, d_out=d_out)


def pad_views(views, d):
    """Zero-padded B x T x D stack of Z_i x D views and its B x T mask."""
    lengths = [len(v) for v in views]
    if 0 in lengths:
        raise ValueError("empty initial view")
    x = np.zeros((len(views), max(lengths, default=0), d))
    for i, v in enumerate(views):
        v = np.asarray(v, dtype=np.float64)
        if v.shape[1] != d:
            raise ValueError(f"view has {v.shape[1]} columns, encoder expects {d}")
        x[i, :len(v)] = v
    mask = np.arange(x.shape[1]) < np.array(lengths, dtype=np.intp).reshape(-1, 1)
    return x, mask


def gru_forward(x, mask, Wz, Uz, bz, Wr, Ur, br, Wc, Uc, bc, Wo):
    """B x D' representations of the padded views ``x`` (B x T x D).

    Also returns the time-major caches for ``gru_backward``: hidden states
    (T+1 x B x H), update gates, reset gates and candidates (T x B x H).
    """
    b, t_len, d = x.shape
    hdim = Uz.shape[0]
    xw = (x.reshape(b * t_len, d) @ np.concatenate([Wz, Wr, Wc], axis=1)
          ).reshape(b, t_len, 3 * hdim)
    uzr = np.concatenate([Uz, Ur], axis=1)
    hs = np.zeros((t_len + 1, b, hdim))
    zs = np.zeros((t_len, b, hdim))
    rs = np.zeros((t_len, b, hdim))
    cs = np.zeros((t_len, b, hdim))
    for t in range(t_len):
        h = hs[t]
        hu = h @ uzr
        z = 1.0 / (1.0 + np.exp(-(xw[:, t, :hdim] + hu[:, :hdim] + bz)))
        r = 1.0 / (1.0 + np.exp(-(xw[:, t, hdim:2 * hdim] + hu[:, hdim:] + br)))
        c = np.tanh(xw[:, t, 2 * hdim:] + (r * h) @ Uc + bc)
        hs[t + 1] = np.where(mask[:, t:t + 1], (1.0 - z) * h + z * c, h)
        zs[t] = z
        rs[t] = r
        cs[t] = c
    return hs[t_len] @ Wo, hs, zs, rs, cs


def gru_backward(dp, x, mask, hs, zs, rs, cs, Uz, Ur, Uc, Wo):
    """Gradients of the WEIGHT_KEYS, in that order, given dL/dp (B x D')."""
    b, t_len, d = x.shape
    hdim = Uz.shape[0]
    da = np.zeros((t_len, b, 3 * hdim))     # pre-activation grads z | r | c
    dh = dp @ Wo.T
    for t in range(t_len - 1, -1, -1):
        hprev, z, r, c = hs[t], zs[t], rs[t], cs[t]
        live = mask[:, t:t + 1]
        dhl = np.where(live, dh, 0.0)
        dac = dhl * z * (1.0 - c * c)
        drh = dac @ Uc.T
        daz = dhl * (c - hprev) * z * (1.0 - z)
        dar = drh * hprev * r * (1.0 - r)
        dh_prev = dhl * (1.0 - z) + drh * r + daz @ Uz.T + dar @ Ur.T
        dh = np.where(live, dh_prev, dh)
        da[t, :, :hdim] = daz
        da[t, :, hdim:2 * hdim] = dar
        da[t, :, 2 * hdim:] = dac
    da = da.reshape(t_len * b, 3 * hdim)
    dw = x.transpose(1, 0, 2).reshape(t_len * b, d).T @ da
    du = hs[:-1].reshape(t_len * b, hdim).T @ da[:, :2 * hdim]
    duc = (rs * hs[:-1]).reshape(t_len * b, hdim).T @ da[:, 2 * hdim:]
    db = da.sum(axis=0, keepdims=True)
    z_, r_, c_ = slice(0, hdim), slice(hdim, 2 * hdim), slice(2 * hdim, 3 * hdim)
    return (dw[:, z_], du[:, z_], db[:, z_], dw[:, r_], du[:, r_], db[:, r_],
            dw[:, c_], duc, db[:, c_], hs[t_len].T @ dp)


def encode_batch(params, views):
    """Inference-only encoding of a list of Z_i x D views; B x D', no gradients."""
    x, mask = pad_views(views, params.d)
    return gru_forward(x, mask, *(params.weights[k] for k in WEIGHT_KEYS))[0]


def encode(params, iv):
    """Inference-only encoding of one view; returns a D' vector."""
    return encode_batch(params, [iv])[0]


def encode_batch_on_tape(tensors, views, tape):
    """Differentiable encoding of a list of views as one fused tape op.

    ``tensors`` maps the WEIGHT_KEYS to requires-grad Tensors on ``tape``;
    the initial views are constants (node features are frozen).  Returns a
    B x D' Tensor, row i the representation of ``views[i]``.
    """
    w = {k: tensors[k].value for k in WEIGHT_KEYS}
    x, mask = pad_views(views, w["Wz"].shape[0])
    p, hs, zs, rs, cs = gru_forward(x, mask, *(w[k] for k in WEIGHT_KEYS))
    out = tape.tensor(p)

    def bw():
        if out.grad is None:
            return
        grads = gru_backward(out.grad, x, mask, hs, zs, rs, cs,
                             w["Uz"], w["Ur"], w["Uc"], w["Wo"])
        for key, g in zip(WEIGHT_KEYS, grads):
            tensors[key].add_grad(g)
    tape.record(bw)
    return out
