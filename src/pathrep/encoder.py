"""Gated recurrent path encoder: (Z x D) initial view -> D'-vector.

The recurrent pass is the training hot loop, so ``gru_forward`` and
``gru_backward`` step through the whole sequence in one call each, and
``encode_on_tape`` registers them on the tape as a single op with a
hand-derived backward rule.  ``encode_primitive`` builds the identical
cell out of tape primitives and exists only to cross-check the fused op
in tests.
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


def gru_forward(iv, Wz, Uz, bz, Wr, Ur, br, Wc, Uc, bc, Wo):
    z_len = iv.shape[0]
    hdim = Wz.shape[1]
    hs = np.zeros((z_len + 1, hdim))
    zs = np.zeros((z_len, hdim))
    rs = np.zeros((z_len, hdim))
    cs = np.zeros((z_len, hdim))
    for t in range(z_len):
        x = iv[t]
        hprev = hs[t]
        z = 1.0 / (1.0 + np.exp(-(np.dot(x, Wz) + np.dot(hprev, Uz) + bz)))
        r = 1.0 / (1.0 + np.exp(-(np.dot(x, Wr) + np.dot(hprev, Ur) + br)))
        c = np.tanh(np.dot(x, Wc) + np.dot(r * hprev, Uc) + bc)
        hs[t + 1] = (1.0 - z) * hprev + z * c
        zs[t] = z
        rs[t] = r
        cs[t] = c
    p = np.dot(hs[z_len], Wo)
    return p, hs, zs, rs, cs


def gru_backward(dp, iv, hs, zs, rs, cs, Uz, Ur, Uc, Wo):
    z_len = iv.shape[0]
    dWz = np.zeros((iv.shape[1], Uz.shape[1]))
    dUz = np.zeros_like(Uz)
    dbz = np.zeros(Uz.shape[1])
    dWr = np.zeros((iv.shape[1], Ur.shape[1]))
    dUr = np.zeros_like(Ur)
    dbr = np.zeros(Ur.shape[1])
    dWc = np.zeros((iv.shape[1], Uc.shape[1]))
    dUc = np.zeros_like(Uc)
    dbc = np.zeros(Uc.shape[1])
    dWo = np.outer(hs[z_len], dp)
    dh = np.dot(Wo, dp)
    for t in range(z_len - 1, -1, -1):
        x = iv[t]
        hprev = hs[t]
        z = zs[t]
        r = rs[t]
        c = cs[t]
        dz = dh * (c - hprev)
        dc = dh * z
        dh_next = dh * (1.0 - z)
        dac = dc * (1.0 - c * c)
        dWc += np.outer(x, dac)
        dUc += np.outer(r * hprev, dac)
        dbc += dac
        drh = np.dot(dac, Uc.T)
        dr = drh * hprev
        dh_next = dh_next + drh * r
        daz = dz * z * (1.0 - z)
        dWz += np.outer(x, daz)
        dUz += np.outer(hprev, daz)
        dbz += daz
        dh_next = dh_next + np.dot(daz, Uz.T)
        dar = dr * r * (1.0 - r)
        dWr += np.outer(x, dar)
        dUr += np.outer(hprev, dar)
        dbr += dar
        dh_next = dh_next + np.dot(dar, Ur.T)
        dh = dh_next
    return dWz, dUz, dbz, dWr, dUr, dbr, dWc, dUc, dbc, dWo


def encode(params, iv):
    """Inference-only encoding; returns a D' vector, no gradients."""
    iv = np.ascontiguousarray(iv, dtype=np.float64)
    if iv.shape[0] == 0:
        raise ValueError("empty initial view")
    if iv.shape[1] != params.d:
        raise ValueError(f"view has {iv.shape[1]} columns, encoder expects {params.d}")
    w = params.weights
    p, *_ = gru_forward(iv, w["Wz"], w["Uz"], w["bz"][0], w["Wr"], w["Ur"],
                        w["br"][0], w["Wc"], w["Uc"], w["bc"][0], w["Wo"])
    return p


def encode_on_tape(tensors, iv, tape):
    """Differentiable encoding as one fused tape op.

    ``tensors`` maps the WEIGHT_KEYS to requires-grad Tensors on ``tape``;
    the initial view is a constant (node features are frozen).  Returns a
    1 x D' Tensor.
    """
    iv = np.ascontiguousarray(iv, dtype=np.float64)
    if iv.shape[0] == 0:
        raise ValueError("empty initial view")
    w = {k: tensors[k].value for k in WEIGHT_KEYS}
    p, hs, zs, rs, cs = gru_forward(
        iv, w["Wz"], w["Uz"], w["bz"][0], w["Wr"], w["Ur"], w["br"][0],
        w["Wc"], w["Uc"], w["bc"][0], w["Wo"])
    out = tape.tensor(p.reshape(1, -1))

    def bw():
        if out.grad is None:
            return
        grads = gru_backward(out.grad[0], iv, hs, zs, rs, cs,
                             w["Uz"], w["Ur"], w["Uc"], w["Wo"])
        for key, g in zip(WEIGHT_KEYS, grads):
            tensors[key].add_grad(np.asarray(g).reshape(tensors[key].shape))
    tape.record(bw)
    return out


def encode_primitive(tensors, iv, tape):
    """Reference encoding built from tape primitives (tests only)."""
    iv = np.asarray(iv, dtype=np.float64)
    hdim = tensors["Uz"].shape[0]
    h = tape.tensor(np.zeros((1, hdim)))
    for t in range(iv.shape[0]):
        x = tape.tensor(iv[t:t + 1])
        z = tape.sigmoid(tape.add(tape.add(tape.matmul(x, tensors["Wz"]),
                                           tape.matmul(h, tensors["Uz"])),
                                  tensors["bz"]))
        r = tape.sigmoid(tape.add(tape.add(tape.matmul(x, tensors["Wr"]),
                                           tape.matmul(h, tensors["Ur"])),
                                  tensors["br"]))
        c = tape.tanh(tape.add(tape.add(tape.matmul(x, tensors["Wc"]),
                                        tape.matmul(tape.mul(r, h), tensors["Uc"])),
                               tensors["bc"]))
        one_minus_z = tape.add_const(tape.scale(z, -1.0), 1.0)
        h = tape.add(tape.mul(one_minus_z, h), tape.mul(z, c))
    return tape.matmul(h, tensors["Wo"])
