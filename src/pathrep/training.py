"""End-to-end training: Adam ascent on the joint objective, curriculum
staging, corpus embedding, checkpoints, and supervised fine-tuning."""

import os
from dataclasses import dataclass, field

import numpy as np

from . import infomax
from .encoder import WEIGHT_KEYS, EncoderParams, encode, encode_on_tape, init_encoder
from .graph import initial_view
from .autodiff import Tape
from .sampling import EmptyPartition, curriculum_schedule, node_partition

DISC_KEYS = ("W_pp", "L", "W_pn")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 32
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    k: int = 4
    curriculum: str = "staged"        # "staged" | "all"
    mode: str = "joint"               # "joint" | "global" | "local"
    d_out: int = 16
    hidden: int = 0                   # 0 -> same as d_out
    seed: int = 0
    stage_epochs: int = 0             # 0 -> epochs // k

    def __post_init__(self):
        if self.lr <= 0 or self.k < 1 or self.epochs < 1:
            raise ValueError("lr > 0, k >= 1 and epochs >= 1 required")
        if self.curriculum not in ("staged", "all"):
            raise ValueError(f"unknown curriculum mode {self.curriculum!r}")
        if self.mode not in ("joint", "global", "local"):
            raise ValueError(f"unknown objective mode {self.mode!r}")


@dataclass
class Model:
    params: dict                      # name -> ndarray (encoder + discriminators)
    d: int
    hidden: int
    d_out: int
    adam_m: dict = field(default_factory=dict)
    adam_v: dict = field(default_factory=dict)
    adam_t: int = 0
    epoch: int = 0

    def encoder(self):
        return EncoderParams(
            weights={k: self.params[k] for k in WEIGHT_KEYS},
            d=self.d, h=self.hidden, d_out=self.d_out)


def init_model(d, cfg):
    hidden = cfg.hidden or cfg.d_out
    enc = init_encoder(d, hidden, cfg.d_out, cfg.seed)
    params = dict(enc.weights)
    params.update(infomax.init_discriminators(d, cfg.d_out, cfg.seed + 1))
    return Model(params=params, d=d, hidden=hidden, d_out=cfg.d_out,
                 adam_m={k: np.zeros_like(v) for k, v in params.items()},
                 adam_v={k: np.zeros_like(v) for k, v in params.items()})


def adam_step(model, grads, cfg):
    model.adam_t += 1
    t = model.adam_t
    for name, g in grads.items():
        m = model.adam_m[name]
        v = model.adam_v[name]
        m *= cfg.beta1
        m += (1 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1 - cfg.beta2) * g * g
        mhat = m / (1 - cfg.beta1 ** t)
        vhat = v / (1 - cfg.beta2 ** t)
        model.params[name] -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)


def _sample_objective(tensors, g, features, sample, stage, cfg, tape):
    """Per-sample (global, local) objective tensors; either may be None."""
    path, ns = sample
    iv = initial_view(g, features, path)
    p = encode_on_tape(tensors, iv, tape)
    active = curriculum_schedule(stage, ns, staged=(cfg.curriculum == "staged"))

    glob = None
    if cfg.mode in ("joint", "global"):
        neg_reprs = [encode_on_tape(tensors, initial_view(g, features, nb), tape)
                     for nb in active]
        glob = infomax.global_mi(tensors, p, iv, neg_reprs, tape)

    local = None
    if cfg.mode in ("joint", "local"):
        try:
            x_nodes, y_nodes = node_partition(path, active)
        except EmptyPartition:
            x_nodes, y_nodes = frozenset(), frozenset()
        if x_nodes or y_nodes:
            x_feats = [features[n:n + 1] for n in sorted(x_nodes)]
            y_feats = [features[n:n + 1] for n in sorted(y_nodes)]
            local = infomax.local_mi(tensors, p, x_feats, y_feats, tape)
    return glob, local


def stage_for_epoch(epoch, cfg):
    step = cfg.stage_epochs or max(1, cfg.epochs // cfg.k)
    return min(cfg.k, 1 + epoch // step)


def train(cfg, g, features, corpus, negative_sets, checkpoint_dir=None,
          model=None):
    """Train on (path, NegativeSet) samples; returns (Model, trace rows).

    Trace rows are dicts with epoch means of the global/local/joint
    objectives plus the curriculum stage.
    """
    if len(corpus) != len(negative_sets):
        raise ValueError("every corpus path needs a negative set")
    features = np.asarray(features, dtype=np.float64)
    if model is None:
        model = init_model(features.shape[1], cfg)
    rng = np.random.default_rng(cfg.seed)
    trace = []
    samples = list(zip(corpus, negative_sets))

    for epoch in range(cfg.epochs):
        stage = stage_for_epoch(epoch, cfg)
        order = rng.permutation(len(samples))
        g_sum = l_sum = 0.0
        g_cnt = l_cnt = 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            tape = Tape()
            tensors = {k: tape.tensor(v, requires_grad=True)
                       for k, v in model.params.items()}
            terms = []
            for idx in batch:
                glob, local = _sample_objective(
                    tensors, g, features, samples[idx], stage, cfg, tape)
                if glob is not None:
                    terms.append(glob)
                    g_sum += glob.item()
                    g_cnt += 1
                if local is not None:
                    terms.append(local)
                    l_sum += local.item()
                    l_cnt += 1
            if not terms:
                continue
            total = terms[0]
            for t in terms[1:]:
                total = tape.add(total, t)
            loss = tape.scale(total, -1.0 / len(batch))
            if not np.isfinite(loss.item()):
                raise FloatingPointError(
                    f"non-finite loss in epoch {epoch}, batch starting at "
                    f"sample {int(batch[0])}")
            tape.backward(loss)
            grads = {k: t.grad for k, t in tensors.items() if t.grad is not None}
            adam_step(model, grads, cfg)
        g_mean = g_sum / g_cnt if g_cnt else 0.0
        l_mean = l_sum / l_cnt if l_cnt else 0.0
        trace.append({"epoch": epoch, "global": g_mean, "local": l_mean,
                      "joint": g_mean + l_mean, "stage": stage})
        model.epoch = epoch + 1
        if checkpoint_dir is not None:
            save_checkpoint(model, checkpoint_dir)
    return model, trace


def embed_corpus(model, g, features, paths):
    """|paths| x D' matrix of representations; no gradient recording."""
    features = np.asarray(features, dtype=np.float64)
    enc = model.encoder()
    out = np.zeros((len(paths), model.d_out))
    for i, path in enumerate(paths):
        out[i] = encode(enc, initial_view(g, features, path))
    return out


def path_path_accuracy(model, g, features, paths, negative_sets):
    """Held-out path-path discriminator accuracy.

    Positive pairs (p_i, projected view of P_i) should score > 0.5;
    negative pairs (p_i, representation of each negative) should score
    < 0.5.
    """
    features = np.asarray(features, dtype=np.float64)
    enc = model.encoder()
    w_pp, proj = model.params["W_pp"], model.params["L"]
    correct = total = 0
    for path, ns in zip(paths, negative_sets):
        iv = initial_view(g, features, path)
        p = encode(enc, iv)
        gvec = iv.mean(axis=0) @ proj
        if p @ w_pp @ gvec > 0:
            correct += 1
        total += 1
        for nb in ns.negatives:
            pbar = encode(enc, initial_view(g, features, nb))
            if p @ w_pp @ pbar < 0:
                correct += 1
            total += 1
    return correct / total


# ---- supervised fine-tuning -------------------------------------------


def finetune(model, g, features, labeled, epochs=50, lr=0.001, seed=0,
             batch_size=32):
    """Attach a linear head D'->1 and minimize MSE; encoder weights update
    too (initialized from the given model). Targets are standardized
    internally so large-magnitude labels don't blow up the first updates
    and erase the initial encoder weights; the head stores the scale.
    """
    if not labeled:
        raise ValueError("labeled set is empty")
    features = np.asarray(features, dtype=np.float64)
    targets = np.array([t for _, t in labeled], dtype=np.float64)
    y_mean = float(targets.mean())
    y_std = float(targets.std())
    if y_std == 0.0:
        y_std = 1.0
    rng = np.random.default_rng(seed)
    params = {k: model.params[k].copy() for k in WEIGHT_KEYS}
    # Initialize the head with a closed-form ridge fit on the initial
    # encoder's embeddings: joint training then starts from a sensible
    # predictor instead of letting a random head push large error
    # gradients through (and distort) the initial encoder weights.
    enc0 = EncoderParams(weights={k: params[k] for k in WEIGHT_KEYS},
                         d=model.d, h=model.hidden, d_out=model.d_out)
    emb0 = np.stack([encode(enc0, initial_view(g, features, p))
                     for p, _ in labeled])
    y_stdized = (targets - y_mean) / y_std
    x_mean = emb0.mean(axis=0)
    xc = emb0 - x_mean
    lam = 1e-2
    w = np.linalg.solve(xc.T @ xc + lam * np.eye(xc.shape[1]),
                        xc.T @ y_stdized)
    params["head_w"] = w.reshape(-1, 1)
    params["head_b"] = np.array([[float(y_stdized.mean() - x_mean @ w)]])
    params["head_scale"] = np.array([[y_mean, y_std]])
    sup = Model(params=params, d=model.d, hidden=model.hidden, d_out=model.d_out,
                adam_m={k: np.zeros_like(v) for k, v in params.items()},
                adam_v={k: np.zeros_like(v) for k, v in params.items()})
    cfg = TrainConfig(epochs=epochs, lr=lr, seed=seed, d_out=model.d_out,
                      hidden=model.hidden)
    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(labeled))
        epoch_loss = 0.0
        for lo in range(0, len(order), batch_size):
            batch = order[lo:lo + batch_size]
            tape = Tape()
            tensors = {k: tape.tensor(v, requires_grad=True)
                       for k, v in sup.params.items()}
            terms = []
            for idx in batch:
                path, target = labeled[idx]
                p = encode_on_tape(tensors, initial_view(g, features, path), tape)
                pred = tape.add(tape.matmul(p, tensors["head_w"]),
                                tensors["head_b"])
                err = tape.add_const(pred, -(float(target) - y_mean) / y_std)
                terms.append(tape.mul(err, err))
            total = terms[0]
            for t in terms[1:]:
                total = tape.add(total, t)
            loss = tape.scale(total, 1.0 / len(batch))
            epoch_loss += loss.item() * len(batch)
            tape.backward(loss)
            grads = {k: t.grad for k, t in tensors.items() if t.grad is not None}
            adam_step(sup, grads, cfg)
        history.append(epoch_loss / len(labeled))
    return sup, history


def predict_supervised(sup, g, features, paths):
    features = np.asarray(features, dtype=np.float64)
    enc = EncoderParams(weights={k: sup.params[k] for k in WEIGHT_KEYS},
                        d=sup.d, h=sup.hidden, d_out=sup.d_out)
    y_mean, y_std = 0.0, 1.0
    if "head_scale" in sup.params:
        y_mean, y_std = (float(x) for x in sup.params["head_scale"].ravel())
    out = np.zeros(len(paths))
    for i, path in enumerate(paths):
        p = encode(enc, initial_view(g, features, path))
        raw = float((p @ sup.params["head_w"])[0] + sup.params["head_b"][0, 0])
        out[i] = raw * y_std + y_mean
    return out


# ---- checkpoints --------------------------------------------------------


def _replace_file(path, data):
    """Write ``data`` to a temp file beside ``path``, then rename it over
    ``path``: a crash leaves the old file or the new one, never a torn one."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def save_checkpoint(model, directory):
    """Text manifest + one little-endian float64 binary segment file."""
    os.makedirs(directory, exist_ok=True)
    names = []
    blobs = []
    for prefix, table in (("p", model.params), ("m", model.adam_m),
                          ("v", model.adam_v)):
        for key in sorted(table):
            names.append((f"{prefix}:{key}", table[key].shape))
            blobs.append(table[key].astype("<f8").tobytes())
    manifest = (f"meta d={model.d} hidden={model.hidden} d_out={model.d_out} "
                f"adam_t={model.adam_t} epoch={model.epoch}\n")
    manifest += "".join(f"{name} {shape[0]} {shape[1]}\n" for name, shape in names)
    _replace_file(os.path.join(directory, "params.bin"), b"".join(blobs))
    _replace_file(os.path.join(directory, "manifest.txt"), manifest.encode())


def load_checkpoint(directory):
    with open(os.path.join(directory, "manifest.txt")) as fh:
        lines = fh.read().splitlines()
    meta = dict(kv.split("=") for kv in lines[0].split()[1:])
    layout = [(name.split(":"), int(rows), int(cols))
              for name, rows, cols in (line.split() for line in lines[1:])]
    path = os.path.join(directory, "params.bin")
    with open(path, "rb") as fh:
        blob = fh.read()
    expected = sum(rows * cols for _, rows, cols in layout)
    if len(blob) != 8 * expected:
        raise ValueError(f"{path}: {len(blob)} bytes, manifest lists "
                         f"{expected} float64 values ({8 * expected} bytes)")
    raw = np.frombuffer(blob, dtype="<f8")
    tables = {"p": {}, "m": {}, "v": {}}
    offset = 0
    for (prefix, key), rows, cols in layout:
        size = rows * cols
        tables[prefix][key] = raw[offset:offset + size].reshape(rows, cols).copy()
        offset += size
    return Model(params=tables["p"], d=int(meta["d"]), hidden=int(meta["hidden"]),
                 d_out=int(meta["d_out"]), adam_m=tables["m"], adam_v=tables["v"],
                 adam_t=int(meta["adam_t"]), epoch=int(meta["epoch"]))
