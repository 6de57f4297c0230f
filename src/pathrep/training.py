"""End-to-end training: Adam ascent on the joint objective, curriculum
staging, corpus embedding, checkpoints, and supervised fine-tuning.

Each training step is one batch on one tape: every distinct path of the
batch (the inputs and their active negatives, repeats merged) is encoded
once by the batched encoder, both objectives score all of the batch's
pairs at once, and ``Tape.backward`` runs once.  Embedding, fine-tuning
and the accuracy helper use the same batched forward pass.
"""

import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import infomax
from .encoder import (
    WEIGHT_KEYS, EncoderParams, encode_batch, encode_batch_on_tape, init_encoder,
)
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


def _distinct_views(g, features, paths):
    """Initial views of the distinct paths among ``paths``, and the index of
    each path's view."""
    index = {}
    views = []
    for path in paths:
        if path.nodes not in index:
            index[path.nodes] = len(views)
            views.append(initial_view(g, features, path))
    return views, np.array([index[path.nodes] for path in paths], dtype=np.intp)


def batch_objective(tensors, g, features, batch, stage, cfg, tape, counters=None):
    """Objective of a batch of (path, NegativeSet) samples on ``tape``.

    Returns (total, global values, local values): the 1 x 1 sum of every
    sample's global and local objectives, or None when the batch has no
    term, and the per-sample values in batch order.  A sample whose node
    partition is empty has no local term.
    """
    paths = [path for path, _ in batch]
    actives = [curriculum_schedule(stage, ns, staged=(cfg.curriculum == "staged"))
               for _, ns in batch]
    with_global = cfg.mode in ("joint", "global")
    negatives = [nb for active in actives for nb in active] if with_global else []
    views, rows = _distinct_views(g, features, paths + negatives)
    reprs = encode_batch_on_tape(tensors, views, tape)
    inputs = rows[:len(paths)]
    terms, glob_values, local_values = [], [], []

    if with_global:
        ends = np.cumsum([len(active) for active in actives])[:-1]
        glob = infomax.global_mi(tensors, reprs, inputs, [views[r] for r in inputs],
                                 np.split(rows[len(paths):], ends), tape, counters)
        terms.append(glob)
        glob_values = glob.value[:, 0].tolist()

    if cfg.mode in ("joint", "local"):
        kept, x_nodes, y_nodes = [], [], []
        for i, (path, active) in enumerate(zip(paths, actives)):
            try:
                x, y = node_partition(path, active)
            except EmptyPartition:
                continue
            kept.append(i)
            x_nodes.append(sorted(x))
            y_nodes.append(sorted(y))
        if kept:
            local = infomax.local_mi(tensors, reprs, inputs[kept], features,
                                     x_nodes, y_nodes, tape, counters)
            terms.append(local)
            local_values = local.value[:, 0].tolist()

    if len(terms) == 2:
        total = infomax.joint_objective(*terms, tape)
    else:
        total = tape.sum(terms[0]) if terms else None
    return total, glob_values, local_values


def stage_for_epoch(epoch, cfg):
    step = cfg.stage_epochs or max(1, cfg.epochs // cfg.k)
    return min(cfg.k, 1 + epoch // step)


def train(cfg, g, features, corpus, negative_sets, checkpoint_dir=None,
          model=None, counters=None):
    """Train on (path, NegativeSet) samples; returns (Model, trace rows).

    Trace rows are dicts with epoch means of the global/local/joint
    objectives plus the curriculum stage.  ``counters``, when given, gets
    ``batches`` (optimizer steps), ``log_floor_clamps`` (scores where
    SAFE_LOG_FLOOR bit) and ``epoch_seconds``.
    """
    if len(corpus) != len(negative_sets):
        raise ValueError("every corpus path needs a negative set")
    features = np.asarray(features, dtype=np.float64)
    if model is None:
        model = init_model(features.shape[1], cfg)
    if counters is None:
        counters = {}
    counters.update(batches=0, log_floor_clamps=0, epoch_seconds=[])
    rng = np.random.default_rng(cfg.seed)
    trace = []
    samples = list(zip(corpus, negative_sets))

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        stage = stage_for_epoch(epoch, cfg)
        order = rng.permutation(len(samples))
        g_sum = l_sum = 0.0
        g_cnt = l_cnt = 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            tape = Tape()
            tensors = {k: tape.tensor(v, requires_grad=True)
                       for k, v in model.params.items()}
            total, glob_values, local_values = batch_objective(
                tensors, g, features, [samples[i] for i in batch], stage, cfg,
                tape, counters)
            for value in glob_values:
                g_sum += value
            for value in local_values:
                l_sum += value
            g_cnt += len(glob_values)
            l_cnt += len(local_values)
            if total is None:
                continue
            loss = tape.scale(total, -1.0 / len(batch))
            if not np.isfinite(loss.item()):
                raise FloatingPointError(
                    f"non-finite loss in epoch {epoch}, batch starting at "
                    f"sample {int(batch[0])}")
            tape.backward(loss)
            grads = {k: t.grad for k, t in tensors.items() if t.grad is not None}
            adam_step(model, grads, cfg)
            counters["batches"] += 1
        g_mean = g_sum / g_cnt if g_cnt else 0.0
        l_mean = l_sum / l_cnt if l_cnt else 0.0
        trace.append({"epoch": epoch, "global": g_mean, "local": l_mean,
                      "joint": g_mean + l_mean, "stage": stage})
        model.epoch = epoch + 1
        if checkpoint_dir is not None:
            save_checkpoint(model, checkpoint_dir)
        counters["epoch_seconds"].append(round(time.perf_counter() - started, 6))
    return model, trace


def embed_corpus(model, g, features, paths):
    """|paths| x D' matrix of representations; no gradient recording."""
    features = np.asarray(features, dtype=np.float64)
    return encode_batch(model.encoder(),
                        [initial_view(g, features, path) for path in paths])


def path_path_accuracy(model, g, features, paths, negative_sets):
    """Held-out path-path discriminator accuracy.

    Positive pairs (p_i, projected view of P_i) should score > 0.5;
    negative pairs (p_i, representation of each negative) should score
    < 0.5.
    """
    if len(paths) != len(negative_sets):
        raise ValueError("every path needs a negative set")
    features = np.asarray(features, dtype=np.float64)
    negatives = [nb for ns in negative_sets for nb in ns.negatives]
    views, rows = _distinct_views(g, features, list(paths) + negatives)
    reprs = encode_batch(model.encoder(), views)
    inputs = rows[:len(paths)]
    q = reprs[inputs] @ model.params["W_pp"]
    pooled = np.stack([views[r].mean(axis=0) for r in inputs])
    positive = ((q * (pooled @ model.params["L"])).sum(axis=1) > 0).sum()
    owner = np.repeat(np.arange(len(paths)), [ns.k for ns in negative_sets])
    negative = ((q[owner] * reprs[rows[len(paths):]]).sum(axis=1) < 0).sum()
    return int(positive + negative) / (len(paths) + len(negatives))


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
    views = [initial_view(g, features, path) for path, _ in labeled]
    emb0 = encode_batch(enc0, views)
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
            p = encode_batch_on_tape(tensors, [views[i] for i in batch], tape)
            pred = tape.add(tape.matmul(p, tensors["head_w"]), tensors["head_b"])
            offset = -(targets[batch] - y_mean) / y_std
            err = tape.add(pred, tape.tensor(offset.reshape(-1, 1)))
            loss = tape.scale(tape.sum(tape.mul(err, err)), 1.0 / len(batch))
            epoch_loss += loss.item() * len(batch)
            tape.backward(loss)
            grads = {k: t.grad for k, t in tensors.items() if t.grad is not None}
            adam_step(sup, grads, cfg)
        history.append(epoch_loss / len(labeled))
    return sup, history


def predict_supervised(sup, g, features, paths):
    features = np.asarray(features, dtype=np.float64)
    y_mean, y_std = 0.0, 1.0
    if "head_scale" in sup.params:
        y_mean, y_std = (float(x) for x in sup.params["head_scale"].ravel())
    p = encode_batch(sup.encoder(),
                     [initial_view(g, features, path) for path in paths])
    raw = (p @ sup.params["head_w"])[:, 0] + sup.params["head_b"][0, 0]
    return raw * y_std + y_mean


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
