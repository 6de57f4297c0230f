"""Per-sample reference formulation of the training objective.

The path encoder and both InfoMax objectives built from tape primitives,
one path, one sample and one scored pair at a time.  The batched kernels
of ``pathrep.encoder``, ``pathrep.infomax`` and ``pathrep.training`` must
reproduce its values and gradients; the tests compare against it.
"""

import numpy as np

from pathrep.graph import initial_view
from pathrep.infomax import SAFE_LOG_FLOOR
from pathrep.sampling import EmptyPartition, curriculum_schedule, node_partition


def encode_primitive(tensors, iv, tape):
    """1 x D' representation of one Z x D view, one GRU step at a time."""
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


def _log_score(tensors, key, p, other, positive, tape):
    """Floored log of sigma(p W other^T), or of 1 - sigma(...) if negative."""
    s = tape.sigmoid(tape.matmul(tape.matmul(p, tensors[key]),
                                 tape.transpose(other)))
    if not positive:
        s = tape.add_const(tape.scale(s, -1.0), 1.0)
    return tape.log(s, floor=SAFE_LOG_FLOOR)


def global_mi(tensors, p, iv, neg_reprs, tape):
    """One sample's path-path objective, 1 x 1."""
    view = tape.matmul(tape.mean_rows(tape.tensor(iv)), tensors["L"])
    total = _log_score(tensors, "W_pp", p, view, True, tape)
    for pbar in neg_reprs:
        total = tape.add(total, _log_score(tensors, "W_pp", p, pbar, False, tape))
    return tape.scale(total, 1.0 / (1 + len(neg_reprs)))


def local_mi(tensors, p, x_feats, y_feats, tape):
    """One sample's path-node objective over 1 x D feature rows, 1 x 1."""
    terms = [_log_score(tensors, "W_pn", p, tape.tensor(v), True, tape)
             for v in x_feats]
    terms += [_log_score(tensors, "W_pn", p, tape.tensor(v), False, tape)
              for v in y_feats]
    total = terms[0]
    for term in terms[1:]:
        total = tape.add(total, term)
    return tape.scale(total, 1.0 / len(terms))


def sample_objective(tensors, g, features, sample, stage, cfg, tape):
    """(global, local) objective tensors of one sample; either may be None."""
    path, ns = sample
    iv = initial_view(g, features, path)
    p = encode_primitive(tensors, iv, tape)
    active = curriculum_schedule(stage, ns, staged=(cfg.curriculum == "staged"))
    glob = local = None
    if cfg.mode in ("joint", "global"):
        neg_reprs = [encode_primitive(tensors, initial_view(g, features, nb), tape)
                     for nb in active]
        glob = global_mi(tensors, p, iv, neg_reprs, tape)
    if cfg.mode in ("joint", "local"):
        try:
            x_nodes, y_nodes = node_partition(path, active)
        except EmptyPartition:
            return glob, None
        local = local_mi(tensors, p, [features[n:n + 1] for n in sorted(x_nodes)],
                         [features[n:n + 1] for n in sorted(y_nodes)], tape)
    return glob, local


def batch_objective(tensors, g, features, batch, stage, cfg, tape):
    """(total, global values, local values) of a batch, sample by sample,
    in the form ``pathrep.training.batch_objective`` returns."""
    features = np.asarray(features, dtype=np.float64)
    total = None
    glob_values, local_values = [], []
    for sample in batch:
        for term, values in zip(
                sample_objective(tensors, g, features, sample, stage, cfg, tape),
                (glob_values, local_values)):
            if term is not None:
                values.append(term.item())
                total = term if total is None else tape.add(total, term)
    return total, glob_values, local_values
