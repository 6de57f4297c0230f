"""Bilinear discriminators and the global/local/joint contrastive objectives.

Both objectives are BCE-style averages of log-scores, one per sample of a
batch.  Each scores all pairs of the batch at once: it gathers the rows
of the pairs, takes the row-wise bilinear score sigma(a W b^T), the
floored log, and the per-sample weighted sum.  The bilinear matrices
start at zero, which pins every score to sigma(0) = 0.5 and both
objectives to exactly -ln 2 at initialization; that identity anchors the
numeric tests.  SAFE_LOG_FLOOR guards saturated sigmoids: where it bites,
the log's gradient is zero, and ``counters["log_floor_clamps"]`` counts
those scores.
"""

import numpy as np

SAFE_LOG_FLOOR = 1e-12

LN2 = float(np.log(2.0))


def init_discriminators(d, d_out, seed):
    """Parameter arrays for both discriminators.

    W_pp and W_pn are zero so all initial scores are 0.5; the view
    projection L must be non-zero or no gradient would ever reach W_pp
    through the positive pair.
    """
    rng = np.random.default_rng(seed)
    a = np.sqrt(1.0 / d_out)
    return {
        "W_pp": np.zeros((d_out, d_out)),
        "L": rng.uniform(-a, a, size=(d, d_out)),
        "W_pn": np.zeros((d_out, d)),
    }


def _log_scores(left, right, positive, tape, counters):
    """Floored log of sigma(left_i . right_i) for each row, or of
    1 - sigma(...) when the pairs are negative."""
    s = tape.sigmoid(tape.row_dot(left, right))
    if not positive:
        s = tape.add_const(tape.scale(s, -1.0), 1.0)
    if counters is not None:
        counters["log_floor_clamps"] = (counters.get("log_floor_clamps", 0)
                                        + int(np.count_nonzero(s.value <= SAFE_LOG_FLOOR)))
    return tape.log(s, floor=SAFE_LOG_FLOOR)


def global_mi(tensors, reprs, inputs, views, negatives, tape, counters=None):
    """Path-path objective of each sample, as an S x 1 Tensor.

    ``reprs`` holds the batch's path representations, one per row.  Sample
    i scores its input p = reprs[inputs[i]] against the mean-pooled
    initial view ``views[i]`` projected by L (positive) and against the
    representations of its negatives, the rows ``negatives[i]``; its terms
    are weighted 1/(1 + #negatives).
    """
    counts = [len(rows) for rows in negatives]
    if 0 in counts:
        raise ValueError("need at least one negative representation")
    n = len(inputs)
    inputs = np.asarray(inputs, dtype=np.intp)
    owner = np.repeat(np.arange(n), counts)
    pooled = np.stack([np.mean(v, axis=0) for v in views])
    q = tape.matmul(reprs, tensors["W_pp"])
    pos = _log_scores(tape.gather_rows(q, inputs),
                      tape.matmul(tape.tensor(pooled), tensors["L"]), True,
                      tape, counters)
    neg = _log_scores(tape.gather_rows(q, inputs[owner]),
                      tape.gather_rows(reprs, np.concatenate(negatives)), False,
                      tape, counters)
    return tape.segment_mean(tape.concat_rows([pos, neg]),
                             np.concatenate([np.arange(n), owner]), n)


def local_mi(tensors, reprs, inputs, features, x_nodes, y_nodes, tape,
             counters=None):
    """Path-node objective of each sample, as an S x 1 Tensor.

    Sample i scores its input p = reprs[inputs[i]] against the feature
    rows of its input-only nodes ``x_nodes[i]`` (positive) and of its
    negatives-only nodes ``y_nodes[i]``, weighted 1/|X u Y|.
    """
    if 0 in [len(x) + len(y) for x, y in zip(x_nodes, y_nodes)]:
        raise ValueError("need at least one node in X or Y")
    n = len(inputs)
    inputs = np.asarray(inputs, dtype=np.intp)
    q = tape.matmul(reprs, tensors["W_pn"])
    terms, owners = [], []
    for nodes, positive in ((x_nodes, True), (y_nodes, False)):
        owner = np.repeat(np.arange(n), [len(ids) for ids in nodes])
        if len(owner):
            ids = np.concatenate([np.asarray(i, dtype=np.intp) for i in nodes])
            terms.append(_log_scores(tape.gather_rows(q, inputs[owner]),
                                     tape.tensor(features[ids]), positive,
                                     tape, counters))
            owners.append(owner)
    return tape.segment_mean(tape.concat_rows(terms), np.concatenate(owners), n)


def joint_objective(global_term, local_term, tape):
    """Unweighted sum of the two objectives over all samples, 1 x 1."""
    return tape.add(tape.sum(global_term), tape.sum(local_term))
