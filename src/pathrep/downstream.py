"""Regression on frozen path representations and the evaluation metrics.

Ridge is the fast deterministic default; the Gaussian-process regressor
mirrors the evaluation protocol at small scale (exact Cholesky solve, no
hyperparameter optimization).
"""

from dataclasses import dataclass

import numpy as np


class SingularSystem(Exception):
    pass


@dataclass
class RidgeRegressor:
    weights: np.ndarray
    intercept: float

    def predict(self, x):
        return np.asarray(x, dtype=np.float64) @ self.weights + self.intercept


@dataclass
class GPRegressor:
    gamma: float
    noise: float
    train_x: np.ndarray
    alpha: np.ndarray          # (K + noise*I)^-1 y, precomputed at fit

    def predict(self, x):
        x = np.asarray(x, dtype=np.float64)
        d2 = ((x[:, None, :] - self.train_x[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-self.gamma * d2) @ self.alpha


def fit_ridge(x, y, lam=1e-6):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need matching X, y with at least 2 rows")
    xm = x.mean(axis=0)
    ym = y.mean()
    xc = x - xm
    a = xc.T @ xc + lam * np.eye(x.shape[1])
    if lam == 0 and np.linalg.matrix_rank(a) < x.shape[1]:
        raise SingularSystem("collinear design matrix with lambda = 0")
    w = np.linalg.solve(a, xc.T @ (y - ym))
    return RidgeRegressor(weights=w, intercept=float(ym - xm @ w))


def median_heuristic_gamma(x):
    x = np.asarray(x, dtype=np.float64)
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    med = np.median(d2[np.triu_indices(len(x), k=1)])
    return 1.0 / med if med > 0 else 1.0


def fit_gp(x, y, gamma=None, noise=None):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("need matching X, y with at least 2 rows")
    if gamma is None:
        gamma = median_heuristic_gamma(x)
    if noise is None:
        noise = max(0.01 * float(np.var(y)), 1e-10)
    d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    kernel = np.exp(-gamma * d2) + noise * np.eye(len(x))
    try:
        chol = np.linalg.cholesky(kernel)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"kernel matrix not positive definite: {exc}") from exc
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, y))
    return GPRegressor(gamma=gamma, noise=noise, train_x=x.copy(), alpha=alpha)


def fit(kind, x, y, **hyper):
    if kind == "ridge":
        return fit_ridge(x, y, **hyper)
    if kind == "gp":
        return fit_gp(x, y, **hyper)
    raise ValueError(f"unknown regressor kind {kind!r}")


@dataclass
class MetricsReport:
    mae: float
    mare: float
    mape: float
    mape_excluded: int = 0
    tau: float = float("nan")
    rho: float = float("nan")
    skipped_groups: int = 0


def metrics(pred, truth):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ValueError("prediction/truth length mismatch")
    err = np.abs(pred - truth)
    mae = float(err.mean())
    mare = float(err.sum() / np.abs(truth).sum()) if np.abs(truth).sum() else float("inf")
    nz = truth != 0
    excluded = int((~nz).sum())
    mape = float(100.0 * (err[nz] / np.abs(truth[nz])).mean()) if nz.any() else float("nan")
    return MetricsReport(mae=mae, mare=mare, mape=mape, mape_excluded=excluded)


def rank_metrics(pred, truth, groups):
    """Tie-adjusted Kendall tau-b and Spearman rho per group, averaged.

    Groups of size 1 are skipped and counted.
    """
    from scipy import stats     # slow to import; no other function needs it

    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    groups = np.asarray(groups)
    taus, rhos = [], []
    skipped = 0
    for gid in np.unique(groups):
        mask = groups == gid
        if mask.sum() < 2:
            skipped += 1
            continue
        p, t = pred[mask], truth[mask]
        tau = stats.kendalltau(p, t).statistic
        if np.std(p) == 0 or np.std(t) == 0:
            rho = float("nan")
        else:
            rho = stats.spearmanr(p, t).statistic
        taus.append(tau)
        rhos.append(rho)
    if not taus:
        raise ValueError("no group with >= 2 paths")
    err = metrics(pred, truth)
    return MetricsReport(mae=err.mae, mare=err.mare, mape=err.mape,
                         mape_excluded=err.mape_excluded,
                         tau=float(np.nanmean(taus)), rho=float(np.nanmean(rhos)),
                         skipped_groups=skipped)


def split_indices(n, seed, train=0.85, val=0.10):
    """Seeded 85/10/5 train/validation/test shuffle split."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    n_train = int(round(train * n))
    n_val = int(round(val * n))
    return (order[:n_train], order[n_train:n_train + n_val],
            order[n_train + n_val:])


def split_indices_grouped(groups, seed, train=0.85, val=0.10):
    """Seeded 85/10/5 split that keeps every group intact in one partition."""
    groups = np.asarray(groups)
    rng = np.random.default_rng(seed)
    uniq = list(rng.permutation(np.unique(groups)))
    n = len(groups)
    by_gid = {gid: np.flatnonzero(groups == gid) for gid in uniq}
    parts = ([], [], [])
    # Fill test then val from the tail so each holds at least one group.
    for slot, quota in ((2, n * (1.0 - train - val)), (1, n * val)):
        size = 0
        while uniq and (size < quota or not parts[slot]):
            gid = uniq.pop()
            parts[slot].append(by_gid[gid])
            size += len(by_gid[gid])
    parts[0].extend(by_gid[gid] for gid in uniq)
    return tuple(np.concatenate(p) if p else np.empty(0, dtype=np.intp)
                 for p in parts)


def mean_feature_baseline(g, features, paths):
    """Mean of a path's node feature vectors (the aggregation baseline)."""
    features = np.asarray(features, dtype=np.float64)
    return np.stack([features[list(p.nodes)].mean(axis=0) for p in paths])
