"""PCA with explained-variance reporting and exact all-pairs t-SNE.

PCA follows the singular-value route: eigendecomposition of the feature
covariance when samples outnumber features, of the Gram matrix otherwise
(the dual form suits wide image matrices). t-SNE is the exact O(n^2)
algorithm: per-point Gaussian bandwidths found by bisection against the
perplexity entropy, symmetrized and floored affinities, Student-t
low-dimensional kernel, and momentum gradient descent with early
exaggeration. Each iteration reuses one set of n x n workspaces, and the
KL divergence is computed only at the two iterations the embed manifest
records (the end of exaggeration and the last iteration), not as a
per-iteration history. Practical cap: a few thousand points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class PcaModel:
    components: np.ndarray  # (k, d), orthonormal rows, descending variance
    explained_variance_ratio: np.ndarray
    cumulative_ratio: np.ndarray
    mean: np.ndarray


# The optimiser of van der Maaten & Hinton 2008 ("Visualizing Data using
# t-SNE"): step size, early exaggeration of P and its length, and momentum
# before and after its switch iteration.
LEARNING_RATE = 200.0
EARLY_EXAGGERATION = 12.0
EXAGGERATION_ITERS = 250
MOMENTUM_START = 0.5
MOMENTUM_FINAL = 0.8
MOMENTUM_SWITCH_ITER = 250


@dataclass
class TsneConfig:
    perplexity: float = field(default=30.0, metadata={"gt": 0})
    iterations: int = field(default=1000, metadata={"gt": 0})


def pca_fit(data: np.ndarray) -> PcaModel:
    """Fit on rows of ``data`` (n samples x d features).

    Components with negligible variance (below 1e-12 of the leading one)
    are dropped, so the cumulative curve ends at ~1 over the numerical
    rank. Zero-variance data yields a single axis with ratio 0.
    """
    x = np.asarray(data, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 2:
        raise ValueError("need a 2-D matrix with at least 2 rows")
    n, d = x.shape
    mean = x.mean(axis=0)
    xc = x - mean

    if n >= d:
        cov = (xc.T @ xc) / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order]
        components = eigvecs[:, order].T
    else:
        gram = (xc @ xc.T) / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(gram)
        order = np.argsort(eigvals)[::-1]
        eigvals = eigvals[order]
        u = eigvecs[:, order]
        scale = np.sqrt(np.maximum(eigvals, 0.0) * (n - 1))
        # In place, so the centred copy and this one are the only image-sized arrays.
        components = (xc.T @ u).T
        positive = scale > 0
        np.divide(components, scale[:, None], out=components, where=positive[:, None])
        components[~positive] = 0.0
    del xc  # before the keep-copy below

    eigvals = np.maximum(eigvals, 0.0)
    total = eigvals.sum()
    if total <= 0:
        axis = np.zeros((1, d))
        axis[0, 0] = 1.0
        return PcaModel(components=axis, explained_variance_ratio=np.zeros(1),
                        cumulative_ratio=np.zeros(1), mean=mean)

    keep = eigvals > eigvals[0] * 1e-12
    eigvals = eigvals[keep]
    components = components[keep]
    # Deterministic sign: largest-magnitude entry of each component positive.
    flips = np.sign(components[np.arange(components.shape[0]), np.abs(components).argmax(axis=1)])
    components *= flips[:, None]
    ratios = eigvals / total
    return PcaModel(components=components, explained_variance_ratio=ratios,
                    cumulative_ratio=np.cumsum(ratios), mean=mean)


def components_for_target(model: PcaModel, fraction: float) -> int:
    """The smallest k whose cumulative explained variance reaches ``fraction``
    in (0, 1]; a fraction the data cannot reach keeps every component."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("variance fraction must lie in (0, 1]")
    if fraction >= model.cumulative_ratio[-1]:
        return model.components.shape[0]
    return int(np.flatnonzero(model.cumulative_ratio >= fraction - 1e-12)[0]) + 1


def pca_reduce(model: PcaModel, data: np.ndarray, fraction: float) -> np.ndarray:
    """Project onto the first k components (k per :func:`components_for_target`)."""
    k = components_for_target(model, fraction)
    return (np.asarray(data, dtype=np.float64) - model.mean) @ model.components[:k].T


def _conditional_affinities(sq_dists: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-stochastic P with per-row bandwidth found by bisection: at most 50
    steps, stopping once the row entropy is within 1e-5 of log(perplexity).

    Rows are bisected one at a time: a masked 2-D sum over all rows would
    add in another order once ``exp`` underflows, so it is not bitwise.
    """
    n = sq_dists.shape[0]
    target_entropy = np.log(perplexity)
    p = np.zeros_like(sq_dists)
    off_diag = ~np.eye(n, dtype=bool)
    for i in range(n):
        d = sq_dists[i, off_diag[i]]
        beta, lo, hi = 1.0, 0.0, np.inf
        for _ in range(50):
            row = np.exp(-d * beta)
            total = row.sum()
            if total <= 0:
                entropy = 0.0
                row = np.full_like(d, 1.0 / d.size)
            else:
                row /= total
                positive = row[row > 0]
                entropy = float(-np.sum(positive * np.log(positive)))
            if abs(entropy - target_entropy) < 1e-5:
                break
            if entropy > target_entropy:  # too diffuse: sharpen
                lo = beta
                beta = beta * 2.0 if hi == np.inf else 0.5 * (beta + hi)
            else:
                hi = beta
                beta = 0.5 * (beta + lo)
        p[i, off_diag[i]] = row
    return p


def tsne(data: np.ndarray, config: TsneConfig | None = None,
         seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Exact t-SNE to two dimensions from a start drawn by ``seed``.

    Returns (embedding (n, 2), kl (2,)): the KL divergence against the
    un-exaggerated affinities at iteration ``min(EXAGGERATION_ITERS,
    iterations - 1)`` and at the last iteration, each taken before that
    iteration's update. No other iteration computes it. The embedding is
    re-centered every iteration and the affinity floor keeps duplicated
    points finite.
    """
    config = config or TsneConfig()
    x = np.asarray(data, dtype=np.float64)
    n = x.shape[0]
    if n < 3 * config.perplexity + 1:
        raise ValueError(
            f"perplexity {config.perplexity} infeasible for n={n}; need n >= 3*perplexity + 1"
        )

    sq = np.sum(x * x, axis=1)
    sq_dists = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    cond = _conditional_affinities(sq_dists, config.perplexity)
    p = (cond + cond.T) / (2.0 * n)
    p = np.maximum(p, 1e-12)

    rng = np.random.default_rng(seed)
    y = rng.normal(scale=1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    kl_at = np.array([min(EXAGGERATION_ITERS, config.iterations - 1), config.iterations - 1])
    kl = np.zeros(2)
    off_diag = ~np.eye(n, dtype=bool)
    p_off = p[off_diag]
    p_exaggerated = p * EARLY_EXAGGERATION
    # One set of n x n workspaces, written in the order of the textbook
    # expressions, so every element rounds as it would in fresh arrays.
    num, q, w = np.empty((n, n)), np.empty((n, n)), np.empty((n, n))
    w_diag = w.reshape(-1)[:: n + 1]

    for it in range(config.iterations):
        # num = 1 / (1 + max(|y_i|^2 + |y_j|^2 - 2 y_i.y_j, 0)), zero diagonal
        ysq = np.sum(y * y, axis=1)
        np.matmul(y, y.T, out=num)
        num *= 2.0
        np.add(ysq[:, None], ysq[None, :], out=q)
        np.subtract(q, num, out=num)
        np.maximum(num, 0.0, out=num)
        num += 1.0
        np.divide(1.0, num, out=num)
        np.fill_diagonal(num, 0.0)
        np.divide(num, num.sum(), out=q)
        np.maximum(q, 1e-12, out=q)

        if it in kl_at:  # both slots when the two iterations coincide
            kl[kl_at == it] = np.sum(p_off * np.log(p_off / q[off_diag]))

        # w = (p_eff - q) * num; the gradient is 4 (diag(rowsum w) - w) @ y.
        # 0.0 - w keeps the +0.0 that np.negative would turn into -0.0.
        np.subtract(p_exaggerated if it < EXAGGERATION_ITERS else p, q, out=w)
        w *= num
        row_sums = w.sum(axis=1)
        w_ii = w_diag.copy()
        np.subtract(0.0, w, out=w)
        np.subtract(row_sums, w_ii, out=w_diag)
        grad = 4.0 * (w @ y)

        momentum = MOMENTUM_START if it < MOMENTUM_SWITCH_ITER else MOMENTUM_FINAL
        velocity = momentum * velocity - LEARNING_RATE * grad
        y = y + velocity
        y = y - y.mean(axis=0)
        if not np.isfinite(y).all():
            raise RuntimeError(f"t-SNE diverged at iteration {it + 1}")

    return y, kl


def subsample_indices(n: int, cap: int, seed: int) -> np.ndarray:
    """Seeded uniform subsample used when the exact algorithm would be too big."""
    if n <= cap:
        return np.arange(n)
    return np.sort(np.random.default_rng(seed).choice(n, size=cap, replace=False))
