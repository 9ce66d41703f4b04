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

from dataclasses import dataclass

import numpy as np


@dataclass
class PcaModel:
    components: np.ndarray  # (k, d), orthonormal rows, descending variance
    explained_variance_ratio: np.ndarray
    cumulative_ratio: np.ndarray
    mean: np.ndarray


@dataclass
class TsneConfig:
    perplexity: float = 30.0
    iterations: int = 1000
    learning_rate: float = 200.0
    early_exaggeration: float = 12.0
    exaggeration_iters: int = 250
    momentum_start: float = 0.5
    momentum_final: float = 0.8
    momentum_switch_iter: int = 250
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("perplexity", "iterations", "learning_rate", "early_exaggeration"):
            if not getattr(self, name) > 0:
                raise ValueError(f"tsne {name} must be positive, got {getattr(self, name)}")
        for name in ("exaggeration_iters", "momentum_switch_iter"):
            if getattr(self, name) < 0:
                raise ValueError(f"tsne {name} must be >= 0, got {getattr(self, name)}")
        for name in ("momentum_start", "momentum_final"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValueError(f"tsne {name} must lie in [0, 1), got {getattr(self, name)}")


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
        with np.errstate(divide="ignore", invalid="ignore"):
            components = np.where(scale[:, None] > 0, (xc.T @ u).T / scale[:, None], 0.0)

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


def components_for_target(model: PcaModel, target) -> int:
    """Resolve a component count: an int is taken as-is, a float in (0, 1]
    picks the smallest k whose cumulative explained variance reaches it."""
    if isinstance(target, (int, np.integer)):
        k = int(target)
        if not 1 <= k <= model.components.shape[0]:
            raise ValueError(f"k must lie in 1..{model.components.shape[0]}")
        return k
    fraction = float(target)
    if not 0.0 < fraction <= 1.0:
        raise ValueError("variance fraction must lie in (0, 1]")
    reached = np.flatnonzero(model.cumulative_ratio >= fraction - 1e-12)
    if reached.size == 0:
        raise ValueError(
            f"variance target {fraction} unreachable; maximum is {model.cumulative_ratio[-1]:.6f}"
        )
    return int(reached[0]) + 1


def pca_reduce(model: PcaModel, data: np.ndarray, target) -> np.ndarray:
    """Project onto the first k components (k per :func:`components_for_target`)."""
    k = components_for_target(model, target)
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


def tsne(data: np.ndarray, config: TsneConfig | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Exact t-SNE to two dimensions.

    Returns (embedding (n, 2), kl (2,)): the KL divergence against the
    un-exaggerated affinities at iteration ``min(exaggeration_iters,
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

    rng = np.random.default_rng(config.seed)
    y = rng.normal(scale=1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    kl_at = np.array([min(config.exaggeration_iters, config.iterations - 1), config.iterations - 1])
    kl = np.zeros(2)
    off_diag = ~np.eye(n, dtype=bool)
    p_off = p[off_diag]
    p_exaggerated = p * config.early_exaggeration
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
        np.subtract(p_exaggerated if it < config.exaggeration_iters else p, q, out=w)
        w *= num
        row_sums = w.sum(axis=1)
        w_ii = w_diag.copy()
        np.subtract(0.0, w, out=w)
        np.subtract(row_sums, w_ii, out=w_diag)
        grad = 4.0 * (w @ y)

        momentum = config.momentum_start if it < config.momentum_switch_iter else config.momentum_final
        velocity = momentum * velocity - config.learning_rate * grad
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
