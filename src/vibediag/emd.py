"""Empirical mode decomposition by sifting with natural cubic-spline envelopes.

Each sifting pass subtracts the envelope mean m = (upper + lower) / 2 from
the current proto-mode, then tests the stopping rule of Rilling, Flandrin &
Goncalves 2003 ("On empirical mode decomposition and its algorithms") with
the envelope amplitude a = |upper - lower| / 2: sifting stops once
|m| > THETA1 a holds on at most ALPHA n samples and |m| > THETA2 a holds on
none, or after ``max_sift_iterations`` passes. Envelope end swings are
suppressed by mirroring the first and last few extrema about the series ends
before splining. Extraction stops once the residual is monotone or has fewer
than three interior extrema.

Each envelope's knot slopes come from one tridiagonal solve by LAPACK
``gtsv``, the routine behind scipy's natural ``CubicSpline``; the pieces are
built and evaluated in scipy's operation order, so envelopes are bitwise
equal to ``CubicSpline(xs, ys, bc_type="natural")`` (scipy 1.17) without
its per-call validation and object set-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.linalg.lapack import dgtsv

# Rilling's stopping rule: the envelope mean may exceed THETA1 times the
# envelope amplitude on at most a fraction ALPHA of the samples, and THETA2
# times it nowhere.
THETA1 = 0.05
THETA2 = 0.5
ALPHA = 0.05


@dataclass
class EmdConfig:
    max_imfs: int = 3
    max_sift_iterations: int = 100
    boundary_pad_extrema: int = 2

    def __post_init__(self) -> None:
        if self.max_imfs < 1:
            raise ValueError("max_imfs must be >= 1")
        if self.max_sift_iterations < 1:
            raise ValueError("max_sift_iterations must be >= 1")
        if self.boundary_pad_extrema < 0:
            raise ValueError("boundary_pad_extrema must be >= 0")


@dataclass
class ImfSet:
    """Ordered intrinsic mode functions plus the residual of one window.

    ``iterations[k]`` is the number of sifting passes that produced
    ``imfs[k]``.
    """

    imfs: list[np.ndarray] = field(default_factory=list)
    residual: np.ndarray = field(default_factory=lambda: np.zeros(0))
    iterations: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.imfs)

    def reconstruct(self) -> np.ndarray:
        out = self.residual.copy()
        for imf in self.imfs:
            out += imf
        return out


def find_extrema(series: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Interior extrema by three-point comparison.

    Returns ((max_idx, max_val), (min_idx, min_val)). A plateau bounded by a
    rise and a fall contributes its (floor) midpoint index.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.size < 3:
        raise ValueError("series must have length >= 3")
    slope = np.sign(np.diff(x))
    nz = np.flatnonzero(slope)
    if nz.size < 2:
        empty = np.zeros(0, dtype=int), np.zeros(0)
        return empty, (np.zeros(0, dtype=int), np.zeros(0))
    s = slope[nz]
    turn = np.flatnonzero(s[:-1] != s[1:])
    # A +/- turn is a maximum; the extremum spans samples nz[k]+1 .. nz[k+1].
    mids = (nz[turn] + 1 + nz[turn + 1]) // 2
    is_max = s[turn] > 0
    max_idx = mids[is_max]
    min_idx = mids[~is_max]
    return (max_idx, x[max_idx]), (min_idx, x[min_idx])


def zero_crossings(series: np.ndarray) -> int:
    """Count sign changes, ignoring exact zeros."""
    s = np.sign(series)
    s = s[s != 0]
    if s.size < 2:
        return 0
    return int(np.count_nonzero(s[:-1] != s[1:]))


def spline_knots(idx: np.ndarray, val: np.ndarray, n: int, pad: int = 2) -> tuple[np.ndarray, np.ndarray]:
    """Mirror-extended knot set used by :func:`spline_envelope`.

    The first and last ``min(pad, len(idx))`` extrema are mirrored about
    sample 0 and sample n-1; knots are sorted by position and, where two
    coincide, the first in (left mirror, extrema, right mirror) order is
    kept.
    """
    idx = np.asarray(idx)
    val = np.asarray(val, dtype=np.float64)
    xs = idx.astype(np.float64)
    if pad <= 0 or idx.size == 0:
        return xs, val
    p = min(pad, idx.size)
    all_x = np.concatenate((-xs[p - 1::-1], xs, 2.0 * (n - 1) - xs[:-p - 1:-1]))
    all_y = np.concatenate((val[p - 1::-1], val, val[:-p - 1:-1]))
    gaps = all_x[1:] - all_x[:-1]
    if (gaps < 0).any():
        order = np.argsort(all_x, kind="stable")
        all_x, all_y = all_x[order], all_y[order]
        gaps = all_x[1:] - all_x[:-1]
    if gaps.all():
        return all_x, all_y
    keep = np.concatenate(([True], gaps > 0))
    return all_x[keep], all_y[keep]


@lru_cache(maxsize=8)
def _sample_grid(n: int) -> np.ndarray:
    grid = np.arange(n, dtype=np.float64)
    grid.flags.writeable = False
    return grid


def spline_envelope(
    idx: np.ndarray,
    val: np.ndarray,
    n: int,
    pad: int = 2,
    grid: np.ndarray | None = None,
) -> np.ndarray:
    """Natural cubic spline through the mirror-extended extrema.

    Sampled on the integer grid 0..n-1 unless an explicit ``grid`` of
    (possibly fractional) positions is given; points beyond the end knots
    extrapolate the end pieces. The result is bitwise equal to
    ``scipy.interpolate.CubicSpline(xs, ys, bc_type="natural")(grid)``
    (scipy 1.17): the same tridiagonal system is solved by the same LAPACK
    routine, and the pieces are built and evaluated in scipy's operation
    order. Raises ValueError("monotone component") when the knots do not
    define an envelope (a non-finite value, fewer than two knots, knots not
    strictly increasing, or a singular or non-finite solve), the signal for
    the sift loop to terminate; non-finite values are rejected before any
    arithmetic, so no floating-point warning precedes the error.
    """
    if np.count_nonzero(np.isfinite(val)) != len(val):  # half the cost of .all() per call
        raise ValueError("monotone component")
    xs, ys = spline_knots(idx, val, n, pad)
    if xs.size < 2:
        raise ValueError("monotone component")
    dx = xs[1:] - xs[:-1]
    if not (dx > 0).all():
        raise ValueError("monotone component")
    default_grid = grid is None
    if default_grid:
        grid = _sample_grid(n)
    if xs.size == 2:
        # Degenerate knot set: straight line.
        slope = (ys[1] - ys[0]) / (xs[1] - xs[0])
        return ys[0] + slope * (grid - xs[0])

    # Knot slopes s from CubicSpline's tridiagonal system, row i:
    # dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = b[i],
    # with the natural end rows 2 dx s[0] + dx s[1] = 3 (y[1] - y[0]).
    dy = ys[1:] - ys[:-1]
    slope = dy / dx
    m = xs.size
    diag = np.empty(m)
    diag[0] = 2 * dx[0]
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    diag[-1] = 2 * dx[-1]
    rhs = np.empty(m)
    rhs[0] = 3 * dy[0]
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    # scipy adds the zero second derivative as 0.5 * 0 * dx**2, which turns
    # a -0.0 into +0.0.
    rhs[-1] = 3 * dy[-1] + 0.0
    upper = np.concatenate((dx[:1], dx[:-1]))
    lower = np.concatenate((dx[1:], dx[-1:]))
    *_, s, info = dgtsv(lower, diag, upper, rhs, 1, 1, 1, 1)
    if info != 0 or not np.isfinite(s).all():
        raise ValueError("monotone component")

    # Piece coefficients as in CubicHermiteSpline. scipy's evaluator starts
    # its sum from 0.0, hence the 0.0 + ys.
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    cubic = t / dx
    quad = (slope - s[:-1]) / dx - t
    lin = s[:-1]
    const = 0.0 + ys[:-1]

    # Piece k covers xs[k] <= g < xs[k+1]; the end pieces extrapolate.
    if default_grid:
        # Grid point g lies right of the knots with ceil(xs) <= g, so each
        # piece spans a run of points given by differences of ceil(xs).
        first = np.ceil(xs).astype(np.intp)
        np.clip(first, 0, n, out=first)
        counts = first[1:] - first[:-1]
        counts[0] += first[0]
        counts[-1] += n - first[-1]
        k = np.repeat(np.arange(m - 1), counts)
    else:
        grid = np.asarray(grid, dtype=np.float64)
        k = np.clip(np.searchsorted(xs, grid, side="right") - 1, 0, m - 2)
    # PPoly's term order: ((y + s z) + c1 z^2) + c0 (z^2 z).
    z = grid - xs[k]
    z2 = z * z
    out = const[k] + lin[k] * z
    out += quad[k] * z2
    z2 *= z
    out += cubic[k] * z2
    return out


def _interior_extrema_count(series: np.ndarray) -> tuple[int, int]:
    (max_idx, _), (min_idx, _) = find_extrema(series)
    return max_idx.size, min_idx.size


def sift(series: np.ndarray, config: EmdConfig | None = None) -> ImfSet:
    """Decompose ``series`` into up to ``config.max_imfs`` IMFs plus residual.

    The element-wise sum of the returned modes and residual reproduces the
    input to rounding error by construction.
    """
    config = config or EmdConfig()
    x = np.asarray(series, dtype=np.float64)
    if x.size < 8:
        raise ValueError("series must have length >= 8")
    if not np.isfinite(x).all():
        raise ValueError("series contains non-finite values")

    n = x.size
    pad = config.boundary_pad_extrema
    residual = x.copy()
    imfs: list[np.ndarray] = []
    iterations: list[int] = []

    for _ in range(config.max_imfs):
        n_max, n_min = _interior_extrema_count(residual)
        if n_max + n_min < 3:
            break
        h = residual.copy()
        passes = 0
        while passes < config.max_sift_iterations:
            (max_idx, max_val), (min_idx, min_val) = find_extrema(h)
            if max_idx.size < 2 or min_idx.size < 2:
                break
            try:
                upper = spline_envelope(max_idx, max_val, n, pad)
                lower = spline_envelope(min_idx, min_val, n, pad)
            except ValueError:
                break
            mean_env = 0.5 * (upper + lower)
            h = h - mean_env
            passes += 1
            # Rilling's rule as comparisons, so that samples where the
            # envelopes touch (a = 0) need no special case.
            abs_mean = np.abs(mean_env)
            amplitude = 0.5 * np.abs(upper - lower)
            if (np.count_nonzero(abs_mean > THETA1 * amplitude) <= ALPHA * n
                    and not (abs_mean > THETA2 * amplitude).any()):
                break
        imfs.append(h)
        iterations.append(passes)
        residual = residual - h

    return ImfSet(imfs=imfs, residual=residual, iterations=iterations)
