"""Empirical mode decomposition by sifting with natural cubic-spline envelopes.

Each sifting pass subtracts the envelope mean m = (upper + lower) / 2 from
the current proto-mode, then tests the stopping rule of Rilling, Flandrin &
Goncalves 2003 ("On empirical mode decomposition and its algorithms") with
the envelope amplitude a = |upper - lower| / 2: sifting stops once
|m| > THETA1 a holds on at most ALPHA n samples and |m| > THETA2 a holds on
none, or after ``max_sift_iterations`` passes. Envelope end swings are
suppressed by mirroring the first and last ``BOUNDARY_PAD_EXTREMA`` extrema
about the series ends before splining. Extraction stops once the residual is monotone or has fewer
than three interior extrema.

Each pass finds the extrema in one :func:`find_extrema` call, which has two
paths. A series with no zero step, which is what sifting a noisy window
nearly always gives, places each extremum straight from the turns of the
step signs; a series with flat runs first drops its zero steps and places a
plateau's extremum at its midpoint. Both give the same indices where both
apply.

Each pass builds both envelopes in one :func:`spline_envelope` call: the two
mirrored knot sets share one set of band arrays, and each set's knot slopes
come from its own tridiagonal solve by LAPACK ``gtsv``, the routine behind
scipy's natural ``CubicSpline``, so a pass makes two ``gtsv`` calls. The
pieces are built and evaluated in scipy's operation order, so each envelope
is bitwise equal to ``CubicSpline(xs, ys, bc_type="natural")`` (scipy 1.17)
on its own knots, without its per-call validation and object set-up. The
pieces' knots and coefficients are the rows of one array, one ``np.repeat``
spreads them over the grid, and the polynomial is summed in place in the
spread rows.

``dgtsv`` is looked up from ``scipy.linalg.lapack`` on the first call and kept
in a module-level reference: importing ``scipy.linalg`` costs a command's
start about 170 ms, and only the sift and the conv call into it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

# Rilling's stopping rule: the envelope mean may exceed THETA1 times the
# envelope amplitude on at most a fraction ALPHA of the samples, and THETA2
# times it nowhere.
THETA1 = 0.05
THETA2 = 0.5
ALPHA = 0.05
# Extrema mirrored about each end of the series, per envelope.
BOUNDARY_PAD_EXTREMA = 2
# The Hilbert image draws at most this many modes, so no more are sifted.
MAX_IMFS = 3
# The fewest samples a series to sift may have.
MIN_SIFT_LEN = 8
# scipy.linalg.lapack.dgtsv once bound by _bind_dgtsv.
_dgtsv = None


@dataclass
class EmdConfig:
    max_imfs: int = field(default=3, metadata={"in": tuple(range(1, MAX_IMFS + 1))})
    max_sift_iterations: int = field(default=100, metadata={"min": 1})


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

    Returns ((max_idx, max_val), (min_idx, min_val)), the indices of dtype
    ``intp``. A plateau bounded by a rise and a fall contributes its (floor)
    midpoint index. A series with no zero step (no two equal neighbours)
    takes a fast path: every step then counts, and each extremum is the
    sample between the two steps that turn. Any other series drops its zero
    steps first; both paths give the same indices.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.size < 3:
        raise ValueError("series must have length >= 3")
    d = x[1:] - x[:-1]
    if np.count_nonzero(d) == d.size:
        rising = d > 0
        turn = np.flatnonzero(rising[:-1] != rising[1:])
        mids = turn + 1
    else:
        nz = np.flatnonzero(d)
        if nz.size < 2:
            empty = np.zeros(0, dtype=int), np.zeros(0)
            return empty, (np.zeros(0, dtype=int), np.zeros(0))
        rising = d[nz] > 0
        turn = np.flatnonzero(rising[:-1] != rising[1:])
        # A rise then a fall is a maximum; the extremum spans samples
        # nz[k]+1 .. nz[k+1]. (With no zero step, nz[k] = k, hence the
        # fast path's turn + 1.)
        mids = (nz[turn] + 1 + nz[turn + 1]) // 2
    # Maxima and minima alternate, so every other turn is a maximum.
    first_max = 0 if turn.size == 0 or rising[turn[0]] else 1
    max_idx = mids[first_max::2]
    min_idx = mids[1 - first_max::2]
    return (max_idx, x[max_idx]), (min_idx, x[min_idx])


def spline_knots(
    extrema: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    n: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Both mirror-extended knot sets used by :func:`spline_envelope`, in one array.

    ``extrema`` is :func:`find_extrema`'s ((max_idx, max_val), (min_idx,
    min_val)). Returns (xs, ys, a): knots [:a] are the maxima's and knots
    [a:] the minima's. On each side the first and last
    ``min(BOUNDARY_PAD_EXTREMA, len(idx))`` extrema are mirrored about sample
    0 and sample n-1, in (left mirror, extrema, right mirror) order. Since
    find_extrema's indices rise strictly within 1..n-2, each side's knots
    rise strictly.
    """
    xs, ys = [], []
    for idx, val in extrema:
        x = np.asarray(idx).astype(np.float64)
        y = np.asarray(val, dtype=np.float64)
        p = min(BOUNDARY_PAD_EXTREMA, x.size)  # with no extrema, every slice is empty
        xs += (-x[p - 1::-1], x, 2.0 * (n - 1) - x[:-p - 1:-1])
        ys += (y[p - 1::-1], y, y[:-p - 1:-1])
    a = sum(x.size for x in xs[:3])  # the maxima's knots
    return np.concatenate(xs), np.concatenate(ys), a


@lru_cache(maxsize=8)
def _sample_grid(n: int) -> np.ndarray:
    """The integer grid 0..n-1 twice over: one copy per envelope."""
    grid = np.tile(np.arange(n, dtype=np.float64), 2)
    grid.flags.writeable = False
    return grid


def _bind_dgtsv():
    global _dgtsv
    from scipy.linalg.lapack import dgtsv as _dgtsv
    return _dgtsv


def spline_envelope(
    extrema: tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]],
    n: int,
) -> np.ndarray:
    """Upper and lower natural cubic splines through the mirror-extended extrema.

    ``extrema`` is :func:`find_extrema`'s ((max_idx, max_val), (min_idx,
    min_val)); row 0 of the (2, n) result splines the maxima, row 1 the
    minima, each sampled on the integer grid 0..n-1. Points beyond the end
    knots extrapolate the end pieces. Each row is bitwise equal to
    ``scipy.interpolate.CubicSpline(xs, ys, bc_type="natural")(np.arange(n))``
    (scipy 1.17) on its own :func:`spline_knots`: each row's tridiagonal
    system is solved by the same LAPACK routine, and the pieces are built and
    evaluated in scipy's operation order. Raises ValueError("monotone
    component") when either knot set does not define an envelope (a
    non-finite value, fewer than two knots, or a singular or non-finite
    solve), the signal for the sift loop to terminate; non-finite values are
    rejected before any arithmetic, so no floating-point warning precedes the
    error.
    """
    for _, val in extrema:
        if np.count_nonzero(np.isfinite(val)) != len(val):  # half the cost of .all() per call
            raise ValueError("monotone component")
    # Block 0 holds the maxima's knots 0..a-1, block 1 the minima's knots
    # a..m-1; each block rises strictly, as find_extrema's indices do. Piece a-1
    # joins the blocks; it gets a unit width and no grid points, and no
    # system row reads it.
    xs, ys, a = spline_knots(extrema, n)
    m = xs.size
    if a < 2 or m - a < 2:
        raise ValueError("monotone component")
    blocks = ((0, a - 1), (a, m - 1))  # first and last knot of each block
    dx = xs[1:] - xs[:-1]
    dx[a - 1] = 1.0

    # Knot slopes s from CubicSpline's tridiagonal system, row i:
    # dx[i] s[i-1] + 2 (dx[i-1] + dx[i]) s[i] + dx[i-1] s[i+1] = b[i],
    # with the natural end rows 2 dx s[0] + dx s[1] = 3 (y[1] - y[0]).
    dy = ys[1:] - ys[:-1]
    slope = dy / dx
    diag = np.empty(m)
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    rhs = np.empty(m)
    rhs[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    upper = np.empty(m - 1)
    upper[1:] = dx[:-1]
    lower = np.empty(m - 1)
    lower[:-1] = dx[1:]
    for lo, hi in blocks:
        diag[lo] = 2 * dx[lo]
        diag[hi] = 2 * dx[hi - 1]
        rhs[lo] = 3 * dy[lo]
        # scipy adds the zero second derivative as 0.5 * 0 * dx**2, which
        # turns a -0.0 into +0.0.
        rhs[hi] = 3 * dy[hi - 1] + 0.0
        upper[lo] = dx[lo]
        lower[hi - 1] = dx[hi - 1]
    # One solve per block, each on contiguous slices that gtsv overwrites
    # in place, so rhs ends up holding both blocks' slopes. The entries
    # coupling row a-1 to row a lie outside every slice.
    gtsv = _dgtsv or _bind_dgtsv()
    for lo, hi in blocks:
        *_, info = gtsv(lower[lo:hi], diag[lo:hi + 1], upper[lo:hi], rhs[lo:hi + 1], 1, 1, 1, 1)
        if info != 0:
            raise ValueError("monotone component")
    s = rhs
    if not np.isfinite(s).all():
        raise ValueError("monotone component")

    # Each piece's left knot, then its coefficients as in CubicHermiteSpline
    # (const, lin, quad, cubic), one row each. scipy's evaluator starts its
    # sum from 0.0, hence the 0.0 + ys.
    t = (s[:-1] + s[1:] - 2 * slope) / dx
    coef = np.empty((5, m - 1))
    coef[0] = xs[:-1]
    coef[1] = 0.0 + ys[:-1]
    coef[2] = s[:-1]
    coef[3] = (slope - s[:-1]) / dx - t
    coef[4] = t / dx

    # Piece k covers xs[k] <= g < xs[k+1]; each block's end pieces
    # extrapolate. Grid point g lies right of the knots with ceil(xs) <= g,
    # so each piece spans a run of points given by differences of ceil(xs),
    # and each piece's knot and coefficients are spread over that run.
    first = np.ceil(xs)
    np.maximum(first, 0, out=first)  # np.clip costs twice as much per call
    np.minimum(first, n, out=first)
    first = first.astype(np.intp)
    counts = first[1:] - first[:-1]
    counts[a - 1] = 0
    for lo, hi in blocks:
        counts[lo] += first[lo]
        counts[hi - 1] += n - first[hi]
    # One repeat spreads all five rows; the sum then runs in place, z^2
    # taking the spent c2 row. PPoly's term order:
    # ((c3 + c2 z) + c1 z^2) + c0 (z^2 z).
    z, c3, c2, c1, c0 = np.repeat(coef, counts, axis=1)
    np.subtract(_sample_grid(n), z, out=z)
    c2 *= z
    c3 += c2
    np.multiply(z, z, out=c2)
    c1 *= c2
    c3 += c1
    c2 *= z
    c0 *= c2
    c3 += c0
    return c3.reshape(2, -1)


def sift(series: np.ndarray, config: EmdConfig | None = None) -> ImfSet:
    """Decompose ``series`` into up to ``config.max_imfs`` IMFs plus residual.

    The element-wise sum of the returned modes and residual reproduces the
    input to rounding error by construction.
    """
    config = config or EmdConfig()
    x = np.asarray(series, dtype=np.float64)
    if x.size < MIN_SIFT_LEN:
        raise ValueError(f"series must have length >= {MIN_SIFT_LEN}")
    if not np.isfinite(x).all():
        raise ValueError("series contains non-finite values")

    n = x.size
    residual = x.copy()
    imfs: list[np.ndarray] = []
    iterations: list[int] = []

    for _ in range(config.max_imfs):
        (max_idx, _), (min_idx, _) = find_extrema(residual)
        if max_idx.size + min_idx.size < 3:
            break
        h = residual.copy()
        passes = 0
        while passes < config.max_sift_iterations:
            extrema = find_extrema(h)
            (max_idx, _), (min_idx, _) = extrema
            if max_idx.size < 2 or min_idx.size < 2:
                break
            try:
                upper, lower = spline_envelope(extrema, n)
            except ValueError:
                break
            mean_env = 0.5 * (upper + lower)
            h -= mean_env
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
