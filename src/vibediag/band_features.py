"""FFT magnitude spectra, torsional-peak identification and band-power features.

The two scalar features of a window are sums of FFT magnitude components in
bands around the first and second torsional resonances of the angular
acceleration spectrum. ``BandConfig`` sets the centers (240 and 820 Hz) and
can be re-derived from a shock recording with :func:`find_torsional_peaks`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.signal import find_peaks, peak_prominences

_N_PEAKS, _SMOOTH_BINS, _MIN_PROMINENCE_RATIO = 2, 5, 3.0  # of find_torsional_peaks


@dataclass
class Spectrum:
    """One-sided magnitude spectrum, DC retained."""

    magnitudes: np.ndarray
    sample_rate_hz: float
    n_fft: int

    @property
    def bin_width_hz(self) -> float:
        return self.sample_rate_hz / self.n_fft

    @property
    def freqs_hz(self) -> np.ndarray:
        return np.arange(self.magnitudes.size) * self.bin_width_hz


class Peak(NamedTuple):
    center_hz: float
    prominence: float


@dataclass
class FeaturePair:
    """Band power near the first (n1) and second (n2) torsional resonance."""

    n1: float
    n2: float

    def as_array(self) -> np.ndarray:
        return np.array([self.n1, self.n2])


@dataclass
class MinMaxScaler:
    """Per-feature min/max learned from the training split only."""

    minimum: np.ndarray
    maximum: np.ndarray

    def __post_init__(self) -> None:
        self.minimum = np.asarray(self.minimum, dtype=np.float64)
        self.maximum = np.asarray(self.maximum, dtype=np.float64)
        if np.any(self.maximum < self.minimum):
            raise ValueError("scaler maximum must be >= minimum")


def magnitude_spectrum(
    samples: np.ndarray,
    sample_rate_hz: float,
    taper: str = "rect",
) -> Spectrum:
    """One-sided |FFT| of ``samples``.

    The input is zero padded to the next power of two, keeping a radix-2
    transform (the 3897-sample default window becomes 4096 points, bin
    width about 7.6 Hz at the default rate).
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    if not np.isfinite(x).all():
        raise ValueError("samples contain non-finite values")
    if taper == "hann":
        x = x * np.hanning(x.size)
    elif taper != "rect":
        raise ValueError(f"unknown taper {taper!r}")
    n_fft = 1 << (x.size - 1).bit_length()  # the next power of two
    mags = np.abs(np.fft.rfft(x, n=n_fft))
    return Spectrum(magnitudes=mags, sample_rate_hz=float(sample_rate_hz), n_fft=n_fft)


def find_torsional_peaks(
    spectrum: Spectrum,
    search_lo_hz: float,
    search_hi_hz: float,
) -> list[Peak]:
    """The two most prominent local maxima of the smoothed spectrum.

    The magnitude spectrum is smoothed with a 5-bin moving average,
    restricted to the search band, and peaks whose prominence falls below
    3 times the band median are rejected. Results are sorted by ascending
    frequency. Raises ValueError when fewer than two prominent maxima exist.
    """
    freqs = spectrum.freqs_hz
    if search_lo_hz < 0 or search_hi_hz > freqs[-1] or search_lo_hz >= search_hi_hz:
        raise ValueError("search band must lie within the spectrum range")
    smoothed = np.convolve(spectrum.magnitudes, np.ones(_SMOOTH_BINS) / _SMOOTH_BINS, mode="same")
    band = (freqs >= search_lo_hz) & (freqs <= search_hi_hz)
    band_idx = np.flatnonzero(band)
    segment = smoothed[band_idx]
    peak_pos, _ = find_peaks(segment)
    if peak_pos.size == 0:
        raise ValueError(f"insufficient peaks: found 0 of {_N_PEAKS} in the search band")
    prominences = peak_prominences(segment, peak_pos)[0]
    floor = _MIN_PROMINENCE_RATIO * float(np.median(segment))
    keep = prominences >= floor if floor > 0 else prominences > 0
    peak_pos = peak_pos[keep]
    prominences = prominences[keep]
    if peak_pos.size < _N_PEAKS:
        raise ValueError(
            f"insufficient peaks: found {peak_pos.size} of {_N_PEAKS} above the prominence threshold"
        )
    top = np.argsort(prominences)[::-1][:_N_PEAKS]
    chosen = peak_pos[top]
    order = np.argsort(chosen)
    return [
        Peak(center_hz=float(freqs[band_idx[p]]), prominence=float(pr))
        for p, pr in zip(chosen[order], prominences[top][order])
    ]


def band_power(
    spectrum: Spectrum,
    center_hz: float,
    half_width_hz: float,
    squared: bool = False,
) -> float:
    """Sum of magnitude components with |bin frequency - center| <= half width.

    ``squared`` switches to summing squared magnitudes.
    """
    freqs = spectrum.freqs_hz
    mask = np.abs(freqs - center_hz) <= half_width_hz
    if not mask.any():
        raise ValueError(
            f"band {center_hz}±{half_width_hz} Hz does not intersect the spectrum bins"
        )
    mags = spectrum.magnitudes[mask]
    return float(np.sum(mags**2) if squared else np.sum(mags))


def extract_features(
    angular: np.ndarray,
    sample_rate_hz: float,
    centers_hz: Sequence[float],
    half_width_hz: float,
    squared: bool = False,
    taper: str = "rect",
) -> FeaturePair:
    """Band power of an angular-acceleration window at the two resonance centers."""
    if len(centers_hz) != 2:
        raise ValueError("exactly two peak centers are required")
    spectrum = magnitude_spectrum(angular, sample_rate_hz, taper=taper)
    return FeaturePair(
        n1=band_power(spectrum, centers_hz[0], half_width_hz, squared=squared),
        n2=band_power(spectrum, centers_hz[1], half_width_hz, squared=squared),
    )


def fit_scaler(values: np.ndarray) -> MinMaxScaler:
    """Learn per-feature min/max of ``(n, 2)`` values. Fit this on the training split only."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) < 2:
        raise ValueError("need at least 2 training pairs to fit the scaler")
    return MinMaxScaler(minimum=values.min(axis=0), maximum=values.max(axis=0))


def apply_scaler(scaler: MinMaxScaler, values: np.ndarray) -> np.ndarray:
    """Map ``(n, 2)`` values through (v - min) / (max - min), clamped to [0, 1].

    A degenerate feature (max == min) maps to 0.
    """
    span = scaler.maximum - scaler.minimum
    out = np.zeros(np.shape(values))
    np.divide(np.asarray(values, dtype=np.float64) - scaler.minimum, span, out=out, where=span > 0)
    return np.clip(out, 0.0, 1.0, out=out)
