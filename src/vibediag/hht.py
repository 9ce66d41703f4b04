"""Analytic signal, instantaneous frequency, and Hilbert-spectrum rasterization.

The analytic signal is built in the frequency domain with the one-sided
spectrum method: zero the negative-frequency coefficients, double the
positive ones, keep DC and (for even lengths) the Nyquist bin. Both
transforms run through ``scipy.fft``, the same pocketfft code as ``np.fft``
with the same bits (scipy 1.17, numpy 2.4), but with its plans cached: on a
2-CPU VM the pair took 0.79 ms on a (3, 3897) stack against numpy's
1.33 ms. The forward transform is handed the series as complex, since
scipy's real-input path gives other bits. ``scipy.fft`` is looked up on the
first call and kept in a module-level reference, so importing the CLI does
not load it (about 60 ms). The Hilbert spectrum of a window
accumulates each mode's instantaneous amplitude along its
instantaneous-frequency trajectory into a 32x32 time-frequency grid,
log-compressed by log(1 + v) and normalized per image to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vibediag.emd import MAX_IMFS, ImfSet

IMAGE_SIZE = 32
# scipy.fft once bound by _bind_fft.
_fft = None


@dataclass
class AnalyticSignal:
    """Complex extension of a real series: x + iy with y its Hilbert transform.

    ``frequency_hz`` is filled once a sampling interval is known (pass
    ``dt`` to :func:`analytic_signal` or call :func:`instantaneous_frequency`).
    """

    x: np.ndarray
    y: np.ndarray
    amplitude: np.ndarray
    phase: np.ndarray  # unwrapped, radians
    frequency_hz: np.ndarray | None = None


@dataclass
class SpectrumImage:
    """Normalized time-frequency raster for one window.

    ``pixels`` has shape (32, 32, C) with C in {1, 3}; axis 0 is the
    frequency bin (ascending), axis 1 the time bin. All values lie in [0, 1]
    and the maximum is 1 unless the underlying grid is all zero.
    """

    pixels: np.ndarray


def _bind_fft():
    global _fft
    import scipy.fft as _fft
    return _fft


def analytic_signal(series: np.ndarray, dt: float | None = None) -> AnalyticSignal:
    """Analytic signal via the one-sided spectrum method, along the last axis.

    A (k, n) stack gives k analytic signals from one forward and one inverse
    FFT, each row bitwise equal to its own one-dimensional call.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] < 4:
        raise ValueError("series must have length >= 4")
    if not np.isfinite(x).all():
        raise ValueError("series contains non-finite values")
    fft = _fft or _bind_fft()
    n = x.shape[-1]
    spectrum = fft.fft(x.astype(np.complex128))
    gain = np.zeros(n)
    if n % 2 == 0:
        gain[0] = 1.0
        gain[1 : n // 2] = 2.0
        gain[n // 2] = 1.0
    else:
        gain[0] = 1.0
        gain[1 : (n + 1) // 2] = 2.0
    z = fft.ifft(spectrum * gain)
    out = AnalyticSignal(x=x, y=z.imag, amplitude=np.abs(z), phase=np.unwrap(np.angle(z)))
    if dt is not None:
        out.frequency_hz = _phase_rate_hz(out.phase, dt)
    return out


def _phase_rate_hz(phase: np.ndarray, dt: float) -> np.ndarray:
    """Clamped central-difference frequency of an unwrapped phase, along the last axis."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    freq = np.empty_like(phase)
    freq[..., 1:-1] = (phase[..., 2:] - phase[..., :-2]) / (4.0 * np.pi * dt)
    freq[..., 0] = (phase[..., 1] - phase[..., 0]) / (2.0 * np.pi * dt)
    freq[..., -1] = (phase[..., -1] - phase[..., -2]) / (2.0 * np.pi * dt)
    return np.maximum(freq, 0.0)


def instantaneous_frequency(analytic: AnalyticSignal, dt: float) -> np.ndarray:
    """Instantaneous frequency in Hz from the unwrapped phase.

    Central differences at interior samples, one-sided at the ends;
    negative estimates are clamped to zero. The phase is unwrapped again
    here, so a hand-built signal with a wrapped phase is accepted too;
    :func:`analytic_signal` skips that second pass, its phase being
    unwrapped already.
    """
    return _phase_rate_hz(np.unwrap(analytic.phase), dt)


def colormap_table() -> np.ndarray:
    """The fixed 256x3 colormap: blue -> cyan -> yellow -> red.

    Piecewise linear per channel with breakpoints at 0, 1/3, 2/3 and 1.
    The copy checked into assets/colormap_256.csv is the golden reference.
    """
    v = np.linspace(0.0, 1.0, 256)
    breakpoints = np.array([0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0])
    anchors = np.array(
        [
            [0.0, 0.0, 1.0],  # blue
            [0.0, 1.0, 1.0],  # cyan
            [1.0, 1.0, 0.0],  # yellow
            [1.0, 0.0, 0.0],  # red
        ]
    )
    table = np.column_stack([np.interp(v, breakpoints, anchors[:, c]) for c in range(3)])
    return table


_COLORMAP = colormap_table()


def apply_colormap(gray: np.ndarray) -> np.ndarray:
    """Map a [0, 1] scalar raster through the fixed colormap, per pixel."""
    idx = np.round(np.clip(gray, 0.0, 1.0) * 255.0).astype(int)
    return _COLORMAP[idx]


def render_spectrum_image(
    imfs: ImfSet,
    dt: float,
    freq_max_hz: float | None = None,
    channels: int = 3,
) -> SpectrumImage:
    """Rasterize the Hilbert spectrum of the first three modes.

    For each mode, the instantaneous amplitude is accumulated into the cell
    addressed by (frequency bin, time bin); frequencies outside
    [0, freq_max_hz] are dropped. The grid is then mapped through log(1 + v)
    and divided by its maximum. An all-zero grid yields an
    all-zero image for any channel count.
    """
    if channels not in (1, 3):
        raise ValueError("channels must be 1 or 3")
    if len(imfs) < 1:
        raise ValueError("need at least one IMF")
    nyquist = 0.5 / dt
    if freq_max_hz is None:
        freq_max_hz = nyquist
    if freq_max_hz > nyquist * (1.0 + 1e-12):
        raise ValueError(f"freq_max_hz {freq_max_hz} exceeds the Nyquist frequency {nyquist}")

    modes = imfs.imfs[:MAX_IMFS]
    n = modes[0].size
    time_bins = (np.arange(n) * IMAGE_SIZE) // n
    df = freq_max_hz / IMAGE_SIZE
    z = analytic_signal(np.stack(modes), dt)
    keep = z.frequency_hz <= freq_max_hz
    fbin = np.minimum((z.frequency_hz[keep] / df).astype(int), IMAGE_SIZE - 1)
    cells = fbin * IMAGE_SIZE + np.broadcast_to(time_bins, keep.shape)[keep]
    # One bincount over the masked (modes, samples) stack adds each cell's
    # amplitudes in sample order, mode after mode, as a sequential
    # scatter-add would.
    grid = np.bincount(cells, weights=z.amplitude[keep],
                       minlength=IMAGE_SIZE * IMAGE_SIZE).reshape(IMAGE_SIZE, IMAGE_SIZE)

    grid = np.log1p(grid)
    peak = grid.max()
    if peak > 0:
        grid /= peak
        pixels = apply_colormap(grid) if channels == 3 else grid[:, :, None]
    else:
        pixels = np.zeros((IMAGE_SIZE, IMAGE_SIZE, channels))

    return SpectrumImage(pixels=pixels)


def write_image(pixels: np.ndarray, path) -> None:
    """Export (h, w, C) ``pixels`` as binary PPM (P6, C = 3) or PGM (P5, C = 1), maxval 255.

    Rows are written top-down with the highest frequency bin first so the
    rendered file reads like a spectrogram.
    """
    raster = np.round(255.0 * np.flipud(pixels)).astype(np.uint8)
    h, w, c = raster.shape
    magic = b"P6" if c == 3 else b"P5"
    with open(path, "wb") as fh:
        fh.write(magic + b"\n%d %d\n255\n" % (w, h))
        fh.write(raster.tobytes())
