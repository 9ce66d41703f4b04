"""Window-level featurization shared by the CLI and the experiment scripts.

With ``jobs > 1``, :func:`featurize_windows` imports the process pool only
then, and loads the scipy a window runs (``scipy.linalg.lapack`` for the
sift, ``scipy.fft`` for the analytic signal) before the pool forks, so every
worker shares the parent's copy instead of importing its own.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from vibediag.band_features import extract_features
from vibediag.config import RunConfig
from vibediag.emd import sift
from vibediag.hht import render_spectrum_image
from vibediag.hybrid_model import Example
from vibediag.segmentation import Window, segment
from vibediag.signal_model import Recording, load_recording, sidecar_path


def _featurize_window(task: tuple[Window, RunConfig]) -> Example:
    window, config = task
    modes = sift(window.linear, config.emd)
    hht, band = config.hht, config.band
    image = render_spectrum_image(modes, window.dt, hht.freq_max_hz, hht.channels)
    pair = extract_features(window.angular, 1.0 / window.dt, centers_hz=tuple(band.centers_hz),
                            half_width_hz=band.half_width_hz)
    return Example(key=window.key, image=image, features=pair, label=window.label,
                   sift_iterations=tuple(modes.iterations))


def featurize_windows(windows: Sequence[Window], config: RunConfig, jobs: int = 1) -> list[Example]:
    """Images plus raw band-power features for each window, input order kept."""
    tasks = [(w, config) for w in windows]
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        import scipy.fft  # noqa: F401
        import scipy.linalg.lapack  # noqa: F401

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(_featurize_window, tasks, chunksize=8))
    return [_featurize_window(task) for task in tasks]


def sift_counters(examples: Sequence[Example], max_sift_iterations: int) -> dict:
    """IMFs extracted, mean sifting passes per IMF and IMFs stopped by the cap."""
    passes = [n for e in examples for n in e.sift_iterations]
    return {
        "imfs": len(passes),
        "sift_iters_per_imf": sum(passes) / len(passes) if passes else 0.0,
        "imfs_at_sift_cap": sum(n >= max_sift_iterations for n in passes),
    }


def recording_windows(recordings: Sequence[Recording], config: RunConfig) -> list[Window]:
    seg = config.segmentation
    windows = [w for rec in recordings
               for w in segment(rec, seg.window_len, seg.hop, seg.linear_channel)]
    if not windows:
        raise ValueError("no windows produced; recordings shorter than one window?")
    return windows


def recording_paths(directory: str | Path) -> list[Path]:
    """The recording CSVs of ``directory``, sorted; FileNotFoundError if it has none."""
    directory = Path(directory)
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise FileNotFoundError(f"no recording CSV files in {directory}")
    return paths


def load_recordings_dir(directory: str | Path) -> list[Recording]:
    return [load_recording(p) for p in recording_paths(directory)]


def load_featurizable(path: Path, config: RunConfig) -> Recording:
    """The recording of ``path``; ValueError naming its sidecar if, at its rate, a window of ``config``'s length
    has no spectrum bin in a band, as the band features of one zero window find."""
    recording, window_len, band = load_recording(path), config.segmentation.window_len, config.band
    try:
        extract_features([0.0] * window_len, recording.sample_rate_hz, band.centers_hz, band.half_width_hz)
    except ValueError as exc:
        raise ValueError(f"{sidecar_path(path)}: sample_rate_hz {recording.sample_rate_hz} with windows of "
                         f"{window_len} samples: {exc}") from None
    return recording
