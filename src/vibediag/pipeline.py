"""Window-level featurization shared by the CLI and the experiment scripts."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Sequence

from vibediag.band_features import extract_features
from vibediag.config import RunConfig, config_to_dict
from vibediag.emd import sift
from vibediag.hht import render_spectrum_image
from vibediag.hybrid_model import Example, FeaturizedDataset, dataset_from_examples
from vibediag.segmentation import Window, segment
from vibediag.signal_model import Recording, load_recording


def _featurize_window(payload):
    (linear, angular, dt, start_index, recording_id, label,
     emd_cfg, hht_cfg, centers, half_width, squared, taper) = payload
    modes = sift(linear, emd_cfg)
    image = render_spectrum_image(
        modes, dt,
        freq_max_hz=hht_cfg.freq_max_hz,
        channels=hht_cfg.channels,
        log_compress=hht_cfg.log_compress,
        recording_id=recording_id,
        start_index=start_index,
        label=label,
    )
    pair = extract_features(angular, 1.0 / dt, centers_hz=centers,
                            half_width_hz=half_width, squared=squared, taper=taper)
    return image, pair, tuple(modes.iterations)


def featurize_windows(windows: Sequence[Window], config: RunConfig, jobs: int = 1) -> list[Example]:
    """Images plus raw band-power features for each window, input order kept."""
    payloads = [
        (
            w.linear, w.angular, w.dt, w.start_index, w.recording_id, w.label,
            config.emd, config.hht, tuple(config.band.centers_hz),
            config.band.half_width_hz, config.band.squared, config.band.taper,
        )
        for w in windows
    ]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_featurize_window, payloads, chunksize=8))
    else:
        results = [_featurize_window(p) for p in payloads]
    return [
        Example(image=image, features=pair, label=w.label,
                recording_id=w.recording_id, start_index=w.start_index,
                sift_iterations=iterations)
        for w, (image, pair, iterations) in zip(windows, results)
    ]


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


def featurize_recordings(recordings: Sequence[Recording], config: RunConfig,
                         jobs: int = 1, seed: int | None = None) -> FeaturizedDataset:
    examples = featurize_windows(recording_windows(recordings, config), config, jobs=jobs)
    return dataset_from_examples(examples, config_echo=config_to_dict(config), seed=seed)


def load_recordings_dir(directory: str | Path) -> list[Recording]:
    directory = Path(directory)
    paths = sorted(directory.glob("*.csv"))
    if not paths:
        raise FileNotFoundError(f"no recording CSV files in {directory}")
    return [load_recording(p) for p in paths]
