"""Slicing recordings into fixed-length overlapping windows.

``SegmentationConfig`` holds the acquisition protocol of the bundled data:
a window of 3897 samples (2.5 shaft revolutions at 20 Hz, 31.175 kHz)
advanced by 1559 samples (one revolution). Both channels are sliced with
identical start indices so the image and band-power features of one window
always describe the same time interval.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vibediag.signal_model import FaultLabel, Recording


@dataclass
class Window:
    recording_id: str
    label: FaultLabel
    start_index: int
    linear: np.ndarray
    angular: np.ndarray
    dt: float

    @property
    def key(self) -> str:
        """Provenance key used to track this window through the pipeline."""
        return f"{self.recording_id}:{self.start_index}"


def window_count(n_samples: int, window_len: int, hop: int) -> int:
    """Number of full windows of ``window_len`` advanced by ``hop``."""
    if window_len < 1 or hop < 1:
        raise ValueError("window_len and hop must be >= 1")
    if n_samples < window_len:
        return 0
    return (n_samples - window_len) // hop + 1


def segment(
    recording: Recording,
    window_len: int,
    hop: int,
    linear_channel: int = 0,
) -> list[Window]:
    """Slice ``recording`` into windows ordered by start index.

    Each window's channels are read-only views into the recording, so a
    window costs no copy of its samples. Trailing samples that do not fill
    a window are dropped. A recording shorter than one window yields an
    empty list.
    """
    if not 0 <= linear_channel < recording.linear.shape[0]:
        raise ValueError(
            f"linear_channel {linear_channel} out of range for {recording.linear.shape[0]} channel(s)"
        )
    lin = recording.linear[linear_channel]
    windows = []
    for k in range(window_count(recording.n_samples, window_len, hop)):
        start = k * hop
        linear, angular = lin[start : start + window_len], recording.angular[start : start + window_len]
        linear.flags.writeable = angular.flags.writeable = False
        windows.append(Window(recording_id=recording.id, label=recording.label, start_index=start,
                              linear=linear, angular=angular, dt=recording.dt))
    return windows
