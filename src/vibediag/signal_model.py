"""Recordings, fault labels, recording file I/O and the synthetic test rig."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path

import numpy as np


class FaultLabel(IntEnum):
    """Bearing condition, encoded as the class index used everywhere downstream."""

    NORMAL = 0
    INNER_RACE = 1
    OUTER_RACE = 2
    BALL = 3
    COMBINED = 4

    @property
    def canonical_name(self) -> str:
        return _LABEL_NAMES[self]

    @classmethod
    def from_name(cls, name: str) -> "FaultLabel":
        key = name.strip().lower().replace("_", "").replace(" ", "")
        for label, canonical in _LABEL_NAMES.items():
            if canonical.lower() == key:
                return label
        raise ValueError(f"unknown fault label {name!r}; expected one of {list(_LABEL_NAMES.values())}")


_LABEL_NAMES = {
    FaultLabel.NORMAL: "Normal",
    FaultLabel.INNER_RACE: "InnerRace",
    FaultLabel.OUTER_RACE: "OuterRace",
    FaultLabel.BALL: "Ball",
    FaultLabel.COMBINED: "Combined",
}

N_CLASSES = len(FaultLabel)


@dataclass
class Recording:
    """One acquisition: co-registered linear and angular acceleration channels.

    ``linear`` has shape (n_channels, n_samples) with 1 or 2 channels;
    ``angular`` has shape (n_samples,). Units are arbitrary but consistent.
    """

    sample_rate_hz: float
    rpm: float
    label: FaultLabel
    linear: np.ndarray
    angular: np.ndarray
    id: str

    def __post_init__(self) -> None:
        self.linear = np.atleast_2d(np.asarray(self.linear, dtype=np.float64))
        self.angular = np.asarray(self.angular, dtype=np.float64)
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        if self.rpm <= 0:
            raise ValueError("rpm must be positive")
        if self.linear.shape[0] not in (1, 2):
            raise ValueError("linear must carry one or two channels")
        if self.angular.ndim != 1:
            raise ValueError("angular must be a single channel")
        n = self.angular.shape[0]
        if n < 2 or self.linear.shape[1] != n:
            raise ValueError("all channels must have equal length >= 2")
        if not (np.isfinite(self.linear).all() and np.isfinite(self.angular).all()):
            raise ValueError("recording contains non-finite samples")

    @property
    def n_samples(self) -> int:
        return self.angular.shape[0]

    @property
    def dt(self) -> float:
        return 1.0 / self.sample_rate_hz

    @property
    def shaft_hz(self) -> float:
        return self.rpm / 60.0


@dataclass
class SyntheticSpec:
    """Knobs for the synthetic rig.

    The defect model is an impulse train at one or more characteristic
    rates, each impulse exciting decaying resonances on the linear channel,
    while the angular channel carries resonance tones whose band power
    depends on the fault class. Rates and frequencies are generator knobs,
    not claims about any particular bearing geometry.
    """

    label: FaultLabel
    duration_s: float = 2.0
    shaft_hz: float = 20.0
    sample_rate_hz: float = 31175.0
    resonance_hz: tuple[float, ...] = (240.0, 820.0)
    fault_rate_hz: tuple[float, ...] = ()
    impulse_amplitude: float = 1.0
    modulation_depth: float = 0.0
    noise_sigma: float = 0.1
    resonance_decay_s: float = 0.004

    def __post_init__(self) -> None:
        if isinstance(self.fault_rate_hz, (int, float)):
            self.fault_rate_hz = (float(self.fault_rate_hz),)
        else:
            self.fault_rate_hz = tuple(float(r) for r in self.fault_rate_hz)
        self.resonance_hz = tuple(float(f) for f in self.resonance_hz)
        if self.duration_s <= 0:
            raise ValueError("duration_s must be positive")
        if self.sample_rate_hz <= 0:
            raise ValueError("sample_rate_hz must be positive")
        nyquist = self.sample_rate_hz / 2.0
        for rate in (self.shaft_hz, *self.fault_rate_hz, *self.resonance_hz):
            if rate >= nyquist:
                raise ValueError(f"rate {rate} Hz is at or above the Nyquist frequency {nyquist} Hz")


# Per-class (first, second) resonance tone weights for the angular channel.
# Distinct signatures keep the five presets separable through the band-power
# features alone; Normal carries no resonance tones at all.
ANGULAR_TONE_WEIGHTS = {
    FaultLabel.NORMAL: (0.0, 0.0),
    FaultLabel.INNER_RACE: (1.0, 0.35),
    FaultLabel.OUTER_RACE: (0.35, 1.0),
    FaultLabel.BALL: (0.75, 0.75),
    FaultLabel.COMBINED: (1.4, 1.4),
}

# Characteristic impulse rates per preset (Hz at the default 20 Hz shaft).
PRESET_FAULT_RATES = {
    FaultLabel.NORMAL: (),
    FaultLabel.INNER_RACE: (99.0,),
    FaultLabel.OUTER_RACE: (87.0,),
    FaultLabel.BALL: (59.0,),
    FaultLabel.COMBINED: (59.0, 87.0, 99.0),
}

_SHAFT_HARMONIC_AMPLITUDE = 0.25

# With impulse_amplitude=1.0, envelope band energies at the characteristic
# rates stay pairwise distinguishable up to about this noise level (checked
# by the class-separation test).
CLASS_SEPARATION_NOISE_SIGMA = 0.5


def preset_spec(
    label: FaultLabel,
    duration_s: float = 2.0,
    sample_rate_hz: float = 31175.0,
    shaft_hz: float = 20.0,
    noise_sigma: float = 0.1,
    impulse_amplitude: float = 1.0,
) -> SyntheticSpec:
    """Default synthetic spec for one fault class."""
    return SyntheticSpec(
        label=label,
        duration_s=duration_s,
        shaft_hz=shaft_hz,
        sample_rate_hz=sample_rate_hz,
        fault_rate_hz=PRESET_FAULT_RATES[label],
        impulse_amplitude=impulse_amplitude,
        modulation_depth=0.8 if label is FaultLabel.INNER_RACE else 0.0,
        noise_sigma=noise_sigma,
    )


def _ring_kernel(spec: SyntheticSpec) -> np.ndarray:
    """Decaying multi-resonance ring-down excited by a single unit impulse."""
    fs = spec.sample_rate_hz
    length = max(int(round(5.0 * spec.resonance_decay_s * fs)), 8)
    t = np.arange(length) / fs
    kernel = np.zeros(length)
    for f in spec.resonance_hz:
        kernel += np.exp(-t / spec.resonance_decay_s) * np.sin(2.0 * np.pi * f * t)
    peak = np.max(np.abs(kernel))
    if peak > 0:
        kernel /= peak
    return kernel


def synthesize_recording(spec: SyntheticSpec, seed: int, id: str | None = None) -> Recording:
    """Generate a deterministic synthetic recording for ``spec``.

    The linear channel is an impulse train at each characteristic rate
    convolved with the ring-down kernel (amplitude modulated at shaft rate
    when ``modulation_depth`` > 0), plus a shaft harmonic and white noise.
    The angular channel carries the class-weighted resonance tones, the
    shaft harmonic and independent noise.
    """
    rng = np.random.default_rng(seed)
    fs = spec.sample_rate_hz
    n = int(round(spec.duration_s * fs))
    t = np.arange(n) / fs

    fault = np.zeros(n)
    if spec.fault_rate_hz and spec.impulse_amplitude != 0.0:
        kernel = _ring_kernel(spec)
        for rate in spec.fault_rate_hz:
            hits = np.arange(0.0, spec.duration_s, 1.0 / rate)
            idx = np.round(hits * fs).astype(int)
            idx = idx[idx < n]
            train = np.zeros(n)
            train[idx] = spec.impulse_amplitude
            fault += np.convolve(train, kernel)[:n]
        if spec.modulation_depth > 0.0:
            fault *= 1.0 + spec.modulation_depth * np.cos(2.0 * np.pi * spec.shaft_hz * t)

    shaft = _SHAFT_HARMONIC_AMPLITUDE * np.sin(2.0 * np.pi * spec.shaft_hz * t)
    linear = fault + shaft + rng.normal(0.0, spec.noise_sigma, n)

    w1, w2 = ANGULAR_TONE_WEIGHTS[spec.label]
    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(spec.resonance_hz))
    angular = shaft.copy()
    for weight, f, phase in zip((w1, w2), spec.resonance_hz, phases):
        angular += weight * spec.impulse_amplitude * np.sin(2.0 * np.pi * f * t + phase)
    angular += rng.normal(0.0, spec.noise_sigma, n)

    rec_id = id if id is not None else f"syn-{spec.label.canonical_name.lower()}-seed{seed}"
    return Recording(
        sample_rate_hz=fs,
        rpm=spec.shaft_hz * 60.0,
        label=spec.label,
        linear=linear[None, :],
        angular=angular,
        id=rec_id,
    )


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix("").with_suffix(".meta.json") if csv_path.suffix else csv_path.with_suffix(".meta.json")


def save_recording(recording: Recording, path: str | Path) -> None:
    """Write ``<path>`` as CSV plus the ``<name>.meta.json`` sidecar.

    Samples are written with full repr so a load round-trips bitwise.
    """
    path = Path(path)
    header = ["index", "linear_x", "linear_y"][: 1 + len(recording.linear)] + ["angular"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(zip(range(recording.n_samples), *recording.linear.tolist(), recording.angular.tolist()))
    meta = {
        "sample_rate_hz": recording.sample_rate_hz,
        "rpm": recording.rpm,
        "label": recording.label.canonical_name,
        "id": recording.id,
    }
    _sidecar_path(path).write_text(json.dumps(meta, indent=2) + "\n")


def _first_bad_row(path: Path, width: int) -> str:
    """Why ``load_recording`` rejects ``path``, naming its first bad 1-based data row."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_no, row in enumerate(reader, start=1):
            if len(row) != width:
                return f"ragged row {row_no}: expected {width} fields, got {len(row)}"
            try:
                values = [float(v) for v in row]
            except ValueError:
                return f"non-numeric value in row {row_no}"
            if not np.isfinite(values[1:]).all():
                return f"non-finite value in row {row_no}"
    return f"{path}: no data rows, or a row that numpy cannot read as numbers"


def load_recording(path: str | Path) -> Recording:
    """Load a recording CSV, parsed by one ``np.loadtxt`` call that skips blank lines, and its
    metadata sidecar. Raises ValueError naming the first offending 1-based data row for ragged
    rows, non-numeric values and non-finite samples; FileNotFoundError when either file is missing.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"recording file not found: {path}")
    sidecar = _sidecar_path(path)
    if not sidecar.exists():
        raise FileNotFoundError(f"metadata sidecar not found: {sidecar}")

    meta = json.loads(sidecar.read_text())
    for key in ("sample_rate_hz", "rpm", "label", "id"):
        if key not in meta:
            raise ValueError(f"sidecar {sidecar} is missing required field {key!r}")

    with open(path, newline="") as fh:
        header = [h.strip() for h in fh.readline().split(",")]
        if header == [""]:
            raise ValueError(f"{path} is empty: missing header")
        if header not in (["index", "linear_x", "angular"], ["index", "linear_x", "linear_y", "angular"]):
            raise ValueError(f"malformed header {header!r}; expected index,linear_x[,linear_y],angular")
        try:
            data = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=2)
        except ValueError:
            data = None
    if data is None or data.shape[1] != len(header) or not np.isfinite(data[:, 1:]).all():
        raise ValueError(_first_bad_row(path, len(header)))
    columns = np.ascontiguousarray(data.T)
    return Recording(
        sample_rate_hz=float(meta["sample_rate_hz"]),
        rpm=float(meta["rpm"]),
        label=FaultLabel.from_name(meta["label"]),
        linear=columns[1:-1],
        angular=columns[-1],
        id=str(meta["id"]),
    )
