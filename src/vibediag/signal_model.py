"""Recordings, fault labels, recording file I/O and the synthetic test rig."""

from __future__ import annotations

import csv
import json
import numbers
import warnings
from dataclasses import dataclass, field
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
        key = str(name).strip().lower().replace("_", "").replace(" ", "")
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


def finite_positive(name: str, value) -> float:
    """``value`` as a float if it is a finite number above 0, not a bool; otherwise ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < np.inf:
        raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
    return float(value)


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
        for name in ("sample_rate_hz", "rpm"):
            finite_positive(name, getattr(self, name))
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

# The inner race's impulses are amplitude modulated at the shaft rate by this depth;
# every other class is unmodulated.
INNER_RACE_MODULATION_DEPTH = 0.8

# The two resonances every impulse excites, and their ring-down time constant.
RESONANCE_HZ = (240.0, 820.0)
RESONANCE_DECAY_S = 0.004

_SHAFT_HARMONIC_AMPLITUDE = 0.25

# With impulse_amplitude=1.0, envelope band energies at the characteristic
# rates stay pairwise distinguishable up to about this noise level (checked
# by the class-separation test).
CLASS_SEPARATION_NOISE_SIGMA = 0.5


@dataclass
class SimulateConfig:
    """The synthetic rig's settings, one set for every class it draws."""

    duration_s: float = field(default=2.0, metadata={"gt": 0})
    sample_rate_hz: float = field(default=31175.0, metadata={"gt": 0})
    shaft_hz: float = field(default=20.0, metadata={"gt": 0})
    noise_sigma: float = field(default=0.1, metadata={"min": 0})
    impulse_amplitude: float = field(default=1.0, metadata={"min": 0})
    recordings_per_class: int = field(default=1, metadata={"min": 1})

    def __post_init__(self) -> None:
        """The rules across fields: every rate the rig draws stays below Nyquist, and a
        recording holds at least two samples."""
        top = max(self.shaft_hz, *RESONANCE_HZ, *sum(PRESET_FAULT_RATES.values(), ()))
        if self.sample_rate_hz <= 2.0 * top:
            raise ValueError(f"config field simulate.sample_rate_hz must be > {2.0 * top} "
                             f"(twice the rig's highest rate, {top} Hz), got {self.sample_rate_hz}")
        if round(self.duration_s * self.sample_rate_hz) < 2:
            raise ValueError(f"config field simulate.duration_s must give >= 2 samples at "
                             f"simulate.sample_rate_hz ({self.sample_rate_hz}), got {self.duration_s}")


def preset_spec(label: FaultLabel, **rig) -> tuple[FaultLabel, SimulateConfig]:
    """The (label, rig settings) pair that :func:`synthesize_recording` draws; ``rig`` keywords
    (duration_s, sample_rate_hz, shaft_hz, noise_sigma, impulse_amplitude) override the
    defaults of :class:`SimulateConfig`."""
    return label, SimulateConfig(**rig)


def _ring_kernel(fs: float) -> np.ndarray:
    """Decaying multi-resonance ring-down excited by a single unit impulse."""
    length = max(int(round(5.0 * RESONANCE_DECAY_S * fs)), 8)
    t = np.arange(length) / fs
    kernel = np.zeros(length)
    for f in RESONANCE_HZ:
        kernel += np.exp(-t / RESONANCE_DECAY_S) * np.sin(2.0 * np.pi * f * t)
    peak = np.max(np.abs(kernel))
    if peak > 0:
        kernel /= peak
    return kernel


@np.errstate(over="ignore", invalid="ignore")  # a draw past the float range is named below
def synthesize_recording(spec: tuple[FaultLabel, SimulateConfig], seed: int,
                         id: str | None = None) -> Recording:
    """Generate a deterministic synthetic recording of the class ``label`` drawn with the
    rig settings ``sim``, where ``spec`` is ``(label, sim)``.

    The defect model is an impulse train at each of the class's characteristic
    rates (:data:`PRESET_FAULT_RATES`), each impulse exciting the decaying
    resonances :data:`RESONANCE_HZ` on the linear channel, while the angular
    channel carries resonance tones whose band power depends on the fault class
    (:data:`ANGULAR_TONE_WEIGHTS`). Rates and frequencies are generator knobs,
    not claims about any particular bearing geometry.

    The linear channel is the impulse trains convolved with the ring-down kernel
    (amplitude modulated at shaft rate for the inner race), plus a shaft harmonic
    and white noise. The angular channel carries the class-weighted resonance
    tones, the shaft harmonic and independent noise.
    """
    label, sim = spec
    rng = np.random.default_rng(seed)
    fs = sim.sample_rate_hz
    n = int(round(sim.duration_s * fs))
    t = np.arange(n) / fs

    fault = np.zeros(n)
    if PRESET_FAULT_RATES[label] and sim.impulse_amplitude != 0.0:
        kernel = _ring_kernel(fs)
        for rate in PRESET_FAULT_RATES[label]:
            hits = np.arange(0.0, sim.duration_s, 1.0 / rate)
            idx = np.round(hits * fs).astype(int)
            idx = idx[idx < n]
            train = np.zeros(n)
            train[idx] = sim.impulse_amplitude
            fault += np.convolve(train, kernel)[:n]
        if label is FaultLabel.INNER_RACE:
            fault *= 1.0 + INNER_RACE_MODULATION_DEPTH * np.cos(2.0 * np.pi * sim.shaft_hz * t)

    shaft = _SHAFT_HARMONIC_AMPLITUDE * np.sin(2.0 * np.pi * sim.shaft_hz * t)
    linear = fault + shaft + rng.normal(0.0, sim.noise_sigma, n)

    phases = rng.uniform(0.0, 2.0 * np.pi, size=len(RESONANCE_HZ))
    angular = shaft.copy()
    for weight, f, phase in zip(ANGULAR_TONE_WEIGHTS[label], RESONANCE_HZ, phases):
        angular += weight * sim.impulse_amplitude * np.sin(2.0 * np.pi * f * t + phase)
    angular += rng.normal(0.0, sim.noise_sigma, n)
    if not (np.isfinite(linear).all() and np.isfinite(angular).all()):
        raise ValueError(f"config fields simulate.noise_sigma ({sim.noise_sigma}) and simulate.impulse_amplitude "
                         f"({sim.impulse_amplitude}) draw {label.canonical_name} samples past the float range")

    rec_id = id if id is not None else f"syn-{label.canonical_name.lower()}-seed{seed}"
    return Recording(
        sample_rate_hz=fs,
        rpm=sim.shaft_hz * 60.0,
        label=label,
        linear=linear[None, :],
        angular=angular,
        id=rec_id,
    )


# JSON's own name for each Python type that json.loads returns, other than dict.
_JSON_TYPE_NAMES = {type(None): "null", bool: "boolean", int: "number", float: "number", str: "string", list: "array"}


def read_json(path: str | Path, keys=(), format: str | None = None) -> dict:
    """The JSON object in file ``path``; ValueError, starting with the path, if it is not JSON, not an object,
    of a ``format`` other than ``format`` (if given) or lacks a key of ``keys``; FileNotFoundError if missing."""
    path = Path(path)
    try:
        document = json.loads(path.read_text())
    except ValueError as exc:  # a JSONDecodeError, or a UnicodeDecodeError from read_text
        raise ValueError(f"{path}: not JSON ({exc})") from None
    if not isinstance(document, dict):
        raise ValueError(f"{path}: holds a JSON {_JSON_TYPE_NAMES[type(document)]}, not an object")
    if format is not None and document.get("format") != format:
        raise ValueError(f"{path}: format {document.get('format')!r} is not {format!r}")
    for key in keys:
        if key not in document:
            raise ValueError(f"{path}: no top-level key {key!r}")
    return document


def _sidecar_path(csv_path: Path) -> Path:
    return csv_path.with_suffix("").with_suffix(".meta.json")


def save_recording(recording: Recording, path: str | Path) -> tuple[Path, Path]:
    """Write ``<path>`` as CSV plus the ``<name>.meta.json`` sidecar, and return both paths.

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
    sidecar = _sidecar_path(path)
    sidecar.write_text(json.dumps(meta, indent=2) + "\n")
    return path, sidecar


def _first_bad_row(fh, start: int, delimiter: str) -> str | None:
    """The first ragged or non-numeric row of ``fh`` from ``start`` on, counted as numpy's loadtxt counts rows."""
    fh.seek(start)
    rows = csv.reader((line.split("#", 1)[0] for line in fh), delimiter=delimiter, quotechar='"')
    width = None
    for row_no, row in enumerate(filter(None, rows), start=1):
        if len(row) != (width := width or len(row)):
            return f"ragged row {row_no}: expected {width} fields, got {len(row)}"
        try:
            [float(v) for v in row]
        except ValueError:
            return f"non-numeric value in row {row_no}"


def read_samples(fh, delimiter: str = ",") -> np.ndarray:
    """The float64 table of the open CSV ``fh`` from its current line on, parsed by one numpy ``loadtxt`` call that
    skips blank lines and ``#`` comments and reads ``"``-quoted fields. A ValueError names the file and, for a
    ragged or non-numeric row, the first such row counted from 1; fewer than two data rows fail too."""
    start = fh.tell() if fh.seekable() else None  # a pipe cannot be read again to name its bad row
    try:
        with warnings.catch_warnings():  # a file without data rows is named below, by its row count
            warnings.simplefilter("ignore", UserWarning)
            table = np.loadtxt(fh, delimiter=delimiter, quotechar='"', ndmin=2)
    except ValueError as exc:
        why = start is not None and _first_bad_row(fh, start, delimiter)
        raise ValueError(f"{fh.name}: {why or exc}") from None
    if len(table) < 2:
        raise ValueError(f"{fh.name}: {len(table)} data row(s), but a recording needs at least 2")
    return table


def finite_rows(path: str | Path, table: np.ndarray) -> np.ndarray:
    """``table``; ValueError naming ``path`` and the first 1-based row of a non-finite value, if any."""
    bad = np.flatnonzero(~np.isfinite(table).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: non-finite value in row {bad[0] + 1}")
    return table


def load_recording(path: str | Path) -> Recording:
    """Load a recording CSV (rows read by :func:`read_samples`) and its sidecar; errors name the file at fault."""
    sidecar = _sidecar_path(Path(path))
    with open(path) as fh:  # a missing recording is named before its sidecar, read before any row
        meta = read_json(sidecar, keys=("sample_rate_hz", "rpm", "label", "id"))
        rate, rpm = (finite_positive(f"{sidecar}: {key}", meta[key]) for key in ("sample_rate_hz", "rpm"))
        try:
            label = FaultLabel.from_name(meta["label"])
        except ValueError as exc:
            raise ValueError(f"{sidecar}: {exc}") from None
        header = [h.strip() for h in fh.readline().split(",")]
        if header not in (["index", "linear_x", "angular"], ["index", "linear_x", "linear_y", "angular"]):
            raise ValueError(f"{path}: malformed header {header!r}; expected index,linear_x[,linear_y],angular")
        data = read_samples(fh)
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} fields in each row, but the header names {len(header)}")
    channels = np.ascontiguousarray(finite_rows(path, data[:, 1:]).T)
    return Recording(
        sample_rate_hz=rate,
        rpm=rpm,
        label=label,
        linear=channels[:-1],
        angular=channels[-1],
        id=str(meta["id"]),
    )
