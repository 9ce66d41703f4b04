"""One JSON run configuration covering every pipeline stage.

Defaults reproduce the reference acquisition and training protocol
(31.175 kHz, 3897/1559 windowing, three modes, 240/820 Hz bands, Adam at
1e-4 with batch 20, 200 epochs, patience 50, 0.15/0.15 ceil splits).
Unknown keys are rejected so typos cannot silently fall back to defaults.
The checked-in configs/defaults.json mirrors these values.
"""

from __future__ import annotations

import dataclasses
import json
import os
import types
import typing
from dataclasses import dataclass, field
from pathlib import Path

from vibediag.emd import EmdConfig
from vibediag.embedding import TsneConfig
from vibediag.hybrid_model import SplitSpec
from vibediag.nn_engine import TrainConfig

SEED_ENV_VAR = "VIBEDIAG_SEED"


@dataclass
class SegmentationConfig:
    window_len: int = 3897
    hop: int = 1559
    linear_channel: int = 0


@dataclass
class HhtConfig:
    freq_max_hz: float | None = None  # None means Nyquist
    channels: int = 3
    log_compress: bool = True


@dataclass
class BandConfig:
    centers_hz: tuple[float, float] = (240.0, 820.0)
    half_width_hz: float = 40.0
    squared: bool = False
    taper: str = "rect"
    search_lo_hz: float = 100.0
    search_hi_hz: float = 2000.0


@dataclass
class SimulateConfig:
    duration_s: float = 2.0
    sample_rate_hz: float = 31175.0
    shaft_hz: float = 20.0
    noise_sigma: float = 0.1
    impulse_amplitude: float = 1.0
    recordings_per_class: int = 1


@dataclass
class RunConfig:
    seed: int | None = None
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    emd: EmdConfig = field(default_factory=EmdConfig)
    hht: HhtConfig = field(default_factory=HhtConfig)
    band: BandConfig = field(default_factory=BandConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    tsne: TsneConfig = field(default_factory=TsneConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)


_SECTION_TYPES = {
    "segmentation": SegmentationConfig,
    "emd": EmdConfig,
    "hht": HhtConfig,
    "band": BandConfig,
    "train": TrainConfig,
    "split": SplitSpec,
    "tsne": TsneConfig,
    "simulate": SimulateConfig,
}


def _check_type(field_name: str, declared: str, hint, value) -> None:
    """Reject ``value`` unless it has the field's declared type: an int may stand for a
    float, a bool is not an int, and a ``float | None`` field also takes None."""
    kinds = typing.get_args(hint) if isinstance(hint, types.UnionType) else (typing.get_origin(hint) or hint,)
    if float in kinds:
        kinds += (int,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        raise ValueError(f"config field {field_name} must be {declared}, got {value!r}")


def _build_section(cls, payload: dict, section: str):
    hints = typing.get_type_hints(cls)
    unknown = set(payload) - hints.keys()
    if unknown:
        raise ValueError(f"unknown key(s) in config section {section!r}: {sorted(unknown)}")
    kwargs = dict(payload)
    for f in dataclasses.fields(cls):
        if f.name in kwargs:
            if isinstance(kwargs[f.name], list):
                kwargs[f.name] = tuple(kwargs[f.name])
            _check_type(f"{section}.{f.name}", f.type, hints[f.name], kwargs[f.name])
    return cls(**kwargs)


def config_from_dict(payload: dict) -> RunConfig:
    known = {"seed", *_SECTION_TYPES}
    unknown = set(payload) - known
    if unknown:
        raise ValueError(f"unknown top-level config key(s): {sorted(unknown)}")
    kwargs = {}
    if "seed" in payload:
        kwargs["seed"] = payload["seed"]
    for section, cls in _SECTION_TYPES.items():
        if section in payload:
            if not isinstance(payload[section], dict):
                raise ValueError(f"config section {section!r} must be an object")
            kwargs[section] = _build_section(cls, payload[section], section)
    return RunConfig(**kwargs)


def load_config(path: str | Path | None) -> RunConfig:
    if path is None:
        return RunConfig()
    return config_from_dict(json.loads(Path(path).read_text()))


def config_to_dict(config: RunConfig) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(config)))


def resolve_seed(flag_seed: int | None, config: RunConfig) -> int:
    """Precedence: explicit flag, then config file, then the environment, then 0."""
    if flag_seed is not None:
        return flag_seed
    if config.seed is not None:
        return config.seed
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        return int(env)
    return 0
