"""One JSON run configuration covering every pipeline stage.

Defaults reproduce the reference acquisition and training protocol
(31.175 kHz, 3897/1559 windowing, three modes, 240/820 Hz bands, Adam at
1e-4 with batch 20, 200 epochs, patience 50, 0.15/0.15 ceil splits).
Unknown keys are rejected so typos cannot silently fall back to defaults.
Only values a run may set are fields: the protocol's constants (mirrored
envelope extrema, log compression, Adam's betas and epsilon, the t-SNE
optimiser) live in their modules, and split and embed draw from the run seed.
Each field declares its bound once, as plain data in its metadata (``min``,
``gt``, ``lt`` or ``in``), and ``config_from_dict`` checks every type and
bound where a config enters, through ``signal_model.check_value``, the one
check of every value from outside (flags, the seed, sidecars and a dataset's
scaler too); code that builds a section itself is trusted.
The emd, train, split, tsne and simulate sections are defined in the modules
that use them. ``band``, ``train`` and ``simulate`` also check rules across
their fields when built; the rig's ``simulate`` section (in ``signal_model``)
keeps every rate it draws below Nyquist and each recording at two samples or more.
The checked-in configs/defaults.json mirrors these values.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import typing
from dataclasses import dataclass, field
from pathlib import Path

from vibediag.emd import MIN_SIFT_LEN, EmdConfig
from vibediag.embedding import TsneConfig
from vibediag.hybrid_model import SplitSpec
from vibediag.nn_engine import TrainConfig
from vibediag.signal_model import SimulateConfig, check_value, read_json

SEED_ENV_VAR = "VIBEDIAG_SEED"


@dataclass
class SegmentationConfig:
    window_len: int = field(default=3897, metadata={"min": MIN_SIFT_LEN})  # each window is sifted
    hop: int = field(default=1559, metadata={"min": 1})
    linear_channel: int = field(default=0, metadata={"min": 0})


@dataclass
class HhtConfig:
    freq_max_hz: float | None = field(default=None, metadata={"gt": 0})  # None means Nyquist
    channels: int = field(default=3, metadata={"in": (1, 3)})


@dataclass
class BandConfig:
    centers_hz: tuple[float, float] = field(default=(240.0, 820.0), metadata={"gt": 0})
    half_width_hz: float = field(default=40.0, metadata={"gt": 0})
    search_lo_hz: float = field(default=100.0, metadata={"min": 0})
    search_hi_hz: float = field(default=2000.0, metadata={"gt": 0})

    def __post_init__(self) -> None:
        """The one rule across two fields; each field's own bound is in its metadata."""
        if self.search_lo_hz >= self.search_hi_hz:
            raise ValueError(f"config field band.search_lo_hz must be < band.search_hi_hz "
                             f"({self.search_hi_hz}), got {self.search_lo_hz}")


@dataclass
class RunConfig:
    seed: int | None = field(default=None, metadata={"min": 0})
    segmentation: SegmentationConfig = field(default_factory=SegmentationConfig)
    emd: EmdConfig = field(default_factory=EmdConfig)
    hht: HhtConfig = field(default_factory=HhtConfig)
    band: BandConfig = field(default_factory=BandConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    tsne: TsneConfig = field(default_factory=TsneConfig)
    simulate: SimulateConfig = field(default_factory=SimulateConfig)


def _build_section(cls, payload: dict, prefix: str = ""):
    """``cls`` built from ``payload`` with every field checked; a field whose type is a
    dataclass is a section, built from its own object."""
    hints = typing.get_type_hints(cls)
    unknown = set(payload) - hints.keys()
    if unknown:
        raise ValueError(f"unknown config key(s): {sorted(prefix + key for key in unknown)}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name not in payload:
            continue
        name, value = prefix + f.name, payload[f.name]
        if dataclasses.is_dataclass(hints[f.name]):
            if not isinstance(value, dict):
                raise ValueError(f"config section {name!r} must be an object")
            kwargs[f.name] = _build_section(hints[f.name], value, name + ".")
        else:
            check_value(f"config field {name}", value, hints[f.name], f.metadata)
            kwargs[f.name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def config_from_dict(payload: dict) -> RunConfig:
    return _build_section(RunConfig, payload)


def load_config(path: str | Path | None) -> RunConfig:
    return config_from_dict({} if path is None else read_json(path))


def config_to_dict(config: RunConfig) -> dict:
    return json.loads(json.dumps(dataclasses.asdict(config)))


def resolve_seed(flag_seed: int | None, config: RunConfig) -> int:
    """Precedence: explicit flag, then config file, then the environment, then 0. The flag
    and the variable are checked against the type and bound of the config's ``seed``."""
    env = os.environ.get(SEED_ENV_VAR)
    if flag_seed is not None:
        name, value = "--seed", flag_seed
    elif config.seed is not None:
        return config.seed
    elif env is not None:
        name, value = f"${SEED_ENV_VAR}", env
        with contextlib.suppress(ValueError):
            value = int(env)
    else:
        return 0
    seed_field = next(f for f in dataclasses.fields(RunConfig) if f.name == "seed")
    return check_value(name, value, int, seed_field.metadata)
