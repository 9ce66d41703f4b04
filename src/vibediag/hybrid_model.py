"""Hybrid CNN-MLP assembly, dataset splitting, and evaluation artifacts.

The image branch is three conv -> max-pool -> ReLU stages (16, 32, 64
kernels of 3x3 with same-size zero padding, 2x2 pooling) flattened into
dense layers of 16 and 8 units with dropout 0.5 between them. Max pooling
and ReLU commute, gradients included, so pooling first gives the same
values and runs ReLU on a quarter of the elements; checkpoints that list
ReLU before pooling load as written. The feature branch maps the two
band-power scalars through dense layers of 16 and 8 units. The branch
outputs are concatenated into a dense layer of 8 units and a 5-way dense
output, where the head ends: its outputs are the logits, which the loss
turns into probabilities. Single-branch variants reuse the head.
The builders make float32 models, so training runs at float32;
``dtype=np.float64`` builds serve the gradient checks. Only ``Model``
takes the dtype: the layers build float64 and the model casts them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from vibediag.band_features import FeaturePair, MinMaxScaler, apply_scaler, fit_scaler
from vibediag.hht import IMAGE_SIZE, SpectrumImage
from vibediag.nn_engine import (
    Conv3x3,
    Dense,
    Dropout,
    Flatten,
    MaxPool2x2,
    Model,
    ReLU,
    eval_logits,
)
from vibediag.signal_model import N_CLASSES, NOT_READ, FaultLabel, OrNull, read_json

FLATTEN_WIDTH = 64 * (IMAGE_SIZE // 8) ** 2  # 64 maps of 4x4 -> 1024


@dataclass
class Example:
    key: str  # the window's provenance key, ``Window.key``
    image: SpectrumImage
    features: FeaturePair  # raw band power; scaled only after the split stage
    label: FaultLabel
    sift_iterations: tuple[int, ...] = ()  # sifting passes per IMF of the image


SPLIT_NAMES = ("train", "val", "test")


@dataclass
class SplitSpec:
    test_fraction: float = field(default=0.15, metadata={"gt": 0, "lt": 1})
    val_fraction: float = field(default=0.15, metadata={"gt": 0, "lt": 1})  # of what the test cut leaves
    stratified: bool = False


def _cut(count: int, fraction: float) -> int:
    return int(np.ceil(fraction * count))


def split_indices(n: int, spec: SplitSpec, seed: int,
                  labels: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shuffle seeded by ``seed``, then ceil-sized test and validation cuts.

    With ``spec.stratified`` the shuffle and both cuts run within each class
    of ``labels``; otherwise all ``n`` items form one class.
    """
    if n < 3:
        raise ValueError("need at least 3 examples to split")
    if not spec.stratified:
        labels = np.zeros(n, dtype=int)
    elif labels is None:
        raise ValueError("a stratified split needs labels")
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    parts = []
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        order = members[rng.permutation(members.size)]
        n_test = _cut(members.size, spec.test_fraction)
        n_val = _cut(members.size - n_test, spec.val_fraction)
        parts.append((order[n_test + n_val :], order[n_test : n_test + n_val], order[:n_test]))
    train, val, test = (np.concatenate(column) for column in zip(*parts))
    if min(train.size, val.size, test.size) == 0:
        raise ValueError("split leaves an empty subset")
    return train, val, test


def _cnn_branch(channels: int, rng) -> list:
    return [
        Conv3x3(channels, 16, rng), MaxPool2x2(), ReLU(),
        Conv3x3(16, 32, rng), MaxPool2x2(), ReLU(),
        Conv3x3(32, 64, rng), MaxPool2x2(), ReLU(),
        Flatten(),
        Dense(FLATTEN_WIDTH, 16, rng), ReLU(),
        Dropout(0.5),
        Dense(16, 8, rng), ReLU(),
    ]


def _mlp_branch(rng) -> list:
    return [
        Dense(2, 16, rng), ReLU(),
        Dense(16, 8, rng), ReLU(),
    ]


def _head(in_width: int, rng) -> list:
    return [
        Dense(in_width, 8, rng), ReLU(),
        Dense(8, N_CLASSES, rng),
    ]


def _seeded_rng(channels: int, seed: int) -> np.random.Generator:
    if channels not in (1, 3):
        raise ValueError("channels must be 1 or 3")
    return np.random.default_rng(seed)


def build_hybrid(channels: int = 3, seed: int = 0, dtype=np.float32) -> Model:
    """Both branches, concatenated feature-wise into the shared head."""
    rng = _seeded_rng(channels, seed)
    return Model(_cnn_branch(channels, rng), _mlp_branch(rng), _head(16, rng), dtype)


def build_cnn_only(channels: int = 3, seed: int = 0, dtype=np.float32) -> Model:
    rng = _seeded_rng(channels, seed)
    return Model(_cnn_branch(channels, rng), None, _head(8, rng), dtype)


def build_mlp_only(channels: int = 3, seed: int = 0, dtype=np.float32) -> Model:
    """The feature branch alone; ``channels`` is checked but no layer reads images."""
    rng = _seeded_rng(channels, seed)
    return Model(None, _mlp_branch(rng), _head(8, rng), dtype)


BRANCH_BUILDERS = {"hybrid": build_hybrid, "cnn": build_cnn_only, "mlp": build_mlp_only}


def shape_trace(model: Model, channels: int = 3, feature_width: int = 2):
    """Per-layer (type, output shape) rows from a zeros probe, for shape audits."""
    return model.layer_shapes(np.zeros((1, IMAGE_SIZE, IMAGE_SIZE, channels)), np.zeros((1, feature_width)))


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class Metrics:
    confusion: np.ndarray  # rows = true class, columns = predicted class
    accuracy: float
    precision: np.ndarray
    recall: np.ndarray
    f1: np.ndarray
    support: np.ndarray
    degenerate_classes: list[int] = field(default_factory=list)


def metrics_from_confusion(confusion: np.ndarray) -> Metrics:
    """Accuracy, per-class precision/recall/f1 from a confusion matrix.

    Zero-denominator classes yield 0 and are listed in
    ``degenerate_classes`` as a warning flag.
    """
    confusion = np.asarray(confusion)
    if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
        raise ValueError("confusion matrix must be square")
    k = confusion.shape[0]
    total = confusion.sum()
    diag = np.diag(confusion).astype(np.float64)
    col_sums = confusion.sum(axis=0).astype(np.float64)
    row_sums = confusion.sum(axis=1).astype(np.float64)

    precision = np.divide(diag, col_sums, out=np.zeros(k), where=col_sums > 0)
    recall = np.divide(diag, row_sums, out=np.zeros(k), where=row_sums > 0)
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros(k), where=pr > 0)

    accuracy = float(diag.sum() / total) if total > 0 else 0.0
    return Metrics(
        confusion=confusion,
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        support=row_sums.astype(int),
        degenerate_classes=np.flatnonzero((col_sums == 0) | (row_sums == 0)).tolist(),
    )


def predict_classes(model: Model, images, features) -> np.ndarray:
    """Argmax predictions in eval mode; ties resolve to the lowest class index."""
    n = len(images if images is not None else features)
    out = np.empty(n, dtype=int)
    for rows, logits in eval_logits(model, images, features, n):
        out[rows] = logits.argmax(axis=1)
    return out


def evaluate_arrays(model: Model, images, features, labels: np.ndarray) -> Metrics:
    predicted = predict_classes(model, images, features)
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=int)
    np.add.at(confusion, (labels, predicted), 1)
    return metrics_from_confusion(confusion)


def classification_report(metrics: Metrics) -> dict:
    """JSON-ready per-class precision/recall/f1/support plus accuracy."""
    classes = {}
    for label in FaultLabel:
        i = int(label)
        classes[label.canonical_name] = {
            "precision": round(float(metrics.precision[i]), 4),
            "recall": round(float(metrics.recall[i]), 4),
            "f1": round(float(metrics.f1[i]), 4),
            "support": int(metrics.support[i]),
        }
    return {
        "classes": classes,
        "accuracy": round(metrics.accuracy, 4),
        "degenerate_classes": metrics.degenerate_classes,
    }


def render_report(metrics: Metrics) -> str:
    """Aligned-text version of the classification report."""
    name_width = max(len(l.canonical_name) for l in FaultLabel)
    lines = [f"{'':{name_width}}  precision  recall  f1-score  support"]
    for label in FaultLabel:
        i = int(label)
        lines.append(
            f"{label.canonical_name:{name_width}}  "
            f"{metrics.precision[i]:9.2f}  {metrics.recall[i]:6.2f}  "
            f"{metrics.f1[i]:8.2f}  {metrics.support[i]:7d}"
        )
    lines.append("")
    lines.append(f"{'accuracy':{name_width}}  {metrics.accuracy:9.4f}")
    return "\n".join(lines)


def confusion_to_csv(confusion: np.ndarray, path) -> None:
    names = [l.canonical_name for l in FaultLabel]
    lines = ["true\\predicted," + ",".join(names)]
    for i, name in enumerate(names):
        lines.append(name + "," + ",".join(str(int(v)) for v in confusion[i]))
    Path(path).write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Featurized dataset container


@dataclass
class FeaturizedDataset:
    """Images, raw band-power features and labels for a run, with provenance.

    ``scaler`` and ``splits`` are attached by the split stage; features stay
    raw on disk so normalization can never leak outside the training split.
    """

    images: np.ndarray  # (n, 32, 32, c)
    features_raw: np.ndarray  # (n, 2)
    labels: np.ndarray  # (n,) class indices
    provenance: list[str]
    scaler: MinMaxScaler | None = None
    splits: dict[str, list[str]] | None = None
    config_echo: dict = field(default_factory=dict)
    seed: int | None = None

    def __len__(self) -> int:
        return self.labels.shape[0]

    def indices_for(self, split_name: str) -> np.ndarray:
        if self.splits is None:
            raise ValueError("dataset has no split membership; run the split stage first")
        positions = {key: i for i, key in enumerate(self.provenance)}
        return np.array([positions[k] for k in self.splits[split_name]], dtype=int)

    def normalized_features(self) -> np.ndarray:
        if self.scaler is None:
            raise ValueError("dataset has no fitted scaler; run the split stage first")
        return apply_scaler(self.scaler, self.features_raw)

    def arrays_for(self, split_name: str):
        idx = self.indices_for(split_name)
        onehot = np.eye(N_CLASSES)[self.labels[idx]]
        return self.images[idx], self.normalized_features()[idx], self.labels[idx], onehot


def dataset_from_examples(examples: Sequence[Example], config_echo: dict | None = None,
                          seed: int | None = None) -> FeaturizedDataset:
    return FeaturizedDataset(
        images=np.stack([e.image.pixels for e in examples]),
        features_raw=np.array([[e.features.n1, e.features.n2] for e in examples]),
        labels=np.array([int(e.label) for e in examples]),
        provenance=[e.key for e in examples],
        config_echo=config_echo or {},
        seed=seed,
    )


DATASET_FORMAT = "vibediag-dataset-v1"


def dataset_layout(n: int, channels: int) -> tuple[dict, int]:
    """The ``offsets`` table and ``total_bytes`` of a ``dataset.bin`` of ``n`` windows: images of
    ``channels`` channels, then the two features, then one-hot labels, all little-endian float64."""
    offsets, offset = {}, 0
    for name, shape in (("images", [n, IMAGE_SIZE, IMAGE_SIZE, channels]), ("features", [n, 2]),
                        ("labels_onehot", [n, N_CLASSES])):
        offsets[name] = {"byte_offset": offset, "byte_length": 8 * math.prod(shape), "shape": shape}
        offset += offsets[name]["byte_length"]
    return offsets, offset


# The dataset.json that save_dataset_json writes, as load_dataset reads it (see signal_model.check_document).
_COUNT = (int, {"min": 0})
DATASET_JSON = {
    "format": (str, {"in": (DATASET_FORMAT,)}),
    "counts": NOT_READ,
    "label_map": NOT_READ,
    "offsets": {name: {"byte_offset": _COUNT, "byte_length": _COUNT, "shape": [_COUNT]}
                for name in dataset_layout(0, 1)[0]},
    "provenance": [str],
    "scaler": OrNull({"min": tuple[float, float], "max": tuple[float, float]}),
    "splits": OrNull({name: [str] for name in SPLIT_NAMES}),
    "config_echo": {...: NOT_READ},  # the featurize config, echoed into each later stage's manifest
    "seed": (int | None, {"min": 0}),
    "total_bytes": _COUNT,
    ...: NOT_READ,
}


def save_dataset_json(dataset: FeaturizedDataset, out_dir) -> None:
    """Write ``dataset.json``, the manifest of the ``dataset.bin`` that
    :func:`save_dataset` writes for the same arrays."""
    offsets, total = dataset_layout(len(dataset), dataset.images.shape[3])
    per_class = {l.canonical_name: int((dataset.labels == int(l)).sum()) for l in FaultLabel}
    manifest = {
        "format": DATASET_FORMAT,
        "counts": {"examples": len(dataset), "per_class": per_class},
        "label_map": {l.canonical_name: int(l) for l in FaultLabel},
        "offsets": offsets,
        "provenance": dataset.provenance,
        "scaler": None if dataset.scaler is None else {
            "min": dataset.scaler.minimum.tolist(),
            "max": dataset.scaler.maximum.tolist(),
        },
        "splits": dataset.splits,
        "config_echo": dataset.config_echo,
        "seed": dataset.seed,
        "total_bytes": total,
    }
    (Path(out_dir) / "dataset.json").write_text(json.dumps(manifest, indent=2) + "\n")


def save_dataset(dataset: FeaturizedDataset, out_dir) -> None:
    """Write ``dataset.json`` (manifest) and ``dataset.bin`` (arrays).

    The binary layout is :func:`dataset_layout`, the table the manifest
    records. Each array goes straight from memory to the file, with no
    bytes copy. Arrays that the layout of 1 or 3 channels does not fit, or
    labels that are not class indices, raise before any file is opened.
    """
    n = len(dataset.provenance)  # the window count load_dataset reads the layout for
    tables = [dataset_layout(n, channels)[0] for channels in (1, 3)]
    for name, array in (("images", dataset.images), ("features", dataset.features_raw)):
        fits = sorted({tuple(table[name]["shape"]) for table in tables})
        if array.shape not in fits:
            raise ValueError(f"save_dataset: {name} of shape {array.shape} is not {' or '.join(map(str, fits))}")
    if dataset.labels.shape != (n,) or not np.isin(dataset.labels, range(N_CLASSES)).all():
        raise ValueError(f"save_dataset: labels of shape {dataset.labels.shape} are not {n} class indices "
                         f"in 0..{N_CLASSES - 1}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_dataset_json(dataset, out_dir)
    with open(out_dir / "dataset.bin", "wb") as fh:
        for array in (dataset.images, dataset.features_raw, np.eye(N_CLASSES)[dataset.labels]):
            np.ascontiguousarray(array, dtype="<f8").tofile(fh)


def load_dataset(in_dir) -> FeaturizedDataset:
    """The dataset of ``dataset.json`` and ``dataset.bin``. ``dataset.json`` must meet
    :data:`DATASET_JSON`; beyond that, a ValueError naming the file rejects a ``scaler`` whose
    ``min`` exceeds its ``max`` for a feature, ``splits`` that name a window twice, name one
    ``provenance`` lacks or leave one out, ``offsets`` or ``total_bytes`` that differ from the
    :func:`dataset_layout` of ``len(provenance)`` windows, a ``dataset.bin`` of another length
    and a label row that is not one-hot."""
    in_dir = Path(in_dir)
    json_path = in_dir / "dataset.json"
    manifest = read_json(json_path, DATASET_JSON)
    scaler, splits, provenance = manifest["scaler"], manifest["splits"], manifest["provenance"]
    for feature, (low, high) in enumerate(zip(scaler["min"], scaler["max"]) if scaler else ()):
        if low > high:
            raise ValueError(f"{json_path}: scaler.min[{feature}] must be <= scaler.max[{feature}] ({high!r}), "
                             f"got {low!r}")
    split_of = dict.fromkeys(provenance)  # window key -> the split that names it
    for split_name, keys in (splits or {}).items():
        for i, key in enumerate(keys):
            if key not in split_of or split_of[key] is not None:
                where = "not in provenance" if key not in split_of else f"which splits.{split_of[key]} names too"
                raise ValueError(f"{json_path}: splits.{split_name}[{i}] names window {key!r}, {where}")
            split_of[key] = split_name
    left_out = next((key for key, split_name in split_of.items() if split_name is None), None) if splits else None
    if left_out is not None:
        raise ValueError(f"{json_path}: provenance[{provenance.index(left_out)}] names window {left_out!r}, "
                         f"which none of the splits names")
    n, given = len(provenance), manifest["offsets"]
    channels = 1 if given["images"] == dataset_layout(n, 1)[0]["images"] else 3
    offsets, total = dataset_layout(n, channels)
    for name, entry in offsets.items():
        if given[name] != entry:
            raise ValueError(f"{json_path}: offsets.{name} must be {entry}, the layout of {n} windows in "
                             f"provenance, got {given[name]}")
    if manifest["total_bytes"] != total:
        raise ValueError(f"{json_path}: total_bytes must be {total}, for {n} windows, got {manifest['total_bytes']}")
    bin_path = in_dir / "dataset.bin"
    size = bin_path.stat().st_size
    if size != total:
        raise ValueError(f"{bin_path}: {size} bytes, but the manifest needs {total}")

    def read(name):
        meta = offsets[name]
        return np.fromfile(bin_path, dtype="<f8", count=meta["byte_length"] // 8,
                           offset=meta["byte_offset"]).reshape(meta["shape"])

    onehot = read("labels_onehot")
    labels = onehot.argmax(axis=1)
    not_onehot = np.flatnonzero((onehot != np.eye(N_CLASSES)[labels]).any(axis=1))
    if not_onehot.size:
        row = not_onehot[0]
        raise ValueError(f"{bin_path}: labels_onehot row {row} (window {provenance[row]!r}) "
                         f"is {onehot[row].tolist()}, not one 1.0 and {N_CLASSES - 1} 0.0")

    if scaler is not None:
        scaler = MinMaxScaler(minimum=np.array(scaler["min"]), maximum=np.array(scaler["max"]))
    return FeaturizedDataset(
        images=read("images"),
        features_raw=read("features"),
        labels=labels,
        provenance=provenance,
        scaler=scaler,
        splits=splits,
        config_echo=manifest["config_echo"],
        seed=manifest["seed"],
    )


def assign_splits(dataset: FeaturizedDataset, spec: SplitSpec, seed: int) -> FeaturizedDataset:
    """Attach split membership, shuffled by ``seed``, and a train-split-only feature scaler."""
    train, val, test = split_indices(len(dataset), spec, seed, dataset.labels)
    dataset.splits = {name: [dataset.provenance[i] for i in idx]
                      for name, idx in zip(SPLIT_NAMES, (train, val, test))}
    dataset.scaler = fit_scaler(dataset.features_raw[train])
    return dataset
