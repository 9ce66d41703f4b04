"""Command-line front end for the diagnosis pipeline.

``main`` runs every command the same way: it resolves the config and the
seed, runs the command, writes the manifest.json the command asks for and
prints the command's message. A manifest records the command, package
version, resolved seed, the full config echo and sha256 checksums of every
artifact, so any run can be reproduced from its manifest alone. Most
stages write only into their --out directory and leave the manifest there.
``split`` rewrites dataset.json and the manifest in --dataset; ``srs``
writes its JSON to --out, if given, and no manifest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import vibediag
from vibediag.band_features import find_torsional_peaks, magnitude_spectrum
from vibediag.config import RunConfig, config_from_dict, config_to_dict, resolve_seed
from vibediag.embedding import pca_fit, pca_reduce, subsample_indices, tsne
from vibediag.hht import write_image
from vibediag.hybrid_model import (
    BRANCH_BUILDERS,
    SPLIT_NAMES,
    FeaturizedDataset,
    assign_splits,
    classification_report,
    confusion_to_csv,
    dataset_from_examples,
    evaluate_arrays,
    load_dataset,
    render_report,
    save_dataset,
    save_dataset_json,
)
from vibediag.nn_engine import load_model, save_model, train
from vibediag.pipeline import featurize_windows, load_recordings_dir, recording_windows, sift_counters
from vibediag.signal_model import (FaultLabel, Recording, finite_positive, finite_rows, load_recording, read_json,
                                   read_samples, save_recording, synthesize_recording)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


# The config sections that shape a featurized dataset.
_FEATURIZE_SECTIONS = ("segmentation", "emd", "hht", "band")


def write_manifest(out_dir: Path, command: str, seed: int, config: RunConfig,
                   artifacts: list[Path], extra: dict | None = None,
                   dataset: FeaturizedDataset | None = None) -> None:
    """Write ``manifest.json``; a stage that reads ``dataset`` echoes the
    featurize sections the dataset was made with, not its own."""
    echo = config_to_dict(config)
    if dataset is not None:
        echo.update({name: dataset.config_echo[name]
                     for name in _FEATURIZE_SECTIONS if name in dataset.config_echo})
    manifest = {
        "command": command,
        "version": vibediag.__version__,
        "seed": seed,
        "config": echo,
        "artifacts": {str(p.relative_to(out_dir)): _sha256(p) for p in sorted(artifacts)},
    }
    if extra:
        manifest["extra"] = extra
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")


class Done:
    """What a command did: the message ``main`` prints and, unless ``out`` is None, the
    ``artifacts``, ``extra`` and read ``dataset`` of the manifest ``main`` writes there."""

    def __init__(self, message: str, out: Path | None = None, artifacts=(), extra=None,
                 dataset: FeaturizedDataset | None = None):
        self.message, self.out, self.artifacts = message, out, artifacts
        self.extra, self.dataset = extra, dataset


def _prepare_out(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


# Flags that are not config fields, by dest, with their least values; t-SNE needs two points.
_FLAG_MINIMUMS = {"jobs": 1, "max_points": 2}


def _configure(args) -> tuple[RunConfig, int]:
    """The run config with every given ``section.field`` flag laid over the config file, each
    section validated once over both, and the resolved seed. The flags that are not config
    fields are checked first, before any file is read."""
    for dest, least in _FLAG_MINIMUMS.items():
        value = getattr(args, dest, least)
        if value < least:
            raise ValueError(f"--{dest.replace('_', '-')} must be >= {least}, got {value}")
    payload = read_json(args.config) if args.config else {}
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, name = dest.split(".")
            # A section that is not an object is left for config_from_dict to reject.
            if isinstance(payload.setdefault(section, {}), dict):
                payload[section][name] = value
    config = config_from_dict(payload)
    return config, resolve_seed(args.seed, config)


def _torsional_peaks(recording_path, band):
    rec = load_recording(recording_path)
    spectrum = magnitude_spectrum(rec.angular, rec.sample_rate_hz)
    return find_torsional_peaks(spectrum, band.search_lo_hz, band.search_hi_hz)


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(args, config: RunConfig, seed: int) -> Done:
    sim = config.simulate
    # Every recording is drawn before --out is made, so a failed draw leaves no --out.
    recordings = [synthesize_recording((label, sim), seed * 1000 + int(label) * 10 + rep,
                                       id=f"{label.canonical_name.lower()}-r{rep}")
                  for label in FaultLabel for rep in range(sim.recordings_per_class)]
    out = _prepare_out(args.out)
    artifacts = [path for rec in recordings for path in save_recording(rec, out / f"{rec.id}.csv")]
    return Done(f"simulate: wrote {len(recordings)} recordings to {out}", out, artifacts)


def cmd_srs(args, config: RunConfig, seed: int) -> Done:
    peaks = _torsional_peaks(args.recording, config.band)
    payload = {
        "peaks_hz": [p.center_hz for p in peaks],
        "prominence": [p.prominence for p in peaks],
    }
    if args.out:
        _prepare_out(Path(args.out).parent)
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    return Done(json.dumps(payload))


def cmd_featurize(args, config: RunConfig, seed: int) -> Done:
    if args.srs:
        config.band.centers_hz = tuple(p.center_hz for p in _torsional_peaks(args.srs, config.band))
    # The windows are views into the recordings; both go once featurize returns,
    # and the examples go once the dataset holds their arrays.
    examples = featurize_windows(recording_windows(load_recordings_dir(args.recordings), config),
                                 config, jobs=args.jobs)
    counters = {"examples": len(examples), **sift_counters(examples, config.emd.max_sift_iterations)}
    dataset = dataset_from_examples(examples, config_echo=config_to_dict(config), seed=seed)
    del examples
    out = _prepare_out(args.out)
    save_dataset(dataset, out)
    return Done(f"featurize: {len(dataset)} windows -> {out}", out,
                [out / "dataset.json", out / "dataset.bin"], extra=counters)


def cmd_split(args, config: RunConfig, seed: int) -> Done:
    dataset_dir = Path(args.dataset)
    dataset = load_dataset(dataset_dir)
    # Keep the featurize counters that the manifest being replaced recorded; read before any write.
    previous = dataset_dir / "manifest.json"
    extra = read_json(previous).get("extra", {}) if previous.is_file() else {}
    if not isinstance(extra, dict):
        raise ValueError(f"{previous}: extra must be an object, got {extra!r}")
    assign_splits(dataset, config.split, seed)
    save_dataset_json(dataset, dataset_dir)
    counts = {name: len(keys) for name, keys in dataset.splits.items()}
    return Done(f"split: {counts}", dataset_dir, [dataset_dir / "dataset.json", dataset_dir / "dataset.bin"],
                extra={**extra, **counts}, dataset=dataset)


def cmd_train(args, config: RunConfig, seed: int) -> Done:
    tcfg = config.train
    tcfg.seed = seed
    dataset = load_dataset(args.dataset)
    channels = dataset.images.shape[3]
    model = BRANCH_BUILDERS[args.branch](channels=channels, seed=seed)

    images, feats, _, onehot = dataset.arrays_for("train")
    val_images, val_feats, _, val_onehot = dataset.arrays_for("val")
    model, history = train(model, (images, feats, onehot), (val_images, val_feats, val_onehot), tcfg)

    out = _prepare_out(args.out)
    # The dataset is named by content only, so model.json does not depend on
    # the directory the run happens in.
    config_echo = {"branch": args.branch, "dataset_sha256": _sha256(Path(args.dataset) / "dataset.bin")}
    save_model(model, out, seed=seed, config={**config_echo, **config_to_dict(config)["train"]})
    history.to_csv(out / "history.csv")
    return Done(f"train[{args.branch}]: {len(history)} epochs, best epoch {history.best_epoch}, "
                f"val acc {history.val_accuracy[history.best_epoch - 1]:.4f}",
                out, [out / "model.json", out / "model.bin", out / "history.csv"],
                extra={"branch": args.branch, "epochs_run": len(history),
                       "best_epoch": history.best_epoch,
                       "best_val_loss": min(history.val_loss)},
                dataset=dataset)


def cmd_eval(args, config: RunConfig, seed: int) -> Done:
    checkpoint = Path(args.checkpoint)
    model, model_manifest = load_model(checkpoint)
    trained = model_manifest.get("config") or {}
    if "dataset_sha256" in trained:
        data_bin = Path(args.dataset) / "dataset.bin"
        given = _sha256(data_bin)
        if given != trained["dataset_sha256"]:
            raise ValueError(f"{data_bin}: sha256 {given}, but the checkpoint was trained on "
                             f"sha256 {trained['dataset_sha256']}")
    dataset = load_dataset(args.dataset)
    image, feature = (layers is not None for layers in model.branches)
    branch = "hybrid" if image and feature else "cnn" if image else "mlp"
    images, feats, labels, _ = dataset.arrays_for(args.split)
    metrics = evaluate_arrays(model, images, feats, labels)
    report = classification_report(metrics)

    out = _prepare_out(args.out)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    confusion_to_csv(metrics.confusion, out / "confusion.csv")
    return Done(render_report(metrics), out, [out / "report.json", out / "confusion.csv"],
                extra={"split": args.split, "branch": branch, "accuracy": metrics.accuracy,
                       "checkpoint": {name: _sha256(checkpoint / name)
                                      for name in ("model.json", "model.bin")}},
                dataset=dataset)


def cmd_embed(args, config: RunConfig, seed: int) -> Done:
    if not 0 < args.target <= 1:
        raise ValueError(f"--target must be in (0, 1], got {args.target}")
    dataset = load_dataset(args.dataset)
    flat = dataset.images.reshape(len(dataset), -1)
    model = pca_fit(flat)
    reduced = pca_reduce(model, flat, args.target)

    picked = subsample_indices(len(dataset), args.max_points, seed)
    embedding, kl = tsne(reduced[picked], config.tsne, seed)
    out = _prepare_out(args.out)
    curve = ["k,cumulative_ratio"] + [f"{k + 1},{float(r)!r}" for k, r in enumerate(model.cumulative_ratio)]
    (out / "variance_curve.csv").write_text("\n".join(curve) + "\n")
    rows = ["id,x,y,label"]
    for pos, idx in enumerate(picked):
        label = FaultLabel(int(dataset.labels[idx]))
        rows.append(f"{dataset.provenance[idx]},{float(embedding[pos, 0])!r},"
                    f"{float(embedding[pos, 1])!r},{label.canonical_name}")
    (out / "embedding.csv").write_text("\n".join(rows) + "\n")
    return Done(f"embed: {picked.size} points, {reduced.shape[1]} components -> {out}",
                out, [out / "variance_curve.csv", out / "embedding.csv"],
                extra={"points": int(picked.size),
                       "components": int(reduced.shape[1]),
                       "kl_after_exaggeration": float(kl[0]),
                       "kl_final": float(kl[1])},
                dataset=dataset)


def cmd_export_images(args, config: RunConfig, seed: int) -> Done:
    dataset = load_dataset(args.dataset)
    out = _prepare_out(args.out)
    suffix = ".ppm" if dataset.images.shape[3] == 3 else ".pgm"
    artifacts = []
    for pixels, key in zip(dataset.images, dataset.provenance):
        path = out / (key.replace(":", "_") + suffix)
        write_image(pixels, path)
        artifacts.append(path)
    return Done(f"export-images: {len(artifacts)} files -> {out}", out, artifacts, dataset=dataset)


def _columns(flag: str, text: str, src: Path, n_columns: int, most: int) -> list[int]:
    """The zero-based indices, at most ``most`` of them, of the columns of ``src`` that the
    comma-separated ``text`` lists."""
    cols = text.split(",")
    if len(cols) > most or not all(c.strip().isdecimal() and int(c) < n_columns for c in cols):
        raise ValueError(f"{flag} must list at most {most} of the {n_columns} columns of {src}, "
                         f"numbered from 0, got {text!r}")
    return [int(c) for c in cols]


def cmd_import(args, config: RunConfig, seed: int) -> Done:
    """Adapt an externally downloaded raw CSV into the recording format."""
    for flag, value in (("--sample-rate-hz", args.sample_rate_hz), ("--rpm", args.rpm)):
        finite_positive(flag, value)
    src = Path(args.src)
    with open(src) as fh:
        if args.has_header:
            fh.readline()
        raw = read_samples(fh, args.delimiter)
    linear_cols = _columns("--linear-cols", args.linear_cols, src, raw.shape[1], most=2)
    (angular_col,) = _columns("--angular-col", args.angular_col, src, raw.shape[1], most=1)
    channels = finite_rows(src, raw[:, linear_cols + [angular_col]])  # a column no flag selects may hold NaN
    rec = Recording(
        sample_rate_hz=args.sample_rate_hz,
        rpm=args.rpm,
        label=FaultLabel.from_name(args.label),
        linear=channels[:, :-1].T,
        angular=channels[:, -1],
        id=args.id or src.stem,
    )
    out = _prepare_out(args.out)
    path, sidecar = save_recording(rec, out / f"{rec.id}.csv")
    return Done(f"import: {src} -> {path} ({rec.n_samples} samples)", out, [path, sidecar])


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vibediag",
                                     description="Bearing fault diagnosis pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the flags every command takes
    common.add_argument("--config", help="JSON run configuration; flags override it")
    common.add_argument("--seed", type=int, help="seed (falls back to config, then $VIBEDIAG_SEED)")

    p = sub.add_parser("simulate", parents=[common], help="synthesize one recording set per fault class")
    p.add_argument("--out", required=True)
    p.add_argument("--duration-s", dest="simulate.duration_s", type=float)
    p.add_argument("--noise-sigma", dest="simulate.noise_sigma", type=float)
    p.add_argument("--sample-rate-hz", dest="simulate.sample_rate_hz", type=float)
    p.add_argument("--recordings-per-class", dest="simulate.recordings_per_class", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("srs", parents=[common], help="locate torsional resonance peaks in a shock recording")
    p.add_argument("--recording", required=True)
    p.add_argument("--lo", dest="band.search_lo_hz", type=float)
    p.add_argument("--hi", dest="band.search_hi_hz", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_srs)

    p = sub.add_parser("featurize", parents=[common], help="windows -> spectrum images + band features")
    p.add_argument("--recordings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--srs", help="shock recording; overrides band centers")
    p.add_argument("--window-len", dest="segmentation.window_len", type=int)
    p.add_argument("--hop", dest="segmentation.hop", type=int)
    p.add_argument("--channels", dest="hht.channels", type=int)
    p.add_argument("--freq-max-hz", dest="hht.freq_max_hz", type=float)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("split", parents=[common], help="attach train/val/test membership and the feature scaler")
    p.add_argument("--dataset", required=True)
    p.add_argument("--test-fraction", dest="split.test_fraction", type=float)
    p.add_argument("--val-fraction", dest="split.val_fraction", type=float)
    p.add_argument("--stratified", dest="split.stratified", action="store_true", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", parents=[common], help="train a model branch on a featurized dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--branch", choices=("hybrid", "cnn", "mlp"), default="hybrid")
    p.add_argument("--learning-rate", dest="train.learning_rate", type=float)
    p.add_argument("--batch-size", dest="train.batch_size", type=int)
    p.add_argument("--max-epochs", dest="train.max_epochs", type=int)
    p.add_argument("--patience", dest="train.patience", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", parents=[common], help="evaluate a checkpoint on one split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=SPLIT_NAMES, default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("embed", parents=[common], help="PCA variance curve + t-SNE map of the images")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target", type=float, default=0.99, help="variance fraction in (0, 1] for PCA reduction")
    p.add_argument("--max-points", dest="max_points", type=int, default=2000)
    p.add_argument("--perplexity", dest="tsne.perplexity", type=float)
    p.add_argument("--iterations", dest="tsne.iterations", type=int)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("export-images", parents=[common], help="write one PPM/PGM per window")
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_images)

    p = sub.add_parser("import", parents=[common], help="adapt an external raw CSV into the recording format")
    p.add_argument("--src", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--sample-rate-hz", dest="sample_rate_hz", type=float, required=True)
    p.add_argument("--rpm", type=float, required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--id")
    p.add_argument("--linear-cols", dest="linear_cols", default="0")
    p.add_argument("--angular-col", dest="angular_col", default="1")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--has-header", dest="has_header", action="store_true")
    p.set_defaults(func=cmd_import)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, seed = _configure(args)
        done = args.func(args, config, seed)
        if done.out is not None:
            write_manifest(done.out, args.command, seed, config, done.artifacts, done.extra, done.dataset)
        print(done.message)
        return 0
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
