"""Command-line front end for the diagnosis pipeline.

Stages write only into their --out directory and leave a manifest.json
recording the command, package version, resolved seed, the full config
echo and sha256 checksums of every artifact, so any run can be reproduced
from its manifest alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import vibediag
from vibediag.band_features import find_torsional_peaks, magnitude_spectrum
from vibediag.config import RunConfig, config_from_dict, config_to_dict, load_config, resolve_seed
from vibediag.embedding import pca_fit, pca_reduce, subsample_indices, tsne
from vibediag.hht import write_image
from vibediag.hybrid_model import (
    BRANCH_BUILDERS,
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
from vibediag.signal_model import (
    FaultLabel,
    Recording,
    load_recording,
    preset_spec,
    save_recording,
    synthesize_recording,
)


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


def _prepare_out(path: str) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _configure(args) -> tuple[RunConfig, int]:
    """The run config with every given ``section.field`` flag laid over the config file, each
    section validated once over both, and the resolved seed."""
    payload = config_to_dict(load_config(args.config))
    for dest, value in vars(args).items():
        if "." in dest and value is not None:
            section, name = dest.split(".")
            payload[section][name] = value
    config = config_from_dict(payload)
    return config, resolve_seed(args.seed, config)


def _torsional_peaks(recording_path, band):
    rec = load_recording(recording_path)
    spectrum = magnitude_spectrum(rec.angular, rec.sample_rate_hz, taper=band.taper)
    return find_torsional_peaks(spectrum, band.search_lo_hz, band.search_hi_hz)


# ---------------------------------------------------------------------------
# Commands


def cmd_simulate(args) -> int:
    config, seed = _configure(args)
    sim = config.simulate
    out = _prepare_out(args.out)
    artifacts = []
    for label in FaultLabel:
        for rep in range(sim.recordings_per_class):
            spec = preset_spec(
                label,
                duration_s=sim.duration_s,
                sample_rate_hz=sim.sample_rate_hz,
                shaft_hz=sim.shaft_hz,
                noise_sigma=sim.noise_sigma,
                impulse_amplitude=sim.impulse_amplitude,
            )
            rec_seed = seed * 1000 + int(label) * 10 + rep
            rec_id = f"{label.canonical_name.lower()}-r{rep}"
            rec = synthesize_recording(spec, rec_seed, id=rec_id)
            artifacts.extend(save_recording(rec, out / f"{rec_id}.csv"))
    write_manifest(out, "simulate", seed, config, artifacts)
    print(f"simulate: wrote {len(artifacts) // 2} recordings to {out}")
    return 0


def cmd_srs(args) -> int:
    config, _ = _configure(args)
    peaks = _torsional_peaks(args.recording, config.band)
    payload = {
        "peaks_hz": [p.center_hz for p in peaks],
        "prominence": [p.prominence for p in peaks],
    }
    if args.out:
        _prepare_out(Path(args.out).parent)
        Path(args.out).write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload))
    return 0


def cmd_featurize(args) -> int:
    config, seed = _configure(args)
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
    write_manifest(out, "featurize", seed, config,
                   [out / "dataset.json", out / "dataset.bin"], extra=counters)
    print(f"featurize: {len(dataset)} windows -> {out}")
    return 0


def cmd_split(args) -> int:
    config, seed = _configure(args)
    spec = config.split
    spec.seed = seed
    dataset_dir = Path(args.dataset)
    dataset = load_dataset(dataset_dir)
    assign_splits(dataset, spec)
    save_dataset_json(dataset, dataset_dir)
    counts = {name: len(keys) for name, keys in dataset.splits.items()}
    # Keep the featurize counters that the manifest being replaced recorded.
    previous = dataset_dir / "manifest.json"
    extra = json.loads(previous.read_text()).get("extra", {}) if previous.is_file() else {}
    write_manifest(dataset_dir, "split", seed, config,
                   [dataset_dir / "dataset.json", dataset_dir / "dataset.bin"],
                   extra={**extra, **counts}, dataset=dataset)
    print(f"split: {counts}")
    return 0


def cmd_train(args) -> int:
    config, seed = _configure(args)
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
    write_manifest(out, "train", seed, config,
                   [out / "model.json", out / "model.bin", out / "history.csv"],
                   extra={"branch": args.branch, "epochs_run": len(history),
                          "best_epoch": history.best_epoch,
                          "best_val_loss": min(history.val_loss)},
                   dataset=dataset)
    print(f"train[{args.branch}]: {len(history)} epochs, best epoch {history.best_epoch}, "
          f"val acc {history.val_accuracy[history.best_epoch - 1]:.4f}")
    return 0


def cmd_eval(args) -> int:
    config, seed = _configure(args)
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
    branch = trained.get("branch", "hybrid")
    images, feats, labels, _ = dataset.arrays_for(args.split)
    metrics = evaluate_arrays(model, images, feats, labels)
    report = classification_report(metrics)

    out = _prepare_out(args.out)
    (out / "report.json").write_text(json.dumps(report, indent=2) + "\n")
    confusion_to_csv(metrics.confusion, out / "confusion.csv")
    write_manifest(out, "eval", seed, config,
                   [out / "report.json", out / "confusion.csv"],
                   extra={"split": args.split, "branch": branch, "accuracy": metrics.accuracy,
                          "checkpoint": {name: _sha256(checkpoint / name)
                                         for name in ("model.json", "model.bin")}},
                   dataset=dataset)
    print(render_report(metrics))
    return 0


def cmd_embed(args) -> int:
    config, seed = _configure(args)
    config.tsne.seed = seed
    dataset = load_dataset(args.dataset)
    flat = dataset.images.reshape(len(dataset), -1)
    model = pca_fit(flat)

    out = _prepare_out(args.out)
    curve_lines = ["k,cumulative_ratio"] + [
        f"{k + 1},{float(r)!r}" for k, r in enumerate(model.cumulative_ratio)
    ]
    (out / "variance_curve.csv").write_text("\n".join(curve_lines) + "\n")

    target = args.target if args.target is not None else 0.99
    if target >= model.cumulative_ratio[-1]:
        target = int(model.cumulative_ratio.size)  # fall back to full rank
    reduced = pca_reduce(model, flat, target)

    picked = subsample_indices(len(dataset), args.max_points, seed)
    embedding, kl = tsne(reduced[picked], config.tsne)
    rows = ["id,x,y,label"]
    for pos, idx in enumerate(picked):
        label = FaultLabel(int(dataset.labels[idx]))
        rows.append(f"{dataset.provenance[idx]},{float(embedding[pos, 0])!r},"
                    f"{float(embedding[pos, 1])!r},{label.canonical_name}")
    (out / "embedding.csv").write_text("\n".join(rows) + "\n")
    write_manifest(out, "embed", seed, config,
                   [out / "variance_curve.csv", out / "embedding.csv"],
                   extra={"points": int(picked.size),
                          "components": int(reduced.shape[1]),
                          "kl_after_exaggeration": float(kl[0]),
                          "kl_final": float(kl[1])},
                   dataset=dataset)
    print(f"embed: {picked.size} points, {reduced.shape[1]} components -> {out}")
    return 0


def cmd_export_images(args) -> int:
    config, seed = _configure(args)
    dataset = load_dataset(args.dataset)
    out = _prepare_out(args.out)
    suffix = ".ppm" if dataset.images.shape[3] == 3 else ".pgm"
    artifacts = []
    for pixels, key in zip(dataset.images, dataset.provenance):
        path = out / (key.replace(":", "_") + suffix)
        write_image(pixels, path)
        artifacts.append(path)
    write_manifest(out, "export-images", seed, config, artifacts, dataset=dataset)
    print(f"export-images: {len(artifacts)} files -> {out}")
    return 0


def cmd_import(args) -> int:
    """Adapt an externally downloaded raw CSV into the recording format."""
    config, seed = _configure(args)
    src = Path(args.src)
    raw = np.loadtxt(src, delimiter=args.delimiter, skiprows=1 if args.has_header else 0)
    if raw.ndim == 1:
        raw = raw[:, None]
    linear_cols = [int(c) for c in args.linear_cols.split(",")]
    if len(linear_cols) not in (1, 2):
        raise ValueError("--linear-cols takes one or two comma-separated column indices")
    linear = raw[:, linear_cols].T
    angular = raw[:, int(args.angular_col)]
    rec = Recording(
        sample_rate_hz=args.sample_rate_hz,
        rpm=args.rpm,
        label=FaultLabel.from_name(args.label),
        linear=linear,
        angular=angular,
        id=args.id or src.stem,
    )
    out = _prepare_out(args.out)
    path, sidecar = save_recording(rec, out / f"{rec.id}.csv")
    write_manifest(out, "import", seed, config, [path, sidecar])
    print(f"import: {src} -> {path} ({rec.n_samples} samples)")
    return 0


# ---------------------------------------------------------------------------
# Parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run configuration; flags override it")
    p.add_argument("--seed", type=int, help="seed (falls back to config, then $VIBEDIAG_SEED)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vibediag",
                                     description="Bearing fault diagnosis pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize one recording set per fault class")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--duration-s", dest="simulate.duration_s", type=float)
    p.add_argument("--noise-sigma", dest="simulate.noise_sigma", type=float)
    p.add_argument("--sample-rate-hz", dest="simulate.sample_rate_hz", type=float)
    p.add_argument("--recordings-per-class", dest="simulate.recordings_per_class", type=int)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("srs", help="locate torsional resonance peaks in a shock recording")
    _add_common(p)
    p.add_argument("--recording", required=True)
    p.add_argument("--lo", dest="band.search_lo_hz", type=float)
    p.add_argument("--hi", dest="band.search_hi_hz", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_srs)

    p = sub.add_parser("featurize", help="windows -> spectrum images + band features")
    _add_common(p)
    p.add_argument("--recordings", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--srs", help="shock recording; overrides band centers")
    p.add_argument("--window-len", dest="segmentation.window_len", type=int)
    p.add_argument("--hop", dest="segmentation.hop", type=int)
    p.add_argument("--channels", dest="hht.channels", type=int, choices=(1, 3))
    p.add_argument("--freq-max-hz", dest="hht.freq_max_hz", type=float)
    p.set_defaults(func=cmd_featurize)

    p = sub.add_parser("split", help="attach train/val/test membership and the feature scaler")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--test-fraction", dest="split.test_fraction", type=float)
    p.add_argument("--val-fraction", dest="split.val_fraction", type=float)
    p.add_argument("--stratified", dest="split.stratified", action="store_true", default=None)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("train", help="train a model branch on a featurized dataset")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--branch", choices=("hybrid", "cnn", "mlp"), default="hybrid")
    p.add_argument("--learning-rate", dest="train.learning_rate", type=float)
    p.add_argument("--batch-size", dest="train.batch_size", type=int)
    p.add_argument("--max-epochs", dest="train.max_epochs", type=int)
    p.add_argument("--patience", dest="train.patience", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on one split")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--split", choices=("train", "val", "test"), default="test")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("embed", help="PCA variance curve + t-SNE map of the images")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--target", type=float, help="variance fraction for PCA reduction")
    p.add_argument("--max-points", dest="max_points", type=int, default=2000)
    p.add_argument("--perplexity", dest="tsne.perplexity", type=float)
    p.add_argument("--iterations", dest="tsne.iterations", type=int)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("export-images", help="write one PPM/PGM per window")
    _add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_images)

    p = sub.add_parser("import", help="adapt an external raw CSV into the recording format")
    _add_common(p)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # one-line diagnostic, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
