#!/usr/bin/env python3
"""Full-scale run against an imported copy of the public shaft-sensor dataset.

Expects a directory of recordings already adapted to the package format
(see the `vibediag import` command in the README). Reproduces the reference
protocol: 3897/1559 windowing at 31.175 kHz, 240/820 Hz band features,
0.15/0.15 ceil splits, Adam 1e-4 / batch 20 / 200 epochs / patience 50,
then evaluates hybrid, CNN-only and MLP-only on the same featurized data,
and runs the embed stage, whose manifest reports how many principal
components reach 0.99 cumulative variance.

This is a CPU-hours run; keep it off the default test path.

Usage:
    python scripts/full_scale_experiment.py --recordings data/imported --out runs/full
"""

import argparse
import json
import time
from pathlib import Path

from desk_experiment import run


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--recordings", required=True)
    parser.add_argument("--out", default="runs/full")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--srs", help="optional shock recording for band centers")
    args = parser.parse_args()

    out = Path(args.out)
    ds_dir = out / "dataset"

    t0 = time.perf_counter()
    featurize = ["featurize", "--recordings", args.recordings, "--out", ds_dir,
                 "--seed", args.seed, "--jobs", args.jobs]
    if args.srs:
        featurize += ["--srs", args.srs]
    run(featurize)
    run(["split", "--dataset", ds_dir, "--seed", args.seed])

    results = {}
    for branch in ("hybrid", "cnn", "mlp"):
        ckpt = out / f"model-{branch}"
        run(["train", "--dataset", ds_dir, "--out", ckpt, "--branch", branch,
             "--seed", args.seed])
        eval_dir = out / f"eval-{branch}"
        run(["eval", "--checkpoint", ckpt, "--dataset", ds_dir, "--out", eval_dir])
        results[branch] = json.loads((eval_dir / "report.json").read_text())["accuracy"]

    # The embed stage fits PCA to every window's image and records the
    # component count that reaches its default 0.99 target.
    embed_dir = out / "embed"
    run(["embed", "--dataset", ds_dir, "--out", embed_dir, "--seed", args.seed])
    manifest = json.loads((embed_dir / "manifest.json").read_text())
    results["pca_components_for_0.99"] = manifest["extra"]["components"]

    (out / "summary.json").write_text(json.dumps(results, indent=2) + "\n")
    print(f"done in {(time.perf_counter() - t0) / 3600:.2f} h: {results}")


if __name__ == "__main__":
    main()
