#!/usr/bin/env python3
"""The paper's three-branch comparison, on simulated or imported recordings.

``desk`` simulates the five fault classes on the synthetic rig and runs the
desk protocol: 8192 Hz, 1024/410 windowing, Adam 1e-3, patience
min(20, --max-epochs); minutes on a laptop. ``imported`` runs the reference
protocol, the config defaults (3897/1559 windowing at 31.175 kHz, 240/820 Hz
bands, Adam 1e-4 / batch 20 / 200 epochs / patience 50), on recordings
already in the package format (see `vibediag import` in the README), for
all three branches; CPU hours. Both then featurize, split, train and
evaluate each branch through the CLI, run embed (whose manifest counts the
principal components that reach 0.99 variance) and write summary.json.

Usage:
    python scripts/experiment.py desk --out runs/desk --branches hybrid cnn mlp
    python scripts/experiment.py imported --recordings data/imported --out runs/full
"""

import argparse
import json
import sys
import time
from pathlib import Path

from vibediag.cli import main as vibediag_main


def run(argv):
    code = vibediag_main([str(a) for a in argv])
    if code != 0:
        sys.exit(f"stage failed: {' '.join(str(a) for a in argv)}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sources = parser.add_subparsers(dest="source", required=True)
    desk = sources.add_parser("desk", help="simulate the rig and run the desk protocol")
    desk.add_argument("--duration-s", type=float, default=15.2,
                      help="per-class recording length; 15.2 s gives ~300 windows/class")
    desk.add_argument("--noise-sigma", type=float, default=0.3)
    desk.add_argument("--max-epochs", type=int, default=60)
    desk.add_argument("--branches", nargs="+", default=["hybrid"], choices=("hybrid", "cnn", "mlp"))
    imported = sources.add_parser("imported", help="run the reference protocol on imported recordings")
    imported.add_argument("--recordings", required=True)
    imported.add_argument("--srs", help="optional shock recording for band centers")
    imported.set_defaults(branches=["hybrid", "cnn", "mlp"])
    for source, out in ((desk, "runs/desk"), (imported, "runs/full")):
        source.add_argument("--out", default=out)
        source.add_argument("--seed", type=int, default=0)
        source.add_argument("--jobs", type=int, default=2)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    out = Path(args.out)
    ds_dir = out / "dataset"

    t0 = time.perf_counter()
    if args.source == "desk":
        recordings = out / "recordings"
        run(["simulate", "--out", recordings, "--seed", args.seed, "--sample-rate-hz", 8192,
             "--duration-s", args.duration_s, "--noise-sigma", args.noise_sigma])
        featurize = ["--window-len", 1024, "--hop", 410]
        train = ["--learning-rate", 1e-3, "--max-epochs", args.max_epochs, "--patience", min(20, args.max_epochs)]
    else:
        recordings = args.recordings
        featurize = ["--srs", args.srs] if args.srs else []
        train = []
    run(["featurize", "--recordings", recordings, "--out", ds_dir, "--seed", args.seed, "--jobs", args.jobs,
         *featurize])
    run(["split", "--dataset", ds_dir, "--seed", args.seed])

    results = {}
    for branch in args.branches:
        ckpt, eval_dir = out / f"model-{branch}", out / f"eval-{branch}"
        run(["train", "--dataset", ds_dir, "--out", ckpt, "--branch", branch, "--seed", args.seed, *train])
        run(["eval", "--checkpoint", ckpt, "--dataset", ds_dir, "--out", eval_dir])
        results[branch] = json.loads((eval_dir / "report.json").read_text())["accuracy"]

    embed_dir = out / "embed"
    run(["embed", "--dataset", ds_dir, "--out", embed_dir, "--seed", args.seed])
    results["pca_components_for_0.99"] = json.loads((embed_dir / "manifest.json").read_text())["extra"]["components"]

    (out / "summary.json").write_text(json.dumps(results, indent=2) + "\n")
    print(f"done in {(time.perf_counter() - t0) / 60:.1f} min: {results}")


if __name__ == "__main__":
    main()
