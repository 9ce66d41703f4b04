#!/usr/bin/env python3
"""Desk-scale end-to-end experiment on the synthetic rig.

Simulates five fault classes, featurizes, splits, trains the requested
branches and evaluates each on the held-out test split. Everything goes
through the CLI entry points so each stage leaves a manifest.

Usage:
    python scripts/desk_experiment.py --out runs/desk --seed 0
    python scripts/desk_experiment.py --out runs/desk --branches hybrid cnn mlp
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


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="runs/desk")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--branches", nargs="+", default=["hybrid"],
                        choices=("hybrid", "cnn", "mlp"))
    parser.add_argument("--duration-s", type=float, default=15.2,
                        help="per-class recording length; 15.2 s gives ~300 windows/class")
    parser.add_argument("--noise-sigma", type=float, default=0.3)
    parser.add_argument("--jobs", type=int, default=2)
    parser.add_argument("--max-epochs", type=int, default=60)
    args = parser.parse_args()

    out = Path(args.out)
    rec_dir = out / "recordings"
    ds_dir = out / "dataset"

    t0 = time.perf_counter()
    run(["simulate", "--out", rec_dir, "--seed", args.seed,
         "--sample-rate-hz", 8192, "--duration-s", args.duration_s,
         "--noise-sigma", args.noise_sigma])
    run(["featurize", "--recordings", rec_dir, "--out", ds_dir, "--seed", args.seed,
         "--window-len", 1024, "--hop", 410, "--jobs", args.jobs])
    run(["split", "--dataset", ds_dir, "--seed", args.seed])

    results = {}
    for branch in args.branches:
        ckpt = out / f"model-{branch}"
        run(["train", "--dataset", ds_dir, "--out", ckpt, "--branch", branch,
             "--seed", args.seed, "--learning-rate", 1e-3,
             "--max-epochs", args.max_epochs, "--patience", min(20, args.max_epochs)])
        eval_dir = out / f"eval-{branch}"
        run(["eval", "--checkpoint", ckpt, "--dataset", ds_dir, "--out", eval_dir])
        report = json.loads((eval_dir / "report.json").read_text())
        results[branch] = report["accuracy"]

    elapsed = time.perf_counter() - t0
    print(f"\ndone in {elapsed / 60:.1f} min; test accuracy per branch: {results}")


if __name__ == "__main__":
    main()
