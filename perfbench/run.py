"""Benchmark of the vibediag pipeline.

    python3 perfbench/run.py --workload featurize-ref --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout. Workloads (see README.md in this
directory): featurize-ref, train-hybrid, desk-e2e. Every input is derived
from --seed. With --trace 0 the last line of stdout is one JSON object with
the end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run, which alternates untraced and traced jobs to report the tracing
overhead. The line before it holds the machine fingerprint and sample
counts; artifacts, the full result and the spans go to
.perfbench_out/<workload>-seed<n>-trace<t>/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fingerprint() -> dict:
    import numpy
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = next((line.split(":", 1)[1].strip() for line in (read("/proc/cpuinfo") or "").splitlines()
                      if line.startswith("model name")), platform.processor() or None)
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    llc = max(((int(read(c / "level") or 0), read(c / "size")) for c in caches), default=(0, None))[1]
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
        "src_sha256": source.hexdigest(),
    }


def check_names(e2e, per_layer) -> None:
    """Fail loudly when the metric tables drift from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    for key, table in (("end_to_end", e2e), ("per_layer", per_layer)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        ours = [row[:3] for row in table]
        if listed != ours:
            raise SystemExit(f"perfbench: BENCHMARK.json {key} does not match layers.py")


# One BLAS thread per process unless the caller chose otherwise: the box is
# small, the featurize pool already runs one process per CPU, and on two
# shared CPUs threaded BLAS made step and inference times spread twice as
# wide from run to run.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def import_seconds() -> list[float]:
    """Seconds to import the CLI and every module it loads, each in a fresh
    interpreter with warm bytecode caches."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import vibediag.cli; print(time.perf_counter() - t)")
    return [float(subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], capture_output=True,
                                 text=True, timeout=120, check=True).stdout)
            for _ in range(SETUP_REPEATS)]


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest child so far."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def end_to_end(jobs, setup_s: float, rss_mb: float, yardstick, reference: bool = True) -> dict[str, float]:
    """End-to-end metrics of ``jobs``, timed in reference or measured seconds."""
    import numpy as np

    def seconds(intervals):
        return sum(yardstick.seconds(s, e, reference) for s, e in intervals)

    latencies = [1e3 * seconds([u]) for j in jobs for u in j.units] or [0.0]  # empty if a stage failed
    return {
        "setup_s": setup_s,
        "throughput": statistics.median(j.rate_count / seconds(j.rate_work) if j.rate_work else 0.0
                                        for j in jobs),
        "latency_p50": float(np.percentile(latencies, 50)),
        "latency_p90": float(np.percentile(latencies, 90)),
        "job_time": statistics.median(seconds(j.work) for j in jobs),
        "peak_rss_mb": rss_mb,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "vibediag" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"perfbench: no vibediag sources under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2

    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import vibediag.cli  # noqa: F401  -- numpy, scipy and every pipeline module

    from vibediag.nn_engine import Model

    from layers import E2E, PER_LAYER, per_layer
    from spans import StepClock, Tracer, traced_program
    from workloads import WORKLOADS
    from yardstick import Yardstick

    check_names(E2E, PER_LAYER)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    tracer = Tracer(run_id=out.name) if args.trace else None

    def traced(phase):
        """Tracing on for one phase of a traced run; off otherwise."""
        if tracer is None or phase is None:
            return contextlib.nullcontext()
        tracer.phase = phase
        return traced_program(tracer)

    setups = []
    for _ in range(SETUP_REPEATS):
        workload = WORKLOADS[args.workload](ROOT, args.seed, out)
        with traced("setup"):
            s = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - s)
    yardstick = Yardstick()
    for _ in range(10):  # warm-up, not kept
        yardstick.sample()
    yardstick.runs.clear()

    # Jobs repeat until the run has lasted as close to --seconds as whole jobs
    # allow. A traced run alternates untraced and traced jobs, so the two
    # sides see the same inputs and the same machine. The yardstick samples
    # before every untraced job and between its timed calls; it rests during
    # traced jobs, so that the spans hold only the program's work.
    clock = StepClock()
    jobs, traced_jobs, steps = [], [], []
    start = time.perf_counter()
    with clock.installed(Model, yardstick):
        while True:
            on = bool(args.trace) and (len(jobs) + len(traced_jobs)) % 2 == 1
            since = len(clock.calls)
            yardstick.active = True
            yardstick.sample()
            yardstick.active = not on
            with traced("job" if on else None):
                job = workload.job(clock, yardstick, tracer if on else None)
            (traced_jobs if on else jobs).append(job)
            if on:
                steps.extend(clock.steps(since))
            elapsed = time.perf_counter() - start
            per_job = elapsed / (len(jobs) + len(traced_jobs))
            if args.seconds - elapsed < per_job / 2 and (traced_jobs or not args.trace):
                break

    yardstick.active = True
    yardstick.sample()  # the last job's right-hand neighbour
    done = jobs + traced_jobs
    failed = sum(j.failed for j in done)
    rss_mb = peak_rss_mb()  # before the import timing below starts children of its own
    imports = import_seconds()
    setup_s = statistics.median(imports) + statistics.median(setups)
    untraced = end_to_end(jobs, setup_s, rss_mb, yardstick)
    units = {name: unit for name, unit, *_ in E2E + PER_LAYER}
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "jobs": len(jobs), "traced_jobs": len(traced_jobs),
        "latency_samples": sum(len(j.units) for j in jobs),
        "yardstick_ms": {"median": 1e3 * yardstick.median_s(),
                         "samples": len(yardstick.runs) + len(yardstick.remote)},
        "measured": end_to_end(jobs, setup_s, rss_mb, yardstick, reference=False),
        "failures": [f for j in done for f in j.detail.get("failures", [])][:20],
        "fingerprint": fingerprint(),
    }
    if args.trace:
        metrics = per_layer(tracer.spans, steps, len(traced_jobs), workload.sift_cap)
        last = traced_jobs[-1].detail
        metrics["hybrid_model.test_accuracy"] = float(last.get("test_accuracy", 0.0))
        metrics["hybrid_model.dataset_bytes"] = float(last.get("dataset_bytes", 0.0))
        metrics["signal_model.recording_bytes"] = float(last.get("recording_bytes", 0.0))
        metrics["cli.hashed_bytes"] = float(last.get("hashed_bytes", 0.0))
        busy = sum(j.cpu_workers * yardstick.seconds(s, e, reference=False)
                   for j in traced_jobs for s, e in j.rate_work)  # 0 if featurize failed
        metrics["pipeline.parallel_efficiency"] = sum(j.cpu_s for j in traced_jobs) / busy if busy else 0.0
        with_tracing = end_to_end(traced_jobs, setup_s, rss_mb, yardstick)
        metrics["trace.overhead_pct"] = 100.0 * (with_tracing["job_time"] / untraced["job_time"] - 1.0)
        summary["tracing_overhead"] = {k: with_tracing[k] - untraced[k] for k in untraced
                                       if k not in ("setup_s", "peak_rss_mb")}
        tracer.dump(out / "spans.csv.gz")
    else:
        metrics = untraced

    record = {**summary, "untraced": untraced,
              "job_detail": [{**j.detail, "units": j.units, "work": j.work, "rate_work": j.rate_work}
                             for j in done],
              "setup_runs_s": setups, "import_runs_s": imports, "yardstick_runs": yardstick.runs,
              "yardstick_pool_runs": yardstick.remote,
              "metrics": metrics}
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(j.attempted for j in done),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
