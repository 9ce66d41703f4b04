"""Metric tables and the per-layer numbers derived from a traced run's spans.

``E2E`` and ``PER_LAYER`` list every metric the benchmark reports, with unit
and better direction; ``run.py`` refuses to print a result whose names drift
from ``BENCHMARK.json``. README.md in this directory maps each layer metric
to the end-to-end metric and workload it should move.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict

from spans import END, FLOPS, NAME, PARENT, PHASE, START, BYTES

# name, unit, better, bound (share of the parent's median)
# Timings other than setup_s are in reference time (yardstick.py).
E2E = [
    ("setup_s", "s", "lower", 0.25),
    ("throughput", "1/ref-s", "higher", 0.25),
    ("latency_p50", "ref-ms", "lower", 0.25),
    ("latency_p90", "ref-ms", "lower", 0.25),
    ("job_time", "ref-s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

CONVS = ("conv1", "conv2", "conv3")
NN_STEP = [f"{layer}.{d}" for layer in (*CONVS, "pool1", "pool2", "pool3", "relu", "dense")
           for d in ("fwd", "bwd")]
CLI_STAGES = ("simulate", "featurize", "split", "train", "eval", "embed")

PER_LAYER = [
    ("emd.sift_ms", "ms", "lower"),
    ("emd.sift_self_ms", "ms", "lower"),
    ("emd.find_extrema_ms", "ms", "lower"),
    ("emd.spline_envelope_ms", "ms", "lower"),
    ("emd.spline_calls", "count", "lower"),
    ("emd.sift_iters_per_imf", "count", "lower"),
    ("emd.imfs_at_cap_frac", "fraction", "lower"),
    ("hht.render_ms", "ms", "lower"),
    ("hht.analytic_signal_ms", "ms", "lower"),
    ("band_features.extract_ms", "ms", "lower"),
    ("segmentation.segment_ms", "ms", "lower"),
    ("pipeline.featurize_windows_s", "s", "lower"),
    ("pipeline.parallel_efficiency", "fraction", "higher"),
    ("signal_model.synthesize_s", "s", "lower"),
    ("signal_model.save_recording_s", "s", "lower"),
    ("signal_model.load_recording_s", "s", "lower"),
    ("signal_model.recording_bytes", "bytes", "lower"),
    *[(f"nn_engine.{n}_ms", "ms", "lower") for n in NN_STEP],
    ("nn_engine.loss_ms", "ms", "lower"),
    ("nn_engine.adam_ms", "ms", "lower"),
    ("nn_engine.snapshot_ms", "ms", "lower"),
    ("nn_engine.val_pass_ms", "ms", "lower"),
    ("nn_engine.steps", "count", "lower"),
    ("nn_engine.epochs", "count", "lower"),
    *[(f"nn_engine.{c}.gflop_per_s", "GFLOP/s", "higher") for c in CONVS],
    *[(f"nn_engine.{c}.flops_per_byte", "flop/B", "higher") for c in CONVS],
    ("nn_engine.save_model_ms", "ms", "lower"),
    ("nn_engine.load_model_ms", "ms", "lower"),
    ("hybrid_model.predict_ms", "ms", "lower"),
    ("hybrid_model.save_dataset_s", "s", "lower"),
    ("hybrid_model.load_dataset_s", "s", "lower"),
    ("hybrid_model.dataset_bytes", "bytes", "lower"),
    ("hybrid_model.assign_splits_s", "s", "lower"),
    ("hybrid_model.evaluate_arrays_s", "s", "lower"),
    ("hybrid_model.test_accuracy", "fraction", "higher"),
    ("embedding.pca_fit_s", "s", "lower"),
    ("embedding.tsne_s", "s", "lower"),
    *[(f"cli.{s}_s", "s", "lower") for s in CLI_STAGES],
    ("cli.write_manifest_s", "s", "lower"),
    ("cli.hashed_bytes", "bytes", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.emd_cover_frac", "fraction", "higher"),
    ("trace.nn_cover_frac", "fraction", "higher"),
    ("trace.spans_per_job", "count", "lower"),
]

# Per-call means: metric -> (span name, scale to the metric's unit).
PER_CALL = {
    "emd.sift_ms": ("emd.sift", 1e3),
    "emd.find_extrema_ms": ("emd.find_extrema", 1e3),
    "emd.spline_envelope_ms": ("emd.spline_envelope", 1e3),
    "hht.render_ms": ("hht.render_spectrum_image", 1e3),
    "hht.analytic_signal_ms": ("hht.analytic_signal", 1e3),
    "band_features.extract_ms": ("band_features.extract_features", 1e3),
    "segmentation.segment_ms": ("segmentation.segment", 1e3),
    "signal_model.synthesize_s": ("signal_model.synthesize_recording", 1.0),
    "signal_model.save_recording_s": ("signal_model.save_recording", 1.0),
    "signal_model.load_recording_s": ("signal_model.load_recording", 1.0),
    "nn_engine.snapshot_ms": ("nn_engine.snapshot", 1e3),
    "nn_engine.val_pass_ms": ("nn_engine._batched_eval", 1e3),
    "nn_engine.save_model_ms": ("nn_engine.save_model", 1e3),
    "nn_engine.load_model_ms": ("nn_engine.load_model", 1e3),
    "hybrid_model.predict_ms": ("hybrid_model.predict_classes", 1e3),
    "hybrid_model.save_dataset_s": ("hybrid_model.save_dataset", 1.0),
    "hybrid_model.load_dataset_s": ("hybrid_model.load_dataset", 1.0),
    "hybrid_model.assign_splits_s": ("hybrid_model.assign_splits", 1.0),
    "hybrid_model.evaluate_arrays_s": ("hybrid_model.evaluate_arrays", 1.0),
    "embedding.pca_fit_s": ("embedding.pca_fit", 1.0),
    "embedding.tsne_s": ("embedding.tsne", 1.0),
    "cli.write_manifest_s": ("cli.write_manifest", 1.0),
    **{f"cli.{s}_s": (f"cli.cmd_{s}", 1.0) for s in CLI_STAGES},
}


def sift_iterations(spans, children, sift_index) -> list[int]:
    """Completed sift iterations of each IMF extracted by one ``emd.sift`` call.

    Inside ``sift`` every completed iteration calls ``find_extrema`` once and
    ``spline_envelope`` twice. A ``find_extrema`` call not followed by a
    spline is the extrema count that opens an IMF, or the check that ends
    one early, so runs of completed iterations between those are the IMFs.
    """
    calls = [spans[c][NAME] for c in children[sift_index]
             if spans[c][NAME] in ("emd.find_extrema", "emd.spline_envelope")]
    imfs, current = [], 0
    for i, name in enumerate(calls):
        if name != "emd.find_extrema":
            continue
        if i + 1 < len(calls) and calls[i + 1] == "emd.spline_envelope":
            current += 1
        elif current:
            imfs.append(current)
            current = 0
    if current:
        imfs.append(current)
    return imfs


def per_layer(spans, steps, traced_jobs: int, sift_cap: int) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    ``steps`` are the (start, end) times of the training steps of the traced
    jobs. Timings named ``*_ms``/``*_s`` are means per call over every traced
    phase, except the ``nn_engine`` step timings (per training step) and
    ``pipeline.featurize_windows_s`` (per traced job).
    """
    out = {name: 0.0 for name, _, _ in PER_LAYER}
    by_name = defaultdict(list)
    children = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    for metric, (name, scale) in PER_CALL.items():
        calls = by_name.get(name)
        if calls:
            out[metric] = scale * sum(map(dur, calls)) / len(calls)

    sifts = by_name.get("emd.sift", [])
    if sifts:
        self_s = sum(dur(i) - sum(dur(c) for c in children[i]) for i in sifts)
        out["emd.sift_self_ms"] = 1e3 * self_s / len(sifts)
        out["emd.spline_calls"] = len(by_name.get("emd.spline_envelope", [])) / len(sifts)
        imfs = [n for i in sifts for n in sift_iterations(spans, children, i)]
        if imfs:
            out["emd.sift_iters_per_imf"] = sum(imfs) / len(imfs)
            out["emd.imfs_at_cap_frac"] = sum(n >= sift_cap for n in imfs) / len(imfs)

    featurize = by_name.get("pipeline.featurize_windows", [])
    if traced_jobs:
        out["pipeline.featurize_windows_s"] = sum(
            dur(i) for i in featurize if spans[i][PHASE] == "job") / traced_jobs
        out["trace.spans_per_job"] = sum(s[PHASE] == "job" for s in spans) / traced_jobs

    # Share of featurize time spent inside emd.sift, over the serial
    # featurize calls (a --jobs pool sifts in child processes, unseen here).
    covered = total = 0.0
    for i in featurize:
        inside = [dur(c) for c in children[i] if spans[c][NAME] == "emd.sift"]
        if inside:
            covered += sum(inside)
            total += dur(i)
    if total:
        out["trace.emd_cover_frac"] = covered / total

    if steps:
        starts = [s for s, _ in steps]
        step_time = defaultdict(float)
        step_flops = defaultdict(float)
        step_bytes = defaultdict(float)
        for i, s in enumerate(spans):
            name = s[NAME]
            if not (name.endswith((".fwd", ".bwd")) or name in ("nn_engine.softmax_crossentropy",
                                                                "nn_engine.adam")):
                continue
            k = bisect_right(starts, s[START]) - 1
            if k >= 0 and s[START] < steps[k][1]:
                step_time[name] += dur(i)
                step_flops[name] += s[FLOPS]
                step_bytes[name] += s[BYTES]
        n = len(steps)
        for layer in NN_STEP:
            out[f"nn_engine.{layer}_ms"] = 1e3 * step_time[f"nn_engine.{layer}"] / n
        out["nn_engine.loss_ms"] = 1e3 * step_time["nn_engine.softmax_crossentropy"] / n
        out["nn_engine.adam_ms"] = 1e3 * step_time["nn_engine.adam"] / n
        for conv in CONVS:
            fwd, bwd = f"nn_engine.{conv}.fwd", f"nn_engine.{conv}.bwd"
            seconds = step_time[fwd] + step_time[bwd]
            if seconds:
                out[f"nn_engine.{conv}.gflop_per_s"] = (step_flops[fwd] + step_flops[bwd]) / seconds / 1e9
            if step_bytes[fwd]:
                out[f"nn_engine.{conv}.flops_per_byte"] = step_flops[fwd] / step_bytes[fwd]
        out["trace.nn_cover_frac"] = sum(step_time.values()) / sum(e - s for s, e in steps)
        out["nn_engine.steps"] = n / traced_jobs
        out["nn_engine.epochs"] = sum(
            spans[i][PHASE] == "job" for i in by_name.get("nn_engine._batched_eval", [])) / traced_jobs
    return out
