"""The three benchmark workloads.

Each workload builds its inputs from the seed alone in ``setup``, does one
fixed unit of work per ``job`` and checks every output it produced. A job
returns a :class:`Job` with its timings, the number of operations it
attempted and the number whose output checks failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from vibediag import cli, emd, hht, hybrid_model, nn_engine, pipeline, segmentation, signal_model
from vibediag.config import config_from_dict, load_config
from vibediag.emd import EmdConfig
from vibediag.signal_model import FaultLabel

from spans import StepClock, Patches, patch_everywhere
from yardstick import Yardstick


Interval = tuple[float, float]  # (start, end) on time.perf_counter()


@dataclass
class Job:
    attempted: int = 0
    failed: int = 0
    units: list[Interval] = field(default_factory=list)  # windows or training steps: the latencies
    work: list[Interval] = field(default_factory=list)  # the job's timed work: job_time
    rate_count: float = 0.0  # units behind throughput ...
    rate_work: list[Interval] = field(default_factory=list)  # ... and when they were made
    cpu_s: float = 0.0  # CPU seconds behind pipeline.parallel_efficiency
    cpu_workers: int = 1
    detail: dict = field(default_factory=dict)


def _fail(job: Job, ok: bool, what: str) -> None:
    job.attempted += 1
    if not ok:
        job.failed += 1
        job.detail.setdefault("failures", []).append(what)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@contextlib.contextmanager
def captured(module, attr):
    """Record the return value of every call to ``module.attr``, wherever imported."""
    fn = getattr(module, attr)
    results = []

    def capture(*args, **kwargs):
        out = fn(*args, **kwargs)
        results.append(out)
        return out

    patches = Patches()
    patch_everywhere(patches, fn, capture)
    try:
        yield results
    finally:
        patches.restore()


class Workload:
    """Inputs from the seed alone in ``setup``; one fixed unit of work per ``job``."""

    name = ""
    sift_cap = EmdConfig().max_sift_iterations  # the CLI runs without a config file

    def __init__(self, root: Path, seed: int, out: Path):
        self.root, self.seed, self.out = root, seed, out
        self.first = None  # outputs of the first job, which later jobs must repeat


# ---------------------------------------------------------------------------
# featurize-ref


class FeaturizeRef(Workload):
    """Serial featurize of reference-protocol windows, one window per call."""

    name = "featurize-ref"
    # Odd, so the median and p90 windows sit inside one class's cluster of
    # window times rather than in the gap between two clusters.
    windows_per_class = 5

    def setup(self) -> None:
        config = load_config(self.root / "configs" / "defaults.json")
        sim, seg = config.simulate, config.segmentation
        rng = np.random.default_rng(self.seed)
        windows = []
        for label in FaultLabel:
            spec = signal_model.preset_spec(
                label, duration_s=sim.duration_s, sample_rate_hz=sim.sample_rate_hz,
                shaft_hz=sim.shaft_hz, noise_sigma=sim.noise_sigma,
                impulse_amplitude=sim.impulse_amplitude)
            rec = signal_model.synthesize_recording(
                spec, self.seed * 1000 + int(label) * 10, id=f"{label.canonical_name.lower()}-r0")
            candidates = segmentation.segment(rec, seg.window_len, seg.hop, seg.linear_channel)
            picks = np.sort(rng.choice(len(candidates), self.windows_per_class, replace=False))
            windows.extend(candidates[i] for i in picks)
        self.config, self.windows = config, windows
        self.sift_cap = config.emd.max_sift_iterations
        pipeline.featurize_windows(windows[:1], config)  # warm-up

    def job(self, clock: StepClock, yardstick: Yardstick, tracer=None) -> Job:
        job = Job(rate_count=len(self.windows))
        examples = []
        with captured(emd, "sift") as modes:
            for w in self.windows:
                s, c = time.perf_counter(), time.process_time()
                examples.extend(pipeline.featurize_windows([w], self.config))
                job.units.append((s, time.perf_counter()))
                job.cpu_s += time.process_time() - c
                yardstick.sample()
        job.work = job.rate_work = job.units
        outputs = [(e.image.pixels, e.features.as_array()) for e in examples]
        for k, (w, imfs, (pixels, feats)) in enumerate(zip(self.windows, modes, outputs)):
            recon = np.max(np.abs(imfs.reconstruct() - w.linear)) <= 1e-9 * np.max(np.abs(w.linear))
            peak = pixels.max()
            image_ok = (pixels.min() >= 0.0 and (peak == 1.0 or not pixels.any()))
            feats_ok = bool(np.isfinite(feats).all() and (feats >= 0).all())
            same = self.first is None or (np.array_equal(pixels, self.first[k][0])
                                          and np.array_equal(feats, self.first[k][1]))
            _fail(job, bool(recon and image_ok and feats_ok and same and len(modes) == len(outputs)),
                  f"window {w.key}: reconstruct={recon} image={image_ok} features={feats_ok} "
                  f"repeatable={same}")
        if self.first is None:
            self.first = outputs
        return job


# ---------------------------------------------------------------------------
# train-hybrid


def hybrid_inputs(seed: int, n: int):
    """Colormapped 32x32 images plus two scalars; each input alone leaves two
    classes confused, so only the hybrid model can separate all five.

    The images place a bright band at one of three rows (classes {2,3,4}
    share one); the scalars sit near one of three centers (classes {0,1,2}
    share one).
    """
    rng = np.random.default_rng(seed)
    band_row = np.array([4, 14, 24, 24, 24])
    centers = np.array([[0.2, 0.2], [0.2, 0.2], [0.2, 0.2], [0.5, 0.8], [0.8, 0.3]])
    labels = rng.permutation(np.arange(n) % 5)
    gray = rng.uniform(0.0, 0.15, (n, 32, 32))
    for i, cls in enumerate(labels):
        gray[i, band_row[cls]:band_row[cls] + 3, :] += 0.8
    gray /= gray.max(axis=(1, 2), keepdims=True)
    images = hht.apply_colormap(gray)
    feats = np.clip(centers[labels] + rng.normal(0.0, 0.03, (n, 2)), 0.0, 1.0)
    return images, feats, labels


class TrainHybrid(Workload):
    """``nn_engine.train`` on the 3-channel hybrid model, then chunked inference."""

    name = "train-hybrid"
    n_train, n_val, n_test = 200, 60, 1200
    epochs = 12
    learning_rate = 3e-3
    # Chance is 0.2, and a model that learned nothing stays within 0.035 of
    # it on 1200 test samples (3 sigma). Because the head applies softmax
    # twice (ROADMAP item 2), a trained model separates only some classes
    # and its accuracy sits near 0.4, 0.6, 0.8 or 1.0 by seed.
    accuracy_floor = 0.3

    def setup(self) -> None:
        images, feats, labels = hybrid_inputs(self.seed, self.n_train + self.n_val + self.n_test)
        onehot = np.eye(signal_model.N_CLASSES)[labels]
        a, b = self.n_train, self.n_train + self.n_val
        self.train_data = (images[:a], feats[:a], onehot[:a])
        self.val_data = (images[a:b], feats[a:b], onehot[a:b])
        self.test_data = (images[b:], feats[b:], labels[b:])
        self.config = nn_engine.TrainConfig(learning_rate=self.learning_rate, batch_size=20,
                                            max_epochs=self.epochs, patience=self.epochs, seed=self.seed)
        model = hybrid_model.build_hybrid(channels=3, seed=self.seed)
        model.forward_logits(images[:20], feats[:20], training=False)  # warm-up

    def job(self, clock: StepClock, yardstick: Yardstick, tracer=None) -> Job:
        model = hybrid_model.build_hybrid(channels=3, seed=self.seed)
        since = len(clock.calls)
        t0 = time.perf_counter()
        model, history = nn_engine.train(model, self.train_data, self.val_data, self.config)
        t1 = time.perf_counter()
        steps = clock.steps(since)
        yardstick.sample()
        t2 = time.perf_counter()
        predicted = hybrid_model.predict_classes(model, *self.test_data[:2])
        job = Job(units=steps, work=[(t0, t1)], rate_count=self.n_test,
                  rate_work=[(t2, time.perf_counter())])
        accuracy = float(np.mean(predicted == self.test_data[2]))
        losses = np.array(history.train_loss + history.val_loss)
        outcome = (losses.tobytes(), predicted.tobytes())
        _fail(job, bool(np.isfinite(losses).all()) and len(history) == self.epochs
              and len(steps) == self.epochs * math.ceil(self.n_train / self.config.batch_size),
              f"train: finite losses, {len(history)} epochs, {len(steps)} steps")
        _fail(job, accuracy >= self.accuracy_floor and (self.first is None or outcome == self.first),
              f"predict: accuracy {accuracy:.4f} (floor {self.accuracy_floor}), repeatable")
        self.first = self.first or outcome
        job.detail.update(test_accuracy=accuracy, steps=len(steps), epochs=len(history))
        return job


# ---------------------------------------------------------------------------
# desk-e2e


# Set in this process before the featurize pool forks its workers.
_pool_sampling: dict = {}


def sampled_featurize_window(payload):
    """``pipeline._featurize_window`` followed by one yardstick sample, which
    a pool worker appends to a file of its own; see :func:`pool_yardstick`."""
    out = _pool_sampling["featurize"](payload)
    yardstick = _pool_sampling["yardstick"]
    yardstick.sample()
    start, end, took = yardstick.runs.pop()
    with open(_pool_sampling["dir"] / f"{os.getpid()}.txt", "a") as fh:
        fh.write(f"{start!r} {end!r} {took!r}\n")
    return out


@contextlib.contextmanager
def pool_yardstick(yardstick: Yardstick, directory: Path):
    """Yardstick samples from the workers of a featurize pool, so that the
    stretch they work in is scaled by the speed they saw. The workers are
    forked, so they find this module's wrapper under its own name, and their
    clock is the one ``time.perf_counter`` reads here."""
    if not yardstick.active:
        yield
        return
    directory.mkdir(parents=True)
    _pool_sampling.update(featurize=pipeline._featurize_window, yardstick=Yardstick(), dir=directory)
    patches = Patches()
    patches.set(pipeline, "_featurize_window", sampled_featurize_window)
    try:
        yield
    finally:
        patches.restore()
        _pool_sampling.clear()
        for path in sorted(directory.glob("*.txt")):
            yardstick.remote.extend(tuple(map(float, line.split())) for line in path.read_text().splitlines())


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class DeskE2E(Workload):
    """simulate -> featurize --jobs nproc -> split -> train -> eval -> embed via ``cli.main``."""

    name = "desk-e2e"
    duration_s = 2.0  # 190 windows: one job fills a 30 s run
    epochs = 20

    def __init__(self, root: Path, seed: int, out: Path):
        super().__init__(root, seed, out)
        self.jobs = nproc()
        self.count = 0

    def setup(self) -> None:
        cli.build_parser()

    def _stages(self, d: Path):
        s = str(self.seed)
        return [
            ("simulate", ["simulate", "--out", d / "rec", "--seed", s, "--sample-rate-hz", "8192",
                          "--duration-s", str(self.duration_s), "--noise-sigma", "0.3"]),
            ("featurize", ["featurize", "--recordings", d / "rec", "--out", d / "ds", "--seed", s,
                           "--window-len", "1024", "--hop", "410", "--jobs", str(self.jobs)]),
            ("split", ["split", "--dataset", d / "ds", "--seed", s]),
            ("train", ["train", "--dataset", d / "ds", "--out", d / "model", "--seed", s,
                       "--learning-rate", "1e-3", "--max-epochs", str(self.epochs),
                       "--patience", str(self.epochs)]),
            ("eval", ["eval", "--checkpoint", d / "model", "--dataset", d / "ds", "--out", d / "eval"]),
            ("embed", ["embed", "--dataset", d / "ds", "--out", d / "embed", "--max-points", "300"]),
        ]

    def job(self, clock: StepClock, yardstick: Yardstick, tracer=None) -> Job:
        self.count += 1
        d = self.out / f"job{self.count}"
        job = Job(cpu_workers=self.jobs)
        stages = {}
        since = len(clock.calls)
        with open(d.parent / f"job{self.count}.log", "w") as log, contextlib.redirect_stdout(log):
            for stage, argv in self._stages(d):
                yardstick.sample()
                c0 = resource.getrusage(resource.RUSAGE_CHILDREN)
                sampling = (pool_yardstick(yardstick, d.parent / f"job{self.count}-yardstick")
                            if stage == "featurize" else contextlib.nullcontext())
                with sampling:
                    s = time.perf_counter()
                    rc = cli.main([str(a) for a in argv])
                    stages[stage] = (s, time.perf_counter())
                c1 = resource.getrusage(resource.RUSAGE_CHILDREN)
                if stage == "featurize":
                    job.cpu_s = (c1.ru_utime - c0.ru_utime) + (c1.ru_stime - c0.ru_stime)
                _fail(job, rc == 0, f"{stage} exited {rc}")
                if rc != 0:
                    break
        job.work = list(stages.values())
        job.units = clock.steps(since)
        job.detail["stage_s"] = {stage: e - s for stage, (s, e) in stages.items()}
        if job.failed:
            return job
        dataset = hybrid_model.load_dataset(d / "ds")
        job.rate_count, job.rate_work = len(dataset), [stages["featurize"]]
        if tracer is not None:
            tracer.phase = "check"
        self._check(job, d, dataset)
        return job

    def _check(self, job: Job, d: Path, dataset) -> None:
        hashed = 0
        for stage_dir in ("rec", "ds", "model", "eval", "embed"):
            manifest = json.loads((d / stage_dir / "manifest.json").read_text())
            bad = [name for name, digest in manifest["artifacts"].items()
                   if sha256(d / stage_dir / name) != digest]
            hashed += sum((d / stage_dir / name).stat().st_size for name in manifest["artifacts"])
            _fail(job, not bad, f"{stage_dir}/manifest.json sha256 mismatch: {bad}")

        # Serial equals parallel: the first window of each recording,
        # featurized again in this process, matches its --jobs dataset row.
        config = config_from_dict(dataset.config_echo)
        seg = config.segmentation
        firsts = [segmentation.segment(rec, seg.window_len, seg.hop, seg.linear_channel)[0]
                  for rec in pipeline.load_recordings_dir(d / "rec")]
        rows = {key: i for i, key in enumerate(dataset.provenance)}
        for example in pipeline.featurize_windows(firsts, config):
            i = rows[example.key]
            same = (np.array_equal(example.image.pixels, dataset.images[i])
                    and np.array_equal(example.features.as_array(), dataset.features_raw[i]))
            _fail(job, same, f"serial featurize of {example.key} differs from the --jobs row")

        history = np.genfromtxt(d / "model" / "history.csv", delimiter=",", names=True)
        accuracy = json.loads((d / "eval" / "report.json").read_text())["accuracy"]
        _fail(job, history.size == self.epochs and bool(np.isfinite(history["train_loss"]).all()
                                                       and np.isfinite(history["val_loss"]).all()),
              f"train ran {history.size} epochs with finite losses")
        job.detail.update(
            test_accuracy=accuracy, epochs=int(history.size), steps=len(job.units),
            hashed_bytes=hashed, windows=len(dataset),
            recording_bytes=sum(p.stat().st_size for p in (d / "rec").iterdir() if p.name != "manifest.json"),
            dataset_bytes=sum((d / "ds" / n).stat().st_size for n in ("dataset.json", "dataset.bin")),
        )


WORKLOADS = {w.name: w for w in (FeaturizeRef, TrainHybrid, DeskE2E)}
