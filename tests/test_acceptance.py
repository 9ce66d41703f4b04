"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with the measured value. Criteria 6 and 7 are desk-scale
training runs (minutes); criterion 9 needs the imported public dataset and
is skipped unless VIBEDIAG_DATASET points at it.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from helpers import fd_layer_gradients, layer_gradient_cases, max_relative_error
from vibediag.band_features import magnitude_spectrum
from vibediag.cli import main as cli_main
from vibediag.embedding import TsneConfig, components_for_target, pca_fit, tsne
from vibediag.emd import sift
from vibediag.hht import analytic_signal, instantaneous_frequency
from vibediag.hybrid_model import (
    SplitSpec,
    build_cnn_only,
    build_hybrid,
    build_mlp_only,
    evaluate_arrays,
    metrics_from_confusion,
    shape_trace,
    split_indices,
)
from vibediag.nn_engine import TrainConfig, adam_step, train
from vibediag.signal_model import N_CLASSES


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\n[acceptance] criterion {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def run_cli(argv):
    return cli_main([str(a) for a in argv])


# --------------------------------------------------------------------------
# 1. Metric arithmetic against the reported confusion outcome


def test_criterion_1_metric_arithmetic():
    confusion = np.diag([838, 826, 816, 863, 827])
    confusion[0, 3] = 1
    confusion[1, 2] = 1
    confusion[1, 3] = 1
    confusion[3, 1] = 7
    confusion[2, 4] = 2
    confusion[4, 2] = 3
    assert confusion.sum() == 4185
    assert confusion.sum() - np.trace(confusion) == 15
    metrics = metrics_from_confusion(confusion)
    accuracy_ok = f"{metrics.accuracy:.4f}" == "0.9964"

    f1 = 2.0 * (0.93 * 0.96) / (0.93 + 0.96)
    f1_ok = f"{f1:.2f}" == "0.94"
    report(1, "metric arithmetic", accuracy_ok and f1_ok,
           f"accuracy={metrics.accuracy:.6f}, f1(0.93,0.96)={f1:.4f}")


# --------------------------------------------------------------------------
# 2. Split reproduction


def test_criterion_2_split_reproduction():
    train_idx, val_idx, test_idx = split_indices(27900, SplitSpec(), seed=0)
    sizes = (train_idx.size, val_idx.size, test_idx.size)
    report(2, "split reproduction", sizes == (20157, 3558, 4185), f"sizes={sizes}")


# --------------------------------------------------------------------------
# 3. Architecture shape audit


def test_criterion_3_shape_audit():
    model = build_hybrid(channels=3, seed=0)
    trace = shape_trace(model, channels=3)
    rows = [(t, s) for t, s in trace["image"] if t in ("conv3x3", "maxpool2x2", "flatten", "dense")]
    expected_image = [
        ("conv3x3", (32, 32, 16)),
        ("maxpool2x2", (16, 16, 16)),
        ("conv3x3", (16, 16, 32)),
        ("maxpool2x2", (8, 8, 32)),
        ("conv3x3", (8, 8, 64)),
        ("maxpool2x2", (4, 4, 64)),
        ("flatten", (1024,)),  # 64 maps of 4x4; documented deviation from the table's "256"
        ("dense", (16,)),
        ("dense", (8,)),
    ]
    feature_rows = [(t, s) for t, s in trace["feature"] if t == "dense"]
    head_rows = [(t, s) for t, s in trace["head"] if t == "dense"]
    mlp_in = model.feature_layers[0].in_features
    ok = (
        rows == expected_image
        and mlp_in == 2
        and feature_rows == [("dense", (16,)), ("dense", (8,))]
        and head_rows == [("dense", (8,)), ("dense", (5,))]
    )
    report(3, "architecture shape audit", ok,
           f"image rows ok={rows == expected_image}, mlp 2->16->8, concat->8->{N_CLASSES}")


# --------------------------------------------------------------------------
# 4. Numerical engine: gradient checks and the Adam recurrence


def test_criterion_4_numerical_engine():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        for layer, x, training in layer_gradient_cases(seed):
            for analytic, numeric in fd_layer_gradients(layer, x, seed=seed + 500, training=training):
                worst = max(worst, max_relative_error(analytic, numeric))
    grad_ok = worst <= 1e-4

    lr, b1, b2, eps = 1e-4, 0.9, 0.999, 1e-7
    m1 = (1 - b1) * 1.0
    v1 = (1 - b2) * 1.0
    theta1 = -lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
    m2 = b1 * m1 + (1 - b1)
    v2 = b2 * v1 + (1 - b2)
    theta2 = theta1 - lr * (m2 / (1 - b1**2)) / (np.sqrt(v2 / (1 - b2**2)) + eps)

    theta = np.zeros(1)
    m = np.zeros(1)
    v = np.zeros(1)
    theta, m, v = adam_step(theta, np.ones(1), m, v, t=1, learning_rate=lr, epsilon=eps)
    err1 = abs(theta[0] - theta1)
    theta, m, v = adam_step(theta, np.ones(1), m, v, t=2, learning_rate=lr, epsilon=eps)
    err2 = abs(theta[0] - theta2)
    adam_ok = err1 < 1e-12 and err2 < 1e-12

    elapsed = time.perf_counter() - t0
    report(4, "numerical engine", grad_ok and adam_ok and elapsed < 60.0,
           f"worst grad rel err={worst:.2e}, adam errs=({err1:.1e},{err2:.1e}), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 5. DSP oracles


def test_criterion_5_dsp_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_recon = 0.0
    for _ in range(100):
        x = rng.normal(size=rng.integers(64, 300))
        out = sift(x)
        err = np.max(np.abs(out.reconstruct() - x))
        worst_recon = max(worst_recon, err / max(np.max(np.abs(x)), 1e-30))
    emd_ok = worst_recon <= 1e-10

    fs = 10_000.0
    t = np.arange(10_000) / fs
    z = analytic_signal(np.cos(2 * np.pi * 100.0 * t))
    interior = slice(1000, 9000)
    amp_err = np.max(np.abs(z.amplitude[interior] - 1.0))
    freq = instantaneous_frequency(z, dt=1 / fs)
    freq_err = np.max(np.abs(freq[interior] - 100.0))
    hilbert_ok = amp_err < 0.01 and freq_err < 0.5

    x = rng.normal(size=1024)
    spec = magnitude_spectrum(x, sample_rate_hz=1024.0)
    m = spec.magnitudes
    two_sided = m[0] ** 2 + m[-1] ** 2 + 2.0 * np.sum(m[1:-1] ** 2)
    parseval_err = abs(two_sided / spec.n_fft - np.sum(x**2)) / np.sum(x**2)
    parseval_ok = parseval_err <= 1e-9

    elapsed = time.perf_counter() - t0
    report(5, "dsp oracles", emd_ok and hilbert_ok and parseval_ok and elapsed < 60.0,
           f"recon={worst_recon:.2e}, amp err={amp_err:.4f}, freq err={freq_err:.3f} Hz, "
           f"parseval={parseval_err:.2e}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 6. Desk-scale end-to-end on the synthetic rig


@pytest.mark.slow
def test_criterion_6_desk_scale_end_to_end(tmp_path):
    # Documented desk configuration: 8192 Hz, 15.2 s per class (302 windows
    # each at 1024/410 = 2.5/1.0 revolutions), noise sigma 0.3, seed 0,
    # learning rate 1e-3, at most 25 of the allowed 60 epochs.
    t0 = time.perf_counter()
    rec_dir = tmp_path / "recordings"
    ds_dir = tmp_path / "dataset"
    assert run_cli(["simulate", "--out", rec_dir, "--seed", 0,
                    "--sample-rate-hz", 8192, "--duration-s", 15.2,
                    "--noise-sigma", 0.3]) == 0
    assert run_cli(["featurize", "--recordings", rec_dir, "--out", ds_dir,
                    "--seed", 0, "--window-len", 1024, "--hop", 410, "--jobs", 2]) == 0
    assert run_cli(["split", "--dataset", ds_dir, "--seed", 0]) == 0

    from vibediag.hybrid_model import load_dataset

    dataset = load_dataset(ds_dir)
    per_class = np.bincount(dataset.labels.astype(int), minlength=5)
    assert per_class.min() >= 300, f"windows per class: {per_class}"

    ckpt = tmp_path / "model-hybrid"
    assert run_cli(["train", "--dataset", ds_dir, "--out", ckpt, "--branch", "hybrid",
                    "--seed", 0, "--learning-rate", 1e-3,
                    "--max-epochs", 25, "--patience", 25]) == 0
    epochs_run = len((ckpt / "history.csv").read_text().strip().splitlines()) - 1
    assert epochs_run <= 60

    eval_dir = tmp_path / "eval-hybrid"
    assert run_cli(["eval", "--checkpoint", ckpt, "--dataset", ds_dir, "--out", eval_dir]) == 0
    accuracy = json.loads((eval_dir / "report.json").read_text())["accuracy"]

    elapsed = time.perf_counter() - t0
    cpu = time.process_time()
    report(6, "desk-scale end-to-end",
           accuracy >= 0.95 and epochs_run <= 60 and elapsed <= 900.0,
           f"test accuracy={accuracy:.4f} after {epochs_run} epochs, "
           f"wall={elapsed / 60:.1f} min (cpu so far={cpu / 60:.1f} min)")


# --------------------------------------------------------------------------
# 7. Complementarity of the two branches


def _constructed_complementarity_data(n_per_class=140, seed=0):
    """Images separate classes {0,1,2} only; the two scalars separate
    {2,3,4} only. Each branch therefore lacks information for two classes
    (ceiling 0.6) while the pair identifies every class."""
    rng = np.random.default_rng(seed)
    image_group = [0, 1, 2, 2, 2]
    feature_group = [0, 0, 0, 1, 2]
    band_rows = [4, 14, 24]
    centers = np.array([[0.2, 0.2], [0.5, 0.8], [0.8, 0.3]])
    images, feats, labels = [], [], []
    for cls in range(5):
        for _ in range(n_per_class):
            img = rng.uniform(0, 0.15, (32, 32, 1))
            row = band_rows[image_group[cls]]
            img[row : row + 3, :, 0] += 0.8
            img /= img.max()
            images.append(img)
            feats.append(np.clip(centers[feature_group[cls]] + rng.normal(0, 0.03, 2), 0, 1))
            labels.append(cls)
    order = rng.permutation(len(labels))
    return np.array(images)[order], np.array(feats)[order], np.array(labels)[order]


@pytest.mark.slow
def test_criterion_7_complementarity():
    t0 = time.perf_counter()
    images, feats, labels = _constructed_complementarity_data()
    tr, va, te = split_indices(len(labels), SplitSpec(test_fraction=0.3, val_fraction=0.15), seed=1)
    onehot = np.eye(N_CLASSES)[labels]
    config = TrainConfig(learning_rate=1e-3, batch_size=20, max_epochs=30, patience=30, seed=0)

    def fit_and_score(builder, use_images, use_features):
        def pick(idx, arr, use):
            return arr[idx] if use else None

        model, _ = train(
            builder,
            (pick(tr, images, use_images), pick(tr, feats, use_features), onehot[tr]),
            (pick(va, images, use_images), pick(va, feats, use_features), onehot[va]),
            config,
        )
        metrics = evaluate_arrays(model, pick(te, images, use_images),
                                  pick(te, feats, use_features), labels[te])
        return metrics.accuracy

    acc_mlp = fit_and_score(build_mlp_only(seed=0), False, True)
    acc_cnn = fit_and_score(build_cnn_only(channels=1, seed=0), True, False)
    acc_hybrid = fit_and_score(build_hybrid(channels=1, seed=0), True, True)

    elapsed = time.perf_counter() - t0
    ok = acc_hybrid >= 0.90 and acc_cnn <= 0.75 and acc_mlp <= 0.75 and elapsed <= 900.0
    report(7, "complementarity", ok,
           f"hybrid={acc_hybrid:.4f}, cnn={acc_cnn:.4f}, mlp={acc_mlp:.4f}, "
           f"wall={elapsed / 60:.1f} min")


# --------------------------------------------------------------------------
# 8. Embedding properties


def test_criterion_8_embedding_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    line = rng.normal(size=200)[:, None] * np.array([1.0, -2.0, 0.5])
    model = pca_fit(line)
    rank1_ok = abs(model.explained_variance_ratio[0] - 1.0) < 1e-9

    wide = pca_fit(rng.normal(size=(60, 100)))
    monotone_ok = np.all(np.diff(wide.cumulative_ratio) >= -1e-12)

    half = 100
    a = rng.normal(size=(half, 10))
    b = rng.normal(size=(half, 10))
    b[:, 0] += 10.0
    data = np.vstack([a, b])
    labels = np.array([0] * half + [1] * half)
    config = TsneConfig(iterations=500)
    embedding, kl = tsne(data, config, seed=0)
    d = np.sum((embedding[:, None, :] - embedding[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d, np.inf)
    purity = float(np.mean(labels[d.argmin(axis=1)] == labels))
    kl_ok = kl[-1] < kl[0]

    elapsed = time.perf_counter() - t0
    ok = rank1_ok and monotone_ok and purity >= 0.90 and kl_ok and elapsed <= 120.0
    report(8, "embedding properties", ok,
           f"rank1 ratio={model.explained_variance_ratio[0]:.9f}, purity={purity:.3f}, "
           f"kl {kl[0]:.3f}->{kl[-1]:.3f}, {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 9. Extended: the imported public dataset (CPU hours; optional in CI)


@pytest.mark.extended
@pytest.mark.skipif(
    "VIBEDIAG_DATASET" not in os.environ,
    reason="set VIBEDIAG_DATASET to a directory of imported recordings",
)
def test_criterion_9_public_dataset(tmp_path):
    recordings = Path(os.environ["VIBEDIAG_DATASET"])
    ds_dir = tmp_path / "dataset"
    assert run_cli(["featurize", "--recordings", recordings, "--out", ds_dir,
                    "--seed", 0, "--jobs", os.cpu_count() or 2]) == 0
    assert run_cli(["split", "--dataset", ds_dir, "--seed", 0]) == 0

    accuracies = {}
    for branch in ("hybrid", "cnn", "mlp"):
        ckpt = tmp_path / f"model-{branch}"
        assert run_cli(["train", "--dataset", ds_dir, "--out", ckpt,
                        "--branch", branch, "--seed", 0]) == 0
        eval_dir = tmp_path / f"eval-{branch}"
        assert run_cli(["eval", "--checkpoint", ckpt, "--dataset", ds_dir,
                        "--out", eval_dir]) == 0
        accuracies[branch] = json.loads((eval_dir / "report.json").read_text())["accuracy"]

    from vibediag.hybrid_model import load_dataset

    dataset = load_dataset(ds_dir)
    pca = pca_fit(dataset.images.reshape(len(dataset), -1))
    k99 = components_for_target(pca, 0.99)

    ok = (
        accuracies["hybrid"] >= 0.985
        and abs(accuracies["cnn"] - 0.98) <= 0.01
        and abs(accuracies["mlp"] - 0.81) <= 0.05
        and abs(k99 - 506) <= 30
    )
    report(9, "public dataset (extended)", ok, f"accuracies={accuracies}, k99={k99}")
