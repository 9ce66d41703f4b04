import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import class_probabilities, model_tensors, reference_split_keys
from vibediag.band_features import FeaturePair
from vibediag.cli import main
from vibediag.config import config_from_dict
from vibediag.hht import SpectrumImage
from vibediag.hybrid_model import (
    BRANCH_BUILDERS,
    Example,
    SplitSpec,
    assign_splits,
    build_cnn_only,
    build_hybrid,
    build_mlp_only,
    classification_report,
    confusion_to_csv,
    dataset_from_examples,
    evaluate_arrays,
    load_dataset,
    metrics_from_confusion,
    predict_classes,
    render_report,
    save_dataset,
    save_dataset_json,
    shape_trace,
    split_indices,
)
from vibediag.nn_engine import (
    MaxPool2x2,
    ReLU,
    TrainConfig,
    load_model,
    save_model,
    softmax_crossentropy,
    train,
)
from vibediag.signal_model import FaultLabel


def filtered(rows, kinds=("conv3x3", "maxpool2x2", "flatten", "dense")):
    return [(t, s) for t, s in rows if t in kinds]


def test_hybrid_shape_audit_matches_architecture_table():
    model = build_hybrid(channels=3, seed=0)
    trace = shape_trace(model, channels=3)
    assert filtered(trace["image"]) == [
        ("conv3x3", (32, 32, 16)),
        ("maxpool2x2", (16, 16, 16)),
        ("conv3x3", (16, 16, 32)),
        ("maxpool2x2", (8, 8, 32)),
        ("conv3x3", (8, 8, 64)),
        ("maxpool2x2", (4, 4, 64)),
        ("flatten", (1024,)),
        ("dense", (16,)),
        ("dense", (8,)),
    ]
    assert filtered(trace["feature"]) == [("dense", (16,)), ("dense", (8,))]
    assert filtered(trace["head"]) == [("dense", (8,)), ("dense", (5,))]
    # dropout sits between the two image-branch dense layers only
    kinds = [t for t, _ in trace["image"]]
    assert kinds.index("dropout") == kinds.index("flatten") + 3
    assert all(t != "dropout" for t, _ in trace["feature"])
    assert all(t != "dropout" for t, _ in trace["head"])


def test_single_branch_shapes():
    cnn = shape_trace(build_cnn_only(channels=1, seed=0), channels=1)
    assert "feature" not in cnn
    assert filtered(cnn["head"]) == [("dense", (8,)), ("dense", (5,))]
    mlp = shape_trace(build_mlp_only(seed=0))
    assert "image" not in mlp
    assert mlp["feature"][0] == ("dense", (16,))
    first_dense = build_mlp_only(seed=0).feature_layers[0]
    assert first_dense.in_features == 2


def test_repeated_builds_are_identical():
    a = build_hybrid(seed=7)
    b = build_hybrid(seed=7)
    assert a.params.size == b.params.size
    np.testing.assert_array_equal(a.params, b.params)


def test_builders_share_one_signature():
    for build in BRANCH_BUILDERS.values():
        assert build(channels=1, seed=3).params.dtype == np.float32
        model = build(channels=1, seed=3, dtype=np.float64)
        assert model.params.dtype == np.float64
        with pytest.raises(ValueError, match="channels"):
            build(channels=2, seed=3)


def test_float32_hybrid_keeps_its_store_at_float32_and_checkpoints_as_exact_upcast(tmp_path):
    rng = np.random.default_rng(5)
    images, feats = rng.random((24, 32, 32, 3)), rng.random((24, 2))
    onehot = np.eye(5)[rng.integers(0, 5, size=24)]
    model = build_hybrid(channels=3, seed=1, dtype=np.float32)
    before = model.params.copy()
    cfg = TrainConfig(learning_rate=1e-3, batch_size=8, max_epochs=1, patience=1, seed=0)
    model, history = train(model, (images[:16], feats[:16], onehot[:16]),
                           (images[16:], feats[16:], onehot[16:]), cfg)
    assert len(history) == 1 and np.isfinite(history.val_loss[0])
    assert model.params.dtype == model.grads.dtype == np.float32
    assert np.any(model.params != before)
    for layer in model._all_layers():
        for (_, array), grad in zip(layer.params(), layer.grads()):
            assert array.dtype == grad.dtype == np.float32
            assert np.shares_memory(array, model.params) and np.shares_memory(grad, model.grads)
    assert model.forward_logits(images[:2], feats[:2]).dtype == np.float32
    logits = model.forward_logits(images[:8], feats[:8], training=True, rng=np.random.default_rng(0))
    _, probs, dlogits = softmax_crossentropy(logits, onehot[:8])
    assert logits.dtype == probs.dtype == dlogits.dtype == np.float32

    save_model(model, tmp_path)
    loaded, _ = load_model(tmp_path)
    assert loaded.params.dtype == np.float32
    np.testing.assert_array_equal(loaded.params, model.params.astype(np.float64))
    assert [a.shape for a in model_tensors(loaded)] == [a.shape for a in model_tensors(model)]


@pytest.mark.parametrize("off_float32", [lambda v: np.nextafter(v, np.inf), lambda v: 1e300],
                         ids=["one-ulp", "out-of-range"])
def test_a_checkpoint_with_a_value_float32_cannot_hold_loads_float64_and_predicts_as_saved(tmp_path, off_float32):
    model = build_hybrid(channels=3, seed=4, dtype=np.float64)
    model.params[...] = model.params.astype(np.float32)  # every value a float32 value but one:
    model.params[-1] = off_float32(model.params[-1])
    save_model(model, tmp_path)
    loaded, _ = load_model(tmp_path)
    assert loaded.params.dtype == np.float64
    np.testing.assert_array_equal(loaded.params, model.params)
    rng = np.random.default_rng(4)
    images, feats = rng.random((40, 32, 32, 3)), rng.random((40, 2))
    np.testing.assert_array_equal(loaded.forward_logits(images, feats), model.forward_logits(images, feats))
    np.testing.assert_array_equal(predict_classes(loaded, images, feats), predict_classes(model, images, feats))


def test_a_checkpoint_with_relu_before_pool_loads_as_written_and_predicts_the_same(tmp_path):
    # Checkpoints written before the reorder list each ReLU ahead of its pool.
    old = build_hybrid(channels=3, seed=2, dtype=np.float64)
    layers = old.image_layers
    for i in range(len(layers) - 1):
        if isinstance(layers[i], MaxPool2x2) and isinstance(layers[i + 1], ReLU):
            layers[i], layers[i + 1] = layers[i + 1], layers[i]
    kinds = [spec["type"] for spec in old.manifest_layers()["image_branch"]]
    assert kinds[:9] == ["conv3x3", "relu", "maxpool2x2"] * 3
    save_model(old, tmp_path)
    loaded, _ = load_model(tmp_path)
    assert loaded.manifest_layers() == old.manifest_layers()
    new = build_hybrid(channels=3, seed=2, dtype=np.float64)
    assert [spec["type"] for spec in new.manifest_layers()["image_branch"]][:3] == [
        "conv3x3", "maxpool2x2", "relu"]
    rng = np.random.default_rng(2)
    images, feats = rng.random((300, 32, 32, 3)), rng.random((300, 2))
    want = old.forward_logits(images, feats)
    for model in (loaded, new):
        np.testing.assert_array_equal(model.forward_logits(images, feats), want)
        np.testing.assert_array_equal(predict_classes(model, images, feats), want.argmax(axis=1))


def test_mlp_validation_loss_goes_below_the_double_softmax_floor():
    # A softmax applied to probabilities in [0, 1] gives the true class at most
    # e / (e + 4), so a head ending in softmax never reaches a loss below this.
    floor = -np.log(np.e / (np.e + 4))
    centers = np.array([[0.1, 0.1], [0.9, 0.1], [0.5, 0.5], [0.1, 0.9], [0.9, 0.9]])
    rng = np.random.default_rng(0)
    labels = rng.integers(0, 5, size=260)
    feats = centers[labels] + rng.normal(0.0, 0.03, (260, 2))
    onehot = np.eye(5)[labels]
    cfg = TrainConfig(learning_rate=1e-2, batch_size=20, max_epochs=10, patience=10, seed=0)
    _, history = train(build_mlp_only(seed=0), (None, feats[:200], onehot[:200]),
                       (None, feats[200:], onehot[200:]), cfg)
    assert min(history.val_loss) < floor


def test_forward_emits_probability_rows():
    rng = np.random.default_rng(0)
    model = build_hybrid(channels=1, seed=0, dtype=np.float64)
    probs = class_probabilities(model, rng.random((2, 32, 32, 1)), rng.random((2, 2)))
    assert probs.shape == (2, 5)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)


def test_cnn_only_ignores_features_entirely():
    rng = np.random.default_rng(1)
    model = build_cnn_only(channels=1, seed=0)
    images = rng.random((3, 32, 32, 1))
    a = model.forward_logits(images, rng.random((3, 2)))
    b = model.forward_logits(images, rng.random((3, 2)) + 100.0)
    np.testing.assert_array_equal(a, b)


def test_predict_classes_ignores_the_input_of_a_missing_branch():
    rng = np.random.default_rng(3)
    images, feats = rng.random((300, 32, 32, 1)), rng.random((300, 2))
    cnn, mlp = build_cnn_only(channels=1, seed=0), build_mlp_only(seed=0)
    assert (np.array_equal(predict_classes(cnn, images, feats), predict_classes(cnn, images, None))
            and np.array_equal(predict_classes(mlp, images, feats), predict_classes(mlp, None, feats)))


def test_argmax_invariant_under_positive_logit_rescaling():
    rng = np.random.default_rng(2)
    model = build_mlp_only(seed=3)
    feats = rng.random((16, 2))
    logits = model.forward_logits(None, feats)
    assert np.array_equal(logits.argmax(axis=1), (3.7 * logits).argmax(axis=1))
    probs = class_probabilities(model, None, feats)
    assert np.array_equal(logits.argmax(axis=1), probs.argmax(axis=1))


def test_split_reproduces_partition_arithmetic():
    train, val, test = split_indices(27900, SplitSpec(), seed=0)
    assert (train.size, val.size, test.size) == (20157, 3558, 4185)


def test_split_small_case_ceil_arithmetic():
    train, val, test = split_indices(20, SplitSpec(), seed=1)
    assert (len(test), len(val), len(train)) == (3, 3, 14)


def test_split_disjoint_exhaustive_deterministic():
    items = list(range(101))
    split = lambda seed: [idx.tolist() for idx in split_indices(len(items), SplitSpec(), seed)]
    a = split(9)
    b = split(9)
    for sa, sb in zip(a, b):
        assert sa == sb
    merged = sorted(a[0] + a[1] + a[2])
    assert merged == items
    c = split(10)
    assert c[2] != a[2]


def test_split_stratified_option():
    class Item:
        def __init__(self, label):
            self.label = label

    items = [Item(FaultLabel(i % 5)) for i in range(100)]
    labels = [int(i.label) for i in items]
    train, val, test = ([items[i] for i in idx]
                        for idx in split_indices(len(items), SplitSpec(stratified=True), 0, labels))
    for subset, expected in ((test, 3), (val, 3), (train, 14)):
        counts = np.bincount([int(i.label) for i in subset], minlength=5)
        assert np.all(counts == expected)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=3, max_size=80), st.integers(0, 2**32 - 1),
       st.booleans())
def test_assign_splits_membership_equals_reference(labels, seed, stratified):
    spec = SplitSpec(stratified=stratified)
    ds = dataset_from_examples(make_examples(len(labels)))
    ds.labels = np.array(labels)
    expected = reference_split_keys(ds.provenance, ds.labels, spec, seed)
    if len(expected["train"]) < 2 or not (expected["val"] and expected["test"]):
        with pytest.raises(ValueError):
            assign_splits(ds, spec, seed)
    else:
        assert assign_splits(ds, spec, seed).splits == expected


def test_split_validation():
    with pytest.raises(ValueError):
        split_indices(2, SplitSpec(), seed=0)
    with pytest.raises(ValueError):
        config_from_dict({"split": {"test_fraction": 1.5}})


def test_metrics_reported_accuracy_arithmetic():
    confusion = np.zeros((5, 5), dtype=int)
    np.fill_diagonal(confusion, [836, 826, 816, 863, 829])
    confusion[0, 3] = 1
    confusion[1, 2] = 1
    confusion[1, 3] = 1
    confusion[3, 1] = 7
    confusion[2, 4] = 2
    confusion[4, 2] = 3
    assert confusion.sum() == 4185
    assert confusion.sum() - np.trace(confusion) == 15
    metrics = metrics_from_confusion(confusion)
    assert round(metrics.accuracy, 4) == 0.9964


def test_f1_formula():
    # f1 combines precision and recall: 2 * 0.93 * 0.96 / (0.93 + 0.96)
    f1 = 2 * 0.93 * 0.96 / (0.93 + 0.96)
    assert round(f1, 2) == 0.94
    confusion = np.array([[93, 7], [4, 96]])
    m = metrics_from_confusion(confusion)
    np.testing.assert_allclose(
        m.f1[:2], 2 * m.precision[:2] * m.recall[:2] / (m.precision[:2] + m.recall[:2])
    )


def test_perfect_predictions():
    confusion = np.diag([10, 20, 30, 40, 50])
    m = metrics_from_confusion(confusion)
    assert m.accuracy == 1.0
    np.testing.assert_array_equal(m.precision, 1.0)
    np.testing.assert_array_equal(m.recall, 1.0)
    np.testing.assert_array_equal(m.f1, 1.0)
    assert m.degenerate_classes == []


def test_degenerate_classes_flagged():
    confusion = np.zeros((5, 5), dtype=int)
    confusion[0, 0] = 10  # only class 0 present and predicted
    m = metrics_from_confusion(confusion)
    assert m.accuracy == 1.0
    assert m.precision[1] == 0.0 and m.recall[1] == 0.0 and m.f1[1] == 0.0
    assert m.degenerate_classes == [1, 2, 3, 4]


def test_confusion_row_sums_equal_support():
    rng = np.random.default_rng(3)
    confusion = rng.integers(0, 50, size=(5, 5))
    m = metrics_from_confusion(confusion)
    np.testing.assert_array_equal(m.support, confusion.sum(axis=1))
    assert abs(m.accuracy - np.trace(confusion) / confusion.sum()) < 1e-15


def test_classification_report_schema_and_single_class():
    confusion = np.zeros((5, 5), dtype=int)
    confusion[2, 2] = 7
    report = classification_report(metrics_from_confusion(confusion))
    assert set(report["classes"].keys()) == {
        "Normal", "InnerRace", "OuterRace", "Ball", "Combined"
    }
    assert report["classes"]["OuterRace"]["recall"] == 1.0
    assert report["accuracy"] == report["classes"]["OuterRace"]["recall"]
    text = render_report(metrics_from_confusion(confusion))
    assert "OuterRace" in text and "accuracy" in text


def test_confusion_csv(tmp_path):
    confusion = np.arange(25).reshape(5, 5)
    path = tmp_path / "confusion.csv"
    confusion_to_csv(confusion, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 6
    assert lines[0].split(",")[1] == "Normal"
    assert lines[1].split(",")[1] == "0"


def make_examples(n=30, channels=1, seed=0):
    rng = np.random.default_rng(seed)
    examples = []
    for i in range(n):
        label = FaultLabel(i % 5)
        pixels = rng.random((32, 32, channels))
        pixels /= pixels.max()
        examples.append(Example(key=f"rec{i % 3}:{i * 100}", image=SpectrumImage(pixels=pixels),
                                features=FeaturePair(rng.random(), rng.random()), label=label))
    return examples


def test_evaluate_on_examples_matches_arrays():
    examples = make_examples()
    model = build_hybrid(channels=1, seed=0)
    ds = dataset_from_examples(examples)
    m = evaluate_arrays(model, ds.images, ds.features_raw, ds.labels)
    assert m.confusion.sum() == len(examples)
    np.testing.assert_array_equal(m.support, np.bincount([int(e.label) for e in examples], minlength=5))


def test_dataset_roundtrip(tmp_path):
    ds = dataset_from_examples(make_examples(), config_echo={"note": 1}, seed=5)
    assign_splits(ds, SplitSpec(), 2)
    save_dataset(ds, tmp_path)
    back = load_dataset(tmp_path)
    np.testing.assert_array_equal(back.images, ds.images)
    np.testing.assert_array_equal(back.features_raw, ds.features_raw)
    np.testing.assert_array_equal(back.labels, ds.labels)
    assert back.provenance == ds.provenance
    assert back.splits == ds.splits
    np.testing.assert_array_equal(back.scaler.minimum, ds.scaler.minimum)
    assert back.config_echo == {"note": 1}
    tr, va, te = (back.indices_for(s) for s in ("train", "val", "test"))
    assert sorted(np.concatenate([tr, va, te]).tolist()) == list(range(len(ds)))


def test_load_dataset_rejects_unknown_format(tmp_path):
    save_dataset(dataset_from_examples(make_examples()), tmp_path)
    manifest = json.loads((tmp_path / "dataset.json").read_text())
    manifest["format"] = "vibediag-dataset-v2"
    (tmp_path / "dataset.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"dataset\.json: format must be one of \('vibediag-dataset-v1',\), "
                                         r"got 'vibediag-dataset-v2'$"):
        load_dataset(tmp_path)


def test_load_dataset_rejects_a_dataset_bin_of_another_length(tmp_path):
    save_dataset(dataset_from_examples(make_examples()), tmp_path)
    blob = (tmp_path / "dataset.bin").read_bytes()
    (tmp_path / "dataset.bin").write_bytes(blob[:-8])
    with pytest.raises(ValueError, match=rf"dataset\.bin: {len(blob) - 8} bytes, but the manifest needs {len(blob)}$"):
        load_dataset(tmp_path)


def _reshape_features(offsets):
    offsets["features"]["shape"] = [3, 2]


def _drop_labels(offsets):
    del offsets["labels_onehot"]


def _drop_a_feature_offset(offsets):
    del offsets["features"]["byte_offset"]


def _move_labels_past_the_end(offsets):
    offsets["labels_onehot"]["byte_offset"] += 8


def _reshape_labels(offsets):
    offsets["labels_onehot"]["shape"] = [15, 10]


@pytest.mark.parametrize("corrupt, problem", [
    (_reshape_features, r"offsets\.features must be \{.*\}, the layout of 30 windows in provenance, "
                        r"got \{.*\[3, 2\]\}$"),
    (_drop_labels, r"offsets must have exactly the keys \['images', 'features', 'labels_onehot'\], "
                   r"got \['features', 'images'\]$"),
    (_drop_a_feature_offset, r"offsets\.features must have exactly the keys \['byte_offset', 'byte_length', 'shape'\], "
                             r"got \['byte_length', 'shape'\]$"),
    (_move_labels_past_the_end, r"offsets\.labels_onehot must be \{'byte_offset': 246240, .*\}, the layout of 30 "
                                r"windows in provenance, got \{'byte_offset': 246248, .*\}$"),
    (_reshape_labels, r"offsets\.labels_onehot must be \{.*\}, the layout of 30 windows in provenance, "
                      r"got \{.*'shape': \[15, 10\]\}$"),
], ids=["_reshape_features-features", "_drop_labels-labels_onehot", "_drop_a_feature_offset-features",
        "_move_labels_past_the_end-labels_onehot", "_reshape_labels-labels_onehot"])
def test_load_dataset_names_dataset_json_and_the_offsets_entry_it_rejects(tmp_path, corrupt, problem):
    save_dataset(dataset_from_examples(make_examples()), tmp_path)
    manifest = json.loads((tmp_path / "dataset.json").read_text())
    corrupt(manifest["offsets"])
    (tmp_path / "dataset.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"dataset\.json: {problem}") as excinfo:
        load_dataset(tmp_path)
    assert len(str(excinfo.value).splitlines()) == 1


def test_load_dataset_checks_the_offsets_against_the_length_of_provenance(tmp_path):
    save_dataset(dataset_from_examples(make_examples()), tmp_path)
    manifest = json.loads((tmp_path / "dataset.json").read_text())
    manifest["provenance"].pop()
    (tmp_path / "dataset.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"dataset\.json: offsets\.images must be .*, the layout of 29 windows") \
            as excinfo:
        load_dataset(tmp_path)
    assert len(str(excinfo.value).splitlines()) == 1


def test_load_dataset_rejects_images_of_two_channels(tmp_path):
    # save_dataset refuses these images; the manifest writer alone still lays out two channels.
    save_dataset_json(dataset_from_examples(make_examples(channels=2)), tmp_path)
    with pytest.raises(ValueError, match=r"dataset\.json: offsets\.images must be .*, got .*\[30, 32, 32, 2\]"):
        load_dataset(tmp_path)


@pytest.mark.parametrize("corrupt, message", [
    (lambda ds: dataset_from_examples(make_examples(channels=2)),
     r"images of shape \(30, 32, 32, 2\) is not \(30, 32, 32, 1\) or \(30, 32, 32, 3\)"),
    (lambda ds: replace(ds, features_raw=ds.features_raw[:, :1]), r"features of shape \(30, 1\) is not \(30, 2\)"),
    (lambda ds: replace(ds, labels=np.where(ds.labels == 4, -1, ds.labels)),
     r"labels of shape \(30,\) are not 30 class indices in 0\.\.4"),
    (lambda ds: replace(ds, labels=ds.labels + 1), r"labels of shape \(30,\) are not 30 class indices in 0\.\.4"),
    (lambda ds: replace(ds, provenance=ds.provenance[:-1]),
     r"images of shape \(30, 32, 32, 1\) is not \(29, 32, 32, 1\)"),
], ids=["two-channels", "one-feature", "negative-label", "label-past-the-classes", "short-provenance"])
def test_save_dataset_checks_its_arrays_before_it_writes(tmp_path, corrupt, message):
    ds = corrupt(dataset_from_examples(make_examples()))
    with pytest.raises(ValueError, match=rf"^save_dataset: {message}"):
        save_dataset(ds, tmp_path / "ds")
    assert not (tmp_path / "ds" / "dataset.json").exists() and not (tmp_path / "ds" / "dataset.bin").exists()


@pytest.mark.parametrize("row", [[0.5, 0.5, 0.0, 0.0, 0.0], [0.0] * 5])
def test_load_dataset_rejects_a_label_row_that_is_not_one_hot(tmp_path, row):
    ds = dataset_from_examples(make_examples())
    save_dataset(ds, tmp_path)
    labels = json.loads((tmp_path / "dataset.json").read_text())["offsets"]["labels_onehot"]
    with open(tmp_path / "dataset.bin", "r+b") as fh:
        fh.seek(labels["byte_offset"] + 7 * 5 * 8)
        fh.write(np.array(row, dtype="<f8").tobytes())
    with pytest.raises(ValueError, match=rf"dataset\.bin: labels_onehot row 7 \(window '{ds.provenance[7]}'\) "
                                         rf"is {re.escape(str(row))}, not one 1\.0 and 4 0\.0$"):
        load_dataset(tmp_path)


def _drop_key(key):
    def corrupt(manifest):
        del manifest[key]
        return f"the top level must have the keys {['format', *_TOP_LEVEL_KEYS]}, got {sorted(manifest)}"
    return corrupt


def _name_a_train_window_in_val(manifest):
    key = manifest["splits"]["train"][0]
    manifest["splits"]["val"].append(key)
    return f"splits.val[{len(manifest['splits']['val']) - 1}] names window '{key}', which splits.train names too"


def _name_a_window_provenance_lacks(manifest):
    manifest["splits"]["test"].append("nosuch:0")
    return f"splits.test[{len(manifest['splits']['test']) - 1}] names window 'nosuch:0', not in provenance"


def _leave_a_window_out(manifest):
    key = manifest["splits"]["test"].pop()
    return f"provenance[{manifest['provenance'].index(key)}] names window '{key}', which none of the splits names"


def _scaler_entry(key, values):
    def corrupt(manifest):
        if values is None:
            del manifest["scaler"][key]
            return f"scaler must be null or have exactly the keys ['min', 'max'], got {sorted(manifest['scaler'])}"
        manifest["scaler"][key] = values
        return f"scaler.{key} must be 2 finite numbers, got {values!r}"
    return corrupt


def _min_above_max(manifest):
    low = manifest["scaler"]["min"][1] = manifest["scaler"]["max"][1] + 1.0
    return f"scaler.min[1] must be <= scaler.max[1] ({manifest['scaler']['max'][1]!r}), got {low!r}"


def _top_level(key, value, problem):
    def corrupt(manifest):
        manifest[key] = value
        return problem
    return corrupt


def _splits_keys(edit, got):
    def corrupt(manifest):
        edit(manifest["splits"])
        return f"splits must be null or have exactly the keys ['train', 'val', 'test'], got {got!r}"
    return corrupt


def _provenance(value, got):
    def corrupt(manifest):
        manifest["provenance"] = value if value != "entry" else [*manifest["provenance"][:-1], 5]
        return got
    return corrupt


_TOP_LEVEL_KEYS = ("offsets", "provenance", "scaler", "splits", "config_echo", "seed", "total_bytes")
_BAD_SCALERS = {"max-of-one": _scaler_entry("max", [1]), "min-of-three": _scaler_entry("min", [0, 0, 0]),
                "no-max": _scaler_entry("max", None), "min-nan": _scaler_entry("min", [float("nan"), 0.0]),
                "max-inf": _scaler_entry("max", [1.0, float("inf")]), "min-text": _scaler_entry("min", ["a", 0.0]),
                "max-bool": _scaler_entry("max", [True, 1.0]), "min-past-float": _scaler_entry("min", [0, 10**400]),
                "min-above-max": _min_above_max}
_BAD_SPLITS = {"no-val": _splits_keys(lambda splits: splits.pop("val"), ["test", "train"]),
               "extra-split": _splits_keys(lambda splits: splits.update(holdout=[]),
                                           ["holdout", "test", "train", "val"])}
_BAD_PROVENANCE = {"provenance-int": _provenance(5, "provenance must be an array, got 5"),
                   "provenance-null": _provenance(None, "provenance must be an array, got None"),
                   "provenance-int-entry": _provenance("entry", "provenance[29] must be str, got 5")}
_BAD_ECHO_AND_SEED = {"config-echo-int": _top_level("config_echo", 5, "config_echo must be an object, got 5"),
                      "seed-text": _top_level("seed", "abc", "seed must be int | None, got 'abc'")}


@pytest.mark.parametrize("corrupt", [*map(_drop_key, _TOP_LEVEL_KEYS), _name_a_train_window_in_val,
                                     _name_a_window_provenance_lacks, _leave_a_window_out, *_BAD_SCALERS.values(),
                                     *_BAD_SPLITS.values(), *_BAD_PROVENANCE.values(), *_BAD_ECHO_AND_SEED.values()],
                         ids=[*(f"no-{k}" for k in _TOP_LEVEL_KEYS), "overlap", "unknown-window", "window-left-out",
                              *_BAD_SCALERS, *_BAD_SPLITS, *_BAD_PROVENANCE, *_BAD_ECHO_AND_SEED])
def test_load_dataset_names_dataset_json_and_the_key_it_rejects(tmp_path, corrupt):
    ds = dataset_from_examples(make_examples())
    save_dataset(assign_splits(ds, SplitSpec(), 2), tmp_path)
    manifest = json.loads((tmp_path / "dataset.json").read_text())
    message = corrupt(manifest)
    (tmp_path / "dataset.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"dataset\.json: {re.escape(message)}$"):
        load_dataset(tmp_path)


def _traced_peak(call) -> int:
    """Peak bytes that ``call()`` allocates above what is allocated before it."""
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_save_dataset_writes_the_arrays_without_copies(tmp_path):
    ds = dataset_from_examples(make_examples(n=200, channels=3))
    peak = _traced_peak(lambda: save_dataset(ds, tmp_path))
    size = (tmp_path / "dataset.bin").stat().st_size
    assert peak <= 0.1 * size, f"peak {peak} bytes for a {size}-byte dataset.bin"


def test_cli_featurize_holds_about_two_copies_of_dataset_bin(tmp_path):
    # Desk windows (1024 samples at 8192 Hz) at a hop of 205, so that 1 s per
    # class gives over 4 MB of 3-channel images. One IMF of at most two
    # sifting passes keeps the run short; the memory is in the images.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"emd": {"max_imfs": 1, "max_sift_iterations": 2}}))
    argv = ["simulate", "--out", tmp_path / "rec", "--seed", "0", "--sample-rate-hz", "8192", "--duration-s", "1"]
    assert main([str(a) for a in argv]) == 0
    argv = ["featurize", "--recordings", tmp_path / "rec", "--out", tmp_path / "ds", "--seed", "0",
            "--config", config, "--window-len", "1024", "--hop", "205", "--jobs", "1"]
    # What featurize_windows loads before its pool forks, imported here so that the first
    # import is not traced, whichever test runs first.
    import scipy.fft  # noqa: F401
    import scipy.linalg.lapack  # noqa: F401
    peak = _traced_peak(lambda: main([str(a) for a in argv]))
    size = (tmp_path / "ds" / "dataset.bin").stat().st_size
    assert size >= 4_000_000
    assert peak <= 2.3 * size, f"peak {peak} bytes for a {size}-byte dataset.bin"


def test_load_dataset_holds_each_array_once(tmp_path):
    save_dataset(dataset_from_examples(make_examples(n=200, channels=3)), tmp_path)
    size = (tmp_path / "dataset.bin").stat().st_size
    peak = _traced_peak(lambda: load_dataset(tmp_path))
    assert peak <= 1.1 * size, f"peak {peak} bytes for a {size}-byte dataset.bin"


def test_scaler_is_fit_on_training_split_only(tmp_path):
    ds = dataset_from_examples(make_examples(60))
    assign_splits(ds, SplitSpec(), 4)
    reference = ds.scaler.minimum.copy(), ds.scaler.maximum.copy()

    # Perturbing features outside the training split must not move the scaler.
    tampered = dataset_from_examples(make_examples(60))
    test_idx = ds.indices_for("test")
    tampered.features_raw[test_idx] += 100.0
    assign_splits(tampered, SplitSpec(), 4)
    np.testing.assert_array_equal(tampered.scaler.minimum, reference[0])
    np.testing.assert_array_equal(tampered.scaler.maximum, reference[1])

    # Normalized features are clamped to [0, 1] even for wild test values.
    norm = tampered.normalized_features()
    assert norm.min() >= 0.0 and norm.max() <= 1.0


def test_arrays_for_split_are_consistent():
    ds = dataset_from_examples(make_examples(40))
    assign_splits(ds, SplitSpec(), 0)
    images, feats, labels, onehot = ds.arrays_for("val")
    assert images.shape[0] == feats.shape[0] == labels.shape[0] == onehot.shape[0]
    np.testing.assert_array_equal(onehot.argmax(axis=1), labels)
