import hashlib
import json
import os
import re
import shutil

import numpy as np
import pytest

from vibediag.cli import main
from vibediag.config import RunConfig, config_from_dict, config_to_dict, load_config, resolve_seed
from vibediag.hybrid_model import load_dataset
from vibediag.segmentation import window_count


def run(argv):
    return main([str(a) for a in argv])


DESK_FLAGS = ["--sample-rate-hz", "8192", "--duration-s", "0.8", "--noise-sigma", "0.2"]
FEAT_FLAGS = ["--window-len", "1024", "--hop", "512", "--channels", "1", "--freq-max-hz", "4096"]


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """A tiny end-to-end pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("deskcli")
    rec_dir = root / "recordings"
    ds_dir = root / "dataset"
    assert run(["simulate", "--out", rec_dir, "--seed", "7", *DESK_FLAGS]) == 0
    assert run(["featurize", "--recordings", rec_dir, "--out", ds_dir, "--seed", "7", *FEAT_FLAGS]) == 0
    assert run(["split", "--dataset", ds_dir, "--seed", "7"]) == 0
    return root


@pytest.fixture(scope="module")
def hop410_run(desk_run, tmp_path_factory):
    """The desk geometry, 1024/410: featurize, split, a one-epoch hybrid train, eval."""
    root = tmp_path_factory.mktemp("hop410")
    flags = list(FEAT_FLAGS)
    flags[flags.index("--hop") + 1] = "410"
    assert run(["featurize", "--recordings", desk_run / "recordings", "--out", root / "dataset",
                "--seed", "7", *flags]) == 0
    assert run(["split", "--dataset", root / "dataset", "--seed", "7"]) == 0
    assert run(["train", "--dataset", root / "dataset", "--out", root / "ckpt", "--branch", "hybrid",
                "--seed", "7", "--max-epochs", "1", "--patience", "1"]) == 0
    assert run(["eval", "--checkpoint", root / "ckpt", "--dataset", root / "dataset",
                "--out", root / "eval"]) == 0
    return root


def test_simulate_is_reproducible(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert run(["simulate", "--out", out, "--seed", "3", *DESK_FLAGS]) == 0
    ma = json.loads((a / "manifest.json").read_text())["artifacts"]
    mb = json.loads((b / "manifest.json").read_text())["artifacts"]
    assert ma == mb
    assert len(ma) == 10  # five classes x (csv + sidecar)


def test_simulate_seed_changes_artifacts(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run(["simulate", "--out", a, "--seed", "3", *DESK_FLAGS]) == 0
    assert run(["simulate", "--out", b, "--seed", "4", *DESK_FLAGS]) == 0
    ma = json.loads((a / "manifest.json").read_text())["artifacts"]
    mb = json.loads((b / "manifest.json").read_text())["artifacts"]
    assert ma != mb


def test_featurize_counts_match_window_arithmetic(desk_run):
    ds = load_dataset(desk_run / "dataset")
    n = int(0.8 * 8192)
    expected = 5 * window_count(n, 1024, 512)
    assert len(ds) == expected
    assert ds.images.shape[1:] == (32, 32, 1)
    assert ds.splits is not None and ds.scaler is not None


def test_export_images_one_file_per_window(desk_run, tmp_path):
    out = tmp_path / "images"
    assert run(["export-images", "--dataset", desk_run / "dataset", "--out", out]) == 0
    ds = load_dataset(desk_run / "dataset")
    files = sorted(out.glob("*.pgm"))
    assert len(files) == len(ds)
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["artifacts"]) == len(ds)


def test_srs_json_schema(desk_run, tmp_path):
    rec = desk_run / "recordings" / "combined-r0.csv"
    out = tmp_path / "srs.json"
    assert run(["srs", "--recording", rec, "--lo", "100", "--hi", "2000", "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"peaks_hz", "prominence"}
    assert len(payload["peaks_hz"]) == 2
    assert abs(payload["peaks_hz"][0] - 240.0) < 10.0
    assert abs(payload["peaks_hz"][1] - 820.0) < 10.0


def test_train_eval_smoke(desk_run, tmp_path):
    ckpt = tmp_path / "ckpt"
    assert run([
        "train", "--dataset", desk_run / "dataset", "--out", ckpt, "--branch", "mlp",
        "--seed", "7", "--max-epochs", "3", "--patience", "3", "--learning-rate", "0.01",
    ]) == 0
    history = (ckpt / "history.csv").read_text().strip().splitlines()
    assert history[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert 1 <= len(history) - 1 <= 3

    out = tmp_path / "eval"
    assert run(["eval", "--checkpoint", ckpt, "--dataset", desk_run / "dataset", "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert set(report["classes"]) == {"Normal", "InnerRace", "OuterRace", "Ball", "Combined"}
    assert 0.0 <= report["accuracy"] <= 1.0
    confusion = (out / "confusion.csv").read_text().strip().splitlines()
    assert len(confusion) == 6
    assert confusion[0].count(",") == 5


def test_eval_rejects_a_dataset_other_than_the_one_trained_on(desk_run, tmp_path, capsys):
    ckpt = tmp_path / "ckpt"
    assert run(["train", "--dataset", desk_run / "dataset", "--out", ckpt, "--branch", "mlp",
                "--seed", "7", "--max-epochs", "1", "--patience", "1"]) == 0
    # The same recordings re-featurized at another hop: a valid dataset, other bytes.
    other = tmp_path / "dataset-hop384"
    flags = list(FEAT_FLAGS)
    flags[flags.index("--hop") + 1] = "384"
    assert run(["featurize", "--recordings", desk_run / "recordings", "--out", other,
                "--seed", "7", *flags]) == 0
    assert run(["split", "--dataset", other, "--seed", "7"]) == 0
    capsys.readouterr()
    assert run(["eval", "--checkpoint", ckpt, "--dataset", other, "--out", tmp_path / "eval"]) == 1
    err = capsys.readouterr().err
    trained = json.loads((ckpt / "model.json").read_text())["config"]["dataset_sha256"]
    given = hashlib.sha256((other / "dataset.bin").read_bytes()).hexdigest()
    assert given != trained
    assert len(err.splitlines()) == 1 and trained in err and given in err
    assert not (tmp_path / "eval").exists()


def test_train_restarts_from_featurized_dataset_alone(desk_run, tmp_path):
    # No recordings directory needed once the dataset exists.
    ckpt = tmp_path / "ckpt2"
    assert run([
        "train", "--dataset", desk_run / "dataset", "--out", ckpt, "--branch", "cnn",
        "--seed", "1", "--max-epochs", "1", "--patience", "1",
    ]) == 0
    manifest = json.loads((ckpt / "manifest.json").read_text())
    assert manifest["extra"]["branch"] == "cnn"
    assert (ckpt / "model.bin").exists()


def test_branches_consume_byte_identical_dataset(desk_run, tmp_path):
    hashes = {}
    for branch in ("cnn", "mlp"):
        ckpt = tmp_path / f"ckpt-{branch}"
        assert run([
            "train", "--dataset", desk_run / "dataset", "--out", ckpt, "--branch", branch,
            "--seed", "1", "--max-epochs", "1", "--patience", "1",
        ]) == 0
        model_manifest = json.loads((ckpt / "model.json").read_text())
        hashes[branch] = model_manifest["config"]["dataset_sha256"]
    assert hashes["cnn"] == hashes["mlp"]


def test_checkpoint_does_not_depend_on_dataset_location(desk_run, tmp_path):
    artifacts = []
    for where in (tmp_path / "a" / "dataset", tmp_path / "b" / "nested" / "copy"):
        shutil.copytree(desk_run / "dataset", where)
        ckpt = where.parent / "ckpt"
        assert run([
            "train", "--dataset", where, "--out", ckpt, "--branch", "mlp",
            "--seed", "2", "--max-epochs", "2", "--patience", "2",
        ]) == 0
        artifacts.append(json.loads((ckpt / "manifest.json").read_text())["artifacts"])
    for name in ("model.json", "model.bin"):
        assert artifacts[0][name] == artifacts[1][name]


def test_featurize_is_reproducible(desk_run, tmp_path):
    other = tmp_path / "dataset2"
    assert run(["featurize", "--recordings", desk_run / "recordings", "--out", other,
                "--seed", "7", *FEAT_FLAGS]) == 0
    reference = json.loads((desk_run / "dataset" / "manifest.json").read_text())
    repeat = json.loads((other / "manifest.json").read_text())
    assert repeat["artifacts"]["dataset.bin"] == reference["artifacts"]["dataset.bin"]
    # The featurize manifest carries the sift counters, and the split
    # manifest that replaces it in desk_run's dataset directory keeps them.
    counters = {"examples", "imfs", "sift_iters_per_imf", "imfs_at_sift_cap"}
    assert counters <= set(repeat["extra"])
    assert set(reference["extra"]) == counters | {"train", "val", "test"}


def test_split_leaves_dataset_bin_untouched(desk_run, tmp_path):
    copy = tmp_path / "dataset"
    shutil.copytree(desk_run / "dataset", copy)
    os.utime(copy / "dataset.bin", ns=(0, 0))
    assert run(["split", "--dataset", copy, "--seed", "8"]) == 0
    assert (copy / "dataset.bin").stat().st_mtime_ns == 0
    assert load_dataset(copy).splits != load_dataset(desk_run / "dataset").splits


def test_embed_outputs(desk_run, tmp_path):
    out = tmp_path / "embed"
    assert run([
        "embed", "--dataset", desk_run / "dataset", "--out", out,
        "--seed", "0", "--perplexity", "8", "--iterations", "60", "--max-points", "60",
    ]) == 0
    ds = load_dataset(desk_run / "dataset")
    lines = (out / "embedding.csv").read_text().strip().splitlines()
    assert lines[0] == "id,x,y,label"
    assert len(lines) == 1 + min(60, len(ds))
    curve = (out / "variance_curve.csv").read_text().strip().splitlines()
    assert curve[0] == "k,cumulative_ratio"
    last = float(curve[-1].split(",")[1])
    assert last <= 1.0 + 1e-9
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extra"]["kl_final"] <= manifest["extra"]["kl_after_exaggeration"] + 1e-12


def test_import_adapter(tmp_path):
    src = tmp_path / "raw.csv"
    rows = ["lin,ang"] + [f"{0.1 * i},{0.2 * i}" for i in range(64)]
    src.write_text("\n".join(rows) + "\n")
    out = tmp_path / "imported"
    assert run([
        "import", "--src", src, "--out", out, "--sample-rate-hz", "1000", "--rpm", "600",
        "--label", "OuterRace", "--linear-cols", "0", "--angular-col", "1", "--has-header",
    ]) == 0
    from vibediag.signal_model import load_recording

    rec = load_recording(out / "raw.csv")
    assert rec.n_samples == 64
    assert rec.label.canonical_name == "OuterRace"
    assert rec.rpm == 600


def test_bad_flags_exit_code_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--nonsense"])
    assert excinfo.value.code == 2


def test_failed_stage_exit_code_one(tmp_path, capsys):
    assert run(["featurize", "--recordings", tmp_path / "missing", "--out", tmp_path / "o"]) == 1
    assert "error:" in capsys.readouterr().err


def test_config_file_round_trip_matches_defaults():
    loaded = load_config("configs/defaults.json")
    assert config_to_dict(loaded) == config_to_dict(RunConfig())


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"tnse": {}})
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"emd": {"max_ifms": 2}})
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"paths": {"out_dir": "runs"}})
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"train": {"shuffle": True}})


@pytest.mark.parametrize("section, name, value", [("train", "batch_size", 2.5), ("hht", "channels", "3"),
                                                  ("segmentation", "hop", True)])
def test_config_rejects_a_value_of_another_type_in_one_line(section, name, value):
    with pytest.raises(ValueError, match=rf"^config field {section}\.{name} must be int, got {re.escape(repr(value))}$"):
        config_from_dict({section: {name: value}})


def test_config_takes_an_int_for_a_float_and_none_where_the_default_is_none(desk_run):
    config = config_from_dict({"train": {"learning_rate": 1}, "hht": {"freq_max_hz": None}})
    assert (config.train.learning_rate, config.hht.freq_max_hz) == (1, None)
    echo = load_dataset(desk_run / "dataset").config_echo
    assert config_to_dict(config_from_dict(echo)) == echo


def test_flags_override_the_config_fields_they_name_and_absent_flags_keep_them(desk_run, tmp_path):
    copy = tmp_path / "dataset"
    shutil.copytree(desk_run / "dataset", copy)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"split": {"test_fraction": 0.3, "stratified": True}}))
    assert run(["split", "--dataset", copy, "--config", config, "--val-fraction", "0.25"]) == 0
    split = json.loads((copy / "manifest.json").read_text())["config"]["split"]
    assert (split["test_fraction"], split["val_fraction"], split["stratified"]) == (0.3, 0.25, True)


def test_train_rejects_batch_size_zero_with_the_config_message(desk_run, tmp_path, capsys):
    assert run(["train", "--dataset", desk_run / "dataset", "--out", tmp_path / "ckpt", "--batch-size", "0"]) == 1
    assert capsys.readouterr().err == "error: learning_rate, batch_size, max_epochs and patience must be positive\n"


def test_flags_are_validated_as_the_same_values_in_a_config_file(desk_run, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"train": {"max_epochs": 2, "patience": 5}}))
    train = ["train", "--dataset", desk_run / "dataset", "--out", tmp_path / "ckpt", "--branch", "mlp"]
    assert run([*train, "--config", config]) == 1
    from_file = capsys.readouterr().err
    assert run([*train, "--max-epochs", "2", "--patience", "5"]) == 1
    assert capsys.readouterr().err == from_file == "error: patience must not exceed max_epochs\n"
    assert not (tmp_path / "ckpt").exists()


def test_seed_resolution_order(monkeypatch):
    cfg = RunConfig()
    monkeypatch.delenv("VIBEDIAG_SEED", raising=False)
    assert resolve_seed(None, cfg) == 0
    monkeypatch.setenv("VIBEDIAG_SEED", "41")
    assert resolve_seed(None, cfg) == 41
    cfg.seed = 12
    assert resolve_seed(None, cfg) == 12
    assert resolve_seed(99, cfg) == 99


def test_env_seed_feeds_commands(tmp_path, monkeypatch):
    monkeypatch.setenv("VIBEDIAG_SEED", "3")
    a = tmp_path / "a"
    assert run(["simulate", "--out", a, *DESK_FLAGS]) == 0
    b = tmp_path / "b"
    assert run(["simulate", "--out", b, "--seed", "3", *DESK_FLAGS]) == 0
    ma = json.loads((a / "manifest.json").read_text())["artifacts"]
    mb = json.loads((b / "manifest.json").read_text())["artifacts"]
    assert ma == mb


def test_manifests_echo_the_geometry_the_dataset_was_featurized_with(hop410_run):
    # split, train and eval resolve their own config, whose default
    # segmentation is 3897/1559; the dataset was cut at 1024/410.
    for stage in ("dataset", "ckpt", "eval"):
        segmentation = json.loads((hop410_run / stage / "manifest.json").read_text())["config"]["segmentation"]
        assert (segmentation["window_len"], segmentation["hop"]) == (1024, 410), stage


def test_train_checkpoints_float32_parameters(hop410_run):
    params = np.fromfile(hop410_run / "ckpt" / "model.bin", dtype="<f8")
    assert params.size > 0
    np.testing.assert_array_equal(params, params.astype(np.float32).astype(np.float64))


def test_eval_manifest_names_the_checkpoint_it_evaluated(hop410_run, tmp_path):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(hop410_run / "ckpt", ckpt)
    params = np.fromfile(ckpt / "model.bin", dtype="<f8")
    params[-1] = np.nextafter(params[-1], np.inf)  # one ulp on the last output bias
    params.tofile(ckpt / "model.bin")
    assert run(["eval", "--checkpoint", ckpt, "--dataset", hop410_run / "dataset", "--out", tmp_path / "eval"]) == 0
    first = json.loads((hop410_run / "eval" / "manifest.json").read_text())
    second = json.loads((tmp_path / "eval" / "manifest.json").read_text())
    assert first["artifacts"] == second["artifacts"]  # the same report and confusion matrix
    assert first["extra"]["checkpoint"]["model.json"] == second["extra"]["checkpoint"]["model.json"]
    assert first["extra"]["checkpoint"]["model.bin"] == hashlib.sha256(
        (hop410_run / "ckpt" / "model.bin").read_bytes()).hexdigest()
    assert first["extra"]["checkpoint"]["model.bin"] != second["extra"]["checkpoint"]["model.bin"]
