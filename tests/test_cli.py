import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from vibediag.cli import main
from vibediag.config import RunConfig, config_from_dict, config_to_dict, load_config, resolve_seed
from vibediag.hybrid_model import build_mlp_only, evaluate_arrays, load_dataset, render_report
from vibediag.nn_engine import load_model, save_model
from vibediag.segmentation import window_count
from vibediag.signal_model import load_recording


def run(argv):
    return main([str(a) for a in argv])


def run_recorded(stages, where, argv):
    """``run``, keeping in ``stages``, under the command's name, ``where`` (the directory of
    the manifest it writes) and what it printed."""
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = run(argv)
    stages[argv[0]] = (where, printed.getvalue())
    return code


DESK_FLAGS = ["--sample-rate-hz", "8192", "--duration-s", "0.8", "--noise-sigma", "0.2"]
FEAT_FLAGS = ["--window-len", "1024", "--hop", "512", "--channels", "1", "--freq-max-hz", "4096"]


@pytest.fixture(scope="module")
def stages():
    """Each manifest-writing command that the fixtures below run, by name: the directory of
    its manifest and what it printed."""
    return {}


@pytest.fixture(scope="module")
def desk_run(stages, tmp_path_factory):
    """A tiny end-to-end pipeline shared by the CLI tests."""
    root = tmp_path_factory.mktemp("deskcli")
    rec_dir = root / "recordings"
    ds_dir = root / "dataset"
    assert run_recorded(stages, rec_dir, ["simulate", "--out", rec_dir, "--seed", "7", *DESK_FLAGS]) == 0
    assert run(["featurize", "--recordings", rec_dir, "--out", ds_dir, "--seed", "7", *FEAT_FLAGS]) == 0
    assert run(["split", "--dataset", ds_dir, "--seed", "7"]) == 0
    return root


@pytest.fixture(scope="module")
def hop410_run(desk_run, stages, tmp_path_factory):
    """The desk geometry, 1024/410: featurize, split, a one-epoch hybrid train, eval. The
    split runs on a copy of the featurized directory, which keeps the featurize manifest."""
    root = tmp_path_factory.mktemp("hop410")
    featurized, dataset, ckpt, evaluated = (root / name for name in ("featurized", "dataset", "ckpt", "eval"))
    flags = list(FEAT_FLAGS)
    flags[flags.index("--hop") + 1] = "410"
    assert run_recorded(stages, featurized, ["featurize", "--recordings", desk_run / "recordings",
                                             "--out", featurized, "--seed", "7", *flags]) == 0
    shutil.copytree(featurized, dataset)
    assert run_recorded(stages, dataset, ["split", "--dataset", dataset, "--seed", "7"]) == 0
    assert run_recorded(stages, ckpt, ["train", "--dataset", dataset, "--out", ckpt, "--branch", "hybrid",
                                       "--seed", "7", "--max-epochs", "1", "--patience", "1"]) == 0
    assert run_recorded(stages, evaluated, ["eval", "--checkpoint", ckpt, "--dataset", dataset,
                                            "--out", evaluated]) == 0
    return root


@pytest.fixture(scope="module")
def every_stage(desk_run, hop410_run, stages, tmp_path_factory):
    """``stages`` with all eight manifest-writing commands: the two fixtures above run five,
    and this runs embed and export-images on the desk dataset and imports a two-column CSV."""
    root = tmp_path_factory.mktemp("more")
    embedded, images, imported, src = (root / name for name in ("embed", "images", "imported", "raw.csv"))
    assert run_recorded(stages, embedded, ["embed", "--dataset", desk_run / "dataset", "--out", embedded, "--seed", "0",
                                           "--perplexity", "8", "--iterations", "60", "--max-points", "60"]) == 0
    assert run_recorded(stages, images, ["export-images", "--dataset", desk_run / "dataset", "--out", images]) == 0
    src.write_text("\n".join(["lin,ang"] + [f"{0.1 * i},{0.2 * i}" for i in range(64)]) + "\n")
    assert run_recorded(stages, imported, ["import", "--src", src, "--out", imported, "--sample-rate-hz", "1000",
                                           "--rpm", "600", "--label", "OuterRace", "--linear-cols", "0",
                                           "--angular-col", "1", "--has-header"]) == 0
    return stages


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


def test_export_images_one_file_per_window(desk_run, every_stage):
    out, _ = every_stage["export-images"]
    ds = load_dataset(desk_run / "dataset")
    files = sorted(out.glob("*.pgm"))
    assert len(files) == len(ds)
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["artifacts"]) == len(ds)


def test_srs_json_schema(desk_run, tmp_path, capsys):
    rec = desk_run / "recordings" / "combined-r0.csv"
    out = tmp_path / "srs" / "srs.json"
    assert run(["srs", "--recording", rec, "--lo", "100", "--hi", "2000", "--out", out]) == 0
    payload = json.loads(out.read_text())
    assert capsys.readouterr().out == json.dumps(payload) + "\n"
    assert list(out.parent.iterdir()) == [out]  # and no manifest.json
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


def test_embed_outputs(desk_run, every_stage):
    out, _ = every_stage["embed"]
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


def test_embed_at_target_one_keeps_every_component(desk_run, tmp_path):
    out = tmp_path / "embed"
    assert run(["embed", "--dataset", desk_run / "dataset", "--out", out, "--target", "1.0",
                "--perplexity", "8", "--iterations", "60", "--max-points", "60"]) == 0
    curve = (out / "variance_curve.csv").read_text().strip().splitlines()[1:]
    assert json.loads((out / "manifest.json").read_text())["extra"]["components"] == len(curve)


@pytest.mark.parametrize("flags", [["--max-points", "1"], ["--target", "0"], ["--target", "5"]])
def test_failed_embed_leaves_no_out_directory(desk_run, tmp_path, capsys, flags):
    out = tmp_path / "embed"
    assert run(["embed", "--dataset", desk_run / "dataset", "--out", out,
                "--perplexity", "8", "--iterations", "60", "--max-points", "60", *flags]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-4"])
def test_featurize_rejects_fewer_than_one_job_before_reading_a_file(tmp_path, capsys, value):
    assert run(["featurize", "--recordings", tmp_path / "missing", "--out", tmp_path / "ds", "--jobs", value]) == 1
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {value}\n"
    assert not (tmp_path / "ds").exists()


@pytest.mark.parametrize("value", ["-1", "0"])
def test_embed_rejects_fewer_than_two_points_before_reading_a_file(tmp_path, capsys, value):
    assert run(["embed", "--dataset", tmp_path / "missing", "--out", tmp_path / "embed", "--max-points", value]) == 1
    assert capsys.readouterr().err == f"error: --max-points must be >= 2, got {value}\n"
    assert not (tmp_path / "embed").exists()


def test_import_adapter(every_stage):
    out, _ = every_stage["import"]
    rec = load_recording(out / "raw.csv")
    assert rec.n_samples == 64
    assert rec.label.canonical_name == "OuterRace"
    assert rec.rpm == 600
    np.testing.assert_array_equal(rec.angular, 0.2 * np.arange(64))


@pytest.mark.parametrize("flag, value, most", [
    ("--angular-col", "-1", 1), ("--angular-col", "9", 1), ("--angular-col", "0,1", 1),
    ("--linear-cols", "0,x", 2), ("--linear-cols", "3", 2), ("--linear-cols", "0,1,2", 2),
])
def test_import_names_a_column_the_csv_lacks_in_one_line_and_leaves_no_out_directory(tmp_path, capsys,
                                                                                     flag, value, most):
    src = tmp_path / "raw.csv"
    src.write_text("1,2,3\n4,5,6\n")
    out = tmp_path / "imported"
    assert run(["import", "--src", src, "--out", out, "--sample-rate-hz", "1000", "--rpm", "600",
                "--label", "Ball", flag, value]) == 1
    assert capsys.readouterr().err == (
        f"error: {flag} must list at most {most} of the 3 columns of {src}, numbered from 0, got {value!r}\n")
    assert not out.exists()


def test_bad_flags_exit_code_two():
    with pytest.raises(SystemExit) as excinfo:
        main(["train", "--nonsense"])
    assert excinfo.value.code == 2


def test_failed_stage_exit_code_one(tmp_path, capsys):
    assert run(["featurize", "--recordings", tmp_path / "missing", "--out", tmp_path / "o"]) == 1
    assert "error:" in capsys.readouterr().err


# One malformed JSON document per stage that reads it: (command, the file under the test's copies
# of a dataset, a checkpoint and recordings, its new text, the problem the error names after the
# file). A text of None cuts the file to its first 20 characters.
MALFORMED_JSON = {
    "dataset-list": ("train", "dataset/dataset.json", "[1]", "holds a JSON array, not an object"),
    "dataset-truncated": ("train", "dataset/dataset.json", None, "not JSON (Unterminated string"),
    "model-int": ("eval", "ckpt/model.json", "5", "holds a JSON number, not an object"),
    "model-bool": ("eval", "ckpt/model.json", "true", "holds a JSON boolean, not an object"),
    "model-empty": ("eval", "ckpt/model.json", "", "not JSON (Expecting value: line 1 column 1 (char 0))"),
    "sidecar-int": ("featurize", "recordings/normal-r0.meta.json", "5", "holds a JSON number, not an object"),
    "sidecar-string": ("featurize", "recordings/normal-r0.meta.json", '"x"', "holds a JSON string, not an object"),
    "sidecar-unclosed": ("featurize", "recordings/normal-r0.meta.json", "{bad", "not JSON (Expecting property name"),
    "config-list": ("simulate", "c.json", "[1]", "holds a JSON array, not an object"),
    "config-null": ("simulate", "c.json", "null", "holds a JSON null, not an object"),
    "config-truncated": ("simulate", "c.json", '{"simulate": {"noise', "not JSON (Unterminated string"),
    "manifest-list": ("split", "dataset/manifest.json", "[1]", "holds a JSON array, not an object"),
    "manifest-extra-int": ("split", "dataset/manifest.json", '{"extra": 5}', "extra must be an object, got 5"),
    **{f"sidecar-{name}": ("featurize", "recordings/normal-r0.meta.json",
                           json.dumps({"sample_rate_hz": 8192.0, "rpm": 1200.0, "label": "Normal", "id": "normal-r0",
                                       key: value}), problem)
       for name, key, value, problem in [
           ("rate-string", "sample_rate_hz", "abc", "sample_rate_hz must be a finite number > 0, got 'abc'"),
           ("rate-negative", "sample_rate_hz", -5, "sample_rate_hz must be a finite number > 0, got -5"),
           ("rate-bool", "sample_rate_hz", True, "sample_rate_hz must be a finite number > 0, got True"),
           ("rate-nan", "sample_rate_hz", float("nan"), "sample_rate_hz must be a finite number > 0, got nan"),
           ("rpm-null", "rpm", None, "rpm must be a finite number > 0, got None"),
           ("label-unknown", "label", "Cracked", "unknown fault label 'Cracked'; expected one of "
                                                 "['Normal', 'InnerRace', 'OuterRace', 'Ball', 'Combined']"),
       ]},
}


@pytest.mark.parametrize("command, name, text, problem", MALFORMED_JSON.values(), ids=MALFORMED_JSON)
def test_a_malformed_json_document_fails_in_one_line_that_starts_with_its_path(desk_run, hop410_run, tmp_path,
                                                                               capsys, command, name, text, problem):
    for source in (hop410_run / "dataset", hop410_run / "ckpt", desk_run / "recordings"):
        shutil.copytree(source, tmp_path / source.name)
    path, out = tmp_path / name, tmp_path / "out"
    path.write_text(path.read_text()[:20] if text is None else text)
    dataset, ckpt, recordings = tmp_path / "dataset", tmp_path / "ckpt", tmp_path / "recordings"
    kept = (dataset / "dataset.json").read_bytes()
    argv = {"train": ["--dataset", dataset, "--out", out],
            "eval": ["--checkpoint", ckpt, "--dataset", dataset, "--out", out],
            "featurize": ["--recordings", recordings, "--out", out, *FEAT_FLAGS],
            "simulate": ["--config", path, "--out", out],
            "split": ["--dataset", dataset]}[command]
    assert run([command, *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: {problem}") and err.endswith("\n") and err.count("\n") == 1
    assert not out.exists()
    assert (dataset / "dataset.json").read_bytes() == kept  # split fails before it rewrites dataset.json


def test_importing_the_cli_loads_no_scipy_subpackage_but_linalg():
    # scipy.signal pulls in stats, optimize, interpolate, sparse, spatial and ndimage: about 1 s
    # at every command's start. Only the srs peak search needs it, and it imports it on first use.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = "import sys, vibediag.cli; print(' '.join(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, check=True)
    subpackages = {name.split(".")[1] for name in done.stdout.split() if name.startswith("scipy.")}
    assert {name for name in subpackages if not name.startswith("_")} - {"version"} == {"linalg"}


@pytest.mark.parametrize("text, flags, rows", [("1.0,2.0\n", [], 1), ("lin,ang\n", ["--has-header"], 0)],
                         ids=["one-row", "header-only"])
def test_import_names_a_csv_of_fewer_than_two_rows_in_one_line_and_leaves_no_out_directory(tmp_path, capsys,
                                                                                          text, flags, rows):
    src, out = tmp_path / "raw.csv", tmp_path / "imported"
    src.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's empty-input warning is not printed
        assert run(["import", "--src", src, "--out", out, "--sample-rate-hz", "100", "--rpm", "60",
                    "--label", "Normal", *flags]) == 1
    assert capsys.readouterr().err == f"error: {src}: {rows} data row(s), but a recording needs at least 2\n"
    assert not out.exists()


def _linear_x(line: str, value: str) -> str:
    """A recording CSV ``line`` of index, linear_x and angular with its linear_x set to ``value``."""
    index, _, angular = line.split(",")
    return f"{index},{value},{angular}"


# Edits of the desk ball-r0.csv (its lines, the header first; data row k is line k), each with the problem
# that featurize names after the file.
MALFORMED_RECORDINGS = {
    "ragged": (lambda lines: lines[:5] + ["5,0.5"] + lines[6:], "ragged row 5: expected 3 fields, got 2"),
    "non-numeric": (lambda lines: lines[:5] + [_linear_x(lines[5], "abc")] + lines[6:],
                    "non-numeric value in row 5"),
    "nan": (lambda lines: lines[:5] + [_linear_x(lines[5], "nan")] + lines[6:], "non-finite value in row 5"),
    "header": (lambda lines: ["idx,linear_x,angular"] + lines[1:],
               "malformed header ['idx', 'linear_x', 'angular']; expected index,linear_x[,linear_y],angular"),
    "one-row": (lambda lines: lines[:2], "1 data row(s), but a recording needs at least 2"),
    "header-only": (lambda lines: lines[:1], "0 data row(s), but a recording needs at least 2"),
    # loadtxt skips the blank line, so it is not a row and does not shift the count.
    "blank-line-then-nan": (lambda lines: lines[:3] + [""] + lines[3:20] + [_linear_x(lines[20], "nan")] + lines[21:],
                            "non-finite value in row 20"),
}


@pytest.mark.parametrize("edit, problem", MALFORMED_RECORDINGS.values(), ids=MALFORMED_RECORDINGS)
def test_a_malformed_recording_csv_fails_in_one_line_naming_the_file_and_its_data_row(desk_run, tmp_path, capsys,
                                                                                   edit, problem):
    recordings, out = tmp_path / "recordings", tmp_path / "out"
    shutil.copytree(desk_run / "recordings", recordings)
    path = recordings / "ball-r0.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    assert run(["featurize", "--recordings", recordings, "--out", out, *FEAT_FLAGS]) == 1
    assert capsys.readouterr().err == f"error: {path}: {problem}\n"
    assert not out.exists()


IMPORT_FLAGS = ["--sample-rate-hz", "100", "--rpm", "60", "--label", "Normal"]


@pytest.mark.parametrize("text, problem", [
    ("1.0,2.0\n3.0,abc\n5.0,6.0\n", "non-numeric value in row 2"),
    ("1.0,2.0\n3.0\n5.0,6.0\n", "ragged row 2: expected 2 fields, got 1"),
    ("1.0,2.0\n3.0,nan\n5.0,6.0\n", "non-finite value in row 2"),
], ids=["non-numeric", "ragged", "nan"])
def test_a_malformed_import_csv_fails_in_one_line_naming_the_file_and_its_data_row(tmp_path, capsys, text, problem):
    src, out = tmp_path / "raw.csv", tmp_path / "imported"
    src.write_text(text)
    assert run(["import", "--src", src, "--out", out, *IMPORT_FLAGS]) == 1
    assert capsys.readouterr().err == f"error: {src}: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [("--sample-rate-hz", "nan"), ("--sample-rate-hz", "inf"),
                                         ("--sample-rate-hz", "0"), ("--rpm", "-1")])
def test_import_names_a_rate_flag_that_is_not_a_finite_positive_number_and_leaves_no_out_directory(
        tmp_path, capsys, flag, value):
    src, out = tmp_path / "raw.csv", tmp_path / "imported"
    src.write_text("1.0,2.0\n3.0,4.0\n")
    assert run(["import", "--src", src, "--out", out, *IMPORT_FLAGS, flag, value]) == 1
    assert capsys.readouterr().err == f"error: {flag} must be a finite number > 0, got {float(value)!r}\n"
    assert not out.exists()


def test_import_skips_comment_and_blank_lines_and_a_nan_in_a_column_no_flag_selects(tmp_path):
    src, out = tmp_path / "raw.csv", tmp_path / "imported"
    src.write_text("# logger export\n0.0,1.0,nan\n\n0.5,2.0,7.0  # a note\n1.0,3.0,nan\n")
    assert run(["import", "--src", src, "--out", out, *IMPORT_FLAGS]) == 0
    rec = load_recording(out / "raw.csv")
    np.testing.assert_array_equal(rec.linear, [[0.0, 0.5, 1.0]])
    np.testing.assert_array_equal(rec.angular, [1.0, 2.0, 3.0])


def test_import_reads_a_csv_from_a_pipe(tmp_path):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = tmp_path / "imported"
    done = subprocess.run([sys.executable, "-m", "vibediag.cli", "import", "--src", "/dev/stdin", "--out", str(out),
                           *IMPORT_FLAGS], input="1.0,2.0\n3.0,4.0\n", env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert (done.returncode, done.stderr) == (0, "")
    np.testing.assert_array_equal(load_recording(out / "stdin.csv").angular, [2.0, 4.0])


def test_importing_a_desk_recording_writes_its_csv_and_sidecar_byte_for_byte(desk_run, tmp_path):
    recordings, out = desk_run / "recordings", tmp_path / "imported"
    assert run(["import", "--src", recordings / "normal-r0.csv", "--out", out, "--has-header", "--linear-cols", "1",
                "--angular-col", "2", "--sample-rate-hz", "8192", "--rpm", "1200", "--label", "Normal"]) == 0
    for name in ("normal-r0.csv", "normal-r0.meta.json"):
        assert (out / name).read_bytes() == (recordings / name).read_bytes(), name


@pytest.mark.parametrize("payload, flags, sigma, amplitude, label", [
    ({}, ["--noise-sigma", "1e308"], 1e308, 1.0, "Normal"),
    ({"simulate": {"impulse_amplitude": 1e308}}, [], 0.1, 1e308, "InnerRace"),
], ids=["noise", "impulse"])
def test_simulate_names_the_fields_of_a_draw_past_the_float_range_and_leaves_no_out_directory(
        tmp_path, capsys, payload, flags, sigma, amplitude, label):
    config, out = tmp_path / "c.json", tmp_path / "out"
    config.write_text(json.dumps(payload))
    # RuntimeWarnings are errors under this suite, so an overflow warning would replace the message.
    assert run(["simulate", "--config", config, "--out", out, "--sample-rate-hz", "8192", *flags]) == 1
    assert capsys.readouterr().err == (
        f"error: config fields simulate.noise_sigma ({sigma}) and simulate.impulse_amplitude ({amplitude}) "
        f"draw {label} samples past the float range\n")
    assert not out.exists()


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


# Values that once loaded and then failed late, or never failed. A value that a flag can set
# is given as that flag too: (stage, the flag and its value).
@pytest.mark.parametrize("payload, name, flag", [
    ({"hht": {"channels": 2}}, "hht.channels", ("featurize", "--channels", "2")),
    ({"band": {"centers_hz": ["a", "b"]}}, "band.centers_hz", None),
    ({"band": {"centers_hz": [240.0]}}, "band.centers_hz", None),
    ({"hht": {"channels": 0}}, "hht.channels", None),
    ({"segmentation": {"hop": 0}}, "segmentation.hop", ("featurize", "--hop", "0")),
    ({"simulate": {"duration_s": -1.0}}, "simulate.duration_s", ("simulate", "--duration-s", "-1.0")),
    ({"band": {"half_width_hz": -5.0}}, "band.half_width_hz", None),
    ({"seed": 2.5}, "seed", None),
    ({"segmentation": {"linear_channel": -1}}, "segmentation.linear_channel", None),
    ({"simulate": {"sample_rate_hz": 1000.0}}, "simulate.sample_rate_hz", ("simulate", "--sample-rate-hz", "1000")),
    ({"simulate": {"duration_s": 0.00001}}, "simulate.duration_s", ("simulate", "--duration-s", "0.00001")),
    ({"segmentation": {"window_len": 5}}, "segmentation.window_len", ("featurize", "--window-len", "5")),
])
def test_config_rejects_a_value_outside_its_bound_at_load_in_one_line(tmp_path, capsys, payload, name, flag):
    with pytest.raises(ValueError) as excinfo:
        config_from_dict(payload)
    line = str(excinfo.value)
    assert re.fullmatch(rf"config field {re.escape(name)} must [^\n]*, got [^\n]*", line), line
    if flag:
        stage, *value = flag
        inputs = ["--recordings", tmp_path / "recordings"] if stage == "featurize" else []
        assert run([stage, *inputs, "--out", tmp_path / "out", *value]) == 1
        assert capsys.readouterr().err == f"error: {line}\n"
        assert not (tmp_path / "out").exists()


# Settings that are fixed by the protocol, or drawn from the run seed, at their last values.
REMOVED_KEYS = {
    "emd": {"boundary_pad_extrema": 2},
    "hht": {"log_compress": True},
    "band": {"squared": False, "taper": "rect"},
    "train": {"beta1": 0.9, "beta2": 0.999, "epsilon": 1e-7},
    "split": {"seed": 0},
    "tsne": {"learning_rate": 200.0, "early_exaggeration": 12.0, "exaggeration_iters": 250,
             "momentum_start": 0.5, "momentum_final": 0.8, "momentum_switch_iter": 250, "seed": 0},
}


@pytest.mark.parametrize("section, name", [(section, name) for section, names in REMOVED_KEYS.items()
                                           for name in names])
def test_a_config_file_setting_a_removed_key_is_rejected_at_load_naming_it(tmp_path, capsys, section, name):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({section: {name: REMOVED_KEYS[section][name]}}))
    assert run(["simulate", "--config", config, "--out", tmp_path / "out", *DESK_FLAGS]) == 1
    assert capsys.readouterr().err == f"error: unknown config key(s): ['{section}.{name}']\n"
    assert not (tmp_path / "out").exists()


def test_a_train_stage_reproduces_from_its_manifest(hop410_run, tmp_path):
    # The manifest's config echo, seed and branch are all a rerun needs.
    ckpt = hop410_run / "ckpt"
    manifest = json.loads((ckpt / "manifest.json").read_text())
    config = tmp_path / "run.json"
    config.write_text(json.dumps(manifest["config"]))
    assert run(["train", "--dataset", hop410_run / "dataset", "--out", tmp_path / "ckpt", "--config", config,
                "--seed", manifest["seed"], "--branch", manifest["extra"]["branch"]]) == 0
    for name in ("model.json", "model.bin", "history.csv"):
        assert (tmp_path / "ckpt" / name).read_bytes() == (ckpt / name).read_bytes(), name


def test_featurize_srs_writes_the_srs_peaks_as_the_band_centers(desk_run, tmp_path):
    shock = desk_run / "recordings" / "ball-r0.csv"
    assert run(["srs", "--recording", shock, "--out", tmp_path / "srs.json"]) == 0
    peaks = json.loads((tmp_path / "srs.json").read_text())["peaks_hz"]
    # Centers the peaks must replace, and one cheap IMF: the features do not depend on EMD.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"band": {"centers_hz": [300.0, 900.0]},
                                  "emd": {"max_imfs": 1, "max_sift_iterations": 2}}))
    assert run(["featurize", "--recordings", desk_run / "recordings", "--out", tmp_path / "ds", "--srs", shock,
                "--config", config, *FEAT_FLAGS]) == 0
    assert len(peaks) == 2 and peaks != [300.0, 900.0]
    assert load_dataset(tmp_path / "ds").config_echo["band"]["centers_hz"] == peaks
    manifest = json.loads((tmp_path / "ds" / "manifest.json").read_text())
    assert manifest["config"]["band"]["centers_hz"] == peaks


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


def test_a_flag_mends_a_config_file_value_that_breaks_a_rule_across_fields(tmp_path, capsys):
    # Flags are laid over the file before any section is built, so only the merged values are checked.
    simulate, band = tmp_path / "simulate.json", tmp_path / "band.json"
    simulate.write_text(json.dumps({"simulate": {"sample_rate_hz": 1000.0, "duration_s": 0.00001}}))
    band.write_text(json.dumps({"band": {"search_lo_hz": 3000.0}}))
    assert run(["simulate", "--config", simulate, "--out", tmp_path / "out", *DESK_FLAGS]) == 0
    echo = json.loads((tmp_path / "out" / "manifest.json").read_text())["config"]["simulate"]
    assert (echo["sample_rate_hz"], echo["duration_s"]) == (8192.0, 0.8)
    capsys.readouterr()
    assert run(["srs", "--config", band, "--recording", tmp_path / "out" / "combined-r0.csv", "--lo", "100"]) == 0
    assert "peaks_hz" in json.loads(capsys.readouterr().out)


def test_train_rejects_batch_size_zero_with_the_config_message(desk_run, tmp_path, capsys):
    assert run(["train", "--dataset", desk_run / "dataset", "--out", tmp_path / "ckpt", "--batch-size", "0"]) == 1
    assert capsys.readouterr().err == "error: config field train.batch_size must be > 0, got 0\n"


def test_flags_are_validated_as_the_same_values_in_a_config_file(desk_run, tmp_path, capsys):
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"train": {"max_epochs": 2, "patience": 5}}))
    train = ["train", "--dataset", desk_run / "dataset", "--out", tmp_path / "ckpt", "--branch", "mlp"]
    assert run([*train, "--config", config]) == 1
    from_file = capsys.readouterr().err
    assert run([*train, "--max-epochs", "2", "--patience", "5"]) == 1
    assert capsys.readouterr().err == from_file == "error: config field train.patience must be <= train.max_epochs (2), got 5\n"
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


@pytest.mark.parametrize("seed_flag, env, line", [
    (["--seed", "-1"], None, "--seed must be >= 0, got -1"),
    ([], "abc", "$VIBEDIAG_SEED must be int, got 'abc'"),
    ([], "-2", "$VIBEDIAG_SEED must be >= 0, got -2"),
])
def test_a_bad_seed_is_named_in_one_line_and_leaves_no_out_directory(tmp_path, monkeypatch, capsys,
                                                                      seed_flag, env, line):
    monkeypatch.delenv("VIBEDIAG_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("VIBEDIAG_SEED", env)
    assert run(["simulate", "--out", tmp_path / "out", *seed_flag, *DESK_FLAGS]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert not (tmp_path / "out").exists()


def test_srs_rejects_a_search_band_out_of_order_at_load(desk_run, capsys):
    rec = next((desk_run / "recordings").glob("*.csv"))
    assert run(["srs", "--recording", rec, "--lo", "3000", "--hi", "100"]) == 1
    assert capsys.readouterr().err == (
        "error: config field band.search_lo_hz must be < band.search_hi_hz (100.0), got 3000.0\n")


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


def test_eval_records_the_branch_of_a_checkpoint_saved_without_one(hop410_run, tmp_path):
    ckpt = tmp_path / "api-mlp"
    save_model(build_mlp_only(channels=1, seed=1), ckpt)
    assert run(["eval", "--checkpoint", ckpt, "--dataset", hop410_run / "dataset", "--out", tmp_path / "eval"]) == 0
    assert json.loads((tmp_path / "eval" / "manifest.json").read_text())["extra"]["branch"] == "mlp"


def train_message(where, manifest):
    extra = manifest["extra"]
    history = (where / "history.csv").read_text().splitlines()
    val_acc = float(history[extra["best_epoch"]].split(",")[-1])
    return (f"train[{extra['branch']}]: {extra['epochs_run']} epochs, best epoch {extra['best_epoch']}, "
            f"val acc {val_acc:.4f}")


def eval_message(where, manifest):
    model, _ = load_model(where.parent / "ckpt")
    images, feats, labels, _ = load_dataset(where.parent / "dataset").arrays_for(manifest["extra"]["split"])
    return render_report(evaluate_arrays(model, images, feats, labels))


# The one message each command prints, rebuilt from the manifest it wrote into ``where``.
MESSAGES = {
    "simulate": lambda where, m: f"simulate: wrote {len(m['artifacts']) // 2} recordings to {where}",
    "featurize": lambda where, m: f"featurize: {m['extra']['examples']} windows -> {where}",
    "split": lambda where, m: f"split: { {name: m['extra'][name] for name in ('train', 'val', 'test')} }",
    "train": train_message,
    "eval": eval_message,
    "embed": lambda where, m: f"embed: {m['extra']['points']} points, {m['extra']['components']} components -> {where}",
    "export-images": lambda where, m: f"export-images: {len(m['artifacts'])} files -> {where}",
    "import": lambda where, m: f"import: {where.parent / 'raw.csv'} -> {where / 'raw.csv'} (64 samples)",
}


@pytest.mark.parametrize("command", MESSAGES)
def test_main_writes_the_manifest_of_each_command_and_prints_its_one_message(every_stage, command):
    where, printed = every_stage[command]
    manifest = json.loads((where / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["artifacts"]
    for name, digest in manifest["artifacts"].items():
        assert hashlib.sha256((where / name).read_bytes()).hexdigest() == digest, name
    assert printed == MESSAGES[command](where, manifest) + "\n"
