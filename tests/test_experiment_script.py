"""scripts/experiment.py runs the CLI stages of each recording source with that source's protocol flags."""

import importlib.util
import json
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "experiment.py"


def recorded_stages(monkeypatch, argv):
    """The argv of each CLI stage that ``experiment.py argv`` runs, with ``vibediag_main`` replaced by a
    recorder that writes only what the script reads back: each eval's report.json and embed's manifest.json."""
    spec = importlib.util.spec_from_file_location("experiment", SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    stages = []

    def recorder(stage):
        stages.append(stage)
        out = pathlib.Path(dict(zip(stage[1::2], stage[2::2])).get("--out", "."))
        if stage[0] in ("eval", "embed"):
            out.mkdir(parents=True)
            name, doc = ("report.json", {"accuracy": 0.5}) if stage[0] == "eval" else \
                ("manifest.json", {"extra": {"components": 7}})
            (out / name).write_text(json.dumps(doc))
        return 0

    monkeypatch.setattr(script, "vibediag_main", recorder)
    script.main(argv)
    return stages


def branch_stages(out, seed, branches, train_flags):
    return [stage for branch in branches for stage in (
        ["train", "--dataset", f"{out}/dataset", "--out", f"{out}/model-{branch}", "--branch", branch,
         "--seed", seed, *train_flags],
        ["eval", "--checkpoint", f"{out}/model-{branch}", "--dataset", f"{out}/dataset", "--out",
         f"{out}/eval-{branch}"])]


# The desk flags given, then what the script passes on: --out, --seed, --jobs, --duration-s, --noise-sigma,
# --max-epochs, the patience min(20, --max-epochs), and the branches.
DESK_RUNS = [
    ([], ("runs/desk", "0", "2", "15.2", "0.3", "60", "20", ["hybrid"])),
    (["--out", "o", "--seed", "3", "--jobs", "1", "--duration-s", "2", "--noise-sigma", "0.4", "--max-epochs", "5",
      "--branches", "cnn", "mlp"], ("o", "3", "1", "2.0", "0.4", "5", "5", ["cnn", "mlp"])),
]


@pytest.mark.parametrize("flags, passed", DESK_RUNS, ids=["defaults", "every-flag"])
def test_desk_simulates_then_runs_the_desk_protocol_and_embed(tmp_path, monkeypatch, flags, passed):
    monkeypatch.chdir(tmp_path)
    out, seed, jobs, duration, noise, epochs, patience, branches = passed
    assert recorded_stages(monkeypatch, ["desk", *flags]) == [
        ["simulate", "--out", f"{out}/recordings", "--seed", seed, "--sample-rate-hz", "8192",
         "--duration-s", duration, "--noise-sigma", noise],
        ["featurize", "--recordings", f"{out}/recordings", "--out", f"{out}/dataset", "--seed", seed,
         "--jobs", jobs, "--window-len", "1024", "--hop", "410"],
        ["split", "--dataset", f"{out}/dataset", "--seed", seed],
        *branch_stages(out, seed, branches, ["--learning-rate", "0.001", "--max-epochs", epochs,
                                             "--patience", patience]),
        ["embed", "--dataset", f"{out}/dataset", "--out", f"{out}/embed", "--seed", seed],
    ]
    summary = json.loads((tmp_path / out / "summary.json").read_text())
    assert summary == {**dict.fromkeys(branches, 0.5), "pca_components_for_0.99": 7}


@pytest.mark.parametrize("srs", [[], ["--srs", "shock.csv"]], ids=["no-srs", "srs"])
def test_imported_runs_the_config_defaults_on_every_branch_and_passes_srs_through(tmp_path, monkeypatch, srs):
    monkeypatch.chdir(tmp_path)
    out = "runs/full"
    assert recorded_stages(monkeypatch, ["imported", "--recordings", "data/imported", *srs]) == [
        ["featurize", "--recordings", "data/imported", "--out", f"{out}/dataset", "--seed", "0", "--jobs", "2",
         *srs],
        ["split", "--dataset", f"{out}/dataset", "--seed", "0"],
        *branch_stages(out, "0", ["hybrid", "cnn", "mlp"], []),
        ["embed", "--dataset", f"{out}/dataset", "--out", f"{out}/embed", "--seed", "0"],
    ]
    summary = json.loads((tmp_path / out / "summary.json").read_text())
    assert summary == {"hybrid": 0.5, "cnn": 0.5, "mlp": 0.5, "pca_components_for_0.99": 7}


@pytest.mark.parametrize("argv", [["imported", "--recordings", "r", "--branches", "cnn"],
                                  ["imported", "--recordings", "r", "--max-epochs", "5"],
                                  ["desk", "--srs", "shock.csv"], ["desk", "--recordings", "r"]])
def test_a_flag_of_one_source_is_rejected_by_the_other(monkeypatch, argv):
    with pytest.raises(SystemExit) as exit_:
        recorded_stages(monkeypatch, argv)
    assert exit_.value.code == 2
