import json
import re

import numpy as np
import pytest

from helpers import detected_rates, envelope_spectrum
from vibediag.signal_model import (
    CLASS_SEPARATION_NOISE_SIGMA,
    PRESET_FAULT_RATES,
    FaultLabel,
    Recording,
    SimulateConfig,
    load_recording,
    preset_spec,
    save_recording,
    synthesize_recording,
)


def write_csv(path, header, rows, meta=None):
    lines = [",".join(header)] + [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    if meta is not None:
        path.with_suffix("").with_suffix(".meta.json").write_text(json.dumps(meta))


GOOD_META = {"sample_rate_hz": 10, "rpm": 60, "label": "Normal", "id": "rec0"}


def test_label_encoding_is_bijective():
    assert len(FaultLabel) == 5
    for label in FaultLabel:
        assert FaultLabel.from_name(label.canonical_name) is label
    assert [int(l) for l in FaultLabel] == [0, 1, 2, 3, 4]


def test_load_small_csv(tmp_path):
    p = tmp_path / "rec0.csv"
    rows = [[i, 0.1 * i, 0.2 * i] for i in range(4)]
    write_csv(p, ["index", "linear_x", "angular"], rows, GOOD_META)
    rec = load_recording(p)
    assert rec.n_samples == 4
    assert rec.linear.shape == (1, 4)
    assert rec.label is FaultLabel.NORMAL
    assert rec.sample_rate_hz == 10
    np.testing.assert_allclose(rec.angular, [0.0, 0.2, 0.4, 0.6])


def test_load_two_linear_channels(tmp_path):
    p = tmp_path / "rec2.csv"
    rows = [[i, 1.0, 2.0, 3.0] for i in range(5)]
    write_csv(p, ["index", "linear_x", "linear_y", "angular"], rows, GOOD_META)
    rec = load_recording(p)
    assert rec.linear.shape == (2, 5)
    np.testing.assert_array_equal(rec.linear[1], np.full(5, 2.0))


def test_nan_names_row(tmp_path):
    p = tmp_path / "bad.csv"
    rows = [[0, 1.0, 1.0], [1, 1.0, 1.0], [2, "NaN", 1.0], [3, 1.0, 1.0]]
    write_csv(p, ["index", "linear_x", "angular"], rows, GOOD_META)
    with pytest.raises(ValueError, match="row 3"):
        load_recording(p)


def test_ragged_row_names_row(tmp_path):
    p = tmp_path / "ragged.csv"
    p.write_text("index,linear_x,angular\n0,1.0,2.0\n1,1.0\n")
    p.with_suffix("").with_suffix(".meta.json").write_text(json.dumps(GOOD_META))
    with pytest.raises(ValueError, match="row 2"):
        load_recording(p)


def test_non_numeric_value_names_row(tmp_path):
    p = tmp_path / "text.csv"
    rows = [[0, 1.0, 1.0], [1, 1.0, "abc"], [2, 1.0, 1.0]]
    write_csv(p, ["index", "linear_x", "angular"], rows, GOOD_META)
    with pytest.raises(ValueError, match="non-numeric value in row 2$"):
        load_recording(p)


def test_inf_names_row(tmp_path):
    p = tmp_path / "inf.csv"
    rows = [[0, 1.0, 1.0, 1.0], [1, 1.0, 1.0, 1.0], [2, 1.0, 1.0, 1.0], [3, 1.0, "-inf", 1.0]]
    write_csv(p, ["index", "linear_x", "linear_y", "angular"], rows, GOOD_META)
    with pytest.raises(ValueError, match="non-finite value in row 4$"):
        load_recording(p)


def test_malformed_header(tmp_path):
    p = tmp_path / "hdr.csv"
    write_csv(p, ["time", "x", "ang"], [[0, 1, 2]], GOOD_META)
    with pytest.raises(ValueError, match="header"):
        load_recording(p)


def test_missing_file_and_sidecar(tmp_path):
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "nope.csv"))):
        load_recording(tmp_path / "nope.csv")
    p = tmp_path / "nosidecar.csv"
    write_csv(p, ["index", "linear_x", "angular"], [[0, 1, 2], [1, 1, 2]])
    with pytest.raises(FileNotFoundError, match=re.escape(str(tmp_path / "nosidecar.meta.json"))):
        load_recording(p)


def test_sidecar_missing_field(tmp_path):
    p = tmp_path / "meta.csv"
    write_csv(p, ["index", "linear_x", "angular"], [[0, 1, 2], [1, 1, 2]],
              {"sample_rate_hz": 10, "rpm": 60, "label": "Normal"})
    with pytest.raises(ValueError, match=rf"^{re.escape(str(tmp_path / 'meta.meta.json'))}: no top-level key 'id'$"):
        load_recording(p)


def test_roundtrip_is_bitwise_identity(tmp_path):
    spec = preset_spec(FaultLabel.BALL, duration_s=0.05, sample_rate_hz=8192.0)
    rec = synthesize_recording(spec, seed=13)
    path = tmp_path / "ball.csv"
    save_recording(rec, path)
    back = load_recording(path)
    np.testing.assert_array_equal(back.linear, rec.linear)
    np.testing.assert_array_equal(back.angular, rec.angular)
    assert back.label is rec.label
    assert back.id == rec.id
    assert back.sample_rate_hz == rec.sample_rate_hz


def test_synthesis_is_deterministic():
    spec = preset_spec(FaultLabel.INNER_RACE, duration_s=0.2, sample_rate_hz=8192.0)
    a = synthesize_recording(spec, seed=7)
    b = synthesize_recording(spec, seed=7)
    np.testing.assert_array_equal(a.linear, b.linear)
    np.testing.assert_array_equal(a.angular, b.angular)
    c = synthesize_recording(spec, seed=8)
    assert not np.array_equal(a.linear, c.linear)


@pytest.mark.parametrize("rig, least", [({"sample_rate_hz": 1640.0}, 1640.0),
                                        ({"sample_rate_hz": 8192.0, "shaft_hz": 4096.0}, 8192.0)],
                         ids=["sample-rate", "shaft-rate"])
def test_rates_must_stay_below_nyquist(rig, least):
    # The rig's highest rate is its 820 Hz resonance unless the shaft turns faster.
    with pytest.raises(ValueError, match=rf"^config field simulate\.sample_rate_hz must be > {least} "):
        SimulateConfig(**rig)
    SimulateConfig(**{**rig, "sample_rate_hz": np.nextafter(least, np.inf)})


def test_normal_with_zero_amplitude_has_no_impulse_peaks():
    spec = preset_spec(FaultLabel.NORMAL, duration_s=1.0, sample_rate_hz=8192.0,
                       impulse_amplitude=0.0, noise_sigma=0.1)
    rec = synthesize_recording(spec, seed=3)
    _, sim = spec
    assert detected_rates(rec.linear[0], sim.sample_rate_hz) == ()


def test_outer_race_envelope_peaks_at_fault_rate():
    spec = preset_spec(FaultLabel.OUTER_RACE, duration_s=1.0, sample_rate_hz=8192.0,
                       noise_sigma=0.0)
    (rate,) = PRESET_FAULT_RATES[FaultLabel.OUTER_RACE]
    rec = synthesize_recording(spec, seed=1)
    _, sim = spec
    freqs, mags = envelope_spectrum(rec.linear[0], sim.sample_rate_hz)
    band = (freqs >= 50.0) & (freqs <= 150.0)
    peak_hz = freqs[band][np.argmax(mags[band])]
    assert rate == 87.0
    assert abs(peak_hz - rate) <= 1.5


@pytest.mark.parametrize("noise_sigma", [0.1, CLASS_SEPARATION_NOISE_SIGMA])
def test_presets_have_distinguishable_envelope_signatures(noise_sigma):
    # Signatures stay separable up to the documented noise threshold.
    signatures = {}
    for label in FaultLabel:
        spec = preset_spec(label, duration_s=1.0, sample_rate_hz=8192.0,
                           noise_sigma=noise_sigma)
        rec = synthesize_recording(spec, seed=21 + label)
        _, sim = spec
        signatures[label] = detected_rates(rec.linear[0], sim.sample_rate_hz)
    assert signatures[FaultLabel.NORMAL] == ()
    assert signatures[FaultLabel.INNER_RACE] == (99.0,)
    assert signatures[FaultLabel.OUTER_RACE] == (87.0,)
    assert signatures[FaultLabel.BALL] == (59.0,)
    assert signatures[FaultLabel.COMBINED] == (59.0, 87.0, 99.0)
    assert len(set(signatures.values())) == 5


def test_recording_validation():
    with pytest.raises(ValueError, match="non-finite"):
        Recording(10.0, 60.0, FaultLabel.NORMAL, np.array([[1.0, np.inf]]),
                  np.array([0.0, 0.0]), "x")
    with pytest.raises(ValueError, match="equal length"):
        Recording(10.0, 60.0, FaultLabel.NORMAL, np.array([[1.0, 2.0, 3.0]]),
                  np.array([0.0, 0.0]), "x")
    for rate, rpm, name, value in [(np.nan, 60.0, "sample_rate_hz", "nan"), (10.0, np.inf, "rpm", "inf"),
                                   (0.0, 60.0, "sample_rate_hz", "0.0"), (10.0, -1.0, "rpm", "-1.0")]:
        with pytest.raises(ValueError, match=rf"^{name} must be a finite number > 0, got {value}$"):
            Recording(rate, rpm, FaultLabel.NORMAL, np.array([[1.0, 2.0]]), np.array([0.0, 0.0]), "x")
