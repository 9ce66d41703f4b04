import numpy as np

from vibediag.config import RunConfig, config_to_dict
from vibediag.hybrid_model import dataset_from_examples
from vibediag.pipeline import featurize_windows, recording_windows
from vibediag.segmentation import segment
from vibediag.signal_model import FaultLabel, preset_spec, synthesize_recording


def small_config():
    cfg = RunConfig()
    cfg.segmentation.window_len = 512
    cfg.segmentation.hop = 512
    cfg.hht.channels = 1
    return cfg


def test_parallel_featurize_matches_serial():
    cfg = small_config()
    rec = synthesize_recording(
        preset_spec(FaultLabel.OUTER_RACE, duration_s=0.5, sample_rate_hz=8192.0), seed=5
    )
    windows = segment(rec, 512, 512)
    serial = featurize_windows(windows, cfg, jobs=1)
    parallel = featurize_windows(windows, cfg, jobs=2)
    assert [e.key for e in serial] == [e.key for e in parallel]
    for a, b in zip(serial, parallel):
        np.testing.assert_array_equal(a.image.pixels, b.image.pixels)
        assert (a.features.n1, a.features.n2) == (b.features.n1, b.features.n2)


def test_featurize_recordings_keys_and_labels():
    cfg = small_config()
    recs = [
        synthesize_recording(
            preset_spec(label, duration_s=0.25, sample_rate_hz=8192.0), seed=int(label)
        )
        for label in (FaultLabel.NORMAL, FaultLabel.BALL)
    ]
    examples = featurize_windows(recording_windows(recs, cfg), cfg)
    ds = dataset_from_examples(examples, config_echo=config_to_dict(cfg), seed=3)
    assert len(ds) == 8  # two recordings x four non-overlapping windows
    assert ds.seed == 3
    assert len(set(ds.provenance)) == len(ds)
    assert set(ds.labels.tolist()) == {int(FaultLabel.NORMAL), int(FaultLabel.BALL)}
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert ds.config_echo["segmentation"]["window_len"] == 512
