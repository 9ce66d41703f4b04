import numpy as np
import pytest
from hypothesis import given, strategies as st

from vibediag.segmentation import segment, window_count
from vibediag.signal_model import FaultLabel, Recording


def enumerate_starts(n, w, hop):
    return [s for s in range(0, max(n - w, -1) + 1, hop)]


def make_recording(n, rate=31175.0, label=FaultLabel.BALL, channels=1):
    # Index-valued channels make slice co-registration directly checkable.
    lin = np.tile(np.arange(n, dtype=float), (channels, 1))
    ang = np.arange(n, dtype=float) + 0.5
    return Recording(rate, 1200.0, label, lin, ang, "r")


def test_window_count_examples():
    assert window_count(10, 4, 3) == len(enumerate_starts(10, 4, 3)) == 3
    assert window_count(31175, 3897, 1559) == len(enumerate_starts(31175, 3897, 1559)) == 18
    assert window_count(3896, 3897, 1559) == 0


@given(st.integers(0, 3000), st.integers(1, 400), st.integers(1, 400))
def test_window_count_matches_enumeration(n, w, hop):
    assert window_count(n, w, hop) == len(enumerate_starts(n, w, hop))


def test_window_count_rejects_bad_args():
    with pytest.raises(ValueError):
        window_count(10, 0, 1)
    with pytest.raises(ValueError):
        window_count(10, 1, 0)


def test_segment_two_windows_at_default_geometry():
    rec = make_recording(3897 + 1559)
    wins = segment(rec)
    assert [w.start_index for w in wins] == [0, 1559]
    assert all(w.linear.size == 3897 for w in wins)
    np.testing.assert_array_equal(wins[1].linear, np.arange(1559, 1559 + 3897, dtype=float))


def test_segment_one_second_at_paper_rate():
    rec = make_recording(31175)
    wins = segment(rec)
    assert len(wins) == 18
    assert all(w.label is FaultLabel.BALL for w in wins)
    assert all(w.dt == rec.dt for w in wins)


def test_channels_are_coregistered():
    rec = make_recording(5000)
    for w in segment(rec, window_len=1024, hop=512):
        np.testing.assert_array_equal(w.angular - 0.5, w.linear)


def test_nonoverlapping_tiling_reconstructs_prefix():
    rec = make_recording(12)
    wins = segment(rec, window_len=3, hop=3)
    assert len(wins) == 4
    np.testing.assert_array_equal(np.concatenate([w.linear for w in wins]), rec.linear[0])


def test_short_recording_gives_empty_list():
    rec = make_recording(100)
    assert segment(rec, window_len=101, hop=10) == []


def test_linear_channel_selection():
    rec = make_recording(64, channels=2)
    rec.linear[1] *= -1.0
    wins = segment(rec, window_len=16, hop=16, linear_channel=1)
    assert wins[0].linear[1] == -1.0
    with pytest.raises(ValueError):
        segment(rec, window_len=16, hop=16, linear_channel=2)


def test_window_key():
    rec = make_recording(64)
    w = segment(rec, window_len=16, hop=16)[1]
    assert w.key == "r:16"


def test_windows_are_read_only_views_into_the_recording():
    rec = make_recording(64, channels=2)
    w = segment(rec, window_len=16, hop=8, linear_channel=1)[1]
    assert np.shares_memory(w.linear, rec.linear[1]) and np.shares_memory(w.angular, rec.angular)
    for channel in (w.linear, w.angular):
        with pytest.raises(ValueError, match="read-only"):
            channel[0] = -1.0
    assert rec.linear.flags.writeable and rec.angular.flags.writeable
