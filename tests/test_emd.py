import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.interpolate import CubicSpline

from helpers import desk_window, reference_find_extrema
from vibediag import emd, signal_model
from vibediag.config import config_from_dict
from vibediag.emd import (
    BOUNDARY_PAD_EXTREMA,
    EmdConfig,
    find_extrema,
    sift,
    spline_envelope,
    spline_knots,
)


def corr(a, b):
    return float(np.corrcoef(a, b)[0, 1])


def zero_crossings(series: np.ndarray) -> int:
    """Count sign changes, ignoring exact zeros."""
    s = np.sign(series)
    s = s[s != 0]
    if s.size < 2:
        return 0
    return int(np.count_nonzero(s[:-1] != s[1:]))


def test_find_extrema_hand_case():
    (mx_i, mx_v), (mn_i, mn_v) = find_extrema(np.array([0.0, 1.0, 0.0, -1.0, 0.0]))
    np.testing.assert_array_equal(mx_i, [1])
    np.testing.assert_array_equal(mx_v, [1.0])
    np.testing.assert_array_equal(mn_i, [3])
    np.testing.assert_array_equal(mn_v, [-1.0])


def test_find_extrema_monotone():
    (mx_i, _), (mn_i, _) = find_extrema(np.linspace(0, 1, 50))
    assert mx_i.size == 0 and mn_i.size == 0


def test_find_extrema_plateau_midpoint():
    (mx_i, _), _ = find_extrema(np.array([0.0, 1.0, 1.0, 0.0]))
    np.testing.assert_array_equal(mx_i, [1])
    (mx_i, mx_v), _ = find_extrema(np.array([0.0, 1.0, 1.0, 1.0, 0.0]))
    np.testing.assert_array_equal(mx_i, [2])
    assert mx_v[0] == 1.0


def test_find_extrema_tone_counts():
    t = np.arange(1000) / 1000.0
    (mx_i, _), (mn_i, _) = find_extrema(np.sin(2 * np.pi * 5 * t))
    assert mx_i.size == 5
    assert mn_i.size == 5


# Runs of repeated values make plateaus; -0.0 next to 0.0 is a zero step.
plateau_series = st.lists(
    st.tuples(st.sampled_from([-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0]), st.integers(1, 4)),
    min_size=1, max_size=80,
).map(lambda runs: np.array([v for v, r in runs for _ in range(r)]))


@settings(max_examples=300, deadline=None)
@given(plateau_series | st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=3, max_size=80).map(np.array))
def test_find_extrema_matches_sign_of_differences_reference(x):
    assume(x.size >= 3)
    for (idx, val), (ref_idx, ref_val) in zip(find_extrema(x), reference_find_extrema(x)):
        assert idx.dtype == ref_idx.dtype
        np.testing.assert_array_equal(idx, ref_idx)
        assert bitwise_equal(val, ref_val)


def series_with_one_zero_step(n, where, seed):
    """Distinct normal values, except that one sample repeats its left
    neighbour: at the start, the middle or the end."""
    x = np.random.default_rng(seed).normal(size=n)
    k = {"start": 0, "middle": n // 2 - 1, "end": n - 2}[where]
    x[k + 1] = x[k]
    return x


def tone_with_a_flat_peak(n):
    """A sampled tone whose first maximum is held for one more sample."""
    x = np.sin(2 * np.pi * 7 * np.arange(n) / n)
    k = int(np.argmax(x[: n // 7]))
    x[k + 1] = x[k]
    return x


@pytest.mark.parametrize("kind, x", [
    *[("distinct", np.random.default_rng(s).normal(size=n))
      for s, n in enumerate([3, 4, 5, 50, 1024, 3897])],
    ("distinct", np.array([0.0, 1.0, 0.0])),
    ("distinct", np.linspace(-1.0, 1.0, 20)),
    ("distinct", np.sin(2 * np.pi * 5 * np.arange(1000) / 1000) + 1e-3 * np.arange(1000)),
    *[("one zero step", series_with_one_zero_step(n, where, s))
      for s, n in enumerate([4, 5, 50, 3897]) for where in ("start", "middle", "end")],
    ("one zero step", tone_with_a_flat_peak(700)),
])
def test_find_extrema_takes_either_path_with_the_bits_of_the_reference(kind, x):
    # find_extrema takes its fast path exactly when no step of the series is
    # zero; each case here is made to take the one path its kind names.
    zero_steps = x.size - 1 - np.count_nonzero(np.diff(x))
    assert zero_steps == (0 if kind == "distinct" else 1)
    for (idx, val), (ref_idx, ref_val) in zip(find_extrema(x), reference_find_extrema(x)):
        assert idx.dtype == np.intp and ref_idx.dtype == np.intp
        np.testing.assert_array_equal(idx, ref_idx)
        assert bitwise_equal(val, ref_val)


# Plateau series with flat runs of up to 12 samples added at either end.
flat_ended_series = st.tuples(plateau_series, st.integers(0, 12), st.integers(0, 12)).map(
    lambda t: np.concatenate([np.full(t[1], t[0][0]), t[0], np.full(t[2], t[0][-1])]))


@settings(max_examples=300, deadline=None)
@given(plateau_series | flat_ended_series)
def test_find_extrema_indices_rise_strictly_within_the_interior(x):
    # spline_knots relies on this: each side's mirrored knots then rise strictly.
    assume(x.size >= 3)
    for idx, _ in find_extrema(x):
        assert (np.diff(idx) > 0).all()
        assert ((1 <= idx) & (idx <= x.size - 2)).all()


def test_spline_constant_knots():
    n = 50
    knots = (np.array([1, n - 2]), np.array([1.0, 1.0]))
    for env in spline_envelope((knots, knots), n):
        np.testing.assert_allclose(env, np.ones(n), atol=1e-12)


def test_spline_interpolates_knots_exactly():
    idx = np.array([3, 7, 12, 18, 25, 31])
    val = (idx - 14.0) ** 2 / 10.0
    upper, lower = spline_envelope(((idx, val), (idx[1:], -val[1:])), 40)
    np.testing.assert_allclose(upper[idx], val, atol=1e-9)
    np.testing.assert_allclose(lower[idx[1:]], -val[1:], atol=1e-9)


def test_spline_fewer_than_two_knots_signals_monotone():
    empty = (np.array([], dtype=int), np.array([]))
    good = (np.array([2, 5, 7]), np.array([1.0, -1.0, 0.5]))
    for extrema in ((empty, good), (good, empty)):
        with pytest.raises(ValueError, match="monotone"):
            spline_envelope(extrema, 10)


def bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


FLOATS = st.floats(-1e6, 1e6, allow_nan=False)
# Values whose differences include zeros of either sign, the case that
# scipy's ``+ 0.0`` end row and ``0.0 +`` constant term are written for.
SIGNED_ZEROS = st.sampled_from([-1.0, -0.0, 0.0, 1.0])


def draw_extrema(draw, n, size, values=FLOATS):
    """Sorted distinct integer extrema positions in 1..n-2 with values, as find_extrema gives."""
    count = min(draw(size), n - 2)
    idx = draw(st.lists(st.integers(1, n - 2), min_size=count, max_size=count, unique=True))
    idx = np.array(sorted(idx), dtype=int)
    val = np.array(draw(st.lists(values, min_size=idx.size, max_size=idx.size)))
    return idx, val


@st.composite
def knot_pairs(draw, size=st.integers(1, 60), values=FLOATS):
    """Maxima and minima on one series length, as sift passes them to
    spline_envelope."""
    n = draw(st.integers(4, 400))
    return tuple(draw_extrema(draw, n, size, values) for _ in range(2)), n


def scipy_envelope(extrema, n):
    xs, ys, a = spline_knots(extrema, n)
    return np.stack([CubicSpline(xs[side], ys[side], bc_type="natural")(np.arange(n))
                     for side in (slice(None, a), slice(a, None))])


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        knot_pairs(),
        # A lone extremum gives three knots: itself and its mirror about each end.
        knot_pairs(size=st.integers(1, 3)),
        knot_pairs(size=st.integers(2, 8), values=SIGNED_ZEROS),
    ),
)
def test_spline_envelope_matches_cubic_spline_bitwise(knots):
    # Each row must equal its own CubicSpline, whatever the other row holds.
    extrema, n = knots
    xs, _, a = spline_knots(extrema, n)
    assume(a >= 2 and xs.size - a >= 2)
    assert bitwise_equal(spline_envelope(extrema, n), scipy_envelope(extrema, n))


@pytest.mark.parametrize("side", [0, 1])
def test_spline_envelope_sums_from_zero_at_a_signed_zero_knot(side):
    # At x = 9 the spline's value is -0.0 and its linear, quadratic and cubic
    # coefficients are negative, so every term of the sum is -0.0 there.
    # Only scipy's sum starting from 0.0 makes the value +0.0.
    idx, val = np.array([2, 9, 11, 12]), np.array([3.0, -0.0, -2.0, -4.0])
    other = (np.array([1, 5, 12]), np.array([-5.0, -6.0, -5.0]))
    xs, ys, a = spline_knots(((idx, val), other), 14)
    knot = np.flatnonzero(xs[:a] == 9.0)[0]
    assert (CubicSpline(xs[:a], ys[:a], bc_type="natural").c[:3, knot] < 0).all()
    extrema = ((idx, val), other) if side == 0 else (other, (idx, val))
    out = spline_envelope(extrema, 14)
    assert bitwise_equal(out, scipy_envelope(extrema, 14))
    assert not np.signbit(out[side, 9])


@settings(max_examples=100, deadline=None)
@given(knot_pairs() | knot_pairs(size=st.integers(0, 4)))
def test_spline_knots_are_the_mirrored_extrema_in_order(knots):
    # Reference, one side at a time: the first p extrema mirrored about 0,
    # the extrema, the last p mirrored about n-1, each run rising.
    extrema, n = knots
    xs, ys, a = spline_knots(extrema, n)
    expected = []
    for idx, val in extrema:
        p = min(BOUNDARY_PAD_EXTREMA, idx.size)
        x = idx.astype(np.float64)
        first, last = slice(0, p), slice(idx.size - p, idx.size)
        expected.append((np.concatenate([-x[first][::-1], x, 2.0 * (n - 1) - x[last][::-1]]),
                         np.concatenate([val[first][::-1], val, val[last][::-1]])))
    (x0, v0), (x1, v1) = expected
    assert a == x0.size
    x, val = np.concatenate([x0, x1]), np.concatenate([v0, v1])
    assert bitwise_equal(xs, x) and bitwise_equal(ys, val)
    for side in (xs[:a], xs[a:]):
        assert (np.diff(side) > 0).all()


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_spline_non_finite_knot_value_signals_monotone(bad):
    # CubicSpline rejects the same knot sets, so the sift loop stops where
    # it stopped when it splined with scipy.
    # A floating-point warning before the error would escape the sift loop
    # under -W error, so warnings fail the test.
    idx, val = np.array([2, 4, 6, 8]), np.array([1.0, bad, 0.5, 1.0])
    good = (np.array([1, 4, 8]), np.array([0.5, -1.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            xs, ys, a = spline_knots(((idx, val), good), 10)
            CubicSpline(xs[:a], ys[:a], bc_type="natural")
        for extrema in (((idx, val), good), (good, (idx, val))):
            with pytest.raises(ValueError, match="monotone component"):
                spline_envelope(extrema, 10)


@pytest.mark.parametrize("label", list(signal_model.FaultLabel))
def test_sift_bitwise_equal_to_cubic_spline_envelopes(label, monkeypatch):
    x = desk_window(label)
    assert x.size == 1024
    ours = sift(x)
    monkeypatch.setattr(emd, "spline_envelope", scipy_envelope)
    theirs = sift(x)
    assert len(ours) == len(theirs) >= 1
    for a, b in zip(ours.imfs + [ours.residual], theirs.imfs + [theirs.residual]):
        assert bitwise_equal(a, b)


def test_sift_pure_tone():
    t = np.arange(1000) / 1000.0
    x = np.sin(2 * np.pi * 50 * t)
    out = sift(x)
    assert len(out) >= 1
    assert corr(out.imfs[0], x) >= 0.99
    assert np.max(np.abs(out.residual)) <= 0.05


def test_sift_pure_tone_converges_in_few_iterations():
    # A tone is already a mode: its envelope mean is far below its
    # amplitude, so the stopping rule holds after the first pass or two.
    t = np.arange(1000) / 1000.0
    out = sift(np.sin(2 * np.pi * 50 * t), EmdConfig(max_imfs=1))
    assert 1 <= out.iterations[0] <= 3


@pytest.mark.parametrize("label", list(signal_model.FaultLabel))
def test_sift_stops_before_the_cap_on_desk_windows(label):
    config = EmdConfig()
    out = sift(desk_window(label), config)
    assert len(out.iterations) == len(out) >= 1
    assert all(1 <= n < config.max_sift_iterations for n in out.iterations), out.iterations


def test_sift_tone_plus_trend():
    t = np.arange(1000) / 1000.0
    tone = np.sin(2 * np.pi * 50 * t)
    trend = 0.5 * t
    out = sift(tone + trend, EmdConfig(max_imfs=1))
    assert corr(out.imfs[0], tone) >= 0.95
    assert corr(out.residual, trend) >= 0.95


def test_sift_monotone_input_yields_no_imfs():
    x = np.linspace(-1.0, 2.0, 64)
    out = sift(x)
    assert len(out) == 0
    np.testing.assert_array_equal(out.residual, x)


def test_sift_is_deterministic():
    rng = np.random.default_rng(0)
    x = rng.normal(size=300)
    a = sift(x)
    b = sift(x)
    assert len(a) == len(b)
    for ia, ib in zip(a.imfs, b.imfs):
        np.testing.assert_array_equal(ia, ib)
    np.testing.assert_array_equal(a.residual, b.residual)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=8, max_size=200))
def test_sift_reconstruction_identity(values):
    x = np.array(values)
    out = sift(x)
    err = np.max(np.abs(out.reconstruct() - x))
    scale = max(np.max(np.abs(x)), 1e-30)
    assert err <= 1e-10 * scale


def test_imf_oscillation_statistic():
    # The stopping rule bounds the envelope mean, which does not guarantee
    # the extrema/zero-crossing property per signal; assert it holds for
    # >= 95% of IMFs over random trials. A rule that stops too early (the
    # ratio SD sum((h - h')^2) / sum(h^2) < 0.2) fails this bar.
    rng = np.random.default_rng(42)
    good = 0
    total = 0
    for _ in range(40):
        x = rng.normal(size=512)
        for imf in sift(x).imfs:
            (mx, _), (mn, _) = find_extrema(imf)
            n_ext = mx.size + mn.size
            n_zc = zero_crossings(imf)
            total += 1
            if abs(n_ext - n_zc) <= 1:
                good += 1
    assert total > 0
    assert good / total >= 0.95


def test_sift_rejects_bad_input():
    with pytest.raises(ValueError):
        sift(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError, match="non-finite"):
        sift(np.array([0.0, np.nan] * 8))


def test_config_validation():
    for max_imfs in (0, 4):  # the image draws at most three modes, so a fourth would be sifted for nothing
        with pytest.raises(ValueError, match=rf"^config field emd\.max_imfs must be one of \(1, 2, 3\), got {max_imfs}$"):
            config_from_dict({"emd": {"max_imfs": max_imfs}})


def test_config_rejects_removed_sd_threshold():
    with pytest.raises(ValueError, match="sd_threshold"):
        config_from_dict({"emd": {"sd_threshold": 0.2}})
