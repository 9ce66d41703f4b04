import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from helpers import reference_apply_scaler
from vibediag.band_features import (
    MinMaxScaler,
    Spectrum,
    apply_scaler,
    band_power,
    extract_features,
    find_torsional_peaks,
    fit_scaler,
    magnitude_spectrum,
)
from vibediag.config import BandConfig


def on_bin_tone(freq_bin, n=1024, amp=1.0):
    # fs == n makes the bin width exactly 1 Hz and bin k sit at k Hz.
    t = np.arange(n) / n
    return amp * np.sin(2 * np.pi * freq_bin * t)


def test_tone_magnitude_closed_form():
    n, amp = 1024, 3.0
    spec = magnitude_spectrum(on_bin_tone(100, n=n, amp=amp), sample_rate_hz=n)
    assert spec.n_fft == n
    assert spec.bin_width_hz == 1.0
    peak_bin = int(np.argmax(spec.magnitudes))
    assert peak_bin == 100
    expected = amp * n / 2
    assert abs(spec.magnitudes[100] - expected) <= 1e-6 * expected


def test_zero_signal():
    spec = magnitude_spectrum(np.zeros(64), sample_rate_hz=64)
    np.testing.assert_array_equal(spec.magnitudes, 0.0)


def test_parseval_identity():
    rng = np.random.default_rng(9)
    x = rng.normal(size=1024)
    spec = magnitude_spectrum(x, sample_rate_hz=1024.0)
    m = spec.magnitudes
    two_sided = m[0] ** 2 + m[-1] ** 2 + 2.0 * np.sum(m[1:-1] ** 2)
    lhs = two_sided / spec.n_fft
    rhs = np.sum(x**2)
    assert abs(lhs - rhs) <= 1e-9 * rhs


def test_padding_to_next_power_of_two():
    spec = magnitude_spectrum(np.ones(3897), sample_rate_hz=31175.0)
    assert spec.n_fft == 4096
    assert abs(spec.bin_width_hz - 31175.0 / 4096) < 1e-12


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        magnitude_spectrum(np.array([1.0]), 10.0)
    with pytest.raises(ValueError, match="non-finite"):
        magnitude_spectrum(np.array([1.0, np.nan, 2.0]), 10.0)
    with pytest.raises(ValueError, match="taper"):
        magnitude_spectrum(np.ones(16), 10.0, taper="flattop")


def shock_signal(fs=8192.0, centers=(240.0, 820.0), noise=0.005, seed=11):
    rng = np.random.default_rng(seed)
    t = np.arange(int(fs)) / fs
    x = rng.normal(0.0, noise, t.size)
    for f in centers:
        x += np.exp(-t / 0.05) * np.sin(2 * np.pi * f * t)
    return x


def test_find_peaks_on_synthetic_shock():
    spec = magnitude_spectrum(shock_signal(), sample_rate_hz=8192.0)
    peaks = find_torsional_peaks(spec, 100.0, 2000.0)
    assert len(peaks) == 2
    assert abs(peaks[0].center_hz - 240.0) <= spec.bin_width_hz
    assert abs(peaks[1].center_hz - 820.0) <= spec.bin_width_hz
    assert peaks[0].prominence > 0 and peaks[1].prominence > 0


def test_find_peaks_rejects_white_noise():
    rng = np.random.default_rng(2)
    spec = magnitude_spectrum(rng.normal(size=8192), sample_rate_hz=8192.0)
    with pytest.raises(ValueError, match="insufficient peaks"):
        find_torsional_peaks(spec, 100.0, 2000.0)


def test_find_single_peak():
    spec = magnitude_spectrum(shock_signal(centers=(500.0,)), sample_rate_hz=8192.0)
    with pytest.raises(ValueError, match="insufficient peaks: found 1 of 2 above the prominence threshold"):
        find_torsional_peaks(spec, 100.0, 2000.0)


def test_find_peaks_invariant_to_uniform_scaling():
    spec = magnitude_spectrum(shock_signal(), sample_rate_hz=8192.0)
    scaled = Spectrum(spec.magnitudes * 7.5, spec.sample_rate_hz, spec.n_fft)
    a = [p.center_hz for p in find_torsional_peaks(spec, 100.0, 2000.0)]
    b = [p.center_hz for p in find_torsional_peaks(scaled, 100.0, 2000.0)]
    assert a == b


def test_find_peaks_band_validation():
    spec = magnitude_spectrum(np.ones(64), sample_rate_hz=64.0)
    with pytest.raises(ValueError, match="band"):
        find_torsional_peaks(spec, 10.0, 500.0)


def test_band_power_single_bin():
    mags = np.zeros(33)
    mags[10] = 4.2
    spec = Spectrum(mags, sample_rate_hz=64.0, n_fft=64)
    assert band_power(spec, 10.0, 1.5) == 4.2
    assert band_power(spec, 10.0, 1.5, squared=True) == 4.2**2


def test_band_power_tone_at_center():
    n = 1024
    spec = magnitude_spectrum(on_bin_tone(100, n=n, amp=2.0), sample_rate_hz=n)
    assert abs(band_power(spec, 100.0, 0.4) - spec.magnitudes[100]) < 1e-12


def test_band_power_dc_band_of_zero_mean_signal():
    x = on_bin_tone(100)
    spec = magnitude_spectrum(x, sample_rate_hz=1024)
    assert band_power(spec, 0.0, 0.4) < 1e-9


def test_band_power_empty_intersection():
    spec = magnitude_spectrum(np.ones(64), sample_rate_hz=64.0)
    with pytest.raises(ValueError, match="intersect"):
        band_power(spec, 1e6, 1.0)


@given(st.integers(0, 2**32 - 1))
def test_band_power_monotone_under_pointwise_increase(seed):
    rng = np.random.default_rng(seed)
    mags = rng.uniform(0, 1, 65)
    bump = rng.uniform(0, 1, 65)
    lo = Spectrum(mags, 128.0, 128)
    hi = Spectrum(mags + bump, 128.0, 128)
    assert band_power(hi, 30.0, 10.0) >= band_power(lo, 30.0, 10.0)


def test_extract_features_second_resonance_tone():
    fs = 8192.0
    t = np.arange(4096) / fs
    x = np.sin(2 * np.pi * 820.0 * t)
    band = BandConfig()
    pair = extract_features(x, fs, band.centers_hz, band.half_width_hz)
    assert pair.n2 > 100.0
    assert pair.n1 < 0.01 * pair.n2


def test_extract_features_zero_window():
    band = BandConfig()
    pair = extract_features(np.zeros(1024), 8192.0, band.centers_hz, band.half_width_hz)
    assert pair.n1 == 0.0 and pair.n2 == 0.0


def test_extract_features_linearity():
    fs = 8192.0
    t = np.arange(4096) / fs
    x = np.sin(2 * np.pi * 820.0 * t)
    band = BandConfig()
    a = extract_features(x, fs, band.centers_hz, band.half_width_hz)
    b = extract_features(2.0 * x, fs, band.centers_hz, band.half_width_hz)
    assert abs(b.n2 - 2.0 * a.n2) <= 1e-9 * b.n2


def test_extract_features_requires_two_centers():
    with pytest.raises(ValueError):
        extract_features(np.zeros(64), 64.0, centers_hz=(10.0,), half_width_hz=BandConfig().half_width_hz)


def test_scaler_basics():
    scaler = fit_scaler(np.array([[2.0, 0.0], [4.0, 10.0]]))
    assert apply_scaler(scaler, np.array([[3.0, 5.0]]))[0, 0] == 0.5
    assert apply_scaler(scaler, np.array([[5.0, 5.0]]))[0, 0] == 1.0  # clamped
    assert apply_scaler(scaler, np.array([[2.0, 0.0]]))[0, 0] == 0.0
    assert apply_scaler(scaler, np.array([[4.0, 10.0]]))[0, 0] == 1.0
    assert apply_scaler(scaler, np.array([[0.0, 11.0]]))[0, 1] == 1.0


def test_scaler_degenerate_feature_maps_to_zero():
    scaler = fit_scaler(np.array([[2.0, 7.0], [2.0, 9.0]]))
    out = apply_scaler(scaler, np.array([[2.0, 8.0]]))
    assert out[0, 0] == 0.0
    assert out[0, 1] == 0.5


def test_scaler_fit_validation():
    with pytest.raises(ValueError):
        fit_scaler(np.empty((0, 2)))
    with pytest.raises(ValueError):
        fit_scaler(np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        MinMaxScaler(minimum=np.array([1.0, 1.0]), maximum=np.array([0.0, 2.0]))


finite = st.floats(-1e6, 1e6, allow_subnormal=False)


@given(arrays(np.float64, st.tuples(st.integers(2, 6), st.just(2)), elements=finite),
       arrays(np.float64, st.tuples(st.integers(1, 6), st.just(2)), elements=finite),
       st.sampled_from([(), (0,), (1,), (0, 1)]))
def test_scaler_bitwise_equals_elementwise_reference(train, values, flat):
    train[:, list(flat)] = train[0, list(flat)]  # zero span in these features
    scaler = fit_scaler(train)
    out = apply_scaler(scaler, values)
    expected = reference_apply_scaler(scaler.minimum, scaler.maximum, values)
    assert out.tobytes() == expected.tobytes()


@given(st.floats(-100, 100), st.floats(-100, 100))
def test_scaler_output_always_in_unit_interval(a, b):
    scaler = fit_scaler(np.array([[0.0, 0.0], [1.0, 2.0]]))
    out = apply_scaler(scaler, np.array([[a, b]]))
    assert 0.0 <= out[0, 0] <= 1.0
    assert 0.0 <= out[0, 1] <= 1.0
