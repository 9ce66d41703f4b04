import numpy as np
import pytest

from helpers import desk_window, reference_analytic_signal, reference_render_pixels
from vibediag.emd import ImfSet, sift
from vibediag.hht import (
    AnalyticSignal,
    analytic_signal,
    apply_colormap,
    colormap_table,
    instantaneous_frequency,
    render_spectrum_image,
    write_image,
)
from vibediag.signal_model import FaultLabel


def tone_imfs(f0=100.0, fs=1000.0, dur=1.0, amp=1.0):
    t = np.arange(int(fs * dur)) / fs
    x = amp * np.sin(2 * np.pi * f0 * t)
    return ImfSet(imfs=[x], residual=np.zeros_like(x))


def test_analytic_amplitude_of_cosine():
    fs = 10_000.0
    t = np.arange(10_000) / fs
    z = analytic_signal(np.cos(2 * np.pi * 100 * t))
    mid = slice(1000, 9000)
    assert np.all(np.abs(z.amplitude[mid] - 1.0) < 0.01)
    # Imaginary part of the analytic extension of cos is sin.
    assert np.max(np.abs(z.y[mid] - np.sin(2 * np.pi * 100 * t)[mid])) < 0.01


def test_analytic_constant_series():
    for c in (2.5, -2.5):
        z = analytic_signal(np.full(64, c))
        np.testing.assert_allclose(z.amplitude, abs(c), atol=1e-12)
        freq = instantaneous_frequency(z, dt=1e-3)
        np.testing.assert_allclose(freq, 0.0, atol=1e-9)


def test_analytic_chirp_tracks_frequency():
    fs = 10_000.0
    t = np.arange(10_000) / fs
    # Instantaneous frequency 50 + 100 t, i.e. 50 -> 150 Hz over one second.
    x = np.cos(2 * np.pi * (50 * t + 50 * t**2))
    z = analytic_signal(x)
    freq = instantaneous_frequency(z, dt=1 / fs)
    inner = slice(1000, 9000)
    expected = 50 + 100 * t
    rel = np.abs(freq[inner] - expected[inner]) / expected[inner]
    assert np.max(rel) < 0.03


def test_instantaneous_frequency_linear_phase():
    t = np.arange(200) * 1e-3
    phase = 2 * np.pi * 60 * t
    z = AnalyticSignal(x=np.cos(phase), y=np.sin(phase), amplitude=np.ones_like(t), phase=phase)
    freq = instantaneous_frequency(z, dt=1e-3)
    np.testing.assert_allclose(freq[1:-1], 60.0, atol=1e-9)


def test_instantaneous_frequency_unwraps_jumps():
    t = np.arange(500) * 1e-3
    wrapped = np.mod(2 * np.pi * 60 * t + np.pi, 2 * np.pi) - np.pi
    z = AnalyticSignal(x=np.cos(wrapped), y=np.sin(wrapped), amplitude=np.ones_like(t), phase=wrapped)
    freq = instantaneous_frequency(z, dt=1e-3)
    assert np.max(np.abs(freq[1:-1] - 60.0)) < 0.01 * 60.0


def test_instantaneous_frequency_of_tone_median():
    fs = 10_000.0
    t = np.arange(10_000) / fs
    z = analytic_signal(np.cos(2 * np.pi * 100 * t))
    freq = instantaneous_frequency(z, dt=1 / fs)
    assert abs(np.median(freq[500:-500]) - 100.0) < 0.5


def test_negative_frequency_clamped():
    phase = -2 * np.pi * 30 * np.arange(100) * 1e-3
    z = AnalyticSignal(x=np.cos(phase), y=np.sin(phase), amplitude=np.ones(100), phase=phase)
    freq = instantaneous_frequency(z, dt=1e-3)
    assert np.all(freq >= 0.0)


def test_render_tone_concentrates_in_frequency_row():
    f0 = 100.0
    img = render_spectrum_image(tone_imfs(f0=f0), dt=1e-3, freq_max_hz=2 * f0, channels=1)
    grid = img.pixels[:, :, 0]
    row = int(f0 / (2 * f0 / 32))
    mass_near = grid[max(row - 1, 0) : row + 2].sum()
    assert mass_near >= 0.90 * grid.sum()
    assert grid.max() == 1.0


def test_render_all_zero_imfs():
    z = ImfSet(imfs=[np.zeros(256)], residual=np.zeros(256))
    for channels in (1, 3):
        img = render_spectrum_image(z, dt=1e-3, channels=channels)
        assert img.pixels.shape == (32, 32, channels)
        np.testing.assert_array_equal(img.pixels, 0.0)


def test_render_pixels_stay_in_unit_range():
    rng = np.random.default_rng(3)
    imfs = ImfSet(imfs=[rng.normal(size=512) * 10 for _ in range(3)], residual=np.zeros(512))
    img = render_spectrum_image(imfs, dt=1e-4, channels=3)
    assert img.pixels.min() >= 0.0
    assert img.pixels.max() <= 1.0


def test_render_start_phase_does_not_move_dominant_row():
    fs, f0 = 1000.0, 100.0
    t = np.arange(1000) / fs
    rows = []
    for phi in (0.0, 1.1, 2.7):
        x = np.sin(2 * np.pi * f0 * t + phi)
        img = render_spectrum_image(ImfSet(imfs=[x], residual=np.zeros_like(x)),
                                    dt=1 / fs, freq_max_hz=200.0, channels=1)
        rows.append(int(np.argmax(img.pixels[:, :, 0].sum(axis=1))))
    assert len(set(rows)) == 1


def test_three_channel_render_is_pointwise_colormap_of_scalar():
    imfs = tone_imfs()
    gray = render_spectrum_image(imfs, dt=1e-3, freq_max_hz=200.0, channels=1)
    rgb = render_spectrum_image(imfs, dt=1e-3, freq_max_hz=200.0, channels=3)
    np.testing.assert_array_equal(rgb.pixels, apply_colormap(gray.pixels[:, :, 0]))


@pytest.mark.parametrize("label", list(FaultLabel))
def test_render_bitwise_equal_to_scatter_add_reference(label):
    imfs = sift(desk_window(label))
    dt = 1.0 / 8192.0
    for channels, freq_max_hz in ((3, 4096.0), (1, 1500.0)):
        pixels = render_spectrum_image(imfs, dt, freq_max_hz, channels).pixels
        expected = reference_render_pixels(imfs, dt, freq_max_hz, channels)
        assert pixels.tobytes() == expected.tobytes()


def test_render_rejects_freq_above_nyquist():
    with pytest.raises(ValueError, match="Nyquist"):
        render_spectrum_image(tone_imfs(), dt=1e-3, freq_max_hz=501.0)
    with pytest.raises(ValueError):
        render_spectrum_image(ImfSet(imfs=[], residual=np.zeros(10)), dt=1e-3)


def test_colormap_matches_golden_table():
    table = colormap_table()
    assert table.shape == (256, 3)
    np.testing.assert_array_equal(table[0], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(table[85], [0.0, 1.0, 1.0], atol=2e-2)
    np.testing.assert_array_equal(table[255], [1.0, 0.0, 0.0])
    golden = np.loadtxt("assets/colormap_256.csv", delimiter=",", skiprows=1)
    np.testing.assert_array_equal(table, golden)


def test_image_export_formats(tmp_path):
    img = render_spectrum_image(tone_imfs(), dt=1e-3, freq_max_hz=200.0, channels=3)
    p6 = tmp_path / "w.ppm"
    write_image(img.pixels, p6)
    data = p6.read_bytes()
    assert data.startswith(b"P6\n32 32\n255\n")
    raster = data.split(b"255\n", 1)[1]
    assert len(raster) == 32 * 32 * 3
    expected = np.round(255.0 * np.flipud(img.pixels)).astype(np.uint8)
    assert raster == expected.tobytes()

    gray = render_spectrum_image(tone_imfs(), dt=1e-3, freq_max_hz=200.0, channels=1)
    p5 = tmp_path / "w.pgm"
    write_image(gray.pixels, p5)
    data = p5.read_bytes()
    assert data.startswith(b"P5\n32 32\n255\n")
    assert len(data.split(b"255\n", 1)[1]) == 32 * 32


@pytest.mark.parametrize("n", [255, 256, 3897])
def test_stacked_analytic_signal_equals_one_call_per_row_bitwise(n):
    rows = np.random.default_rng(n).normal(size=(3, n))
    dt = 1 / 31175.0
    stacked = analytic_signal(rows, dt)
    for k, row in enumerate(rows):
        single = analytic_signal(row, dt)
        for field in ("x", "y", "amplitude", "phase", "frequency_hz"):
            a, b = getattr(stacked, field)[k], getattr(single, field)
            assert a.tobytes() == b.tobytes(), field


@pytest.mark.parametrize("n", [4, 5, 255, 256, 1024, 1559, 3897])
@pytest.mark.parametrize("shape", ["row", "stack"])
def test_analytic_signal_gives_the_bits_of_numpys_fft(n, shape):
    # scipy.fft and np.fft share pocketfft; this fails if their bits part.
    rng = np.random.default_rng(n)
    x = rng.normal(size=n if shape == "row" else (3, n))
    dt = 1 / 31175.0
    got = analytic_signal(x, dt)
    for field, want in reference_analytic_signal(x, dt).items():
        a = getattr(got, field)
        assert a.shape == want.shape and a.dtype == want.dtype, field
        assert a.tobytes() == want.tobytes(), field
