"""Shared independent oracles for the test suite.

These deliberately avoid the library's own signal paths: envelope spectra
are computed with plain rectify + moving average + rfft so generator and
feature code are checked against something they do not share.
"""

import numpy as np

FD_STEP = 1e-5


def _projection_loss(layer, x, w, training, mask_seed):
    rng = np.random.default_rng(mask_seed)  # fixed stochastic state per call
    return float(np.sum(w * layer.forward(x, training=training, rng=rng)))


def fd_layer_gradients(layer, x, seed, training=False, mask_seed=1234):
    """Central finite differences of a random projection of a layer's output.

    Returns (analytic, numeric) gradient pairs for the input and every
    parameter tensor. The projection weights come from ``seed``.
    """
    rng = np.random.default_rng(seed)
    out = layer.forward(x, training=training, rng=np.random.default_rng(mask_seed))
    w = rng.normal(size=out.shape)
    layer.forward(x, training=training, rng=np.random.default_rng(mask_seed))
    analytic_dx = layer.backward(w)
    analytic_params = [g.copy() for g in layer.grads()]

    pairs = []

    def numeric_for(array):
        num = np.zeros_like(array)
        flat = array.reshape(-1)
        out_flat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            up = _projection_loss(layer, x, w, training, mask_seed)
            flat[i] = orig - FD_STEP
            down = _projection_loss(layer, x, w, training, mask_seed)
            flat[i] = orig
            out_flat[i] = (up - down) / (2 * FD_STEP)
        return num

    pairs.append((analytic_dx, numeric_for(x)))
    for (name, param), analytic in zip(layer.params(), analytic_params):
        pairs.append((analytic, numeric_for(param)))
    return pairs


def max_relative_error(analytic, numeric):
    scale = max(np.max(np.abs(analytic)), np.max(np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(analytic - numeric)) / scale)


def sampled_away_from_zero(rng, shape, low=0.1, high=1.0):
    # Keeps FD probes off the ReLU/maxpool kinks.
    return rng.uniform(low, high, size=shape) * rng.choice([-1.0, 1.0], size=shape)


def layer_gradient_cases(seed):
    """(layer, input, training) triples covering every layer type."""
    from vibediag.nn_engine import Conv3x3, Dense, Dropout, Flatten, MaxPool2x2, ReLU

    rng = np.random.default_rng(seed)
    return [
        (Conv3x3(2, 3, rng), rng.normal(size=(1, 5, 5, 2)), True),
        (Dense(7, 4, rng), rng.normal(size=(3, 7)), True),
        (MaxPool2x2(), sampled_away_from_zero(rng, (2, 4, 4, 3)), True),
        (Flatten(), rng.normal(size=(2, 3, 3, 2)), True),
        (ReLU(), sampled_away_from_zero(rng, (4, 6)), True),
        (Dropout(0.4), rng.normal(size=(3, 8)), True),
    ]


def reference_conv3x3(x, kernels, bias, grad):
    """The 9-tap convolution: one GEMM per kernel tap, col2im by shifted adds.

    Returns (output, d_kernels, d_bias, input gradient) for an output gradient
    ``grad``.
    """
    b, h, w, cin = x.shape
    cout = kernels.shape[3]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.tile(bias, (b * h * w, 1))
    gm = grad.reshape(-1, cout)
    d_kernels = np.zeros_like(kernels)
    dxp = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            patch = xp[:, di : di + h, dj : dj + w, :].reshape(-1, cin)
            out += patch @ kernels[di, dj]
            d_kernels[di, dj] = patch.T @ gm
            dxp[:, di : di + h, dj : dj + w, :] += (gm @ kernels[di, dj].T).reshape(b, h, w, cin)
    return out.reshape(b, h, w, cout), d_kernels, gm.sum(axis=0), dxp[:, 1 : 1 + h, 1 : 1 + w, :]


def rebuilt_windows_conv3x3_backward(conv, x, grad):
    """``Conv3x3.backward`` as it was when the forward kept only the padded
    input: the three row-window matrices are rebuilt from it. Returns
    (d_kernels, d_bias, input gradient) for the input ``x`` and the output
    gradient ``grad``."""
    from vibediag.nn_engine import _row_windows

    xp = np.pad(x.astype(conv.kernels.dtype, copy=False), ((0, 0), (1, 1), (1, 1), (0, 0)))
    b, h, w, _ = grad.shape
    gm = grad.reshape(-1, conv.out_channels)
    d_kernels, d_bias = np.empty_like(conv.kernels), np.empty_like(conv.bias)
    gm.sum(axis=0, out=d_bias)
    windows = np.empty((gm.shape[0], 3 * conv.in_channels), xp.dtype)
    d_rows = d_kernels.reshape(3, 3 * conv.in_channels, -1)
    for di in range(3):
        np.matmul(_row_windows(xp, di, windows).T, gm, out=d_rows[di])
    dxp = np.zeros_like(xp)
    for di in range(3):
        for dj in range(3):
            dxp[:, di : di + h, dj : dj + w, :] += (gm @ conv.kernels[di, dj].T).reshape(
                b, h, w, conv.in_channels
            )
    return d_kernels, d_bias, dxp[:, 1 : 1 + h, 1 : 1 + w, :]


def reference_maxpool2x2(x, grad):
    """Pooling by a transposed copy of the blocks and argmax (first maximum on
    ties); returns (output, input gradient)."""
    b, h, w, c = x.shape
    blocks = x.reshape(b, h // 2, 2, w // 2, 2, c).transpose(0, 1, 3, 5, 2, 4).reshape(
        b, h // 2, w // 2, c, 4
    )
    argmax = blocks.argmax(axis=-1)[..., None]
    out = np.take_along_axis(blocks, argmax, axis=-1)[..., 0]
    scatter = np.zeros((b, h // 2, w // 2, c, 4), dtype=grad.dtype)
    np.put_along_axis(scatter, argmax, grad[..., None], axis=-1)
    dx = scatter.reshape(b, h // 2, w // 2, c, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(b, h, w, c)
    return out, dx


class ReferenceAdam:
    """Adam as one in-place update per tensor of a parameter list."""

    def __init__(self, params, config):
        self.config = config
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params, grads):
        cfg = self.config
        self.t += 1
        b1t = 1.0 - cfg.beta1**self.t
        b2t = 1.0 - cfg.beta2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= cfg.beta1
            m += (1.0 - cfg.beta1) * g
            v *= cfg.beta2
            v += (1.0 - cfg.beta2) * g * g
            p -= cfg.learning_rate * (m / b1t) / (np.sqrt(v / b2t) + cfg.epsilon)


def class_probabilities(model, images, features):
    """Softmax of an eval-mode forward's logits, by the loss's own ``_log_softmax``."""
    from vibediag.nn_engine import _log_softmax

    return np.exp(_log_softmax(model.forward_logits(images, features)))


def model_tensors(model):
    """Every parameter tensor of ``model``, in manifest order."""
    return [array for layer in model._all_layers() for _, array in layer.params()]


def reference_model_bin(model):
    """``model.bin`` as one little-endian float64 ``tobytes`` per tensor, concatenated."""
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in model_tensors(model))


def desk_window(label):
    """The first 1024-sample linear window of a 0.25 s, 8192 Hz recording."""
    from vibediag import segmentation, signal_model

    spec = signal_model.preset_spec(label, duration_s=0.25, sample_rate_hz=8192.0)
    rec = signal_model.synthesize_recording(spec, 40 + int(label), id="w")
    return segmentation.segment(rec, 1024, 410)[0].linear


def reference_find_extrema(series):
    """``emd.find_extrema`` as it was before it dropped ``np.sign``: turns of
    the sign of the nonzero first differences."""
    x = np.asarray(series, dtype=np.float64)
    slope = np.sign(np.diff(x))
    nz = np.flatnonzero(slope)
    if nz.size < 2:
        empty = np.zeros(0, dtype=int), np.zeros(0)
        return empty, (np.zeros(0, dtype=int), np.zeros(0))
    s = slope[nz]
    turn = np.flatnonzero(s[:-1] != s[1:])
    mids = (nz[turn] + 1 + nz[turn + 1]) // 2
    is_max = s[turn] > 0
    max_idx = mids[is_max]
    min_idx = mids[~is_max]
    return (max_idx, x[max_idx]), (min_idx, x[min_idx])


def reference_render_pixels(imfs, dt, freq_max_hz, channels=3, log_compress=True):
    """The Hilbert raster by a sequential ``np.add.at`` scatter, with the
    frequency taken from a second unwrap of the analytic phase."""
    from vibediag.hht import IMAGE_SIZE, analytic_signal, apply_colormap, instantaneous_frequency

    n = imfs.imfs[0].size
    grid = np.zeros((IMAGE_SIZE, IMAGE_SIZE))
    time_bins = (np.arange(n) * IMAGE_SIZE) // n
    df = freq_max_hz / IMAGE_SIZE
    for imf in imfs.imfs[:3]:
        z = analytic_signal(imf)
        freq = instantaneous_frequency(z, dt)
        keep = freq <= freq_max_hz
        fbin = np.minimum((freq[keep] / df).astype(int), IMAGE_SIZE - 1)
        np.add.at(grid, (fbin, time_bins[keep]), z.amplitude[keep])
    if log_compress:
        grid = np.log1p(grid)
    peak = grid.max()
    if peak <= 0:
        return np.zeros((IMAGE_SIZE, IMAGE_SIZE, channels))
    grid /= peak
    return apply_colormap(grid) if channels == 3 else grid[:, :, None]


def envelope_spectrum(x, fs, cutoff_hz=500.0):
    """Rectified, moving-average-lowpassed envelope spectrum (freqs, mags)."""
    env = np.abs(np.asarray(x, dtype=np.float64))
    width = max(int(round(fs / cutoff_hz)), 1)
    env = np.convolve(env, np.ones(width) / width, mode="same")
    env = env - env.mean()
    mags = np.abs(np.fft.rfft(env))
    freqs = np.arange(mags.size) * fs / env.size
    return freqs, mags


def band_energy(freqs, mags, center_hz, half_width_hz=2.0):
    mask = np.abs(freqs - center_hz) <= half_width_hz
    return float(np.sum(mags[mask]))


def noise_floor(freqs, mags, lo_hz=30.0, hi_hz=150.0):
    mask = (freqs >= lo_hz) & (freqs <= hi_hz)
    return float(np.median(mags[mask]))


def detected_rates(x, fs, rates=(59.0, 87.0, 99.0)):
    """Impulse rates whose envelope line stands clear of the floor.

    The threshold adapts to the strongest line so rectification
    intermodulation products (e.g. AM sidebands) are not miscounted when
    the noise floor is very low.
    """
    freqs, mags = envelope_spectrum(x, fs)
    floor = noise_floor(freqs, mags)
    ratios = {}
    for rate in rates:
        mask = np.abs(freqs - rate) <= 2.0
        ratios[rate] = mags[mask].max() / floor
    cutoff = max(5.0, 0.15 * max(ratios.values()))
    return tuple(rate for rate in rates if ratios[rate] >= cutoff)


def reference_apply_scaler(minimum, maximum, values):
    """Min-max scaling one element at a time: (v - min) / (max - min), clamped
    to [0, 1], and 0 for a feature whose span is not positive."""
    span = maximum - minimum
    out = np.zeros(np.shape(values))
    for row in range(out.shape[0]):
        for i in range(out.shape[1]):
            if span[i] > 0:
                out[row, i] = np.clip((values[row, i] - minimum[i]) / span[i], 0.0, 1.0)
    return out


def reference_split_keys(keys, labels, spec):
    """Split membership as ``{"train", "val", "test"} -> keys``, by a plain
    seeded shuffle with ceil-sized cuts, or the same rule within each label
    with ``spec.stratified``; items are picked through a ``(key, label)`` shim."""

    class _Item:
        __slots__ = ("key", "label")

        def __init__(self, key, label):
            self.key = key
            self.label = label

    items = [_Item(k, int(l)) for k, l in zip(keys, labels)]
    n = len(items)
    cut = lambda count, fraction: int(np.ceil(fraction * count))
    rng = np.random.default_rng(spec.seed)
    if not spec.stratified:
        order = rng.permutation(n)
        n_test = cut(n, spec.test_fraction)
        n_val = cut(n - n_test, spec.val_fraction)
        te, va, tr = order[:n_test], order[n_test : n_test + n_val], order[n_test + n_val :]
    else:
        labels = np.array([i.label for i in items])
        tr_parts, va_parts, te_parts = [], [], []
        for cls in np.unique(labels):
            members = np.flatnonzero(labels == cls)
            order = members[rng.permutation(members.size)]
            n_test = cut(members.size, spec.test_fraction)
            n_val = cut(members.size - n_test, spec.val_fraction)
            te_parts.append(order[:n_test])
            va_parts.append(order[n_test : n_test + n_val])
            tr_parts.append(order[n_test + n_val :])
        tr, va, te = np.concatenate(tr_parts), np.concatenate(va_parts), np.concatenate(te_parts)
    return {name: [items[i].key for i in idx] for name, idx in (("train", tr), ("val", va), ("test", te))}


def reference_conditional_affinities(sq_dists, perplexity, n_steps=50, tol=1e-5):
    """``embedding._conditional_affinities`` as it was before it took the
    positive entries and the off-diagonal mask once: per-row bisection of
    the Gaussian bandwidth against the perplexity entropy."""
    n = sq_dists.shape[0]
    target_entropy = np.log(perplexity)
    p = np.zeros_like(sq_dists)
    for i in range(n):
        d = np.delete(sq_dists[i], i)
        beta, lo, hi = 1.0, 0.0, np.inf
        row = None
        for _ in range(n_steps):
            row = np.exp(-d * beta)
            total = row.sum()
            if total <= 0:
                entropy = 0.0
                row = np.full_like(d, 1.0 / d.size)
            else:
                row /= total
                entropy = float(-np.sum(row[row > 0] * np.log(row[row > 0])))
            if abs(entropy - target_entropy) < tol:
                break
            if entropy > target_entropy:
                lo = beta
                beta = beta * 2.0 if hi == np.inf else 0.5 * (beta + hi)
            else:
                hi = beta
                beta = 0.5 * (beta + lo)
        p[i, np.arange(n) != i] = row
    return p


def reference_tsne(data, config):
    """``embedding.tsne`` as it was before it reused its n x n workspaces:
    fresh temporaries every iteration, ``np.diag`` in the gradient, and the
    KL divergence of every iteration, returned as the whole history."""
    x = np.asarray(data, dtype=np.float64)
    n = x.shape[0]
    sq = np.sum(x * x, axis=1)
    sq_dists = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (x @ x.T), 0.0)
    cond = reference_conditional_affinities(sq_dists, config.perplexity)
    p = (cond + cond.T) / (2.0 * n)
    p = np.maximum(p, 1e-12)

    rng = np.random.default_rng(config.seed)
    y = rng.normal(scale=1e-4, size=(n, 2))
    velocity = np.zeros_like(y)
    kl_history = np.zeros(config.iterations)
    off_diag = ~np.eye(n, dtype=bool)
    for it in range(config.iterations):
        ysq = np.sum(y * y, axis=1)
        num = 1.0 / (1.0 + np.maximum(ysq[:, None] + ysq[None, :] - 2.0 * (y @ y.T), 0.0))
        np.fill_diagonal(num, 0.0)
        q = np.maximum(num / num.sum(), 1e-12)
        kl_history[it] = float(np.sum(p[off_diag] * np.log(p[off_diag] / q[off_diag])))
        p_eff = p * config.early_exaggeration if it < config.exaggeration_iters else p
        w = (p_eff - q) * num
        grad = 4.0 * ((np.diag(w.sum(axis=1)) - w) @ y)
        momentum = config.momentum_start if it < config.momentum_switch_iter else config.momentum_final
        velocity = momentum * velocity - config.learning_rate * grad
        y = y + velocity
        y = y - y.mean(axis=0)
    return y, kl_history
