import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    ReferenceAdam,
    class_probabilities,
    fd_layer_gradients,
    layer_gradient_cases,
    max_relative_error,
    model_tensors,
    rebuilt_windows_conv3x3_backward,
    reference_conv3x3,
    reference_maxpool2x2,
    reference_model_bin,
    row_windows_conv3x3_forward,
    where_maxpool2x2_winners,
)
from vibediag.config import config_from_dict
from vibediag.hybrid_model import BRANCH_BUILDERS, build_cnn_only, build_hybrid, predict_classes
from vibediag.nn_engine import (
    _LAYER_TYPES,
    EVAL_BLOCK,
    EVAL_CHUNK,
    Adam,
    Conv3x3,
    Dense,
    Dropout,
    Flatten,
    History,
    MaxPool2x2,
    Model,
    ReLU,
    TrainConfig,
    adam_step,
    eval_logits,
    load_model,
    save_model,
    softmax_crossentropy,
    train,
)

GRAD_TOL = 1e-4


@pytest.mark.parametrize("seed", range(5))
def test_every_layer_matches_finite_differences(seed):
    for layer, x, training in layer_gradient_cases(seed):
        for analytic, numeric in fd_layer_gradients(layer, x, seed=seed + 100, training=training):
            err = max_relative_error(analytic, numeric)
            assert err <= GRAD_TOL, f"{layer.spec()['type']}: rel err {err:.2e}"


def test_conv_output_shape_matches_architecture_row():
    rng = np.random.default_rng(0)
    conv = Conv3x3(3, 16, rng)
    out = conv.forward(rng.normal(size=(2, 32, 32, 3)))
    assert out.shape == (2, 32, 32, 16)


def test_conv_identity_kernel():
    rng = np.random.default_rng(0)
    conv = Conv3x3(1, 1, rng)
    conv.kernels[...] = 0.0
    conv.kernels[1, 1, 0, 0] = 1.0
    conv.bias[...] = 0.0
    x = rng.normal(size=(1, 6, 6, 1))
    np.testing.assert_allclose(conv.forward(x), x, atol=1e-15)


def test_maxpool_forward_and_tie_routing():
    pool = MaxPool2x2()
    block = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 2, 2, 1)
    out = pool.forward(block, training=True)
    assert out[0, 0, 0, 0] == 4.0
    back = pool.backward(np.full((1, 1, 1, 1), 5.0))
    np.testing.assert_array_equal(back[0, :, :, 0], [[0.0, 0.0], [0.0, 5.0]])

    ties = np.full((1, 2, 2, 1), 7.0)
    out = pool.forward(ties, training=True)
    assert out[0, 0, 0, 0] == 7.0
    back = pool.backward(np.ones((1, 1, 1, 1)))
    np.testing.assert_array_equal(back[0, :, :, 0], [[1.0, 0.0], [0.0, 0.0]])


@settings(max_examples=200, deadline=None)
@given(
    b=st.integers(1, 3), h=st.integers(1, 9), w=st.integers(1, 9),
    cin=st.integers(1, 6), cout=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
)
def test_conv_matches_nine_tap_reference(b, h, w, cin, cout, seed):
    rng = np.random.default_rng(seed)
    conv = Conv3x3(cin, cout, rng)
    conv.bias[...] = rng.normal(size=cout)
    x = rng.normal(size=(b, h, w, cin))
    grad = rng.normal(size=(b, h, w, cout))
    out = conv.forward(x, training=True)
    dx = conv.backward(grad)
    for got, want in zip((out, conv.d_kernels, conv.d_bias, dx),
                         reference_conv3x3(x, conv.kernels, conv.bias, grad)):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def _bits(a):
    a = np.ascontiguousarray(a)
    return a.view(f"u{a.itemsize}")


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=200, deadline=None)
@given(
    b=st.integers(1, 3), h=st.integers(1, 5), w=st.integers(1, 5), c=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_maxpool_bitwise_equals_argmax_reference(dtype, b, h, w, c, seed):
    # Few distinct values, signed zeros among them, so most blocks hold ties.
    rng = np.random.default_rng(seed)
    x = rng.choice([-1.0, -0.0, 0.0, 0.5, 2.0], size=(b, 2 * h, 2 * w, c)).astype(dtype)
    grad = rng.normal(size=(b, h, w, c)).astype(dtype)
    pool = MaxPool2x2()
    out = pool.forward(x, training=True)
    np.testing.assert_array_equal(pool._cache[0], where_maxpool2x2_winners(x))
    dx = pool.backward(grad)
    want_out, want_dx = reference_maxpool2x2(x, grad)
    np.testing.assert_array_equal(_bits(out), _bits(want_out))
    np.testing.assert_array_equal(_bits(dx), _bits(want_dx))
    np.testing.assert_array_equal(_bits(MaxPool2x2().forward(x)), _bits(want_out))


_TIE_VALUES = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=150, deadline=None)
@given(
    b=st.integers(1, 3), h=st.integers(1, 8), w=st.integers(1, 8), cin=st.integers(1, 12),
    cout=st.integers(1, 6), ties=st.booleans(), seed=st.integers(0, 2**32 - 1),
)
# With 3*cin = 36 and cout < 4, OpenBLAS's Haswell sgemm and dgemm round the
# rows of a GEMM's last partial block of 4 differently from rows in whole
# blocks, so an output row that the layer computes outside a whole block shows
# in the bits. In the first two b*h*w is not a whole number of blocks, the
# second's rows spread over all three images; in the third it is, but the tall
# image's 54 rows end in a partial block.
@example(b=2, h=3, w=5, cin=12, cout=3, ties=False, seed=1)
@example(b=3, h=1, w=1, cin=12, cout=2, ties=False, seed=2)
@example(b=2, h=8, w=3, cin=12, cout=3, ties=False, seed=1)
def test_conv_gives_the_bits_of_the_row_window_reference(dtype, b, h, w, cin, cout, ties, seed):
    # The tall-image GEMMs run on other row counts and row offsets than one
    # GEMM per kernel row over the (b*h*w)-row window matrices, and the
    # backward runs on the kept column-window array. Tie values make signed
    # zeros and exact sums; normal values make the rounding of every product
    # and sum count.
    rng = np.random.default_rng(seed)
    draw = (lambda size: rng.choice(_TIE_VALUES, size=size)) if ties else (lambda size: rng.normal(size=size))
    conv = Conv3x3(cin, cout, rng)
    conv.kernels, conv.bias = draw(conv.kernels.shape).astype(dtype), draw(cout).astype(dtype)
    conv.d_kernels, conv.d_bias = np.zeros_like(conv.kernels), np.zeros_like(conv.bias)
    x, grad = draw((b, h, w, cin)), draw((b, h, w, cout)).astype(dtype)
    want_out = row_windows_conv3x3_forward(conv, x)
    eval_out = conv.forward(x)
    out = conv.forward(x, training=True)
    dx = conv.backward(grad)
    wants = (want_out, want_out, *rebuilt_windows_conv3x3_backward(conv, x, grad))
    for got, want in zip((eval_out, out, conv.d_kernels, conv.d_bias, dx), wants):
        assert got.dtype == want.dtype == dtype and got.shape == want.shape
        np.testing.assert_array_equal(_bits(got), _bits(want))


def test_an_eval_forward_drops_the_kept_window_matrices_and_winner_indices():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 6, 4, 3))
    conv, pool = Conv3x3(3, 5, rng), MaxPool2x2()
    conv.forward(x, training=True)
    cols = conv._cache
    assert cols.shape == (2, 6 + 2, 4, 3 * 3) and cols.flags.c_contiguous
    pool.forward(x, training=True)
    winners, in_shape = pool._cache
    assert winners.shape == (2, 3, 2, 3) and in_shape == x.shape
    for layer in (conv, pool):
        layer.forward(x)
        assert layer._cache is None


def test_no_layer_holds_a_training_cache_after_train():
    rng = np.random.default_rng(8)
    images, feats = rng.uniform(size=(7, 32, 32, 3)), rng.uniform(size=(7, 2))
    onehot = np.eye(5)[rng.integers(0, 5, size=7)]
    model, _ = train(build_hybrid(channels=3, seed=1), (images, feats, onehot), (images, feats, onehot),
                     TrainConfig(batch_size=4, max_epochs=2, patience=1))
    for layer in model._all_layers():
        assert layer._cache is None and getattr(layer, "_scale", None) is None, layer.kind


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [1, 2, 3, 5, 8, 16, 32, 64, 128])
@pytest.mark.parametrize("size, cin", [(32, 3), (16, 16), (8, 32)])
def test_conv_bias_gradient_gives_the_bits_of_a_row_order_sum(dtype, width, size, cin):
    # The hybrid's three conv inputs at batch 20: 20,480, 5,120 and 1,280 gradient rows.
    rng = np.random.default_rng(width)
    conv = Conv3x3(cin, width, rng)
    conv.kernels, conv.bias = conv.kernels.astype(dtype), conv.bias.astype(dtype)
    conv.d_kernels, conv.d_bias = np.zeros_like(conv.kernels), np.zeros_like(conv.bias)
    conv.input_grad = False
    conv.forward(rng.normal(size=(20, size, size, cin)).astype(dtype), training=True)
    grad = rng.normal(size=(20, size, size, width)).astype(dtype)
    conv.backward(grad)
    np.testing.assert_array_equal(_bits(conv.d_bias), _bits(grad.reshape(-1, width).sum(axis=0)))


def test_the_row_independent_layers_are_declared_by_class():
    assert {cls for cls in _LAYER_TYPES.values() if cls.row_independent} == {
        Conv3x3, MaxPool2x2, ReLU, Flatten, Dropout}


def _conv(cin, cout):
    return lambda rng: Conv3x3(cin, cout, rng)


# Each row-independent layer and the shape of one input row: the hybrid's
# three convs, then a conv whose (h+2)*w tall rows per image are not a whole
# number of _ROW_BLOCK rows, so a split moves its images within the blocks.
_ROW_INDEPENDENT_CASES = [
    (_conv(3, 16), (32, 32, 3)), (_conv(16, 32), (16, 16, 16)), (_conv(32, 64), (8, 8, 32)),
    (_conv(2, 3), (5, 3, 2)), (lambda rng: MaxPool2x2(), (8, 8, 4)), (lambda rng: ReLU(), (6, 6, 4)),
    (lambda rng: Flatten(), (4, 4, 3)), (lambda rng: Dropout(0.5), (7,)),
]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 7, 31, 32, 33, 100])
@pytest.mark.parametrize("make, row_shape", _ROW_INDEPENDENT_CASES)
def test_a_row_independent_layer_gives_a_split_batch_the_bits_of_the_whole(dtype, n, make, row_shape):
    rng = np.random.default_rng(n)
    layer = make(rng)
    for name, value in layer.params():
        setattr(layer, name, value.astype(dtype))
    x = rng.normal(size=(n, *row_shape)).astype(dtype)
    whole = layer.forward(x)
    assert whole.dtype == dtype
    for cuts in (range(EVAL_BLOCK, n, EVAL_BLOCK), sorted(set(rng.integers(1, n, size=3))) if n > 1 else []):
        split = np.concatenate([layer.forward(part) for part in np.split(x, list(cuts))])
        np.testing.assert_array_equal(_bits(split), _bits(whole))


def _whole_chunk_logits(model, images, features):
    """Each layer's eval forward over every row of a chunk at once."""
    parts = []
    for layers, x in zip(model.branches, (images, features)):
        if layers is not None:
            x = np.asarray(x, model.dtype)
            for layer in layers:
                x = layer.forward(x)
            parts.append(x)
    x = np.concatenate(parts, axis=1)
    for layer in model.head_layers:
        x = layer.forward(x)
    return x


@pytest.mark.parametrize("branch", sorted(BRANCH_BUILDERS))
def test_eval_logits_give_the_bits_of_whole_chunk_forwards(branch):
    model = BRANCH_BUILDERS[branch](channels=3, seed=2)
    rng = np.random.default_rng(9)
    images, feats = rng.uniform(size=(600, 32, 32, 3)), rng.uniform(size=(600, 2))
    for n in (1, 31, 32, 33, 256, 257, 600):
        chunks = list(eval_logits(model, images[:n], feats[:n], n))
        assert [rows for rows, _ in chunks] == [slice(lo, min(lo + EVAL_CHUNK, n)) for lo in range(0, n, EVAL_CHUNK)]
        for rows, logits in chunks:
            want = _whole_chunk_logits(model, images[rows], feats[rows])
            assert logits.dtype == want.dtype == np.float32
            np.testing.assert_array_equal(_bits(logits), _bits(want))


def _record_rows(layer, seen):
    forward = layer.forward

    def counted(x, *args, **kwargs):
        seen.append(len(x))
        return forward(x, *args, **kwargs)

    layer.forward = counted


def test_an_eval_forward_blocks_only_the_leading_row_independent_layers():
    model = build_hybrid(channels=3, seed=0)
    seen = {layer: [] for layer in model._all_layers()}
    for layer, rows in seen.items():
        _record_rows(layer, rows)
    lead = model.image_layers[:10]  # three conv, pool, ReLU stages and the Flatten; then Dense
    assert [layer.kind for layer in lead].count("conv3x3") == 3 and lead[-1].kind == "flatten"
    rng = np.random.default_rng(4)
    n = 2 * EVAL_BLOCK + 5
    images, feats = rng.uniform(size=(n, 32, 32, 3)), rng.uniform(size=(n, 2))

    def forward(rows, **kwargs):
        for layer_rows in seen.values():
            layer_rows.clear()
        model.forward_logits(images[:rows], feats[:rows], **kwargs)

    forward(n)
    assert all(seen[layer] == [EVAL_BLOCK, EVAL_BLOCK, 5] for layer in lead)
    # The feature branch starts with a Dense, so it and the head run once over every row.
    assert all(rows == [n] for layer, rows in seen.items() if layer not in lead)
    # A training forward, and an eval forward of one block, run every layer once.
    for rows, kwargs in ((n, {"training": True, "rng": rng}), (EVAL_BLOCK, {})):
        forward(rows, **kwargs)
        assert all(layer_rows == [rows] for layer_rows in seen.values())


def test_layer_shapes_of_a_blocked_forward_are_those_of_one_row():
    model = build_hybrid(channels=3, seed=0)
    rng = np.random.default_rng(6)
    n = EVAL_BLOCK + 1
    images, feats = rng.uniform(size=(n, 32, 32, 3)), rng.uniform(size=(n, 2))
    assert model.layer_shapes(images, feats) == model.layer_shapes(images[:1], feats[:1])


def _two_stage_model(pool_first, channels, flat_width, dtype):
    rng = np.random.default_rng(0)

    def stage(cin, cout):
        act = (MaxPool2x2(), ReLU()) if pool_first else (ReLU(), MaxPool2x2())
        return [Conv3x3(cin, cout, rng), *act]

    return Model([*stage(channels, 3), *stage(3, 2), Flatten()], None, [Dense(flat_width, 5, rng)], dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@settings(max_examples=150, deadline=None)
@given(b=st.integers(1, 3), h4=st.integers(1, 3), w4=st.integers(1, 3), c=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_pool_before_relu_gives_the_bits_of_relu_before_pool(dtype, b, h4, w4, c, seed):
    # Inputs, parameters and the loss gradient take few dyadic values, signed
    # zeros among them, so conv outputs are exact and pooling blocks hold ties
    # and all-nonpositive maxima. Both orders forward the same values: ReLU
    # maps -0.0 to +0.0. Backward, the pair of layers places one signed zero
    # differently: in a block whose maximum is <= 0, under a negative upstream
    # gradient, -0.0 lands on the block's first corner (ReLU first) or on its
    # first maximum (pool first). A signed zero can change a sum only when
    # every term is zero, and the conv's kernel GEMMs and bias sums return
    # +0.0 for such sums in both orders, so no parameter gradient bit differs.
    rng = np.random.default_rng(seed)
    images = rng.choice(_TIE_VALUES, size=(b, 4 * h4, 4 * w4, c))
    dlogits = rng.choice(_TIE_VALUES, size=(b, 5)).astype(dtype)
    models = [_two_stage_model(pool_first, c, 2 * h4 * w4, dtype) for pool_first in (False, True)]
    params = rng.choice(_TIE_VALUES, size=models[0].params.size)
    runs = []
    for model in models:
        model.params[...] = params
        logits = model.forward_logits(images, None, training=True)
        model.backward(dlogits)
        runs.append((logits, model.grads))
    for old, new in zip(*runs):
        assert old.dtype == new.dtype == dtype
        np.testing.assert_array_equal(_bits(old), _bits(new))


@pytest.mark.parametrize("make", [
    lambda rng: (Conv3x3(2, 3, rng), rng.normal(size=(1, 4, 4, 2))),
    lambda rng: (Dense(3, 2, rng), rng.normal(size=(2, 3))),
    lambda rng: (MaxPool2x2(), rng.normal(size=(1, 4, 4, 2))),
    lambda rng: (ReLU(), rng.normal(size=(2, 3))),
    lambda rng: (Flatten(), rng.normal(size=(2, 2, 2, 3))),
    lambda rng: (Dropout(0.5), rng.normal(size=(2, 3))),
])
def test_backward_needs_a_training_forward(make):
    rng = np.random.default_rng(0)
    layer, x = make(rng)
    out = layer.forward(x)
    name = type(layer).__name__
    with pytest.raises(RuntimeError, match=f"{name}.backward needs a training-mode forward"):
        layer.backward(np.ones_like(out))
    layer.forward(x, training=True, rng=rng)
    layer.forward(x)  # an eval forward drops what the training forward kept
    with pytest.raises(RuntimeError, match=name):
        layer.backward(np.ones_like(out))


def test_hybrid_gradients_do_not_depend_on_first_layer_input_gradient():
    rng = np.random.default_rng(21)
    images = rng.uniform(size=(4, 32, 32, 3))
    feats = rng.uniform(size=(4, 2))
    dlogits = rng.normal(size=(4, 5))
    grads = []
    for input_grad in (False, True):
        model = build_hybrid(channels=3, seed=4, dtype=np.float64)
        assert model.image_layers[0].input_grad is False
        model.image_layers[0].input_grad = input_grad
        model.forward_logits(images, feats, training=True, rng=np.random.default_rng(5))
        model.backward(dlogits)
        grads.append(model.grads.copy())
    np.testing.assert_array_equal(_bits(grads[0]), _bits(grads[1]))


def test_maxpool_halves_architecture_shape():
    rng = np.random.default_rng(1)
    out = MaxPool2x2().forward(rng.normal(size=(1, 32, 32, 16)))
    assert out.shape == (1, 16, 16, 16)
    with pytest.raises(ValueError):
        MaxPool2x2().forward(rng.normal(size=(1, 5, 6, 1)))


def test_dense_identity_and_shapes():
    rng = np.random.default_rng(2)
    dense = Dense(4, 4, rng)
    dense.weights[...] = np.eye(4)
    dense.bias[...] = 0.0
    x = rng.normal(size=(3, 4))
    np.testing.assert_array_equal(dense.forward(x), x)

    wide = Dense(1024, 16, rng)
    flat = Flatten().forward(rng.normal(size=(2, 4, 4, 64)))
    assert flat.shape == (2, 1024)
    assert wide.forward(flat).shape == (2, 16)
    with pytest.raises(ValueError):
        dense.forward(rng.normal(size=(3, 5)))


def test_dropout_modes():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(10, 10))
    layer = Dropout(0.5)
    np.testing.assert_array_equal(layer.forward(x, training=False), x)
    zero_rate = Dropout(0.0)
    np.testing.assert_array_equal(zero_rate.forward(x, training=True, rng=rng), x)
    with pytest.raises(ValueError):
        Dropout(1.0)


def test_dropout_preserves_mean():
    rng = np.random.default_rng(4)
    x = np.ones((100, 1000))
    out = Dropout(0.5).forward(x, training=True, rng=rng)
    assert abs(out.mean() - 1.0) < 0.02


def test_softmax_crossentropy_uniform_and_saturated():
    logits = np.zeros((2, 5))
    onehot = np.zeros((2, 5))
    onehot[0, 1] = onehot[1, 3] = 1.0
    loss, probs, grad = softmax_crossentropy(logits, onehot)
    np.testing.assert_allclose(probs, 0.2)
    assert abs(loss - np.log(5.0)) < 1e-12
    assert abs(probs.sum(axis=1) - 1.0).max() < 1e-12

    hot = np.zeros((1, 5))
    hot[0, 2] = 50.0
    target = np.zeros((1, 5))
    target[0, 2] = 1.0
    loss, _, _ = softmax_crossentropy(hot, target)
    assert loss < 1e-12


def test_softmax_crossentropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(4, 5))
    onehot = np.eye(5)[rng.integers(0, 5, size=4)]
    _, _, grad = softmax_crossentropy(logits, onehot)
    h = 1e-5
    numeric = np.zeros_like(logits)
    for i in range(logits.size):
        probe = logits.copy().reshape(-1)
        probe[i] += h
        up, _, _ = softmax_crossentropy(probe.reshape(logits.shape), onehot)
        probe[i] -= 2 * h
        down, _, _ = softmax_crossentropy(probe.reshape(logits.shape), onehot)
        numeric.reshape(-1)[i] = (up - down) / (2 * h)
    assert np.max(np.abs(grad - numeric)) <= 1e-6


def test_softmax_crossentropy_rejects_non_onehot():
    with pytest.raises(ValueError, match="one-hot"):
        softmax_crossentropy(np.zeros((1, 5)), np.full((1, 5), 0.2))


def test_adam_first_step_closed_form():
    param = np.zeros(1)
    grad = np.ones(1)
    m = np.zeros(1)
    v = np.zeros(1)
    out, m, v = adam_step(param, grad, m, v, t=1, learning_rate=1e-4, epsilon=1e-7)
    expected = -1e-4 * 1.0 / (1.0 + 1e-7)
    assert abs(out[0] - expected) < 1e-18


def test_adam_zero_gradient_is_noop():
    param = np.array([1.5, -2.0])
    out, _, _ = adam_step(param, np.zeros(2), np.zeros(2), np.zeros(2), t=1, learning_rate=0.1)
    np.testing.assert_array_equal(out, param)


def test_adam_two_steps_match_hand_recurrence():
    lr, b1, b2, eps = 1e-4, 0.9, 0.999, 1e-7
    theta = np.zeros(1)
    m = np.zeros(1)
    v = np.zeros(1)
    # Hand recurrence with constant unit gradient.
    m1 = (1 - b1) * 1.0
    v1 = (1 - b2) * 1.0
    t1 = -lr * (m1 / (1 - b1)) / (np.sqrt(v1 / (1 - b2)) + eps)
    m2 = b1 * m1 + (1 - b1)
    v2 = b2 * v1 + (1 - b2)
    t2 = t1 - lr * (m2 / (1 - b1**2)) / (np.sqrt(v2 / (1 - b2**2)) + eps)

    theta, m, v = adam_step(theta, np.ones(1), m, v, t=1, learning_rate=lr, epsilon=eps)
    assert abs(theta[0] - t1) < 1e-12
    theta, m, v = adam_step(theta, np.ones(1), m, v, t=2, learning_rate=lr, epsilon=eps)
    assert abs(theta[0] - t2) < 1e-12


def test_adam_class_matches_functional_step():
    rng = np.random.default_rng(11)
    p_obj = rng.normal(size=(3, 2))
    p_fn = p_obj.copy()
    g = rng.normal(size=(3, 2))
    cfg = TrainConfig(learning_rate=0.01)
    opt = Adam(p_obj, cfg)
    m = np.zeros((3, 2))
    v = np.zeros((3, 2))
    for t in range(1, 4):
        opt.step(p_obj, g)
        p_fn, m, v = adam_step(p_fn, g, m, v, t=t, learning_rate=0.01)
    np.testing.assert_array_equal(_bits(p_obj), _bits(p_fn))


def test_flat_adam_matches_per_parameter_loop_on_hybrid_shapes():
    model = build_hybrid(channels=3, seed=2, dtype=np.float64)
    cfg = TrainConfig(learning_rate=1e-3)
    tensors = [t.copy() for t in model_tensors(model)]
    flat, per_tensor = Adam(model.params, cfg), ReferenceAdam(tensors, cfg)
    rng = np.random.default_rng(8)
    for _ in range(5):
        model.grads[...] = rng.normal(size=model.grads.size)
        flat.step(model.params, model.grads)
        per_tensor.step(tensors, [g for layer in model._all_layers() for g in layer.grads()])
    # Each layer's tensor is a view into ``params`` and saw the flat update.
    for got, want in zip(model_tensors(model), tensors, strict=True):
        np.testing.assert_array_equal(_bits(got), _bits(want))


def make_toy_split(n=120, seed=0, noise=0.1):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    feats = np.where(labels[:, None] == 1, 1.0, -1.0) + rng.normal(0, noise, size=(n, 2))
    onehot = np.eye(2)[labels]
    return feats, onehot


def tiny_mlp(seed=0):
    rng = np.random.default_rng(seed)
    return Model(
        image_layers=None,
        feature_layers=[Dense(2, 8, rng), ReLU()],
        head_layers=[Dense(8, 2, rng)],
    )


def test_train_solves_separable_toy_problem():
    feats, onehot = make_toy_split()
    vfeats, vonehot = make_toy_split(n=40, seed=1)
    cfg = TrainConfig(learning_rate=0.05, batch_size=20, max_epochs=200, patience=200, seed=0)
    _, history = train(tiny_mlp(), (None, feats, onehot), (None, vfeats, vonehot), cfg)
    assert max(history.train_accuracy) >= 0.99
    assert len(history) <= 200


def test_loss_decreases_over_first_ten_full_batch_steps():
    feats, onehot = make_toy_split()
    cfg = TrainConfig(learning_rate=0.05, batch_size=feats.shape[0], max_epochs=10,
                      patience=10, seed=0)
    _, history = train(tiny_mlp(), (None, feats, onehot), (None, feats, onehot), cfg)
    assert history.train_loss[9] < history.train_loss[0]


def test_training_history_is_bitwise_deterministic():
    feats, onehot = make_toy_split()
    vfeats, vonehot = make_toy_split(n=40, seed=1)
    cfg = TrainConfig(learning_rate=0.05, batch_size=16, max_epochs=12, patience=12, seed=5)
    _, h1 = train(tiny_mlp(seed=3), (None, feats, onehot), (None, vfeats, vonehot), cfg)
    _, h2 = train(tiny_mlp(seed=3), (None, feats, onehot), (None, vfeats, vonehot), cfg)
    assert h1.train_loss == h2.train_loss
    assert h1.val_loss == h2.val_loss
    assert h1.best_epoch == h2.best_epoch


def test_train_restores_best_parameters():
    # Random labels make validation loss wander, forcing an early stop.
    rng = np.random.default_rng(9)
    feats = rng.normal(size=(60, 2))
    onehot = np.eye(2)[rng.integers(0, 2, size=60)]
    vfeats = rng.normal(size=(30, 2))
    vonehot = np.eye(2)[rng.integers(0, 2, size=30)]
    cfg = TrainConfig(learning_rate=0.1, batch_size=10, max_epochs=100, patience=8, seed=2)
    model, history = train(tiny_mlp(seed=4), (None, feats, onehot), (None, vfeats, vonehot), cfg)
    assert len(history) < 100  # patience fired
    assert history.val_loss[history.best_epoch - 1] == min(history.val_loss)
    logits = model.forward_logits(None, vfeats, training=False)
    loss, _, _ = softmax_crossentropy(logits, vonehot)
    assert abs(loss - min(history.val_loss)) < 1e-12


def test_train_aborts_on_divergence():
    feats, onehot = make_toy_split()
    cfg = TrainConfig(learning_rate=1e200, batch_size=20, max_epochs=10, patience=10, seed=0)
    with pytest.raises(RuntimeError, match="diverged"):
        with np.errstate(all="ignore"):
            train(tiny_mlp(), (None, feats, onehot), (None, feats, onehot), cfg)


def test_train_config_validation():
    with pytest.raises(ValueError):
        config_from_dict({"train": {"patience": 0}})
    with pytest.raises(ValueError):
        TrainConfig(patience=300, max_epochs=200)


def test_model_forward_returns_probability_rows():
    rng = np.random.default_rng(13)
    model = tiny_mlp()
    probs = class_probabilities(model, None, rng.normal(size=(7, 2)))
    assert probs.shape == (7, 2)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert probs.min() >= 0.0


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(17)
    model = Model(
        image_layers=[Conv3x3(1, 2, rng), ReLU(), MaxPool2x2(), Flatten(), Dense(8, 3, rng), ReLU()],
        feature_layers=[Dense(2, 3, rng), ReLU()],
        head_layers=[Dense(6, 5, rng)],
    )
    save_model(model, tmp_path, seed=17, config={"learning_rate": 1e-4})
    loaded, manifest = load_model(tmp_path)
    assert manifest["seed"] == 17
    assert manifest["config"]["learning_rate"] == 1e-4
    images = rng.normal(size=(3, 4, 4, 1))
    feats = rng.normal(size=(3, 2))
    np.testing.assert_array_equal(
        model.forward_logits(images, feats), loaded.forward_logits(images, feats)
    )


def test_model_bin_is_the_per_tensor_concatenation(tmp_path):
    model = build_hybrid(channels=1, seed=6)
    model.params[...] = np.random.default_rng(6).normal(size=model.params.size)
    save_model(model, tmp_path)
    assert (tmp_path / "model.bin").read_bytes() == reference_model_bin(model)


def _drop_last_tensor(manifest):
    manifest["tensors"].pop()


def _shrink_last_bias(manifest):
    manifest["tensors"][-1].update(shape=[1], byte_length=8)


@pytest.mark.parametrize("corrupt, drop", [(_drop_last_tensor, 1), (_shrink_last_bias, 0)],
                         ids=["_drop_last_tensor", "_shrink_last_bias"])
def test_load_model_rejects_a_tensor_table_its_layers_do_not_imply(tmp_path, corrupt, drop):
    # model.bin and total_bytes are cut to match, so only the table is wrong.
    save_model(tiny_mlp(), tmp_path)
    manifest = json.loads((tmp_path / "model.json").read_text())
    corrupt(manifest)
    last = manifest["tensors"][-1]
    manifest["total_bytes"] = last["byte_offset"] + last["byte_length"]
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    blob = (tmp_path / "model.bin").read_bytes()
    (tmp_path / "model.bin").write_bytes(blob[: manifest["total_bytes"]])
    with pytest.raises(ValueError, match=rf"model\.json: tensors\[{len(manifest['tensors']) - 1 + drop}\] must be "
                                         rf"\{{.*\}}, as the layers give it, got (nothing|\{{.*'shape': \[1\].*\}})$"):
        load_model(tmp_path)


def test_load_model_rejects_a_model_bin_of_another_length(tmp_path):
    save_model(tiny_mlp(), tmp_path)
    blob = (tmp_path / "model.bin").read_bytes()
    (tmp_path / "model.bin").write_bytes(blob[:-8])
    with pytest.raises(ValueError, match=rf"model\.bin: {len(blob) - 8} bytes, but model\.json's total_bytes is "
                                         rf"{len(blob)}$"):
        load_model(tmp_path)


def test_load_model_checks_total_bytes_against_the_layers_before_model_bin_against_it(tmp_path):
    save_model(tiny_mlp(), tmp_path)
    size = (tmp_path / "model.bin").stat().st_size
    manifest = json.loads((tmp_path / "model.json").read_text())
    (tmp_path / "model.json").write_text(json.dumps({**manifest, "total_bytes": 16}))
    with pytest.raises(ValueError, match=rf"model\.json: total_bytes must be {size}, the layers' size, got 16$"):
        load_model(tmp_path)


def test_load_model_names_model_json_when_both_branches_are_null(tmp_path):
    save_model(build_cnn_only(channels=1, seed=8), tmp_path)
    manifest = json.loads((tmp_path / "model.json").read_text())
    manifest["layers"]["image_branch"] = None
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"model\.json: layers\.feature_branch must not be null when "
                                         r"layers\.image_branch is$"):
        load_model(tmp_path)


def _edit_head(path, edit):
    manifest = json.loads((path / "model.json").read_text())
    edit(manifest["layers"]["head"])
    (path / "model.json").write_text(json.dumps(manifest))


def test_load_model_drops_the_softmax_that_ends_an_older_head(tmp_path):
    model = build_hybrid(channels=1, seed=8, dtype=np.float64)
    save_model(model, tmp_path)
    _edit_head(tmp_path, lambda head: head.append({"type": "softmax"}))
    loaded, _ = load_model(tmp_path)
    assert [layer.spec() for layer in loaded.head_layers] == model.manifest_layers()["head"]
    rng = np.random.default_rng(8)
    images, feats = rng.random((300, 32, 32, 1)), rng.random((300, 2))
    np.testing.assert_array_equal(loaded.forward_logits(images, feats), model.forward_logits(images, feats))
    np.testing.assert_array_equal(predict_classes(loaded, images, feats), predict_classes(model, images, feats))


def test_load_model_rejects_a_softmax_inside_the_head(tmp_path):
    save_model(build_hybrid(channels=1, seed=8), tmp_path)
    _edit_head(tmp_path, lambda head: head.insert(1, {"type": "softmax"}))
    with pytest.raises(ValueError, match=r"model\.json: layers\.head\[1\]\.type must not be 'softmax', which only "
                                         r"ends an older checkpoint's head$"):
        load_model(tmp_path)


@pytest.mark.parametrize("edit, keys", [
    (lambda spec: spec.pop("out_features"), "['in_features', 'type']"),
    (lambda spec: spec.update(units=8), "['in_features', 'out_features', 'type', 'units']"),
], ids=["missing", "unknown"])
def test_load_model_names_model_json_and_the_layer_of_a_bad_spec(tmp_path, edit, keys):
    save_model(build_hybrid(channels=1, seed=8), tmp_path)
    _edit_head(tmp_path, lambda head: edit(head[0]))
    with pytest.raises(ValueError, match=rf"model\.json: layers\.head\[0\] must have exactly the keys "
                                         rf"\['type', 'in_features', 'out_features'\], got {re.escape(keys)}$"):
        load_model(tmp_path)


def test_load_model_rejects_unknown_format(tmp_path):
    save_model(tiny_mlp(), tmp_path)
    manifest = json.loads((tmp_path / "model.json").read_text())
    manifest["format"] = "vibediag-model-v2"
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=r"model\.json: format must be one of \('vibediag-model-v1',\), "
                                         r"got 'vibediag-model-v2'$"):
        load_model(tmp_path)


_MODEL_KEYS = ["format", "layers", "tensors", "total_bytes", "seed", "config"]


@pytest.mark.parametrize("key", _MODEL_KEYS)
def test_load_model_names_model_json_and_a_missing_top_level_key(tmp_path, key):
    save_model(tiny_mlp(), tmp_path)
    manifest = json.loads((tmp_path / "model.json").read_text())
    del manifest[key]
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"model\.json: the top level must have the keys "
                                         rf"{re.escape(str(_MODEL_KEYS))}, got {re.escape(str(sorted(manifest)))}$"):
        load_model(tmp_path)


@pytest.mark.parametrize("edit, got", [
    (lambda layers: layers.pop("head"), "['feature_branch', 'image_branch']"),
    (lambda layers: layers.update(extra=None), "['extra', 'feature_branch', 'head', 'image_branch']"),
], ids=["missing", "unknown"])
def test_load_model_names_model_json_and_layers_without_the_three_groups(tmp_path, edit, got):
    save_model(tiny_mlp(), tmp_path)
    manifest = json.loads((tmp_path / "model.json").read_text())
    edit(manifest["layers"])
    (tmp_path / "model.json").write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"model\.json: layers must have exactly the keys "
                                         rf"\['image_branch', 'feature_branch', 'head'\], got {re.escape(got)}$"):
        load_model(tmp_path)


def test_history_csv(tmp_path):
    h = History(train_loss=[1.0], train_accuracy=[0.5], val_loss=[2.0], val_accuracy=[0.25], best_epoch=1)
    path = tmp_path / "history.csv"
    h.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc"
    assert lines[1].startswith("1,1.0,0.5,2.0,0.25")
