"""Minimal from-scratch neural network engine on numpy arrays.

Layers keep NHWC layout (batch, height, width, channels) and implement
exact backward passes; training uses Adam with early stopping on
validation loss and best-parameter restore. A ``Model`` keeps all its
parameters in one flat array and all its gradients in another: every
layer's tensors are views into them, so Adam updates, snapshots and
checkpoint I/O each touch one array. Layers build float64 and the
``Model`` casts them to its dtype, at which it computes, as a single
deterministic sequence: the hybrid builders make float32 models, so
training runs at float32, and ``model.bin`` holds their float64 upcasts,
which are exact. ``load_model`` builds float32 when every stored value is
a float32 value, and float64 otherwise. The conv's GEMMs run through scipy's
BLAS ``gemm``, whose lookup, ``scipy.linalg.blas.get_blas_funcs``, is bound
on the first conv forward and kept in a module-level reference, so that
importing the CLI does not load ``scipy.linalg`` (about 170 ms).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from vibediag.signal_model import NOT_READ, OrNull, read_json


@dataclass
class TrainConfig:
    learning_rate: float = field(default=1e-4, metadata={"gt": 0})
    batch_size: int = field(default=20, metadata={"gt": 0})
    max_epochs: int = field(default=200, metadata={"gt": 0})
    patience: int = field(default=50, metadata={"gt": 0})
    seed: int = field(default=0, metadata={"min": 0})

    def __post_init__(self) -> None:
        """The one rule across two fields; each field's own bound is in its metadata."""
        if self.patience > self.max_epochs:
            raise ValueError(f"config field train.patience must be <= train.max_epochs ({self.max_epochs}), "
                             f"got {self.patience}")


@dataclass
class History:
    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based

    def __len__(self) -> int:
        return len(self.train_loss)

    def to_csv(self, path) -> None:
        lines = ["epoch,train_loss,train_acc,val_loss,val_acc"]
        for i in range(len(self)):
            lines.append(
                f"{i + 1},{self.train_loss[i]!r},{self.train_accuracy[i]!r},"
                f"{self.val_loss[i]!r},{self.val_accuracy[i]!r}"
            )
        Path(path).write_text("\n".join(lines) + "\n")


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


_WIDTH = (int, {"min": 1})  # a layer's channel or feature count, as model.json declares it


class Layer:
    """Shared layer protocol.

    ``forward(x, training, rng)`` keeps what ``backward(grad)`` needs only
    when ``training`` is true; an eval forward drops it. ``Model`` clears
    ``input_grad`` on the first layer of each branch, whose input gradient
    nothing consumes; layers with parameters then return None from
    ``backward``. ``backward`` writes each gradient into ``d_<name>`` in
    place: inside a ``Model`` that array is a view into ``Model.grads``.
    """

    kind = ""  # the layer's ``type`` in model.json
    spec_fields = {}  # constructor arguments, recorded in model.json in this order, each with its declaration
    input_grad = True
    # Whether an eval forward gives each output row the same bits, however the batch around it is split:
    # ``Model`` then runs the leading such layers of a branch over blocks of ``EVAL_BLOCK`` rows.
    row_independent = False
    param_names = ()  # parameter attributes; each has a gradient ``d_<name>``
    _cache = None

    def spec(self) -> dict:
        return {"type": self.kind, **{name: getattr(self, name) for name in self.spec_fields}}

    def _saved(self):
        if self._cache is None:
            raise RuntimeError(f"{type(self).__name__}.backward needs a training-mode forward first")
        return self._cache

    def params(self):
        return [(name, getattr(self, name)) for name in self.param_names]

    def grads(self):
        return [getattr(self, "d_" + name) for name in self.param_names]


def _column_windows(x: np.ndarray, dtype, rows: int) -> np.ndarray:
    """A ``(rows, 3*c)`` array whose first ``b*(h+2)*w`` rows are the column
    windows of the zero-padded NHWC input ``x``: image ``i``'s padded row
    ``r``, from column ``j`` on, in row ``(i*(h+2) + r)*w + j``, its three
    pixels ordered (kernel column, channel) like ``kernels[di].reshape(3*c,
    -1)``. The other rows are zero."""
    b, h, w, c = x.shape
    xp = np.zeros((b, h + 2, w + 2, c), dtype)
    xp[:, 1:-1, 1:-1] = x
    size = b * (h + 2) * w
    tall = np.empty((rows, 3 * c), dtype)
    tall[size:] = 0.0
    # Window j of a padded row is its 3*c contiguous values from column j.
    np.copyto(tall[:size].reshape(b, h + 2, w, 3 * c),
              sliding_window_view(xp.reshape(b, h + 2, -1), 3 * c, axis=2)[:, :, ::c])
    return tall


# A BLAS gemm computes the rows of its output (columns, in its column-major view) in blocks counted
# from its first row, and the rows of a last partial block by other kernels, whose sums can round
# differently: OpenBLAS's Haswell sgemm and dgemm use blocks of 4. On a SkylakeX core (numpy's OpenBLAS
# 0.3.31, scipy's 0.3.30) the conv tests keep the reference's bits with blocks of 4 or 8, not 2 or 1.
# Conv3x3 runs its gemms over whole blocks of 16 rows, so on any kernel whose block size divides 16
# every output row has the bits of a row inside a whole block, whatever its batch.
_ROW_BLOCK = 16
# scipy.linalg.blas.get_blas_funcs once bound by _bind_get_blas_funcs.
_get_blas_funcs = None


def _bind_get_blas_funcs():
    global _get_blas_funcs
    from scipy.linalg.blas import get_blas_funcs as _get_blas_funcs
    return _get_blas_funcs


class Conv3x3(Layer):
    """3x3 stride-1 cross-correlation with one pixel of zero padding (same size).

    The forward makes one copy of the padded input, the ``(b, h+2, w, 3*cin)``
    column-window array of ``_column_windows``. Read as one tall image of
    ``b*(h+2)`` rows, the window matrix of kernel row ``di`` is the row slice
    of that array that starts ``di*w`` rows down, so the forward is three
    GEMMs on contiguous slices, with no further copy; the full ``9*cin``
    im2col matrix is never formed. Each image's last two tall rows straddle
    the next image; they are computed and dropped, and the output is a view
    that skips them. A training forward keeps the array, ``3*b*(h+2)*w*cin``
    values (783 KB for the hybrid's conv1 at batch 20, at float32); an eval
    forward drops it. The kernel gradient takes one GEMM per kernel row on a
    block copy of that row's ``(b*h*w, 3*cin)`` windows. The input gradient
    adds one product per kernel tap into the padded gradient: at batch 20
    that measured faster than a per-row GEMM followed by col2im adds, and
    than correlating the output gradient with the flipped kernels.
    """

    kind = "conv3x3"
    spec_fields = {"in_channels": _WIDTH, "out_channels": _WIDTH}
    param_names = ("kernels", "bias")
    row_independent = True  # every tall row is inside a whole block of _ROW_BLOCK rows

    def __init__(self, in_channels: int, out_channels: int, rng: np.random.Generator):
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernels = glorot_uniform(rng, (3, 3, in_channels, out_channels), 9 * in_channels, 9 * out_channels)
        self.bias = np.zeros(out_channels)
        self.d_kernels = np.zeros_like(self.kernels)
        self.d_bias = np.zeros_like(self.bias)

    def forward(self, x, training=False, rng=None):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ValueError(f"expected (b,h,w,{self.in_channels}) input, got {x.shape}")
        b, h, w, c = x.shape
        size = b * (h + 2) * w  # rows of the tall image
        span = -(-(size - 2 * w) // _ROW_BLOCK) * _ROW_BLOCK  # through its last output row, in whole blocks
        tall = _column_windows(x, self.kernels.dtype, span + 2 * w)
        out = np.empty((span + 2 * w, self.out_channels), tall.dtype)
        out[:span] = self.bias
        # Each kernel row adds its windows @ kernels[di] in place: BLAS gemm
        # (beta=1) on the column-major transposes of the row-major arrays.
        gemm = (_get_blas_funcs or _bind_get_blas_funcs())("gemm", (out,))
        for di in range(3):
            gemm(1.0, self.kernels[di].reshape(-1, self.out_channels).T, tall[di * w : di * w + span].T,
                 beta=1.0, c=out[:span].T, overwrite_c=True)
        self._cache = tall[:size].reshape(b, h + 2, w, 3 * c) if training else None
        return out[:size].reshape(b, h + 2, w, self.out_channels)[:, :h]

    def backward(self, grad):
        cols = self._saved()
        b, h, w, _ = grad.shape
        c = self.in_channels
        gm = grad.reshape(-1, self.out_channels)
        # einsum sums each column in row order, as sum does, with a faster loop; at width 1 its
        # contiguous path sums in another order.
        if self.out_channels > 1:
            np.einsum("ij->j", gm, out=self.d_bias)
        else:
            gm.sum(axis=0, out=self.d_bias)
        d_rows = self.d_kernels.reshape(3, 3 * c, -1)
        for di in range(3):
            np.matmul(cols[:, di : di + h].reshape(-1, 3 * c).T, gm, out=d_rows[di])
        if not self.input_grad:
            return None
        dxp = np.zeros((b, h + 2, w + 2, c), self.kernels.dtype)
        for di in range(3):
            for dj in range(3):
                dxp[:, di : di + h, dj : dj + w, :] += (gm @ self.kernels[di, dj].T).reshape(b, h, w, -1)
        return dxp[:, 1 : 1 + h, 1 : 1 + w, :]


@lru_cache(maxsize=8)
def _block_origins(shape) -> np.ndarray:
    """Flat index, into an NHWC array of ``shape``, of the top-left element of each 2x2 block."""
    origins = np.arange(np.prod(shape)).reshape(shape)[:, ::2, ::2].copy()
    origins.flags.writeable = False
    return origins


class MaxPool2x2(Layer):
    """2x2 max pooling; the gradient flows to the first maximal element of a block.

    The four corners of every block are strided views of one reshape, so
    the forward does not copy the input, which may itself be a strided view.
    ``np.maximum`` returns its second operand on ties, so ordering the
    operands keeps the earlier corner's value, sign of zero included. A
    training forward finds each block's winning corner from three
    comparisons with bool operations, and keeps the flat input index of each
    winner, one ``intp`` per output (655 KB for the hybrid's pool1 at batch
    20); ``backward`` scatters to them.
    """

    kind = "maxpool2x2"
    row_independent = True

    def forward(self, x, training=False, rng=None):
        b, h, w, c = x.shape
        if h % 2 or w % 2:
            raise ValueError(f"spatial dims must be even, got {x.shape}")
        q = x.reshape(b, h // 2, 2, w // 2, 2, c)
        q00, q01, q10, q11 = q[:, :, 0, :, 0], q[:, :, 0, :, 1], q[:, :, 1, :, 0], q[:, :, 1, :, 1]
        top, bottom = np.maximum(q01, q00), np.maximum(q11, q10)
        self._cache = None
        if training:
            # A later corner wins only when strictly greater: the first maximum.
            # Bit 0 of the winning corner is the right column and bit 1 the
            # bottom row; bool operations pick the right bit of the winning row.
            low, right_top = bottom > top, q01 > q00
            right = right_top ^ (low & ((q11 > q10) ^ right_top))
            corner = right.view(np.uint8) + (low.view(np.uint8) << 1)
            self._cache = np.take((0, c, w * c, w * c + c), corner) + _block_origins(x.shape), x.shape
        return np.maximum(bottom, top)

    def backward(self, grad):
        winners, in_shape = self._saved()
        dx = np.zeros(in_shape, grad.dtype)
        dx.reshape(-1)[winners] = grad
        return dx


class Flatten(Layer):
    kind = "flatten"
    row_independent = True

    def forward(self, x, training=False, rng=None):
        self._cache = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._saved())


class Dense(Layer):
    kind = "dense"
    spec_fields = {"in_features": _WIDTH, "out_features": _WIDTH}
    param_names = ("weights", "bias")

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.in_features = in_features
        self.out_features = out_features
        self.weights = glorot_uniform(rng, (in_features, out_features), in_features, out_features)
        self.bias = np.zeros(out_features)
        self.d_weights = np.zeros_like(self.weights)
        self.d_bias = np.zeros_like(self.bias)

    def forward(self, x, training=False, rng=None):
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(f"expected (b,{self.in_features}) input, got {x.shape}")
        self._cache = x if training else None
        return x @ self.weights + self.bias

    def backward(self, grad):
        np.matmul(self._saved().T, grad, out=self.d_weights)
        grad.sum(axis=0, out=self.d_bias)
        return grad @ self.weights.T if self.input_grad else None


class ReLU(Layer):
    kind = "relu"
    row_independent = True

    def forward(self, x, training=False, rng=None):
        self._cache = x > 0 if training else None
        return np.maximum(x, 0.0)

    def backward(self, grad):
        return grad * self._saved()


class Dropout(Layer):
    """Inverted dropout: survivors are scaled by 1/(1-rate); identity in eval mode."""

    kind = "dropout"
    spec_fields = {"rate": (float, {"min": 0, "lt": 1})}
    row_independent = True

    def __init__(self, rate: float = 0.5):
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate

    def forward(self, x, training=False, rng=None):
        if not training or self.rate == 0.0:
            self._cache = 1.0 if training else None  # the scale of every survivor
            return x
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        keep = rng.random(x.shape) >= self.rate
        self._cache = np.divide(keep, 1.0 - self.rate, dtype=x.dtype)
        return x * self._cache

    def backward(self, grad):
        return grad * self._saved()


_LAYER_TYPES = {cls.kind: cls for cls in (Conv3x3, MaxPool2x2, Flatten, Dense, ReLU, Dropout)}


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-probabilities by the max-shifted log-sum-exp."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_crossentropy(logits: np.ndarray, onehot: np.ndarray):
    """Mean categorical cross entropy over the batch.

    Returns (loss, probabilities, gradient w.r.t. logits); the gradient is
    (p - y) / batch so that backpropagating it yields the gradient of the
    mean loss.
    """
    if logits.shape != onehot.shape:
        raise ValueError("logits and targets must have the same shape")
    rows = onehot.sum(axis=1)
    if not (np.allclose(rows, 1.0) and np.all((onehot == 0) | (onehot == 1))):
        raise ValueError("targets must be one-hot")
    onehot = onehot.astype(logits.dtype, copy=False)
    log_p = _log_softmax(logits)
    loss = float(-(onehot * log_p).sum(axis=1).mean())
    probs = np.exp(log_p)
    grad = (probs - onehot) / logits.shape[0]
    return loss, probs, grad


def adam_step(param, grad, m, v, t, *, learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-7):
    """One Adam update, pure-functional: returns (param', m', v'). Training runs at the
    keyword defaults of ``beta1``, ``beta2`` and ``epsilon``."""
    if t < 1:
        raise ValueError("t must be >= 1")
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad * grad
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    return param - learning_rate * m_hat / (np.sqrt(v_hat) + epsilon), m, v


class Adam:
    """:func:`adam_step` applied in place to one flat parameter array."""

    def __init__(self, params: np.ndarray, config: TrainConfig):
        self.config = config
        self.t = 0
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        self.t += 1
        params[...], self.m, self.v = adam_step(params, grads, self.m, self.v, self.t,
                                                learning_rate=self.config.learning_rate)


# The layer groups of model.json, in ``Model`` argument order.
_GROUP_KEYS = ("image_branch", "feature_branch", "head")

# Rows per eval-mode forward. ``Dense`` is the one layer whose bits depend on the row count (by up
# to 3.9e-7 at 48 rows or fewer), so this fixes the bits of every eval logit.
EVAL_CHUNK = 256
# Rows per block of an eval forward's leading row-independent layers. At float32 the hybrid's conv1
# output is 17.8 MB at 256 rows, past a 2 MiB L2, and 2.2 MB at 32. With one BLAS thread on a 2-core
# Xeon VM, the image branch's 256-row forward took a median of 46.2 ms unblocked, 37.7 ms in blocks
# of 32 and 36.6-38.2 ms in blocks of 8 to 64.
EVAL_BLOCK = 32


class Model:
    """Optional image and feature branches merged by concatenation into a head.

    The head ends at a linear layer, so ``forward_logits`` returns logits;
    ``softmax_crossentropy`` turns them into class probabilities and the
    training loss with one ``_log_softmax``.
    A missing branch means the corresponding input is ignored entirely.

    The model owns its precision: ``params`` and ``grads`` hold every
    parameter and gradient at ``dtype``, in layer order, flattened
    row-major; each layer's tensors become views into them, with the values
    the layers were built with, cast to ``dtype``.
    """

    def __init__(self, image_layers, feature_layers, head_layers, dtype=np.float64):
        if image_layers is None and feature_layers is None:
            raise ValueError("model needs at least one input branch")
        self.image_layers = image_layers
        self.feature_layers = feature_layers
        self.head_layers = head_layers
        self.dtype = dtype
        self._merged = ((), ())  # the branches the last forward ran, and where their outputs meet
        for branch in self.branches:
            if branch:
                branch[0].input_grad = False
        owned = [(layer, name) for layer in self._all_layers() for name in layer.param_names]
        values = [getattr(layer, name) for layer, name in owned]
        self.params = np.concatenate([v.ravel() for v in values], dtype=dtype)
        self.grads = np.zeros_like(self.params)
        offset = 0
        for (layer, name), value in zip(owned, values):
            view = slice(offset, offset + value.size)
            setattr(layer, name, self.params[view].reshape(value.shape))
            setattr(layer, "d_" + name, self.grads[view].reshape(value.shape))
            offset = view.stop

    @property
    def branches(self):
        """``(image_layers, feature_layers)``, the order of the inputs and of the merge."""
        return self.image_layers, self.feature_layers

    def used_inputs(self, images, features):
        """``(images, features)``, each replaced by None when its branch is missing."""
        return tuple(None if layers is None else x for layers, x in zip(self.branches, (images, features)))

    def _run(self, layers, x, training, rng, shapes):
        """``layers`` over ``x``. An eval forward of more than ``EVAL_BLOCK`` rows runs the leading
        row-independent layers one block of rows at a time, and the rest once over every row.
        ``shapes``, unless None, collects each layer's kind and output shape past the batch axis."""
        lead = 0
        if not training and len(x) > EVAL_BLOCK:
            lead = next((i for i, layer in enumerate(layers) if not layer.row_independent), len(layers))
        if lead:
            x = np.concatenate([self._run(layers[:lead], x[lo : lo + EVAL_BLOCK], training, rng,
                                          shapes if lo == 0 else None)
                                for lo in range(0, len(x), EVAL_BLOCK)])
        for layer in layers[lead:]:
            x = layer.forward(x, training=training, rng=rng)
            if shapes is not None:
                shapes.append((layer.kind, x.shape[1:]))
        return x

    def _forward(self, images, features, training, rng, shapes):
        ran, parts = [], []
        for name, layers, x in zip(("image", "feature"), self.branches, (images, features)):
            if layers is None:
                continue
            if x is None:
                raise ValueError(f"the model's {name} branch needs {name}s, but none were given")
            ran.append(layers)
            parts.append(self._run(layers, np.asarray(x, self.dtype), training, rng,
                                   None if shapes is None else shapes.setdefault(name, [])))
        self._merged = ran, np.cumsum([part.shape[1] for part in parts])[:-1]
        merged = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        return self._run(self.head_layers, merged, training, rng,
                         None if shapes is None else shapes.setdefault("head", []))

    def forward_logits(self, images, features, training=False, rng=None):
        return self._forward(images, features, training, rng, None)

    def layer_shapes(self, images, features) -> dict:
        """``{"image", "feature", "head"}`` -> each layer's (kind, output shape past the batch axis)
        in an eval forward of ``images`` and ``features``; a missing branch has no key."""
        shapes = {}
        self._forward(images, features, False, None, shapes)
        return shapes

    def backward(self, dlogits):
        grad = dlogits
        for layer in reversed(self.head_layers):
            grad = layer.backward(grad)
        ran, split_at = self._merged
        for layers, g in zip(ran, np.split(grad, split_at, axis=1)):
            for layer in reversed(layers):
                g = layer.backward(g)

    def _all_layers(self):
        for group in (*self.branches, self.head_layers):
            yield from group or ()

    def snapshot(self) -> np.ndarray:
        return self.params.copy()

    def restore(self, snapshot: np.ndarray) -> None:
        self.params[...] = snapshot

    def manifest_layers(self) -> dict:
        groups = (*self.branches, self.head_layers)
        return {key: None if group is None else [layer.spec() for layer in group]
                for key, group in zip(_GROUP_KEYS, groups)}


def _build_group(specs, rng):
    def build(cls, spec):
        args = {name: spec[name] for name in cls.spec_fields}
        return cls(**args, rng=rng) if cls.param_names else cls(**args)

    return None if specs is None else [build(_LAYER_TYPES[spec["type"]], spec) for spec in specs]


def model_from_manifest_layers(layer_groups: dict, dtype=np.float64) -> Model:
    rng = np.random.default_rng(0)  # placeholder values, overwritten on load
    return Model(*(_build_group(layer_groups[key], rng) for key in _GROUP_KEYS), dtype=dtype)


MODEL_FORMAT = "vibediag-model-v1"


def _tensor_table(model: Model) -> list[dict]:
    """Where each tensor lies in ``model.bin``, which is ``model.params`` as little-endian float64."""
    table, offset = [], 0
    for layer_idx, layer in enumerate(model._all_layers()):
        for name, array in layer.params():
            table.append({"layer_index": layer_idx, "name": name, "shape": list(array.shape),
                          "byte_offset": offset, "byte_length": 8 * array.size})
            offset += 8 * array.size
    return table


def _layer_spec(spec) -> dict:
    """The declaration of one layer spec of model.json: the fields of the type it names. The head of an older
    checkpoint ends in a parameter-free ``softmax``, which load_model drops."""
    fields = {**{kind: cls.spec_fields for kind, cls in _LAYER_TYPES.items()}, "softmax": {}}
    kind = spec.get("type") if isinstance(spec, dict) else None
    named = fields.get(kind) if isinstance(kind, str) else None
    return {"type": (str, {"in": tuple(fields)}), **({...: NOT_READ} if named is None else named)}


# The model.json that save_model writes, as load_model reads it (see signal_model.check_document).
_COUNT = (int, {"min": 0})
MODEL_JSON = {
    "format": (str, {"in": (MODEL_FORMAT,)}),
    "layers": {"image_branch": OrNull([_layer_spec]), "feature_branch": OrNull([_layer_spec]), "head": [_layer_spec]},
    "tensors": [{"layer_index": _COUNT, "name": str, "shape": [_WIDTH], "byte_offset": _COUNT, "byte_length": _COUNT}],
    "total_bytes": _COUNT,
    "seed": (int | None, {"min": 0}),
    "config": OrNull({...: NOT_READ}),  # the train config echo; eval compares its dataset_sha256, if any
    ...: NOT_READ,
}


def save_model(model: Model, out_dir, seed: int | None = None, config: dict | None = None) -> None:
    """Write ``model.json`` (manifest with the tensor table) and ``model.bin`` (parameters)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "format": MODEL_FORMAT,
        "layers": model.manifest_layers(),
        "tensors": _tensor_table(model),
        "total_bytes": 8 * model.params.size,
        "seed": seed,
        "config": config,
    }
    (out_dir / "model.json").write_text(json.dumps(manifest, indent=2) + "\n")
    (out_dir / "model.bin").write_bytes(model.params.astype("<f8", copy=False).tobytes())


def load_model(in_dir) -> tuple[Model, dict]:
    """A model from ``model.json`` and ``model.bin``: float32 when every stored value is a
    float32 value, as a float32 model saves, and float64 otherwise. ``model.json`` must meet
    :data:`MODEL_JSON`; beyond that, a ValueError naming the file rejects two null branches, a
    ``softmax`` layer anywhere but at the end of the head, a tensor table other than the one its
    layers give, a ``total_bytes`` other than their size and a ``model.bin`` of another length.
    A parameter-free ``softmax`` that ends an older checkpoint's head is dropped: the head
    ends at its logits."""
    in_dir = Path(in_dir)
    json_path = in_dir / "model.json"
    manifest = read_json(json_path, MODEL_JSON)
    layers = manifest["layers"]
    if layers["head"][-1:] == [{"type": "softmax"}]:
        layers = {**layers, "head": layers["head"][:-1]}
    if layers["image_branch"] is layers["feature_branch"] is None:
        raise ValueError(f"{json_path}: layers.feature_branch must not be null when layers.image_branch is")
    inner = [f"layers.{key}[{i}]" for key, group in layers.items() for i, spec in enumerate(group or ())
             if spec["type"] == "softmax"]
    if inner:
        raise ValueError(f"{json_path}: {inner[0]}.type must not be 'softmax', which only ends an older "
                         f"checkpoint's head")
    blob = (in_dir / "model.bin").read_bytes()
    values = np.frombuffer(blob, dtype="<f8", count=len(blob) // 8)
    with np.errstate(over="ignore"):  # beyond float32's range casts to inf: not equal, float64
        exact32 = np.array_equal(values, values.astype(np.float32))
    model = model_from_manifest_layers(layers, np.float32 if exact32 else np.float64)
    for i, (row, want) in enumerate(itertools.zip_longest(manifest["tensors"], _tensor_table(model),
                                                          fillvalue="nothing")):
        if row != want:
            raise ValueError(f"{json_path}: tensors[{i}] must be {want}, as the layers give it, got {row}")
    size = 8 * model.params.size
    if manifest["total_bytes"] != size:
        raise ValueError(f"{json_path}: total_bytes must be {size}, the layers' size, got {manifest['total_bytes']}")
    if len(blob) != size:
        raise ValueError(f"{in_dir / 'model.bin'}: {len(blob)} bytes, but model.json's total_bytes is {size}")
    model.params[...] = values
    return model, manifest


def _rows(array, rows):
    return None if array is None else array[rows]


def eval_logits(model: Model, images, features, n: int):
    """Yield ``(rows, logits)`` of eval-mode forwards over ``n`` rows, ``EVAL_CHUNK`` rows at a time."""
    images, features = model.used_inputs(images, features)
    for lo in range(0, n, EVAL_CHUNK):
        rows = slice(lo, min(lo + EVAL_CHUNK, n))
        yield rows, model.forward_logits(_rows(images, rows), _rows(features, rows), training=False)


def _batched_eval(model: Model, images, features, onehot):
    n = onehot.shape[0]
    total_loss = 0.0
    correct = 0
    for rows, logits in eval_logits(model, images, features, n):
        loss, probs, _ = softmax_crossentropy(logits, onehot[rows])
        total_loss += loss * logits.shape[0]
        correct += int((probs.argmax(axis=1) == onehot[rows].argmax(axis=1)).sum())
    return total_loss / n, correct / n


def train(model: Model, train_data, val_data, config: TrainConfig) -> tuple[Model, History]:
    """Train with Adam, early stopping on validation loss, best-model restore.

    ``train_data`` and ``val_data`` are (images, features, onehot) triples;
    an input not consumed by the model is dropped here, once, and may be
    None. The last partial minibatch is kept. Raises RuntimeError on
    non-finite loss.
    """
    images, features, onehot = train_data
    images, features = model.used_inputs(images, features)
    n = onehot.shape[0]
    if n == 0 or val_data[2].shape[0] == 0:
        raise ValueError("training and validation splits must be non-empty")

    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.params, config)
    history = History()
    best_loss = np.inf
    best_params = model.snapshot()
    epochs_since_best = 0

    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        for lo in range(0, n, config.batch_size):
            idx = order[lo : lo + config.batch_size]
            logits = model.forward_logits(_rows(images, idx), _rows(features, idx), training=True, rng=rng)
            loss, probs, dlogits = softmax_crossentropy(logits, onehot[idx])
            if not np.isfinite(loss):
                raise RuntimeError(f"training diverged: non-finite loss at epoch {epoch}")
            model.backward(dlogits)
            optimizer.step(model.params, model.grads)
            epoch_loss += loss * idx.size
            epoch_correct += int((probs.argmax(axis=1) == onehot[idx].argmax(axis=1)).sum())

        val_loss, val_acc = _batched_eval(model, *val_data)
        if not np.isfinite(val_loss):
            raise RuntimeError(f"training diverged: non-finite validation loss at epoch {epoch}")
        history.train_loss.append(epoch_loss / n)
        history.train_accuracy.append(epoch_correct / n)
        history.val_loss.append(val_loss)
        history.val_accuracy.append(val_acc)

        if val_loss < best_loss:
            best_loss = val_loss
            best_params = model.snapshot()
            history.best_epoch = epoch
            epochs_since_best = 0
        else:
            epochs_since_best += 1
            if epochs_since_best >= config.patience:
                break

    model.restore(best_params)
    return model, history
