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
a float32 value, and float64 otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg.blas import get_blas_funcs


@dataclass
class TrainConfig:
    learning_rate: float = 1e-4
    batch_size: int = 20
    max_epochs: int = 200
    patience: int = 50
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.learning_rate, self.batch_size, self.max_epochs, self.patience) <= 0:
            raise ValueError("learning_rate, batch_size, max_epochs and patience must be positive")
        if self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")
        if not (0 < self.beta1 < 1 and 0 < self.beta2 < 1 and self.epsilon > 0):
            raise ValueError("invalid Adam constants")


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
    spec_fields = ()  # constructor arguments, recorded in model.json in this order
    input_grad = True
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


def _row_windows(xp: np.ndarray, di: int, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with the ``(b*h*w, 3*c)`` windows of kernel row ``di`` in the
    padded NHWC input ``xp``, columns ordered (kernel column, channel) like
    ``kernels[di].reshape(3*c, -1)``."""
    b, h, w, c = xp.shape[0], xp.shape[1] - 2, xp.shape[2] - 2, xp.shape[3]
    rows = sliding_window_view(xp[:, di : di + h], 3, axis=2)  # (b, h, w, c, 3)
    np.copyto(out.reshape(b, h, w, 3, c), rows.swapaxes(3, 4))
    return out


class Conv3x3(Layer):
    """3x3 stride-1 cross-correlation with one pixel of zero padding (same size).

    Forward and the kernel gradient take one GEMM per kernel row, on a
    ``(b*h*w, 3*cin)`` window matrix of the padded input; the full
    ``9*cin`` im2col matrix is never formed. A training forward keeps all
    three for the backward, ``9*b*h*w*cin`` values (2.2 MB for the hybrid's
    conv1 at batch 20); an eval forward refills one. The input gradient adds
    one product per kernel tap into the padded gradient: at batch 20 that
    measured faster than a per-row GEMM followed by col2im adds, and than
    correlating the output gradient with the flipped kernels.
    """

    kind = "conv3x3"
    spec_fields = ("in_channels", "out_channels")
    param_names = ("kernels", "bias")

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
        dtype = self.kernels.dtype
        xp = np.pad(x.astype(dtype, copy=False), ((0, 0), (1, 1), (1, 1), (0, 0)))
        rows = (b * h * w, 3 * c)
        windows = [np.empty(rows, dtype) for _ in range(3)] if training else [np.empty(rows, dtype)] * 3
        out = np.empty((b * h * w, self.out_channels), dtype)
        out[...] = self.bias
        # out += windows @ kernels[di], accumulated in place by BLAS gemm
        # (beta=1) on the column-major transposes of the row-major arrays.
        gemm = get_blas_funcs("gemm", (out,))
        for di in range(3):
            gemm(1.0, self.kernels[di].reshape(3 * c, -1).T, _row_windows(xp, di, windows[di]).T,
                 beta=1.0, c=out.T, overwrite_c=True)
        self._cache = windows if training else None
        return out.reshape(b, h, w, self.out_channels)

    def backward(self, grad):
        windows = self._saved()
        b, h, w, _ = grad.shape
        gm = grad.reshape(-1, self.out_channels)
        gm.sum(axis=0, out=self.d_bias)
        d_rows = self.d_kernels.reshape(3, 3 * self.in_channels, -1)
        for di in range(3):
            np.matmul(windows[di].T, gm, out=d_rows[di])
        if not self.input_grad:
            return None
        dxp = np.zeros((b, h + 2, w + 2, self.in_channels), self.kernels.dtype)
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
    the forward does not copy the input. ``np.maximum`` returns its second
    operand on ties, so ordering the operands keeps the earlier corner's
    value, sign of zero included. A training forward keeps the flat input
    index of each block's winner, one ``intp`` per output (655 KB for the
    hybrid's pool1 at batch 20), and ``backward`` scatters to them.
    """

    kind = "maxpool2x2"

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
            corner = np.where(bottom > top, (q11 > q10) + np.uint8(2), q01 > q00)
            self._cache = np.take((0, c, w * c, w * c + c), corner) + _block_origins(x.shape), x.shape
        return np.maximum(bottom, top)

    def backward(self, grad):
        winners, in_shape = self._saved()
        dx = np.zeros(in_shape, grad.dtype)
        dx.reshape(-1)[winners] = grad
        return dx


class Flatten(Layer):
    kind = "flatten"

    def forward(self, x, training=False, rng=None):
        self._cache = x.shape if training else None
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._saved())


class Dense(Layer):
    kind = "dense"
    spec_fields = ("in_features", "out_features")
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

    def forward(self, x, training=False, rng=None):
        self._cache = x > 0 if training else None
        return np.maximum(x, 0.0)

    def backward(self, grad):
        return grad * self._saved()


class Dropout(Layer):
    """Inverted dropout: survivors are scaled by 1/(1-rate); identity in eval mode."""

    kind = "dropout"
    spec_fields = ("rate",)

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
    """One Adam update, pure-functional: returns (param', m', v')."""
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
        cfg = self.config
        self.t += 1
        params[...], self.m, self.v = adam_step(
            params, grads, self.m, self.v, self.t, learning_rate=cfg.learning_rate,
            beta1=cfg.beta1, beta2=cfg.beta2, epsilon=cfg.epsilon,
        )


# The layer groups of model.json, in ``Model`` argument order.
_GROUP_KEYS = ("image_branch", "feature_branch", "head")


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

    def _run(self, layers, x, training, rng):
        for layer in layers:
            x = layer.forward(x, training=training, rng=rng)
        return x

    def forward_logits(self, images, features, training=False, rng=None):
        ran, parts = [], []
        for name, layers, x in zip(("image", "feature"), self.branches, (images, features)):
            if layers is None:
                continue
            if x is None:
                raise ValueError(f"the model's {name} branch needs {name}s, but none were given")
            ran.append(layers)
            parts.append(self._run(layers, np.asarray(x, self.dtype), training, rng))
        self._merged = ran, np.cumsum([part.shape[1] for part in parts])[:-1]
        merged = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)
        return self._run(self.head_layers, merged, training, rng)

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
    float32 value, as a float32 model saves, and float64 otherwise. ValueError, naming the
    file, on an unknown format, a missing top-level key, an unknown layer type, a layer spec
    with missing or unknown keys, a tensor table its layers do not imply, or a wrong length.
    A parameter-free ``softmax`` that ends an older checkpoint's head is dropped: the head
    ends at its logits."""
    in_dir = Path(in_dir)
    json_path = in_dir / "model.json"
    manifest = json.loads(json_path.read_text())
    if manifest.get("format") != MODEL_FORMAT:
        raise ValueError(f"{json_path}: format {manifest.get('format')!r} is not {MODEL_FORMAT!r}")
    for key in ("layers", "tensors", "total_bytes"):
        if key not in manifest:
            raise ValueError(f"{json_path}: no top-level key {key!r}")
    layers = manifest["layers"]
    if layers["head"] and layers["head"][-1] == {"type": "softmax"}:
        layers = {**layers, "head": layers["head"][:-1]}
    kinds = {spec.get("type") for group in layers.values() if group for spec in group}
    if not kinds <= _LAYER_TYPES.keys():
        raise ValueError(f"{json_path}: unknown layer types {sorted(kinds - _LAYER_TYPES.keys(), key=str)}")
    for key, group in layers.items():
        for i, spec in enumerate(group or ()):
            want = {"type", *_LAYER_TYPES[spec["type"]].spec_fields}
            if spec.keys() != want:
                raise ValueError(f"{json_path}: {key} layer {i} ({spec['type']}) has keys {sorted(spec)}, "
                                 f"not {sorted(want)}")
    blob = (in_dir / "model.bin").read_bytes()
    values = np.frombuffer(blob, dtype="<f8", count=len(blob) // 8)
    with np.errstate(over="ignore"):  # beyond float32's range casts to inf: not equal, float64
        exact32 = np.array_equal(values, values.astype(np.float32))
    model = model_from_manifest_layers(layers, np.float32 if exact32 else np.float64)
    if manifest["tensors"] != _tensor_table(model):
        raise ValueError(f"{json_path}: tensor table does not match the layers it lists")
    if not len(blob) == manifest["total_bytes"] == 8 * model.params.size:
        raise ValueError(f"{in_dir / 'model.bin'}: {len(blob)} bytes, but the manifest needs "
                         f"{8 * model.params.size}")
    model.params[...] = values
    return model, manifest


def _rows(array, rows):
    return None if array is None else array[rows]


EVAL_CHUNK = 256  # rows per eval-mode forward


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
