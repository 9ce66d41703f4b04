"""Spans recorded from outside the program, by wrapping its public callables.

A :class:`Tracer` replaces functions in every ``vibediag`` module namespace
that holds them, methods on classes, and ``forward``/``backward`` on layer
instances. Each call records one span ``[name, start, end, parent, phase,
flops, bytes]`` in memory; nothing is written until :meth:`Tracer.dump`.
The wrapped modules look these names up at call time (``emd.sift`` finds
``find_extrema``, ``cli.main`` finds ``cmd_*``, ``Model._run`` finds
``layer.forward``), so no file under ``src/`` is touched.

:class:`StepClock` is the hook untraced runs keep to time training steps: it
stamps the start of every ``Model.forward_logits`` call, and takes the
yardstick samples that fall inside training and inference.
"""

from __future__ import annotations

import gzip
import sys
import time
import weakref
from contextlib import contextmanager

NAME, START, END, PARENT, PHASE, FLOPS, BYTES = range(7)


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr, value):
        own = vars(owner)
        self._undo.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, value)

    def restore(self):
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)


def patch_everywhere(patches: Patches, fn, replacement) -> None:
    """Replace ``fn`` in every loaded vibediag module that holds it by name."""
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "vibediag" or name.startswith("vibediag.")):
            for key, value in list(vars(module).items()):
                if value is fn:
                    patches.set(module, key, replacement)


class StepClock:
    """Start times of ``Model.forward_logits`` calls, tagged train or eval.

    A training step runs from a training-mode call to the next call of either
    kind, so it spans forward, loss, backward and the Adam update.
    """

    def __init__(self):
        self.calls: list[tuple[float, bool]] = []
        self.patches = Patches()

    @contextmanager
    def installed(self, model_cls, yardstick):
        """Stamp every call, after taking a yardstick sample when one is due."""
        original = model_cls.forward_logits
        calls = self.calls

        def forward_logits(self_, images, features, training=False, rng=None):
            yardstick.due()
            calls.append((time.perf_counter(), training))
            return original(self_, images, features, training=training, rng=rng)

        self.patches.set(model_cls, "forward_logits", forward_logits)
        try:
            yield self
        finally:
            self.patches.restore()

    def steps(self, since: int = 0) -> list[tuple[float, float]]:
        """(start, end) of each training step among calls[since:]."""
        calls = self.calls[since:]
        return [(t, calls[i + 1][0]) for i, (t, training) in enumerate(calls[:-1]) if training]


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "setup"
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.patches = Patches()
        self.instrumented = weakref.WeakSet()  # models whose layers are wrapped

    # -- recording ---------------------------------------------------------

    def _open(self, name, flops=0.0, nbytes=0.0) -> list:
        stack = self._stack
        span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, self.phase, flops, nbytes]
        stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def wrapper(self, fn, name, cost=None):
        """``fn`` recording one span per call; ``cost`` returns (flops, bytes)
        from the call's arguments."""

        def traced(*args, **kwargs):
            span = self._open(name, *(cost(*args, **kwargs) if cost else ()))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------

    def wrap_function(self, module, attr):
        """Wrap ``module.attr`` as span ``<module>.<attr>`` in every vibediag
        namespace that imported it; a name the module lacks is skipped."""
        fn = getattr(module, attr, None)
        if fn is not None:
            short = module.__name__.rsplit(".", 1)[-1]
            patch_everywhere(self.patches, fn, self.wrapper(fn, f"{short}.{attr}"))

    def wrap_method(self, cls, attr, name):
        if attr in vars(cls):
            self.patches.set(cls, attr, self.wrapper(vars(cls)[attr], name))

    def wrap_instance(self, obj, attr, name, cost=None):
        self.patches.set(obj, attr, self.wrapper(getattr(obj, attr), name, cost))

    def restore(self):
        self.patches.restore()
        self.instrumented.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """One span per line: run id, phase, name, start, end, parent index."""
        with gzip.open(path, "wt") as fh:
            fh.write("run_id,phase,name,start_s,end_s,parent\n")
            for s in self.spans:
                fh.write(f"{self.run_id},{s[PHASE]},{s[NAME]},{s[START]!r},{s[END]!r},{s[PARENT]}\n")


# ---------------------------------------------------------------------------
# What is traced


def _conv_cost(layer, backward):
    def cost(x, *args, **kwargs):
        b, h, w, _ = x.shape
        macs = b * h * w * 9 * layer.in_channels * layer.out_channels
        # Forward reads the input and kernels and writes the output; backward
        # computes both the kernel and the input gradient.
        moved = (b * h * w * (layer.in_channels + layer.out_channels)
                 + 9 * layer.in_channels * layer.out_channels) * x.itemsize
        return (4.0 if backward else 2.0) * macs, float(moved)

    return cost


def instrument_model(tracer: Tracer, model) -> None:
    """Wrap forward/backward of each layer instance under an ``nn_engine.*`` name.

    Convolutions and pools are numbered along the image branch; ReLU and
    Dense instances share one name each.
    """
    if model in tracer.instrumented:
        return
    tracer.instrumented.add(model)
    seen: dict[str, int] = {}
    for group in (model.image_layers, model.feature_layers, model.head_layers):
        for layer in group or ():
            kind = type(layer).__name__
            if kind in ("Conv3x3", "MaxPool2x2"):
                short = "conv" if kind == "Conv3x3" else "pool"
                seen[short] = seen.get(short, 0) + 1
                base = f"nn_engine.{short}{seen[short]}"
            else:
                base = f"nn_engine.{kind.lower()}"
            conv = kind == "Conv3x3"
            tracer.wrap_instance(layer, "forward", base + ".fwd",
                                 _conv_cost(layer, False) if conv else None)
            tracer.wrap_instance(layer, "backward", base + ".bwd",
                                 _conv_cost(layer, True) if conv else None)


@contextmanager
def traced_program(tracer: Tracer):
    """Install every wrapper the per-layer metrics read; undo them on exit."""
    from vibediag import (band_features, cli, embedding, emd, hht, hybrid_model,
                          nn_engine, pipeline, segmentation, signal_model)

    for module, attrs in (
        (emd, ("sift", "find_extrema", "spline_envelope")),
        (hht, ("render_spectrum_image", "analytic_signal")),
        (band_features, ("extract_features",)),
        (segmentation, ("segment",)),
        (pipeline, ("featurize_windows",)),
        (signal_model, ("synthesize_recording", "save_recording", "load_recording")),
        (nn_engine, ("train", "softmax_crossentropy", "_batched_eval", "save_model", "load_model")),
        (hybrid_model, ("predict_classes", "save_dataset", "load_dataset", "assign_splits",
                        "evaluate_arrays")),
        (embedding, ("pca_fit", "tsne")),
        (cli, ("write_manifest", "cmd_simulate", "cmd_featurize", "cmd_split", "cmd_train",
               "cmd_eval", "cmd_embed")),
    ):
        for attr in attrs:
            tracer.wrap_function(module, attr)

    tracer.wrap_method(nn_engine.Adam, "step", "nn_engine.adam")
    tracer.wrap_method(nn_engine.Model, "snapshot", "nn_engine.snapshot")
    tracer.wrap_method(nn_engine.Model, "backward", "nn_engine.Model.backward")

    # Layer instances are created inside train/load_model, so they are wrapped
    # the first time their model runs forward.
    traced_forward = tracer.wrapper(nn_engine.Model.forward_logits, "nn_engine.Model.forward_logits")

    def forward_logits(model, *args, **kwargs):
        instrument_model(tracer, model)
        return traced_forward(model, *args, **kwargs)

    tracer.patches.set(nn_engine.Model, "forward_logits", forward_logits)
    try:
        yield tracer
    finally:
        tracer.restore()
