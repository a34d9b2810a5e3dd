"""In-memory spans and the wrappers that record them around conceptfx calls.

A span is ``[name, start, end, parent, root, count]``: ``parent`` and
``root`` are indices into the span list (-1 for none), so every span of one
benchmark operation shares the operation's root index.  ``count`` is a number
the wrapper reads off the call (tape nodes, masked positions, bytes
written...) or None.

``Instrumentation`` swaps traced wrappers into the conceptfx modules that define
the wrapped functions, so calls made inside the package (the encoder calling
``autodiff.matmul``, ``fit_lda_corpus`` calling ``fit_lda``) are traced too.
The benchmark therefore calls conceptfx through module attributes, never
through names bound at import time.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

NAME, START, END, PARENT, ROOT, COUNT = range(6)


class Tracer:
    """Records nested spans; single-threaded, like the code it wraps."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else idx
        self.spans.append([name, self.clock(), None, parent, root, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, count=None) -> None:
        span = self.spans[idx]
        span[END] = self.clock()
        span[COUNT] = count
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {span[NAME]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes negative.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for idx, s in enumerate(spans):
        start, end = s[START], s[END]
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

# Every autodiff primitive that the encoder, the heads and the losses call.
AUTODIFF_OPS = (
    "embedding", "add", "mul", "scale", "matmul", "layer_norm", "softmax",
    "gelu", "tanh", "dropout", "cross_entropy", "grad_reverse", "reshape",
    "transpose", "gather_positions", "sum_axis", "concat",
)


def _wrap(tracer: Tracer, fn, name, count=None):
    """Traced stand-in for ``fn``; ``name`` is a string or ``f(args, kwargs)``."""
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = open_(name if isinstance(name, str) else name(args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if count is not None:
            tracer.spans[idx][COUNT] = count(args, kwargs, result)
        return result

    return traced


def _arg(args, kwargs, pos, key, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _wrap_backward(tracer: Tracer, record):
    """Wrap ``Tape._record`` so each recorded backward closure is traced."""
    open_, close = tracer.open, tracer.close

    def traced_record(self, out, inputs, backward_fn, op):
        name = f"autodiff.{op}.bwd"

        def traced_backward_fn(g):
            idx = open_(name)
            try:
                return backward_fn(g)
            finally:
                close(idx)

        return record(self, out, inputs, traced_backward_fn, op)

    return traced_record


def _wrap_tape_backward(tracer: Tracer, backward):
    def traced_backward(self, loss):
        idx = tracer.open("autodiff.Tape.backward")
        try:
            return backward(self, loss)
        finally:
            tracer.close(idx, len(self))

    return traced_backward


def _targets():
    """(owner, attribute, wrapper factory) for every traced conceptfx call."""
    from conceptfx import autodiff, checkpoint, optim, topics
    from conceptfx.corpus import bias, io, poms, reviews
    from conceptfx.model import encoder, heads, masking, vocab

    def plain(name, count=None):
        return lambda tracer, fn: _wrap(tracer, fn, name, count)

    def n_examples(args, kwargs, result):
        return len(result.all_examples())

    def file_size(args, kwargs, result):
        return os.path.getsize(_arg(args, kwargs, 0, "path"))

    def token_sweeps(args, kwargs, result):
        docs = _arg(args, kwargs, 0, "docs")
        return sum(len(d) for d in docs) * result.iters

    targets = [
        (poms, "generate_poms_corpus", plain("corpus.generate_poms_corpus", n_examples)),
        (reviews, "generate_review_corpus", plain("corpus.generate_review_corpus", n_examples)),
        (reviews, "apply_ratio_bias", plain("corpus.apply_ratio_bias")),
        (bias, "measure_correlation", plain("corpus.measure_correlation")),
        (io, "write_jsonl", plain("corpus.write_jsonl")),
        (io, "read_jsonl", plain("corpus.read_jsonl")),
        (vocab, "build_vocab", plain("vocab.build_vocab")),
        (vocab, "encode_batch", plain("vocab.encode_batch", lambda a, k, r: r[1])),
        (masking, "mlm_mask", plain("masking.mlm_mask", lambda a, k, r: len(r))),
        (masking, "ima_mask", plain("masking.ima_mask", lambda a, k, r: r.imbalance)),
        (encoder, "init_encoder_params", plain("encoder.init_encoder_params")),
        (encoder, "encoder_forward",
         lambda tracer, fn: _wrap(tracer, fn, lambda a, k: "encoder.encoder_forward."
                                  + _arg(a, k, 3, "mode", "train"))),
        (encoder, "sequence_features", plain("encoder.sequence_features")),
        (heads.HeadSet, "forward",
         lambda tracer, fn: _wrap(tracer, fn, lambda a, k: "heads.forward." + _arg(a, k, 1, "name"))),
        (autodiff.Tape, "backward", _wrap_tape_backward),
        (autodiff.Tape, "_record", _wrap_backward),
        (optim.Adam, "step", plain("optim.Adam.step")),
        (checkpoint, "save_checkpoint", plain("checkpoint.save_checkpoint", file_size)),
        (checkpoint, "load_checkpoint", plain("checkpoint.load_checkpoint")),
        (checkpoint, "checkpoint_hash", plain("checkpoint.checkpoint_hash")),
        (topics, "fit_lda", plain("topics.fit_lda", token_sweeps)),
        (topics, "fit_lda_corpus", plain("topics.fit_lda_corpus")),
        (topics, "assign_topics", plain("topics.assign_topics")),
    ]
    targets += [(autodiff, op, plain(f"autodiff.{op}.fwd")) for op in AUTODIFF_OPS]
    return targets


class Instrumentation:
    """Traced replacements for conceptfx functions, switchable per operation.

    ``Tape._record`` is the one private name touched: wrapping it is how the
    backward closure of each primitive gets its own span without editing
    the package.
    """

    def __init__(self, tracer: Tracer):
        self._swaps = [(owner, attr, getattr(owner, attr), make(tracer, getattr(owner, attr)))
                       for owner, attr, make in _targets()]

    @contextmanager
    def on(self):
        """Traced wrappers in place for the duration of the block."""
        for owner, attr, _, traced in self._swaps:
            setattr(owner, attr, traced)
        try:
            yield
        finally:
            for owner, attr, original, _ in self._swaps:
                setattr(owner, attr, original)
