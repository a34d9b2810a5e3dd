"""Minimal dense-tensor reverse-mode automatic differentiation.

Provides exactly the primitives the encoder and its heads need: matmul, add,
elementwise mul, embedding gather, layer norm, softmax, GELU (tanh
approximation, fixed), dropout with a counter-based RNG stream (the identity
at ``p == 0``), mean cross entropy over all rows (no ignore index: an MLM loss
takes the ``gather_positions`` rows of the masked positions), plus a
gradient-reversal node whose forward pass is the identity and whose backward
pass multiplies the upstream gradient by a negative scalar.  Ops take
``Tensor`` operands only; ids, positions and targets are integer arrays.

A ``Tape`` records primitive applications in execution order; reversed
execution order is a valid topological order, so ``Tape.backward`` visits each
node exactly once and accumulates gradients additively on fan-out.  It raises
``AutodiffError`` for a loss it did not record.  A thread has one recording
tape at most (entering a second raises ``AutodiffError``), and it takes only
that thread's ops.  Each backward returns one gradient per input, and
``Tape.backward`` alone drops those of inputs without ``requires_grad``.  Every
op checks its output for NaN/Inf and raises ``NonFiniteError``; the arithmetic
ops and ``Tape.backward`` run with numpy's floating-point warnings off, so that
error (and ``Adam.step``'s, for a gradient) is the one report wherever they run.

Kernels allocate their output and, only when a tape records the op, what their
backward multiplies by; ``_recording`` is the one test of that, shared with
``_make``.  A taped ``gelu`` keeps its derivative, built in its forward loop, so
its backward is one multiply; ``layer_norm`` keeps ``xhat`` only under a tape,
and its per-row ``inv`` on both paths.  ``matmul`` adds its optional bias into
its product in place.  ``layer_norm``, ``softmax`` and ``gelu`` run over blocks
of about ``_BLOCK`` elements (whole rows for the row-wise ops) through
block-sized scratch reused from block to block, so an untaped call peaks near
its output's size.  Each element sees the same operations in the same order as
in whole-array code, so the bits do not depend on the blocking.  Kernels never
write into an operand's ``.data`` or into the upstream gradient ``g``: an
output may be a view of an operand (``reshape``, ``transpose``,
``grad_reverse``), and a backward may pass ``g`` itself on to several inputs
(``add``), whose gradients ``Tape.backward`` then accumulates.
"""

from __future__ import annotations

import collections
import functools
import math
import threading

import numpy as np

from .checks import integer, real


class AutodiffError(Exception):
    """Base class for autodiff failures."""


class ShapeError(AutodiffError):
    """Operands have incompatible shapes."""


class NonFiniteError(AutodiffError):
    """An op produced NaN or Inf values."""


class Tensor:
    """A dense numpy-backed array with optional gradient tracking.

    ``grad`` is populated (overwritten, not accumulated across calls) by
    ``Tape.backward`` for leaf tensors with ``requires_grad=True``.
    """

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return self.data.item()

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad})"


def _quiet(fn):
    """``fn`` with numpy's floating-point warnings off, in a fresh ``np.errstate`` per call:
    before numpy 2 a shared one keeps its saved state on itself, so nesting or threads break it."""
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(*args, **kwargs)
    return functools.update_wrapper(quiet, fn)


_Node = collections.namedtuple("_Node", "out inputs backward_fn op")


_RECORDING = threading.local()  # .tape: the tape recording in this thread, if any


class Tape:
    """Ordered record of primitive applications for one backward pass.

    Use as a context manager around the forward computation; outside any
    active tape, ops run forward-only (evaluation mode).  Tapes do not nest.
    """

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self):
        if getattr(_RECORDING, "tape", None) is not None:
            raise AutodiffError("a tape is already recording in this thread; tapes do not nest")
        _RECORDING.tape = self
        return self

    def __exit__(self, exc_type, exc, tb):
        _RECORDING.tape = None

    def __len__(self):
        return len(self._nodes)

    def _record(self, out, inputs, backward_fn, op):
        self._nodes.append(_Node(out, inputs, backward_fn, op))

    @_quiet
    def backward(self, loss: Tensor):
        """Backpropagate from a scalar loss, depositing ``.grad`` on leaves.

        Each recorded node is visited exactly once, in reverse execution
        order; fan-out gradients accumulate additively.  Every consumer of a
        node's output was recorded after it, so its gradient is complete when
        the node is reached and is popped there; what remains belongs to
        leaves, whose ``.grad`` is assigned (previous contents are replaced).
        Only here are the gradients of inputs without ``requires_grad``
        dropped.  A loss this tape did not record raises ``AutodiffError``.
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
        pending: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
        for node in reversed(self._nodes):
            g = pending.pop(node.out, None)
            if g is None:
                continue
            for inp, gi in zip(node.inputs, node.backward_fn(g)):
                if inp.requires_grad:
                    acc = pending.get(inp)
                    pending[inp] = gi if acc is None else acc + gi
        if loss in pending:
            raise AutodiffError("backward from a loss this tape did not record")
        for tensor, g in pending.items():
            tensor.grad = g


def _recording(*inputs: Tensor) -> bool:
    """Whether an op on ``inputs`` is taped: a tape is active and an input needs a gradient."""
    return getattr(_RECORDING, "tape", None) is not None and any(t.requires_grad for t in inputs)


def _check_finite(data, op):
    # NaN propagates through min and max, and an inf is one of them: no full-size temporary.
    if data.size and not (np.isfinite(data.min()) and np.isfinite(data.max())):
        raise NonFiniteError(f"op {op!r} produced non-finite values")


def _make(op, out_data, inputs, backward_fn) -> Tensor:
    _check_finite(out_data, op)
    taped = _recording(*inputs)
    out = Tensor(out_data, requires_grad=taped)
    if taped:
        _RECORDING.tape._record(out, inputs, backward_fn, op)
    return out


def _check_index(op: str, what: str, idx: np.ndarray, bound: int):
    """Raise ``ShapeError`` unless ``idx`` holds integers in ``[0, bound)``."""
    if not np.issubdtype(idx.dtype, np.integer):
        raise ShapeError(f"{op} {what} must be integers")
    if idx.size and (idx.min() < 0 or idx.max() >= bound):
        raise ShapeError(f"{op} {what} out of range [0, {bound})")


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ss) in enumerate(zip(g.shape, shape)) if ss == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# Primitives
# ---------------------------------------------------------------------------

@_quiet
def matmul(a: Tensor, b: Tensor, bias: Tensor | None = None) -> Tensor:
    """Matrix product of 2-D or batched operands; ``b`` may be 2-D under a batched ``a``.

    Batch axes do not broadcast: ``b`` is 2-D or has the leading dims of ``a``.
    A ``bias`` (1-D, one entry per column of a 2-D ``b``) is added to every
    output row in place, with the bits of ``add(matmul(a, b), bias)``.
    """
    if a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    if b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dims differ: {a.shape} @ {b.shape}")
    if bias is not None and (b.ndim != 2 or bias.shape != b.shape[-1:]):
        raise ShapeError(f"matmul bias must be [{b.shape[-1]}] under a 2-D b, got {bias.shape} under {b.shape}")
    out = a.data @ b.data
    if bias is not None:
        if np.result_type(out, bias.data) != out.dtype:
            raise ShapeError(f"matmul bias dtype {bias.dtype} is wider than the product's {out.dtype}")
        out += bias.data

    def backward(g):
        if b.ndim == 2:  # one 2-D product each, not one small product per batch row
            ga = (g.reshape(-1, g.shape[-1]) @ b.data.T).reshape(a.shape)
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            ga = g @ np.swapaxes(b.data, -1, -2)
            gb = np.swapaxes(a.data, -1, -2) @ g
        return (ga, gb) if bias is None else (ga, gb, _unbroadcast(g, bias.shape))

    return _make("matmul", out, (a, b) if bias is None else (a, b, bias), backward)


@_quiet
def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as e:
        raise ShapeError(f"add shapes not broadcastable: {a.shape} + {b.shape}") from e
    out = a.data + b.data

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _make("add", out, (a, b), backward)


@_quiet
def mul(a: Tensor, b: Tensor) -> Tensor:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as e:
        raise ShapeError(f"mul shapes not broadcastable: {a.shape} * {b.shape}") from e
    out = a.data * b.data

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _make("mul", out, (a, b), backward)


@_quiet
def scale(x: Tensor, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    c = float(c)
    out = x.data * c

    def backward(g):
        return (g * c,)

    return _make("scale", out, (x,), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` (shape ``[V, D]``) at integer ``ids``."""
    ids = np.asarray(ids)
    _check_index("embedding", "ids", ids, table.shape[0])
    out = table.data[ids]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (gt,)

    return _make("embedding", out, (table,), backward)


LAYER_NORM_EPS = 1e-5

# Elements per block of the blocked kernels (layer_norm, softmax, gelu): a float32
# block is 256 KB, so the few blocks a kernel touches at once stay in a core's L2
# cache, and a call on an encoder activation makes few enough ufunc calls.
_BLOCK = 65536


def _blocks(n: int, step: int):
    """``(start, stop)`` of each run of ``step`` items in ``range(n)``; the last may be short."""
    return ((start, min(start + step, n)) for start in range(0, n, step))


def _as_rows(a: np.ndarray) -> np.ndarray:
    """``a`` as a 2-D array of its last-axis rows (a view when ``a`` is contiguous)."""
    return a.reshape(math.prod(a.shape[:-1]), a.shape[-1])


@_quiet
def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError("layer_norm gain/bias must match the last axis")
    if gain.dtype != x.dtype or bias.dtype != x.dtype:
        raise ShapeError(f"layer_norm operands differ in dtype: {x.dtype}, {gain.dtype}, {bias.dtype}")
    n = x.shape[-1]
    rows = _as_rows(x.data)
    out = np.empty(x.shape, x.dtype)
    out_rows = _as_rows(out)
    step = max(1, _BLOCK // max(n, 1))
    # The backward reads xhat whole, so a taped call keeps it; untaped, xhat lives in
    # block scratch.  Each output block holds xhat * xhat until the affine map
    # overwrites it.
    taped = _recording(x, gain, bias)
    xhat_rows = np.empty((len(rows) if taped else min(step, len(rows)), n), x.dtype)
    inv = np.empty((len(rows), 1), x.dtype)
    for start, stop in _blocks(len(rows), step):
        xb, ob, ib = rows[start:stop], out_rows[start:stop], inv[start:stop]
        hb = xhat_rows[start:stop] if taped else xhat_rows[:stop - start]
        np.subtract(xb, xb.mean(axis=-1, keepdims=True), out=hb)
        np.divide(1.0, np.sqrt(np.multiply(hb, hb, out=ob).mean(axis=-1, keepdims=True) + LAYER_NORM_EPS), out=ib)
        hb *= ib
        np.multiply(hb, gain.data, out=ob)
        ob += bias.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        xhat = xhat_rows.reshape(g.shape)
        ggain = (g * xhat).sum(axis=lead)
        gbias = g.sum(axis=lead)  # both before gx, so their temporaries are gone when it is built
        # inv * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat)), built in gx
        gx = g * gain.data
        m1 = gx.mean(axis=-1, keepdims=True)
        prod = gx * xhat
        m2 = prod.mean(axis=-1, keepdims=True)
        np.multiply(xhat, m2, out=prod)
        gx -= m1
        gx -= prod
        gx *= inv.reshape(m2.shape)
        return gx, ggain, gbias

    return _make("layer_norm", out, (x, gain, bias), backward)


def _row_max(rows: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``rows.max(axis=-1, keepdims=True)`` of a 2-D array, by halving.

    numpy's max reduction over short rows (the 32-wide attention rows) is slower
    than repeated ``np.maximum`` of two column halves; a max is exact, so the
    order does not change the result.  An odd width folds its middle column into
    column 0.  Each halving writes a contiguous array carved from the flat
    ``scratch``, which holds at least ``len(rows) * (width - 1)`` elements.
    """
    n = len(rows)
    src, width, used = rows, rows.shape[-1], 0
    while width > 1:
        half = width // 2
        m = scratch[used:used + n * half].reshape(n, half)
        np.maximum(src[:, :half], src[:, width - half:width], out=m)
        if width % 2:
            np.maximum(m[:, :1], src[:, half:half + 1], out=m[:, :1])
        src, width, used = m, half, used + n * half
    return src


@_quiet
def softmax(x: Tensor) -> Tensor:
    """Softmax over the last axis."""
    rows = _as_rows(x.data)
    s = np.empty(x.shape, x.dtype)
    s_rows = _as_rows(s)
    step = max(1, _BLOCK // max(x.shape[-1], 1))
    scratch = np.empty(min(step, len(rows)) * max(x.shape[-1] - 1, 0), x.dtype)
    for start, stop in _blocks(len(rows), step):
        xb = rows[start:stop]
        sb = np.subtract(xb, _row_max(xb, scratch), out=s_rows[start:stop])
        np.exp(sb, out=sb)
        sb /= sb.sum(axis=-1, keepdims=True)

    def backward(g):
        gx = g * s
        dot = gx.sum(axis=-1, keepdims=True)
        np.subtract(g, dot, out=gx)
        gx *= s
        return (gx,)

    return _make("softmax", s, (x,), backward)


_GELU_C = float(np.sqrt(2.0 / np.pi))


@_quiet
def gelu(x: Tensor) -> Tensor:
    """GELU with the tanh approximation (fixed, for cross-build determinism)."""
    # t = tanh(C * (x + 0.044715 * x * x * x)) and out = 0.5 * x * (1 + t).  The cube
    # is two multiplies: numpy's float32 pow takes ~90x as long.  A taped call keeps the
    # derivative d = 0.5 * (1 + t) + 0.5 * x * (1 - t * t) * du, du = C * (1 + 3 * 0.044715 * x * x),
    # in the backward's order of operations; the output block holds 0.5 * x and du
    # until the output overwrites them, and 1 + t overwrites t in the block scratch.
    flat = x.data.reshape(-1)
    out = np.empty(x.shape, x.dtype)
    out_flat = out.reshape(-1)
    scratch = np.empty(min(_BLOCK, flat.size), x.dtype)
    d_flat = np.empty(flat.size, x.dtype) if _recording(x) else None
    for start, stop in _blocks(flat.size, _BLOCK):
        xb, ob, tb = flat[start:stop], out_flat[start:stop], scratch[:stop - start]
        np.multiply(xb, xb, out=tb)
        tb *= xb
        tb *= 0.044715
        tb += xb
        tb *= _GELU_C
        np.tanh(tb, out=tb)
        if d_flat is not None:
            db = d_flat[start:stop]
            np.multiply(tb, tb, out=db)
            np.subtract(1.0, db, out=db)
            db *= np.multiply(xb, 0.5, out=ob)
            np.multiply(xb, xb, out=ob)
            ob *= 3 * 0.044715
            ob += 1.0
            ob *= _GELU_C
            db *= ob
        tb += 1.0
        np.multiply(xb, 0.5, out=ob)
        ob *= tb
        if d_flat is not None:
            tb *= 0.5
            db += tb

    def backward(g):
        return (g * d_flat.reshape(g.shape),)

    return _make("gelu", out, (x,), backward)


@_quiet
def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)

    def backward(g):
        return (g * (1.0 - t * t),)

    return _make("tanh", t, (x,), backward)


class DropoutRng:
    """Counter-based dropout stream: mask ``i`` depends only on (seed, i).

    Uses the Philox counter-based bit generator keyed by ``seed``, so loss
    curves are reproducible regardless of how ops interleave between steps.
    Mask ``i`` (``calls == i``) reads float32 uniforms from Philox counter
    ``[0, i, 0, 0]`` on, and a mask steps only counter word 0, so each mask
    has its own run of 2**64 blocks and no two masks share a draw.
    """

    def __init__(self, seed: int):
        self.seed = integer(seed, "dropout seed", AutodiffError, high=2 ** 128)  # Philox's key range
        self.calls = 0

    def keep_mask(self, shape, keep_prob: float) -> np.ndarray:
        bitgen = np.random.Philox(key=self.seed, counter=[0, self.calls, 0, 0])
        self.calls += 1
        rng = np.random.Generator(bitgen)
        return rng.random(shape, dtype=np.float32) < keep_prob


@_quiet
def dropout(x: Tensor, p: float, rng: DropoutRng | None) -> Tensor:
    """Inverted dropout; the identity when ``p == 0``."""
    real(p, "dropout probability", AutodiffError, 0.0, 1.0)
    if p == 0.0:
        return x
    if rng is None:
        raise AutodiffError("dropout with p > 0 requires a DropoutRng")
    keep = 1.0 - p
    mask = rng.keep_mask(x.shape, keep).astype(x.dtype) / x.dtype.type(keep)
    out = x.data * mask

    def backward(g):
        return (g * mask,)

    return _make("dropout", out, (x,), backward)


@_quiet
def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross entropy of ``[N, C]`` logits against ``N`` integer targets.

    Every row counts; for an MLM loss, pass the ``gather_positions`` rows of
    the masked positions.  With ``N == 0`` (no position masked in a batch)
    the loss is 0 with zero gradient.
    """
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy expects [N, C] logits and [N] targets, got {logits.shape} / {targets.shape}")
    _check_index("cross_entropy", "targets", targets, logits.shape[1])

    ld = logits.data
    n = ld.shape[0]
    rows = np.arange(n)
    m = ld.max(axis=-1, keepdims=True)
    e = np.exp(ld - m)
    lse = m[:, 0] + np.log(e.sum(axis=-1))
    nll = lse - ld[rows, targets]
    out = np.asarray(nll.sum() / n if n else 0.0, dtype=ld.dtype)

    def backward(g):
        if n == 0:
            return (np.zeros_like(ld),)
        p = e / e.sum(axis=-1, keepdims=True)
        p[rows, targets] -= 1.0
        p *= ld.dtype.type(1.0) / n
        return (p * g,)

    return _make("cross_entropy", out, (logits,), backward)


def grad_reverse(x: Tensor, lam: float) -> Tensor:
    """Identity forward; backward passes ``-lam * g`` to the input."""
    lam = real(lam, "grad_reverse lambda", AutodiffError, 0.0)
    out = x.data

    def backward(g):
        return (-lam * g,)

    return _make("grad_reverse", out, (x,), backward)


def reshape(x: Tensor, shape) -> Tensor:
    try:
        out = x.data.reshape(shape)
    except ValueError as e:
        raise ShapeError(f"reshape of {x.shape}: {e}") from e
    old = x.shape

    def backward(g):
        return (g.reshape(old),)

    return _make("reshape", out, (x,), backward)


def transpose(x: Tensor, axes) -> Tensor:
    try:
        out = x.data.transpose(axes)
    except ValueError as e:
        raise ShapeError(f"transpose of {x.shape} by axes {axes!r}: {e}") from e
    inverse = np.argsort(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return _make("transpose", out, (x,), backward)


def gather_positions(x: Tensor, batch_idx: np.ndarray, pos_idx: np.ndarray) -> Tensor:
    """Select ``x[batch_idx[i], pos_idx[i], :]`` rows from ``[B, L, D]``."""
    if x.ndim != 3:
        raise ShapeError(f"gather_positions expects a rank-3 input, got {x.shape}")
    batch_idx = np.asarray(batch_idx)
    pos_idx = np.asarray(pos_idx)
    if batch_idx.ndim != 1 or batch_idx.shape != pos_idx.shape:
        raise ShapeError(f"gather_positions expects two equal-length 1-D index arrays, "
                         f"got {batch_idx.shape} / {pos_idx.shape}")
    _check_index("gather_positions", "batch indices", batch_idx, x.shape[0])
    _check_index("gather_positions", "position indices", pos_idx, x.shape[1])
    out = x.data[batch_idx, pos_idx]

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (batch_idx, pos_idx), g)
        return (gx,)

    return _make("gather_positions", out, (x,), backward)


@_quiet
def sum_axis(x: Tensor, axis: int) -> Tensor:
    try:
        out = x.data.sum(axis=axis)
    except ValueError as e:
        raise ShapeError(f"sum_axis of {x.shape} over axis {axis!r}: {e}") from e

    def backward(g):
        return (np.broadcast_to(np.expand_dims(g, axis), x.shape).copy(),)

    return _make("sum_axis", out, (x,), backward)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Join along the last axis."""
    try:
        out = np.concatenate([a.data, b.data], axis=-1)
    except ValueError as e:
        raise ShapeError(f"concat of {a.shape} and {b.shape}: {e}") from e
    split = a.shape[-1]

    def backward(g):
        return tuple(np.split(g, [split], axis=-1))

    return _make("concat", out, (a, b), backward)

