"""Minimal dense-tensor reverse-mode automatic differentiation.

Provides exactly the primitives the encoder and its heads need: matmul, add,
elementwise mul, embedding gather, layer norm, softmax, GELU (tanh
approximation, fixed), dropout with a counter-based RNG stream, cross entropy
with an ignore index, plus a gradient-reversal node whose forward pass is the
identity and whose backward pass multiplies the upstream gradient by a
negative scalar.

A ``Tape`` records primitive applications in execution order; reversed
execution order is a valid topological order, so ``Tape.backward`` visits each
node exactly once and accumulates gradients additively on fan-out.  A tape is
single-threaded; distinct tapes may run in parallel.  Every op checks its
output for NaN/Inf and raises ``NonFiniteError`` on detection.
"""

from __future__ import annotations

import numpy as np


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

    __slots__ = ("data", "grad", "requires_grad", "name")

    def __init__(self, data, requires_grad=False, name=None, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype)
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self.name = name

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
        return f"Tensor(shape={self.shape}, dtype={self.dtype}, requires_grad={self.requires_grad}, name={self.name!r})"


class _Node:
    __slots__ = ("out", "inputs", "backward_fn", "op")

    def __init__(self, out, inputs, backward_fn, op):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn
        self.op = op


_ACTIVE_TAPES: list["Tape"] = []


class Tape:
    """Ordered record of primitive applications for one backward pass.

    Use as a context manager around the forward computation; outside any
    active tape, ops run forward-only (evaluation mode).
    """

    def __init__(self):
        self._nodes: list[_Node] = []

    def __enter__(self):
        _ACTIVE_TAPES.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _ACTIVE_TAPES.pop()
        assert popped is self
        return False

    def __len__(self):
        return len(self._nodes)

    def _record(self, out, inputs, backward_fn, op):
        self._nodes.append(_Node(out, inputs, backward_fn, op))

    def backward(self, loss: Tensor):
        """Backpropagate from a scalar loss, depositing ``.grad`` on leaves.

        Each recorded node is visited exactly once, in reverse execution
        order; fan-out gradients accumulate additively.  Leaf gradients are
        assigned (previous ``.grad`` contents are replaced).
        """
        if loss.data.size != 1:
            raise ShapeError(f"backward expects a scalar loss, got shape {loss.shape}")
        produced = {id(node.out) for node in self._nodes}
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaves: dict[int, Tensor] = {}
        for node in reversed(self._nodes):
            g = grads.pop(id(node.out), None)
            if g is None:
                continue
            input_grads = node.backward_fn(g)
            for inp, gi in zip(node.inputs, input_grads):
                if gi is None or not inp.requires_grad:
                    continue
                key = id(inp)
                acc = grads.get(key)
                grads[key] = gi if acc is None else acc + gi
                if key not in produced:
                    leaves[key] = inp
        for key, tensor in leaves.items():
            tensor.grad = grads.get(key)


def _active_tape():
    return _ACTIVE_TAPES[-1] if _ACTIVE_TAPES else None


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _check_finite(data, op):
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"op {op!r} produced non-finite values")


def _make(op, out_data, inputs, backward_fn) -> Tensor:
    _check_finite(out_data, op)
    tape = _active_tape()
    requires = tape is not None and any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=requires)
    if requires:
        tape._record(out, inputs, backward_fn, op)
    return out


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

def matmul(a, b) -> Tensor:
    """Matrix product; supports batched ``a`` against 2-D or batched ``b``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape[-1] != b.data.shape[-2 if b.ndim > 1 else 0]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    out = a.data @ b.data

    def backward(g):
        ga = gb = None
        if a.requires_grad:
            ga = g @ np.swapaxes(b.data, -1, -2)
        if b.requires_grad:
            if b.ndim == 2 and a.ndim > 2:
                k = a.data.shape[-1]
                n = g.shape[-1]
                gb = a.data.reshape(-1, k).T @ g.reshape(-1, n)
            else:
                gb = np.swapaxes(a.data, -1, -2) @ g
        return ga, gb

    return _make("matmul", out, (a, b), backward)


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as e:
        raise ShapeError(f"add shapes not broadcastable: {a.shape} + {b.shape}") from e
    out = a.data + b.data

    def backward(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _make("add", out, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError as e:
        raise ShapeError(f"mul shapes not broadcastable: {a.shape} * {b.shape}") from e
    out = a.data * b.data

    def backward(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _make("mul", out, (a, b), backward)


def scale(x, c: float) -> Tensor:
    """Multiply by a python scalar constant."""
    x = _as_tensor(x)
    c = float(c)
    out = x.data * c

    def backward(g):
        return (g * c,)

    return _make("scale", out, (x,), backward)


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Gather rows of ``table`` (shape ``[V, D]``) at integer ``ids``."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeError(f"embedding ids out of range [0, {table.shape[0]})")
    out = table.data[ids]

    def backward(g):
        gt = np.zeros_like(table.data)
        np.add.at(gt, ids.reshape(-1), g.reshape(-1, table.shape[-1]))
        return (gt,)

    return _make("embedding", out, (table,), backward)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gain, bias = _as_tensor(x), _as_tensor(gain), _as_tensor(bias)
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError("layer_norm gain/bias must match the last axis")
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain.data + bias.data

    def backward(g):
        gx = ggain = gbias = None
        lead = tuple(range(g.ndim - 1))
        if gain.requires_grad:
            ggain = (g * xhat).sum(axis=lead)
        if bias.requires_grad:
            gbias = g.sum(axis=lead)
        if x.requires_grad:
            dxhat = g * gain.data
            gx = inv * (
                dxhat
                - dxhat.mean(axis=-1, keepdims=True)
                - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
            )
        return gx, ggain, gbias

    return _make("layer_norm", out, (x, gain, bias), backward)


def softmax(x) -> Tensor:
    """Softmax over the last axis."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return _make("softmax", s, (x,), backward)


_GELU_C = float(np.sqrt(2.0 / np.pi))


def gelu(x) -> Tensor:
    """GELU with the tanh approximation (fixed, for cross-build determinism)."""
    x = _as_tensor(x)
    xd = x.data
    u = _GELU_C * (xd + 0.044715 * xd**3)
    t = np.tanh(u)
    out = 0.5 * xd * (1.0 + t)

    def backward(g):
        du = _GELU_C * (1.0 + 3 * 0.044715 * xd**2)
        dx = 0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du
        return (g * dx,)

    return _make("gelu", out, (x,), backward)


def tanh(x) -> Tensor:
    x = _as_tensor(x)
    t = np.tanh(x.data)

    def backward(g):
        return (g * (1.0 - t * t),)

    return _make("tanh", t, (x,), backward)


class DropoutRng:
    """Counter-based dropout stream: mask ``i`` depends only on (seed, i).

    Uses the Philox counter-based bit generator so loss curves are
    reproducible regardless of how ops interleave between steps.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self.calls = 0

    def keep_mask(self, shape, keep_prob: float) -> np.ndarray:
        bitgen = np.random.Philox(key=self.seed, counter=[self.calls, 0, 0, 0])
        self.calls += 1
        rng = np.random.Generator(bitgen)
        return rng.random(shape) < keep_prob


def dropout(x, p: float, rng: DropoutRng | None, training: bool) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    x = _as_tensor(x)
    if not training or p == 0.0:
        return x
    if rng is None:
        raise AutodiffError("dropout in training mode requires a DropoutRng")
    if not 0.0 <= p < 1.0:
        raise AutodiffError(f"dropout probability out of range: {p}")
    keep = 1.0 - p
    mask = rng.keep_mask(x.shape, keep).astype(x.dtype) / x.dtype.type(keep)
    out = x.data * mask

    def backward(g):
        return (g * mask,)

    return _make("dropout", out, (x,), backward)


def cross_entropy(logits, targets: np.ndarray, ignore_index: int | None = None) -> Tensor:
    """Mean cross entropy of ``[N, C]`` logits against integer targets.

    Positions equal to ``ignore_index`` contribute nothing (needed for MLM,
    where the loss is computed only on masked positions).  With zero valid
    positions the loss is 0 with zero gradient.
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets)
    if logits.ndim != 2 or targets.shape != (logits.shape[0],):
        raise ShapeError(f"cross_entropy expects [N, C] logits and [N] targets, got {logits.shape} / {targets.shape}")
    if ignore_index is None:
        valid = np.ones(targets.shape, dtype=bool)
    else:
        valid = targets != ignore_index
    safe_targets = np.where(valid, targets, 0)
    if safe_targets.size and (safe_targets.min() < 0 or safe_targets.max() >= logits.shape[1]):
        raise ShapeError("cross_entropy target out of class range")
    n_valid = int(valid.sum())

    ld = logits.data
    m = ld.max(axis=-1, keepdims=True)
    e = np.exp(ld - m)
    lse = m[:, 0] + np.log(e.sum(axis=-1))
    nll = lse - ld[np.arange(ld.shape[0]), safe_targets]
    if n_valid == 0:
        out = np.zeros((), dtype=ld.dtype)
    else:
        out = np.asarray(nll[valid].sum() / n_valid, dtype=ld.dtype)

    def backward(g):
        if n_valid == 0:
            return (np.zeros_like(ld),)
        p = e / e.sum(axis=-1, keepdims=True)
        p[np.arange(ld.shape[0]), safe_targets] -= 1.0
        p *= (valid.astype(ld.dtype) / n_valid)[:, None]
        return (p * g,)

    return _make("cross_entropy", out, (logits,), backward)


def grad_reverse(x, lam: float) -> Tensor:
    """Identity forward; backward passes ``-lam * g`` to the input."""
    x = _as_tensor(x)
    if lam < 0:
        raise AutodiffError(f"grad_reverse lambda must be >= 0, got {lam}")
    lam = float(lam)
    out = x.data

    def backward(g):
        return (-lam * g,)

    return _make("grad_reverse", out, (x,), backward)


def reshape(x, shape) -> Tensor:
    x = _as_tensor(x)
    out = x.data.reshape(shape)
    old = x.shape

    def backward(g):
        return (g.reshape(old),)

    return _make("reshape", out, (x,), backward)


def transpose(x, axes) -> Tensor:
    x = _as_tensor(x)
    out = x.data.transpose(axes)
    inverse = np.argsort(axes)

    def backward(g):
        return (g.transpose(inverse),)

    return _make("transpose", out, (x,), backward)


def gather_positions(x, batch_idx: np.ndarray, pos_idx: np.ndarray) -> Tensor:
    """Select ``x[batch_idx[i], pos_idx[i], :]`` rows from ``[B, L, D]``."""
    x = _as_tensor(x)
    if x.ndim != 3:
        raise ShapeError(f"gather_positions expects a rank-3 input, got {x.shape}")
    batch_idx = np.asarray(batch_idx)
    pos_idx = np.asarray(pos_idx)
    out = x.data[batch_idx, pos_idx]

    def backward(g):
        gx = np.zeros_like(x.data)
        np.add.at(gx, (batch_idx, pos_idx), g)
        return (gx,)

    return _make("gather_positions", out, (x,), backward)


def sum_axis(x, axis: int, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def backward(g):
        if not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _make("sum_axis", out, (x,), backward)


def concat(a, b, axis: int = -1) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    out = np.concatenate([a.data, b.data], axis=axis)
    split = a.shape[axis if axis >= 0 else a.ndim + axis]

    def backward(g):
        ga, gb = np.split(g, [split], axis=axis)
        return (
            ga if a.requires_grad else None,
            gb if b.requires_grad else None,
        )

    return _make("concat", out, (a, b), backward)


def constant(data, dtype=None) -> Tensor:
    """A non-trainable tensor (e.g. attention masks, scaling factors)."""
    return Tensor(np.asarray(data), requires_grad=False, dtype=dtype)
