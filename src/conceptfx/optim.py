"""Adam optimizer with bias correction.

The learning rate defaults to 1e-3; eps 1e-8, the standard beta1/beta2 of
0.9/0.999 and no weight decay are fixed, as in the training setup used
throughout the package.  Updates are deterministic functions of (params,
grads, state).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor

_EPS, _BETA1, _BETA2 = 1e-8, 0.9, 0.999


class OptimError(Exception):
    """Raised when a step cannot be applied (e.g. non-finite gradients)."""


@dataclass
class AdamState:
    """First/second moment estimates and the step counter."""

    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    step: int = 0


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
              state: AdamState, lr: float = 1e-3) -> AdamState:
    """Apply one bias-corrected Adam update in place; returns the state.

    A non-finite gradient aborts the whole step (no parameter is touched)
    with a diagnostic naming the offending parameter.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise OptimError(f"non-finite gradient for parameter {name!r}; step aborted")
    state.step += 1
    t = state.step
    bc1 = 1.0 - _BETA1**t
    bc2 = 1.0 - _BETA2**t
    for name, g in grads.items():
        p = params[name]
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros_like(p)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros_like(p)
        m *= _BETA1
        m += (1.0 - _BETA1) * g
        v *= _BETA2
        v += (1.0 - _BETA2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p -= lr * m_hat / (np.sqrt(v_hat) + _EPS)
    return state


class Adam:
    """Convenience wrapper driving ``adam_step`` from ``Tensor.grad`` fields."""

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.state = AdamState()

    def step(self):
        grads = {}
        for name, p in self.params.items():
            if p.grad is not None:
                grads[name] = p.grad
        adam_step({n: p.data for n, p in self.params.items()}, grads, self.state, lr=self.lr)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
