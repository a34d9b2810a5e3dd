"""Adam optimizer with bias correction.

The learning rate defaults to 1e-3; eps 1e-8, the standard beta1/beta2 of
0.9/0.999 and no weight decay are fixed, as in the training setup used
throughout the package.  Updates are deterministic functions of the
parameters, their gradients and the optimizer's moments and step count.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .checks import real

_EPS, _BETA1, _BETA2 = 1e-8, 0.9, 0.999


class OptimError(Exception):
    """Raised for a bad learning rate, or when a step cannot be applied
    (a non-finite gradient or one shaped unlike its parameter)."""


class Adam:
    """Bias-corrected Adam over named ``Tensor`` parameters.

    ``m`` and ``v`` hold each parameter's moments from its first step with
    a gradient; ``t`` counts steps, including those a parameter sat out.
    """

    def __init__(self, params: dict[str, Tensor], lr: float = 1e-3):
        self.lr = real(lr, "learning rate", OptimError, 0.0, low_open=True)
        self.params = params
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t = 0

    def step(self):
        """Update every parameter that has a gradient, in place.

        A non-finite gradient, or one shaped unlike its parameter, aborts the
        whole step (``t`` and every parameter are untouched) with a diagnostic
        naming the offending parameter.
        """
        live = [(name, p) for name, p in self.params.items() if p.grad is not None]
        for name, p in live:
            if p.grad.shape != p.data.shape:
                raise OptimError(f"gradient shape {p.grad.shape} for parameter {name!r} "
                                 f"does not match its shape {p.data.shape}; step aborted")
            if not np.all(np.isfinite(p.grad)):
                raise OptimError(f"non-finite gradient for parameter {name!r}; step aborted")
        self.t += 1
        bc1 = 1.0 - _BETA1**self.t
        bc2 = 1.0 - _BETA2**self.t
        for name, p in live:
            g = p.grad
            m = self.m.get(name)
            if m is None:
                m = self.m[name] = np.zeros_like(p.data)
            v = self.v.get(name)
            if v is None:
                v = self.v[name] = np.zeros_like(p.data)
            m *= _BETA1
            m += (1.0 - _BETA1) * g
            v *= _BETA2
            v += (1.0 - _BETA2) * (g * g)
            p.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + _EPS)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None
