"""Attachable prediction heads.

Two kinds: ``mlm`` (token states -> vocabulary logits, output matrix
untied from the input embeddings) and ``seq`` (sequence feature -> class
logits).
Adversarial heads (and only those) are preceded by a gradient-reversal node;
control heads never are.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import autodiff as ad
from ..checks import integer, real


class HeadError(Exception):
    pass


@dataclass
class HeadSet:
    """Named heads plus their parameters, keyed ``head.<name>.{w,b}``.

    ``heads`` maps each name to the gradient-reversal lambda of an
    adversarial head, or to ``None`` for any other head.
    """

    params: dict[str, ad.Tensor] = field(default_factory=dict)
    heads: dict[str, float | None] = field(default_factory=dict)

    def add_mlm(self, name: str, dim: int, vocab_size: int, seed: int, dtype=np.float32):
        self.add_seq(name, dim, vocab_size, seed, dtype)

    def add_seq(self, name: str, in_dim: int, classes: int, seed: int, dtype=np.float32,
                adversarial: bool = False, grl_lambda: float = 1.0):
        if name in self.heads:
            raise HeadError(f"duplicate head {name!r}")
        integer(in_dim, f"head {name!r} in_dim", HeadError, low=1)
        integer(classes, f"head {name!r} classes", HeadError, low=1)
        if adversarial:
            real(grl_lambda, f"adversarial head {name!r} grl_lambda", HeadError, 0.0)
        integer(seed, "seed", HeadError)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 202, len(self.heads))))
        self.params[f"head.{name}.w"] = ad.Tensor(
            rng.normal(0.0, 0.02, size=(in_dim, classes)), requires_grad=True, dtype=dtype)
        self.params[f"head.{name}.b"] = ad.Tensor(
            np.zeros(classes), requires_grad=True, dtype=dtype)
        self.heads[name] = grl_lambda if adversarial else None

    def forward(self, name: str, inputs: ad.Tensor) -> ad.Tensor:
        """Logits for a head; adversarial heads reverse gradients on entry."""
        if name not in self.heads:
            raise HeadError(f"unknown head {name!r}")
        w = self.params[f"head.{name}.w"]
        if inputs.shape[-1] != w.shape[0]:
            raise HeadError(
                f"head {name!r} expects feature dim {w.shape[0]}, got {inputs.shape[-1]}")
        grl_lambda = self.heads[name]
        if grl_lambda is not None:
            inputs = ad.grad_reverse(inputs, grl_lambda)
        return ad.matmul(inputs, w, self.params[f"head.{name}.b"])
