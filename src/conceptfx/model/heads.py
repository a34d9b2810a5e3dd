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


class HeadError(Exception):
    pass


@dataclass
class _Head:
    in_dim: int
    adversarial: bool = False
    grl_lambda: float = 1.0


@dataclass
class HeadSet:
    """Named heads plus their parameters, keyed ``head.<name>.{w,b}``."""

    params: dict[str, ad.Tensor] = field(default_factory=dict)
    heads: dict[str, _Head] = field(default_factory=dict)

    def _add(self, name: str, in_dim: int, classes: int, seed: int,
             dtype, adversarial: bool, grl_lambda: float):
        if name in self.heads:
            raise HeadError(f"duplicate head {name!r}")
        rng = np.random.default_rng(np.random.SeedSequence((seed, 202, len(self.heads))))
        self.params[f"head.{name}.w"] = ad.Tensor(
            rng.normal(0.0, 0.02, size=(in_dim, classes)), requires_grad=True, dtype=dtype)
        self.params[f"head.{name}.b"] = ad.Tensor(
            np.zeros(classes), requires_grad=True, dtype=dtype)
        self.heads[name] = _Head(in_dim=in_dim, adversarial=adversarial, grl_lambda=grl_lambda)

    def add_mlm(self, name: str, dim: int, vocab_size: int, seed: int, dtype=np.float32):
        self._add(name, dim, vocab_size, seed, dtype, adversarial=False, grl_lambda=0.0)

    def add_seq(self, name: str, in_dim: int, classes: int, seed: int, dtype=np.float32,
                adversarial: bool = False, grl_lambda: float = 1.0):
        self._add(name, in_dim, classes, seed, dtype, adversarial, grl_lambda)

    def forward(self, name: str, inputs: ad.Tensor) -> ad.Tensor:
        """Logits for a head; adversarial heads reverse gradients on entry."""
        head = self.heads.get(name)
        if head is None:
            raise HeadError(f"unknown head {name!r}")
        if inputs.shape[-1] != head.in_dim:
            raise HeadError(
                f"head {name!r} expects feature dim {head.in_dim}, got {inputs.shape[-1]}")
        if head.adversarial:
            inputs = ad.grad_reverse(inputs, head.grl_lambda)
        return ad.add(ad.matmul(inputs, self.params[f"head.{name}.w"]),
                      self.params[f"head.{name}.b"])
