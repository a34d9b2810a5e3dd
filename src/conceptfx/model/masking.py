"""Masking plans for the token-prediction objectives.

Selected positions are rewritten with the 80/10/10 scheme: 80% become the
mask token, 10% keep their original token (but are still predicted), 10%
become a random non-special token.  Plans are deterministic functions of
(input, seed) and never select CLS or PAD positions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..checks import integer, real
from .vocab import CLS_ID, MASK_ID, PAD_ID, SPECIAL_TOKENS, Vocab, encode_batch

ACTION_MASK, ACTION_KEEP_PREDICT, ACTION_RANDOM = 0, 1, 2


class MaskingError(Exception):
    pass


@dataclass
class MaskingPlan:
    """Per-position actions and prediction targets for one sequence."""

    positions: np.ndarray                    # selected positions, ascending
    actions: np.ndarray                      # ACTION_* code per selected position
    replacements: np.ndarray                 # token id to write at each position
    mlm_targets: np.ndarray | None = None    # original ids (token-prediction task)
    binary_targets: np.ndarray | None = None # 1 = adjective (token-kind task)
    imbalance: int = 0                       # shortfall of non-adjective picks

    def __len__(self):
        return len(self.positions)

    def apply(self, ids: np.ndarray) -> np.ndarray:
        """Return a copy of ``ids`` with the plan's replacements written in."""
        out = ids.copy()
        out[self.positions] = self.replacements
        return out


def _assign_actions(rng: np.random.Generator, positions: np.ndarray, ids: np.ndarray,
                    vocab_size: int) -> tuple[np.ndarray, np.ndarray]:
    if vocab_size <= len(SPECIAL_TOKENS):
        raise MaskingError(f"vocabulary of {vocab_size} tokens has no non-special token to draw")
    u = rng.random(len(positions))
    actions = np.where(u < 0.8, ACTION_MASK,
                       np.where(u < 0.9, ACTION_KEEP_PREDICT, ACTION_RANDOM))
    replacements = np.where(actions == ACTION_MASK, MASK_ID, ids[positions])
    random_slots = actions == ACTION_RANDOM
    if random_slots.any():  # an empty draw would leave the stream as is but still costs a call
        replacements[random_slots] = rng.integers(len(SPECIAL_TOKENS), vocab_size, size=int(random_slots.sum()))
    return actions, replacements


def mlm_mask(ids: np.ndarray, vocab: Vocab, rate: float = 0.15, seed: int = 0) -> MaskingPlan:
    """Select each non-special position independently with probability ``rate``."""
    real(rate, "rate", MaskingError, 0.0, 1.0, high_open=False)
    integer(seed, "seed", MaskingError)
    ids = np.asarray(ids)
    if ids.ndim != 1:
        raise MaskingError(f"ids must be one 1-D sequence, got shape {ids.shape}")
    eligible = (ids != PAD_ID) & (ids != CLS_ID)
    if not eligible.any():
        raise MaskingError("no maskable positions")
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    picks = (rng.random(len(ids)) < rate) & eligible
    positions = np.flatnonzero(picks)
    actions, replacements = _assign_actions(rng, positions, ids, vocab.size)
    return MaskingPlan(positions=positions, actions=actions, replacements=replacements,
                       mlm_targets=ids[positions].copy())


def ima_mask(example, vocab: Vocab, seed: int = 0, max_len: int = 32) -> MaskingPlan:
    """Mask every adjective plus an equal number of random non-adjectives.

    Targets are the binary is-adjective flags, balanced exactly unless the
    sequence lacks enough non-adjective tokens, in which case all available
    ones are selected and the shortfall is recorded as ``imbalance``.
    """
    integer(seed, "seed", MaskingError)
    (ids,), _ = encode_batch([example], vocab, max_len)
    is_adjective = np.array([t.slot == "adjective" for t in example.tokens[:max_len - 1]], dtype=bool)
    slots = np.arange(1, len(is_adjective) + 1)  # token i sits at position i + 1, after CLS
    adj_positions, other_positions = slots[is_adjective], slots[~is_adjective]
    if len(adj_positions) == 0:
        raise MaskingError(f"example {example.id} has no adjective tokens")
    rng = np.random.default_rng(np.random.SeedSequence((seed,)))
    want = len(adj_positions)
    if len(other_positions) >= want:
        chosen = rng.choice(other_positions, size=want, replace=False)
        imbalance = 0
    else:
        chosen = other_positions
        imbalance = want - len(other_positions)
    positions = np.sort(np.concatenate([adj_positions, chosen]))
    actions, replacements = _assign_actions(rng, positions, ids, vocab.size)
    return MaskingPlan(positions=positions, actions=actions, replacements=replacements,
                       binary_targets=is_adjective[positions - 1].astype(np.int64), imbalance=imbalance)
