"""Masking plans for the token-prediction objectives.

Selected positions are rewritten with the 80/10/10 scheme: 80% become the
mask token, 10% keep their original token (but are still predicted), 10%
become a random non-special token.  Plans are deterministic functions of
(input, seed) and never select CLS or PAD positions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .vocab import CLS_ID, MASK_ID, PAD_ID, Vocab, encode

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
    u = rng.random(len(positions))
    actions = np.where(u < 0.8, ACTION_MASK,
                       np.where(u < 0.9, ACTION_KEEP_PREDICT, ACTION_RANDOM))
    replacements = np.where(actions == ACTION_MASK, MASK_ID, ids[positions])
    random_slots = actions == ACTION_RANDOM
    if random_slots.any():
        replacements = replacements.copy()
        replacements[random_slots] = rng.integers(4, vocab_size, size=int(random_slots.sum()))
    return actions, replacements


def mlm_mask(ids: np.ndarray, vocab: Vocab, rate: float = 0.15, seed: int = 0) -> MaskingPlan:
    """Select each non-special position independently with probability ``rate``."""
    if not (isinstance(rate, numbers.Real) and not isinstance(rate, bool) and 0.0 <= rate <= 1.0):
        raise MaskingError(f"rate must be a real number in [0, 1], got {rate!r}")
    ids = np.asarray(ids)
    eligible = (ids != PAD_ID) & (ids != CLS_ID)
    if not eligible.any():
        raise MaskingError("no maskable positions")
    rng = np.random.default_rng(seed)
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
    ids, _ = encode(example.tokens, vocab, max_len)
    limit = min(len(example.tokens), max_len - 1)
    adj_positions = np.array([i + 1 for i in range(limit)
                              if example.tokens[i].slot == "adjective"], dtype=np.int64)
    if len(adj_positions) == 0:
        raise MaskingError(f"example {example.id} has no adjective tokens")
    other_positions = np.array([i + 1 for i in range(limit)
                                if example.tokens[i].slot != "adjective"], dtype=np.int64)
    rng = np.random.default_rng(seed)
    want = len(adj_positions)
    if len(other_positions) >= want:
        chosen = rng.choice(other_positions, size=want, replace=False)
        imbalance = 0
    else:
        chosen = other_positions
        imbalance = want - len(other_positions)
    positions = np.sort(np.concatenate([adj_positions, chosen]))
    adjectives = set(adj_positions.tolist())
    binary = np.array([1 if p in adjectives else 0 for p in positions], dtype=np.int64)
    actions, replacements = _assign_actions(rng, positions, ids, vocab.size)
    return MaskingPlan(positions=positions, actions=actions, replacements=replacements,
                       binary_targets=binary, imbalance=imbalance)
