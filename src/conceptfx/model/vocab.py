"""Whitespace-token vocabulary with reserved ids and fixed-length encoding.

``build_vocab`` reads a bundle's training split and ``encode_batch`` is the one
encoder: every stage reads its token ids from the rows it writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..checks import integer

PAD_ID, UNK_ID, CLS_ID, MASK_ID = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<unk>", "<cls>", "<mask>")


class VocabError(Exception):
    pass


@dataclass
class Vocab:
    """Token-to-id map; ids are dense and stable for a fixed corpus+seed."""

    id_to_token: list[str]
    token_to_id: dict[str, int] = field(init=False)

    def __post_init__(self):
        self.token_to_id = {tok: i for i, tok in enumerate(self.id_to_token)}

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def get(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def build_vocab(bundle) -> Vocab:
    """Build from ``bundle.train`` only; tokens are sorted for stability."""
    if not bundle.train:
        raise VocabError("cannot build a vocabulary from an empty corpus")
    return Vocab(list(SPECIAL_TOKENS) + sorted({t.surface for ex in bundle.train for t in ex.tokens}))


def encode_batch(examples, vocab: Vocab, max_len: int) -> tuple[np.ndarray, int]:
    """Encode tagged examples as rows ``[CLS, t1, ..., PAD...]``; returns
    (ids[B, max_len], truncation count).

    A row holds the surfaces of an example's first ``max_len - 1`` tokens; an
    example with more loses its tail and counts as one truncation.
    Out-of-vocabulary surfaces map to UNK.
    """
    integer(max_len, "max_len", VocabError, low=1)  # room for CLS
    ids = np.full((len(examples), max_len), PAD_ID, dtype=np.int64)
    ids[:, 0] = CLS_ID
    truncations = 0
    for row, ex in zip(ids, examples):
        tokens = ex.tokens[:max_len - 1]
        row[1:len(tokens) + 1] = [vocab.get(t.surface) for t in tokens]
        truncations += len(ex.tokens) > len(tokens)
    return ids, truncations
