"""Whitespace-token vocabulary with reserved ids and fixed-length encoding."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PAD_ID, UNK_ID, CLS_ID, MASK_ID = 0, 1, 2, 3
SPECIAL_TOKENS = ("<pad>", "<unk>", "<cls>", "<mask>")


class VocabError(Exception):
    pass


@dataclass
class Vocab:
    """Token-to-id map; ids are dense and stable for a fixed corpus+seed."""

    token_to_id: dict[str, int]
    id_to_token: list[str]

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def get(self, token: str) -> int:
        return self.token_to_id.get(token, UNK_ID)


def build_vocab(corpus) -> Vocab:
    """Build from the training split only; tokens are sorted for stability."""
    examples = corpus.train if hasattr(corpus, "train") else corpus
    if not examples:
        raise VocabError("cannot build a vocabulary from an empty corpus")
    seen = set()
    for ex in examples:
        seen.update(t.surface for t in ex.tokens)
    id_to_token = list(SPECIAL_TOKENS) + sorted(seen)
    token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
    return Vocab(token_to_id=token_to_id, id_to_token=id_to_token)


def encode(tokens, vocab: Vocab, max_len: int) -> tuple[np.ndarray, bool]:
    """Encode surfaces as ``[CLS, t1, ..., PAD...]``; returns (ids, truncated).

    Sequences longer than ``max_len - 1`` lose their tail; callers should
    count truncations.  Out-of-vocabulary tokens map to UNK.
    """
    surfaces = [t.surface if hasattr(t, "surface") else t for t in tokens]
    truncated = len(surfaces) > max_len - 1
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    ids[0] = CLS_ID
    for i, tok in enumerate(surfaces[:max_len - 1]):
        ids[i + 1] = vocab.get(tok)
    return ids, truncated


def encode_batch(examples, vocab: Vocab, max_len: int) -> tuple[np.ndarray, int]:
    """Encode a list of examples; returns (ids[B, L], truncation count)."""
    ids = np.empty((len(examples), max_len), dtype=np.int64)
    truncations = 0
    for i, ex in enumerate(examples):
        row, truncated = encode(ex.tokens, vocab, max_len)
        ids[i] = row
        truncations += int(truncated)
    return ids, truncations
