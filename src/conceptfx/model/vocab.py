"""Whitespace-token vocabulary with reserved ids and fixed-length encoding."""

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


def build_vocab(corpus) -> Vocab:
    """Build from the training split only; tokens are sorted for stability."""
    examples = corpus.train if hasattr(corpus, "train") else corpus
    if not examples:
        raise VocabError("cannot build a vocabulary from an empty corpus")
    seen = set()
    for ex in examples:
        seen.update(t.surface for t in ex.tokens)
    return Vocab(list(SPECIAL_TOKENS) + sorted(seen))


def encode(tokens, vocab: Vocab, max_len: int) -> tuple[np.ndarray, bool]:
    """Encode surfaces as ``[CLS, t1, ..., PAD...]``; returns (ids, truncated).

    Sequences longer than ``max_len - 1`` lose their tail; callers should
    count truncations.  Out-of-vocabulary tokens map to UNK.
    """
    integer(max_len, "max_len", VocabError, low=1)  # room for CLS
    ids = np.empty(max_len, dtype=np.int64)
    return ids, _fill(ids, tokens, vocab)


def encode_batch(examples, vocab: Vocab, max_len: int) -> tuple[np.ndarray, int]:
    """Encode a list of examples; returns (ids[B, L], truncation count)."""
    integer(max_len, "max_len", VocabError, low=1)  # room for CLS
    ids = np.empty((len(examples), max_len), dtype=np.int64)
    truncations = sum(_fill(row, ex.tokens, vocab) for row, ex in zip(ids, examples))
    return ids, truncations


def _fill(row: np.ndarray, tokens, vocab: Vocab) -> bool:
    """Write ``tokens`` (surfaces or tagged tokens) encoded into ``row``;
    returns whether they were truncated."""
    surfaces = [t.surface if hasattr(t, "surface") else t for t in tokens]
    row[:] = PAD_ID
    row[0] = CLS_ID
    for i, tok in enumerate(surfaces[:len(row) - 1]):
        row[i + 1] = vocab.get(tok)
    return len(surfaces) > len(row) - 1
