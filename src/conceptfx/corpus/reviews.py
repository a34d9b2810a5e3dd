"""Synthetic review-style corpus: sentiment from adjectives, topics per domain.

Sentences come from a small frame grammar with adjective slots (filled from a
polarity lexicon matching the sentiment label) and topic slots (filled with a
domain-planted topic word at the grammar's configured rate, a generic noun
otherwise).  Each example gets an adjective-deletion counterfactual twin, and
the adjective-to-non-adjective ratio drives the score-sorted bias policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bias import apply_ratio_bias
from .io import load_data
from .types import (BiasSpec, BundleMeta, CorpusBundle, CorpusError, Example,
                    TaggedToken, assemble, twin)

REVIEW_LABELS = ("negative", "positive")


@dataclass
class Frame:
    id: int
    tokens: list[str]
    weight: float = 1.0

    def adjective_slots(self) -> int:
        return self.tokens.count("<adj>")

    def validate(self):
        non_adj = [t for t in self.tokens if t != "<adj>"]
        if not non_adj:
            raise CorpusError(f"frame {self.id} has zero non-adjective tokens; "
                              "its counterfactual would be empty")


@dataclass
class ReviewGrammar:
    frames: list[Frame]
    adjectives: dict[str, list[str]]
    topic_words: dict[str, list[str]]
    generic_nouns: list[str]
    topic_word_rate: float = 0.85

    def validate(self, domains: list[str]):
        if not self.frames:
            raise CorpusError("grammar needs at least one frame")
        for frame in self.frames:
            frame.validate()
        for polarity in ("positive", "negative"):
            if not self.adjectives.get(polarity):
                raise CorpusError(f"no {polarity} adjectives in grammar")
        planted = [d for d in domains if self.topic_words.get(d)]
        if len(planted) < 2:
            raise CorpusError("grammar must plant topic words for at least 2 domains")
        if not 0.0 <= self.topic_word_rate <= 1.0:
            raise CorpusError(f"topic word rate out of range: {self.topic_word_rate}")


def default_grammar() -> ReviewGrammar:
    raw = load_data("review_grammar.json")
    return ReviewGrammar(
        frames=[Frame(id=f["id"], tokens=list(f["tokens"]), weight=float(f["weight"])) for f in raw["frames"]],
        adjectives=raw["adjectives"],
        topic_words=raw["topic_words"],
        generic_nouns=raw["generic_nouns"],
        topic_word_rate=float(raw["topic_word_rate"]),
    )


DEFAULT_DOMAINS = ("books", "dvd", "electronics", "kitchen", "movies")


def _token_ratio(tokens: tuple[TaggedToken, ...], example_id: str) -> float:
    n_adj = sum(1 for t in tokens if t.slot == "adjective")
    n_other = len(tokens) - n_adj
    if n_other == 0:
        raise CorpusError(f"example {example_id} has only adjectives")
    return n_adj / n_other


def adjective_ratio(example: Example) -> float:
    """Ratio of adjective tokens to non-adjective tokens."""
    return _token_ratio(example.tokens, example.id)


def delete_adjectives(example: Example) -> Example:
    """Counterfactual twin with every adjective token removed."""
    kept = tuple(t for t in example.tokens if t.slot != "adjective")
    if not kept:
        raise CorpusError(f"example {example.id}: deleting adjectives would leave no tokens")
    concepts = dict(example.concepts)
    if "adjectives" in concepts:
        concepts["adjectives"] = 0
    return twin(example, "adjectives", kept, concepts)


def _build_review(index: int, seed: int, grammar: ReviewGrammar, domains: list[str],
                  frame_probs: np.ndarray) -> tuple[str, int, tuple[TaggedToken, ...]]:
    """(domain, label, tokens) of review ``index``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 11, index)))
    domain = domains[rng.integers(len(domains))]
    label = int(rng.integers(2))
    frame = grammar.frames[rng.choice(len(grammar.frames), p=frame_probs)]

    polarity = REVIEW_LABELS[label]
    pool = list(grammar.adjectives[polarity])
    n_adj = frame.adjective_slots()
    if n_adj > len(pool):
        raise CorpusError(f"frame {frame.id} needs {n_adj} adjectives, lexicon has {len(pool)}")
    adj_choice = list(rng.choice(len(pool), size=n_adj, replace=False)) if n_adj else []

    tokens: list[TaggedToken] = []
    adj_i = 0
    for tok in frame.tokens:
        if tok == "<adj>":
            tokens.append(TaggedToken(pool[adj_choice[adj_i]], "adjective"))
            adj_i += 1
        elif tok == "<topic>":
            if rng.random() < grammar.topic_word_rate and grammar.topic_words.get(domain):
                words = grammar.topic_words[domain]
                tokens.append(TaggedToken(words[rng.integers(len(words))], "topic-word"))
            else:
                tokens.append(TaggedToken(grammar.generic_nouns[rng.integers(len(grammar.generic_nouns))], "filler"))
        else:
            tokens.append(TaggedToken(tok, "filler"))

    return domain, label, tuple(tokens)


def generate_review_corpus(grammar: ReviewGrammar | None = None,
                           domains: list[str] | None = None,
                           bias: BiasSpec | None = None,
                           n: int = 5000,
                           seed: int = 212) -> CorpusBundle:
    """Generate a review corpus with adjective-deletion twins on the test set.

    The binary ``adjectives`` concept is the adjective ratio binarized at the
    median of the full generated pool (computed before any bias deletion).
    Gentle/aggressive bias versions apply the score-sorted deletion policy to
    each split independently.
    """
    grammar = grammar if grammar is not None else default_grammar()
    domains = list(domains) if domains is not None else list(DEFAULT_DOMAINS)
    bias = bias if bias is not None else BiasSpec.reviews("balanced")
    if bias.concept != "adjectives":
        raise CorpusError(f"review corpora take an adjectives bias, got one for {bias.concept!r}")
    grammar.validate(domains)
    if n < 2:
        raise CorpusError(f"cannot build a review corpus with n={n}")

    weights = np.array([f.weight for f in grammar.frames], dtype=float)
    frame_probs = weights / weights.sum()
    drafts = [_build_review(i, seed, grammar, domains, frame_probs) for i in range(n)]
    ids = [f"rev-{i:06d}" for i in range(n)]
    ratios = np.array([_token_ratio(tokens, ex_id) for ex_id, (_, _, tokens) in zip(ids, drafts)])
    median = float(np.median(ratios))

    examples = [
        Example(id=ex_id, tokens=tokens, label=label, concepts={"adjectives": int(ratio > median)},
                domain=domain)
        for ex_id, (domain, label, tokens), ratio in zip(ids, drafts, ratios)
    ]
    meta = BundleMeta(
        seed=seed,
        bias_version=bias.version,
        concepts=["adjectives"],
        label_names=list(REVIEW_LABELS),
        domains=domains,
        lexicon_info={"frames": len(grammar.frames), "topic_word_rate": grammar.topic_word_rate,
                      "ratio_median": median},
    )
    bundle = assemble(examples, meta, lambda index, ex: [delete_adjectives(ex)])
    return apply_ratio_bias(bundle, adjective_ratio, bias.version)
