"""Synthetic review-style corpus: sentiment from adjectives, topics per domain.

Sentences come from the packaged frame grammar, ``data/review_grammar.json``,
read once at import.  The frame draw table and every token a review can hold
are built from it then too, once, and shared by every review.  A frame's
adjective slots are filled from a polarity lexicon matching the sentiment
label, and its topic slots with a domain-planted topic word at the grammar's
``topic_word_rate``, a generic noun otherwise.  Generation is a pure
function of (bias, n, seed).  Each example gets an adjective-deletion
counterfactual twin, and the adjective-to-non-adjective ratio drives the
score-sorted bias policy of ``apply_ratio_bias``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..checks import integer
from .io import load_data
from .types import (BIAS_VERSIONS, BiasSpec, BundleMeta, CorpusBundle, CorpusError,
                    Example, TaggedToken, assemble, draw, draw_table, tagged, twin)

REVIEW_LABELS = ("negative", "positive")
DEFAULT_DOMAINS = ("books", "dvd", "electronics", "kitchen", "movies")

_GRAMMAR = load_data("review_grammar.json")
_FRAMES = _GRAMMAR["frames"]
_FRAME_CDF = draw_table([frame["weight"] for frame in _FRAMES], "frame")

# Every token a review can hold is built here once, and reviews share them.
_ADJECTIVE_TOKENS = [tagged(_GRAMMAR["adjectives"][label], "adjective") for label in REVIEW_LABELS]
_TOPIC_TOKENS = {domain: tagged(words, "topic-word") for domain, words in _GRAMMAR["topic_words"].items()}
_NOUN_TOKENS = tagged(_GRAMMAR["generic_nouns"], "filler")
# Per frame: its tokens, the fixed ones tagged and "<adj>" / "<topic>" left as strings,
# and its number of adjective slots.
_FRAME_TOKENS = [(tuple(tok if tok in ("<adj>", "<topic>") else TaggedToken(tok, "filler")
                        for tok in frame["tokens"]), frame["tokens"].count("<adj>"))
                 for frame in _FRAMES]


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


def _filter_split(examples: list[Example], version: str, split_name: str) -> list[Example]:
    negatives = [e for e in examples if e.label == 0]
    positives = [e for e in examples if e.label == 1]
    if not negatives or not positives:
        raise CorpusError(f"{split_name} split has an empty label stratum; cannot apply bias")

    scores = {e.id: adjective_ratio(e) for e in examples}
    drop: set[str] = set()
    by_score_desc = sorted(negatives, key=lambda e: (-scores[e.id], e.id))
    drop.update(e.id for e in by_score_desc[:len(negatives) // 2])
    if version == "aggressive":
        by_score_asc = sorted(positives, key=lambda e: (scores[e.id], e.id))
        drop.update(e.id for e in by_score_asc[:len(positives) // 2])
    return [e for e in examples if e.id not in drop]


def apply_ratio_bias(bundle: CorpusBundle, version: str) -> CorpusBundle:
    """Delete examples sorted by ``adjective_ratio`` to correlate it with the label.

    balanced is the identity.  gentle deletes the top-half-by-ratio
    negative-label examples; aggressive additionally deletes the
    bottom-half-by-ratio positive-label examples ("half" rounds down).  Each
    split is filtered independently; pairs whose factual member was deleted
    are dropped.  A bundle already biased takes ``balanced`` only: a second
    deletion would compound the first under the new version's name.  Only a
    bundle labelled ``REVIEW_LABELS`` can be biased: the policy reads label 0
    as negative and 1 as positive.
    """
    if bundle.meta.label_names != list(REVIEW_LABELS):
        raise CorpusError(f"ratio bias needs the labels {list(REVIEW_LABELS)}, got {bundle.meta.label_names}")
    if version not in BIAS_VERSIONS:
        raise CorpusError(f"unknown bias version {version!r}")
    if version == "balanced":
        return bundle
    if bundle.meta.bias_version != "balanced":
        raise CorpusError(f"bundle is already {bundle.meta.bias_version}; only a balanced one can become {version}")
    train = _filter_split(bundle.train, version, "train")
    dev = _filter_split(bundle.dev, version, "dev")
    test = _filter_split(bundle.test, version, "test")
    kept_ids = {e.id for e in (*train, *dev, *test)}
    pairs = [p for p in bundle.pairs if p.factual.id in kept_ids]
    return CorpusBundle(train=train, dev=dev, test=test, pairs=pairs,
                        meta=replace(bundle.meta, bias_version=version))


def _build_review(index: int, seed: int) -> tuple[str, int, tuple[TaggedToken, ...]]:
    """(domain, label, tokens) of review ``index``."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 11, index)))
    domain = DEFAULT_DOMAINS[rng.integers(len(DEFAULT_DOMAINS))]
    label = int(rng.integers(2))
    frame, n_adj = _FRAME_TOKENS[draw(rng, _FRAME_CDF)]

    pool = _ADJECTIVE_TOKENS[label]
    adjectives = iter(rng.choice(len(pool), size=n_adj, replace=False)) if n_adj else None

    tokens: list[TaggedToken] = []
    for tok in frame:
        if type(tok) is TaggedToken:
            tokens.append(tok)
        elif tok == "<adj>":
            tokens.append(pool[next(adjectives)])
        elif rng.random() < _GRAMMAR["topic_word_rate"]:
            words = _TOPIC_TOKENS[domain]
            tokens.append(words[rng.integers(len(words))])
        else:
            tokens.append(_NOUN_TOKENS[rng.integers(len(_NOUN_TOKENS))])

    return domain, label, tuple(tokens)


def generate_review_corpus(bias: BiasSpec | None = None, n: int = 5000, seed: int = 212) -> CorpusBundle:
    """Generate a review corpus with adjective-deletion twins on the test set.

    The binary ``adjectives`` concept is the adjective ratio binarized at the
    median of the full generated pool (computed before any bias deletion).
    Gentle/aggressive bias versions apply the score-sorted deletion policy to
    each split independently.
    """
    bias = bias if bias is not None else BiasSpec.reviews("balanced")
    if bias.concept != "adjectives":
        raise CorpusError(f"review corpora take an adjectives bias, got one for {bias.concept!r}")
    integer(seed, "seed", CorpusError)
    integer(n, "n", CorpusError, low=2)
    drafts = [_build_review(i, seed) for i in range(n)]
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
        bias_version="balanced",  # until apply_ratio_bias deletes to bias.version
        concepts=["adjectives"],
        label_names=list(REVIEW_LABELS),
        domains=list(DEFAULT_DOMAINS),
        provenance={"frames": len(_FRAMES), "topic_word_rate": _GRAMMAR["topic_word_rate"],
                      "ratio_median": median},
    )
    bundle = assemble(examples, meta, lambda index, ex: [delete_adjectives(ex)])
    return apply_ratio_bias(bundle, bias.version)
