"""Synthetic review-style corpus: sentiment from adjectives, topics per domain.

Sentences come from the packaged frame grammar, ``data/review_grammar.json``,
read once at import.  Its adjective slots are filled from a polarity lexicon
matching the sentiment label, and its topic slots with a domain-planted topic
word at the grammar's ``topic_word_rate``, a generic noun otherwise.
Generation is a pure function of (bias, n, seed).  Each example gets an
adjective-deletion counterfactual twin, and the adjective-to-non-adjective
ratio drives the score-sorted bias policy of ``apply_ratio_bias``.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..checks import integer
from .io import load_data
from .types import (BIAS_VERSIONS, BiasSpec, BundleMeta, CorpusBundle, CorpusError,
                    Example, TaggedToken, assemble, template_probs, twin)

REVIEW_LABELS = ("negative", "positive")
DEFAULT_DOMAINS = ("books", "dvd", "electronics", "kitchen", "movies")

_GRAMMAR = load_data("review_grammar.json")
_FRAMES = [frame["tokens"] for frame in _GRAMMAR["frames"]]
_FRAME_PROBS = template_probs([frame["weight"] for frame in _GRAMMAR["frames"]])


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
    frame = _FRAMES[rng.choice(len(_FRAMES), p=_FRAME_PROBS)]

    pool = _GRAMMAR["adjectives"][REVIEW_LABELS[label]]
    n_adj = frame.count("<adj>")
    adj_choice = list(rng.choice(len(pool), size=n_adj, replace=False)) if n_adj else []

    tokens: list[TaggedToken] = []
    adj_i = 0
    for tok in frame:
        if tok == "<adj>":
            tokens.append(TaggedToken(pool[adj_choice[adj_i]], "adjective"))
            adj_i += 1
        elif tok == "<topic>":
            if rng.random() < _GRAMMAR["topic_word_rate"]:
                words = _GRAMMAR["topic_words"][domain]
                tokens.append(TaggedToken(words[rng.integers(len(words))], "topic-word"))
            else:
                nouns = _GRAMMAR["generic_nouns"]
                tokens.append(TaggedToken(nouns[rng.integers(len(nouns))], "filler"))
        else:
            tokens.append(TaggedToken(tok, "filler"))

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
