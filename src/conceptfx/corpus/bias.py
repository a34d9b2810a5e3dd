"""Score-sorted bias injection and concept-label correlation measurement."""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from .types import (BIAS_VERSIONS, CorpusBundle, CorpusError, Example,
                    UndefinedCorrelationError)


def _filter_split(examples: list[Example], score: Callable[[Example], float],
                  version: str, split_name: str) -> list[Example]:
    negatives = [e for e in examples if e.label == 0]
    positives = [e for e in examples if e.label == 1]
    if not negatives or not positives:
        raise CorpusError(f"{split_name} split has an empty label stratum; cannot apply bias")

    drop: set[str] = set()
    by_score_desc = sorted(negatives, key=lambda e: (-score(e), e.id))
    drop.update(e.id for e in by_score_desc[:len(negatives) // 2])
    if version == "aggressive":
        by_score_asc = sorted(positives, key=lambda e: (score(e), e.id))
        drop.update(e.id for e in by_score_asc[:len(positives) // 2])
    return [e for e in examples if e.id not in drop]


def apply_ratio_bias(bundle: CorpusBundle, score: Callable[[Example], float],
                     version: str) -> CorpusBundle:
    """Delete examples by sorted score to correlate the score with the label.

    balanced is the identity.  gentle deletes the top-half-by-score
    negative-label examples; aggressive additionally deletes the
    bottom-half-by-score positive-label examples ("half" rounds down).  Each
    split is filtered independently; pairs whose factual member was deleted
    are dropped.
    """
    if version not in BIAS_VERSIONS:
        raise CorpusError(f"unknown bias version {version!r}")
    if version == "balanced":
        return bundle
    for ex in bundle.all_examples():
        score(ex)  # pre: score defined for all examples

    train = _filter_split(bundle.train, score, version, "train")
    dev = _filter_split(bundle.dev, score, version, "dev")
    test = _filter_split(bundle.test, score, version, "test")
    kept_ids = {e.id for e in (*train, *dev, *test)}
    pairs = [p for p in bundle.pairs if p.factual.id in kept_ids]

    meta = replace(bundle.meta, bias_version=version)
    out = CorpusBundle(train=train, dev=dev, test=test, pairs=pairs, meta=meta)
    # Deletion shifts the split fractions slightly; everything else must hold.
    for split_name in ("train", "dev", "test"):
        for ex in getattr(out, split_name):
            ex.validate(len(meta.label_names), None, tuple(meta.concepts))
    return out


def measure_correlation(bundle: CorpusBundle, concept: str,
                        target_label: str | None = None) -> float:
    """Pearson correlation of a binary concept with the binarized label.

    The label is binarized as target-class-vs-rest (``joy`` for mood-state
    corpora, the positive class for sentiment) over train, dev, and test
    combined.  Raises ``UndefinedCorrelationError`` when either variable has
    zero variance.
    """
    examples = bundle.all_examples()
    if not examples:
        raise CorpusError("cannot measure correlation of an empty corpus")
    names = bundle.meta.label_names
    if target_label is None:
        target_label = "joy" if "joy" in names else names[-1]
    if target_label not in names:
        raise CorpusError(f"unknown target label {target_label!r}")
    target = names.index(target_label)

    for ex in examples:
        if concept not in ex.concepts:
            raise CorpusError(f"example {ex.id} lacks concept {concept!r}")
    c = [ex.concepts[concept] for ex in examples]
    y = [1 if ex.label == target else 0 for ex in examples]
    n = len(examples)
    mean_c = sum(c) / n
    mean_y = sum(y) / n
    cov = sum((ci - mean_c) * (yi - mean_y) for ci, yi in zip(c, y))
    var_c = sum((ci - mean_c) ** 2 for ci in c)
    var_y = sum((yi - mean_y) ** 2 for yi in y)
    if var_c == 0 or var_y == 0:
        raise UndefinedCorrelationError(
            f"zero variance (concept var {var_c}, label var {var_y}); correlation undefined")
    return cov / (var_c * var_y) ** 0.5
