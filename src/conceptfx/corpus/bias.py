"""Concept-label correlation measurement.  The bias it measures is injected
by ``poms`` (per-label concept draws) and ``reviews.apply_ratio_bias``."""

from __future__ import annotations

from .types import CorpusBundle, CorpusError, UndefinedCorrelationError


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
