"""Synthetic corpora with ground-truth concept annotations and exact
counterfactual twins, controllable concept-label correlation, and
deterministic 64/16/20 splits.  POMS templates and review frames are both
``types.Template``; each generator injects its own bias, and ``bias`` measures it.
"""

from .bias import measure_correlation
from .io import read_jsonl, write_jsonl
from .poms import (POMS_LABELS, PomsLexicons, default_lexicons,
                   default_templates, flip_concept, generate_poms_corpus)
from .reviews import (DEFAULT_DOMAINS, REVIEW_LABELS, ReviewGrammar,
                      adjective_ratio, apply_ratio_bias, default_grammar,
                      delete_adjectives, generate_review_corpus)
from .types import (BiasSpec, BundleMeta, CorpusBundle, CorpusError, Example,
                    ExamplePair, SLOT_KINDS, TaggedToken, Template,
                    UndefinedCorrelationError, split_sizes)

__all__ = [
    "BiasSpec", "BundleMeta", "CorpusBundle", "CorpusError", "Example",
    "ExamplePair", "SLOT_KINDS", "TaggedToken", "Template", "UndefinedCorrelationError",
    "POMS_LABELS", "REVIEW_LABELS", "DEFAULT_DOMAINS",
    "PomsLexicons", "ReviewGrammar",
    "default_lexicons", "default_templates", "default_grammar",
    "generate_poms_corpus", "generate_review_corpus",
    "flip_concept", "delete_adjectives", "adjective_ratio",
    "apply_ratio_bias", "measure_correlation",
    "read_jsonl", "write_jsonl", "split_sizes",
]
