"""Synthetic corpora with ground-truth concept annotations and exact
counterfactual twins, controllable concept-label correlation, and
deterministic 64/16/20 splits.  The corpora are the packaged ones under
``data/``: each generator is a pure function of (bias, n, seed), injects its
own bias, and ``bias`` measures it.
"""

from .bias import measure_correlation
from .io import read_jsonl, write_jsonl
from .poms import POMS_LABELS, expected_correlation, flip_concept, generate_poms_corpus
from .reviews import (DEFAULT_DOMAINS, REVIEW_LABELS, adjective_ratio, apply_ratio_bias,
                      delete_adjectives, generate_review_corpus)
from .types import (BiasSpec, BundleMeta, CorpusBundle, CorpusError, Example,
                    ExamplePair, SLOT_KINDS, TaggedToken, UndefinedCorrelationError,
                    split_sizes)
