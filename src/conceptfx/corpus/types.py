"""Core corpus data types: tagged tokens, examples, counterfactual pairs, bundles.

Bundles are generated from the packaged corpus data as pure functions of
(bias, n, seed) and are treated as immutable once built; they are safe to
share across threads, and every example draws from its own ``(seed, index)``
stream.  ``assemble`` owns the 64/16/20 split and records test examples'
twins only in ``CorpusBundle.pairs``.  These records carry no checks of their
own: stored ones are checked where they enter, by ``io.read_jsonl``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

_TWIN_MARK = "~cf~"

SLOT_KINDS = (
    "adjective",
    "person-name",
    "gender-pronoun",
    "emotion-word",
    "topic-word",
    "noise",
    "filler",
)

SPLIT_FRACTIONS = (0.64, 0.16, 0.20)


class CorpusError(Exception):
    """Invalid corpus construction request or malformed corpus data."""


class UndefinedCorrelationError(CorpusError):
    """Concept or label has zero variance, so correlation is undefined."""


class TaggedToken(NamedTuple):
    """One non-empty lowercase surface token plus its generated ground-truth slot kind."""

    surface: str
    slot: str


def template_probs(weights: list[float]) -> np.ndarray:
    """The probability of drawing each template or frame, proportional to its weight."""
    weights = np.array(weights, dtype=float)
    return weights / weights.sum()


@dataclass(frozen=True)
class Example:
    """A tagged token sequence with task label and binary concept values.

    ``concepts`` is stored as a read-only copy of the mapping it is given.
    """

    id: str
    tokens: tuple[TaggedToken, ...]
    label: int
    concepts: Mapping[str, int]
    domain: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "concepts", MappingProxyType(dict(self.concepts)))


@dataclass(frozen=True)
class ExamplePair:
    """A factual example and its exact counterfactual twin, with the same label, for one concept."""

    factual: Example
    counterfactual: Example

    @property
    def concept(self) -> str:
        """The concept the twin intervenes on, read off its id."""
        return twin_origin(self.counterfactual.id)[1]


def twin(factual: Example, concept: str, tokens: tuple[TaggedToken, ...],
         concepts: dict[str, int]) -> Example:
    """The counterfactual twin of ``factual`` with ``concept`` intervened on.

    The twin keeps the factual label and domain; its id is
    ``<factual-id>~cf~<concept>``, which ``twin_origin`` parses back.
    """
    return Example(id=f"{factual.id}{_TWIN_MARK}{concept}", tokens=tokens, label=factual.label,
                   concepts=concepts, domain=factual.domain)


def twin_origin(twin_id: str) -> tuple[str, str]:
    """``(factual_id, concept)`` of a twin id built by ``twin``."""
    factual_id, mark, concept = twin_id.rpartition(_TWIN_MARK)
    if not mark:
        raise CorpusError(f"counterfactual id {twin_id!r} lacks the {_TWIN_MARK}<concept> suffix")
    return factual_id, concept


BIAS_VERSIONS = ("balanced", "gentle", "aggressive")


@dataclass(frozen=True)
class BiasSpec:
    """How much concept-label correlation to inject into a corpus.

    ``version`` names a rung of the bias ladder; each generator defines what
    a rung means for its corpus (``poms`` per-label concept probabilities,
    ``reviews`` deletion of examples sorted by their adjective ratio).
    """

    version: str
    concept: str

    def __post_init__(self):
        if self.version not in BIAS_VERSIONS:
            raise CorpusError(f"unknown bias version {self.version!r}")

    @classmethod
    def poms(cls, version: str, concept: str = "gender") -> "BiasSpec":
        """A mood-state rung for a binary person concept."""
        return cls(version=version, concept=concept)

    @classmethod
    def reviews(cls, version: str) -> "BiasSpec":
        return cls(version=version, concept="adjectives")


@dataclass
class BundleMeta:
    """Provenance carried alongside the examples."""

    seed: int
    bias_version: str
    concepts: list[str]
    label_names: list[str]
    domains: list[str] = field(default_factory=list)
    lexicon_info: dict = field(default_factory=dict)


@dataclass
class CorpusBundle:
    """Deterministic splits plus counterfactual pairs for the test set."""

    train: list[Example]
    dev: list[Example]
    test: list[Example]
    pairs: list[ExamplePair]
    meta: BundleMeta

    def all_examples(self) -> list[Example]:
        return [*self.train, *self.dev, *self.test]


def split_sizes(n: int) -> tuple[int, int, int]:
    """64/16/20 split sizes with +/-1-example rounding."""
    n_train = round(SPLIT_FRACTIONS[0] * n)
    n_dev = round(SPLIT_FRACTIONS[1] * n)
    return n_train, n_dev, n - n_train - n_dev


def assemble(examples: list[Example], meta: BundleMeta,
             twins: Callable[[int, Example], Iterable[Example]]) -> CorpusBundle:
    """The 64/16/20 split of ``examples``, each test example paired with the
    ``twin``-built examples that ``twins(index, example)`` gives for it."""
    sizes = split_sizes(len(examples))
    n_fit = sizes[0] + sizes[1]
    pairs = [ExamplePair(factual=ex, counterfactual=cf)
             for index, ex in enumerate(examples[n_fit:], start=n_fit) for cf in twins(index, ex)]
    return CorpusBundle(train=examples[:sizes[0]], dev=examples[sizes[0]:n_fit],
                        test=examples[n_fit:], pairs=pairs, meta=meta)
