"""Core corpus data types: tagged tokens, examples, counterfactual pairs.

Bundles are generated as pure functions of (config, seed) and are treated as
immutable once built; they are safe to share across threads, and shards with
disjoint sub-seeds can be generated in parallel.  ``assemble`` owns the
64/16/20 split and pairs test examples with their twins; ``CorpusBundle.pairs``
is the only record of a pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

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


@dataclass(frozen=True)
class TaggedToken:
    """One surface token plus its generated ground-truth slot kind."""

    surface: str
    slot: str

    def __post_init__(self):
        if not self.surface:
            raise CorpusError("token surface must be non-empty")
        if self.slot not in SLOT_KINDS:
            raise CorpusError(f"unknown slot kind {self.slot!r}")


@dataclass(frozen=True)
class Example:
    """A tagged token sequence with task label and binary concept values."""

    id: str
    tokens: tuple[TaggedToken, ...]
    label: int
    concepts: dict[str, int]
    domain: str | None = None

    def validate(self, n_labels: int, max_tokens: int | None = None,
                 required_concepts: tuple[str, ...] = ()):
        if not 0 <= self.label < n_labels:
            raise CorpusError(f"example {self.id}: label {self.label} out of range")
        if max_tokens is not None and len(self.tokens) > max_tokens:
            raise CorpusError(f"example {self.id}: {len(self.tokens)} tokens exceeds {max_tokens}")
        for concept in required_concepts:
            if concept not in self.concepts:
                raise CorpusError(f"example {self.id}: missing concept {concept!r}")
        for concept, value in self.concepts.items():
            if value not in (0, 1):
                raise CorpusError(f"example {self.id}: concept {concept!r} not binary")


@dataclass
class ExamplePair:
    """A factual example and its exact counterfactual twin for one concept."""

    factual: Example
    counterfactual: Example
    concept: str

    def validate(self):
        if twin_origin(self.counterfactual.id) != (self.factual.id, self.concept):
            raise CorpusError(f"pair for {self.factual.id}: {self.counterfactual.id!r} is not "
                              f"its {self.concept!r} twin")
        if self.factual.label != self.counterfactual.label:
            raise CorpusError(f"pair for {self.factual.id}: labels differ")


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


@dataclass
class BiasSpec:
    """How much concept-label correlation to inject into a corpus.

    POMS-style corpora use ``label_probs`` (probability that the concept takes
    value 1 given each label); review-style corpora (concept ``adjectives``)
    delete examples sorted by their adjective ratio.
    """

    version: str
    concept: str | None = None
    label_probs: dict[str, float] | None = None

    def __post_init__(self):
        if self.version not in BIAS_VERSIONS:
            raise CorpusError(f"unknown bias version {self.version!r}")
        if self.label_probs is not None:
            for label, p in self.label_probs.items():
                if not 0.0 <= p <= 1.0:
                    raise CorpusError(f"bias probability for label {label!r} out of [0, 1]: {p}")

    @classmethod
    def poms(cls, version: str, concept: str = "gender") -> "BiasSpec":
        """Standard mood-state bias ladder for a binary person concept.

        balanced: concept drawn uniformly for every label.  gentle: ``joy``
        is 90% concept=1, other labels stay 50/50.  aggressive: ``joy`` is
        90% concept=1 and the other labels drop to 10%.
        """
        others = ("anger", "sadness", "fear")
        if version == "balanced":
            probs = {label: 0.5 for label in ("joy", *others)}
        elif version == "gentle":
            probs = {"joy": 0.9, **{label: 0.5 for label in others}}
        else:
            probs = {"joy": 0.9, **{label: 0.1 for label in others}}
        return cls(version=version, concept=concept, label_probs=probs)

    @classmethod
    def reviews(cls, version: str) -> "BiasSpec":
        return cls(version=version, concept="adjectives")

    def expected_correlation(self, target_label: str) -> float:
        """Pearson correlation implied by ``label_probs`` with uniform labels."""
        if self.label_probs is None:
            raise CorpusError("expected_correlation requires label_probs")
        labels = sorted(self.label_probs)
        k = len(labels)
        p_target = self.label_probs[target_label]
        e_c = sum(self.label_probs.values()) / k
        e_y = 1.0 / k
        cov = p_target / k - e_c * e_y
        var_c = e_c * (1 - e_c)
        var_y = e_y * (1 - e_y)
        if var_c == 0 or var_y == 0:
            raise UndefinedCorrelationError("degenerate bias specification")
        return cov / (var_c * var_y) ** 0.5


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

    def validate(self, max_tokens: int | None = None):
        n_labels = len(self.meta.label_names)
        required = tuple(self.meta.concepts)
        seen: set[str] = set()
        for split_name in ("train", "dev", "test"):
            for ex in getattr(self, split_name):
                ex.validate(n_labels, max_tokens, required)
                if ex.id in seen:
                    raise CorpusError(f"example id {ex.id} appears in two splits")
                seen.add(ex.id)
        for pair in self.pairs:
            pair.validate()


def split_sizes(n: int) -> tuple[int, int, int]:
    """64/16/20 split sizes with +/-1-example rounding."""
    n_train = round(SPLIT_FRACTIONS[0] * n)
    n_dev = round(SPLIT_FRACTIONS[1] * n)
    return n_train, n_dev, n - n_train - n_dev


def assemble(examples: list[Example], meta: BundleMeta,
             twins: Callable[[int, Example], Iterable[Example]]) -> CorpusBundle:
    """The validated 64/16/20 split of ``examples``, each test example paired with
    the ``twin``-built examples that ``twins(index, example)`` gives for it."""
    sizes = split_sizes(len(examples))
    for split_name, size, frac in zip(("train", "dev", "test"), sizes, SPLIT_FRACTIONS):
        if abs(size - frac * len(examples)) > 1.0:
            raise CorpusError(f"{split_name} split has {size} of {len(examples)} examples, "
                              f"expected {frac:.0%} +/- 1")
    n_fit = sizes[0] + sizes[1]
    pairs = [ExamplePair(factual=ex, counterfactual=cf, concept=twin_origin(cf.id)[1])
             for index, ex in enumerate(examples[n_fit:], start=n_fit) for cf in twins(index, ex)]
    bundle = CorpusBundle(train=examples[:sizes[0]], dev=examples[sizes[0]:n_fit],
                          test=examples[n_fit:], pairs=pairs, meta=meta)
    bundle.validate(max_tokens=31)
    return bundle
