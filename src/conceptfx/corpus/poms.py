"""Template-based mood-state corpus with exact gender/race counterfactuals.

Every sentence is built from a template (a person name, an emotion word, and
filler slots), plus one of thirteen noise sentences concatenated before or
after it.  Three noise sentences per label are five times more likely than
the rest for that label, so the corpus carries label signal beyond the
emotion word.  Concept conventions: ``gender=1`` means a female name (and
matching pronouns), ``race=1`` means an African-American name.

Generation is a pure function of (templates, lexicons, bias, n, seed): every
example and every counterfactual twin draws from its own sub-seeded stream, so
shards can be generated in parallel with disjoint sub-seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..checks import integer
from .io import load_data
from .types import (BiasSpec, BundleMeta, CorpusBundle, CorpusError, Example,
                    TaggedToken, Template, assemble, load_templates, template_probs, twin)

POMS_LABELS = ("anger", "sadness", "fear", "joy")
_CONCEPTS = ("gender", "race")
_MIN_NAMES_PER_CELL = 10
_AMBIGUOUS_RATE = 0.15  # share of emotion slots given a word shared with another label
_NOISE_BOOST = 5.0

# Each table is indexed by a concept bit: gender=1 is female, race=1 African-American.
_GENDERS = ("male", "female")
_RACES = ("european", "african_american")
_PRONOUNS = {"<pron>": ("he", "she"), "<refl>": ("himself", "herself")}
_PRONOUN_FORMS = {form: forms for forms in _PRONOUNS.values() for form in forms}

_FILLER_SLOTS = {
    "<place>": "places",
    "<season>": "seasons",
    "<time>": "times",
    "<day>": "days",
    "<observe>": "observes",
    "<number>": "numbers",
    "<family>": "family",
}


@dataclass
class PomsLexicons:
    """Name/emotion/noise/filler word lists driving the generator."""

    names: dict[str, dict[str, list[str]]]
    emotions: dict[str, list[str]]
    ambiguous: list[dict]
    noise_sentences: list[list[str]]
    label_noise_links: dict[str, list[int]]
    fillers: dict[str, list[str]] = field(default_factory=dict)

    def validate(self):
        for gender in (1, 0):
            for race in (0, 1):
                self.name_cell({"gender": gender, "race": race})
        for label in POMS_LABELS:
            if not self.emotions.get(label):
                raise CorpusError(f"no emotion words for label {label!r}")
        if len(self.noise_sentences) != 13:
            raise CorpusError(f"noise-sentence list must have 13 entries, got {len(self.noise_sentences)}")
        for label in POMS_LABELS:
            links = self.label_noise_links.get(label, [])
            if len(links) != 3:
                raise CorpusError(f"label {label!r} must link to exactly 3 noise sentences")
        for key in _FILLER_SLOTS.values():
            if not self.fillers.get(key):
                raise CorpusError(f"no filler words for {key!r}")

    def ambiguous_for(self, label: str) -> list[str]:
        return [e["word"] for e in self.ambiguous if label in e["classes"]]

    def name_cell(self, concepts: Mapping[str, int]) -> list[str]:
        """The names of a person with these ``gender`` and ``race`` bits."""
        bits = {concept: concepts[concept] for concept in _CONCEPTS}
        if any(bit not in (0, 1) for bit in bits.values()):
            raise CorpusError(f"person concepts must be 0 or 1, got {bits}")
        gender, race = _GENDERS[int(bits["gender"])], _RACES[int(bits["race"])]
        cell = self.names.get(gender, {}).get(race, [])
        if len(cell) < _MIN_NAMES_PER_CELL:
            raise CorpusError(
                f"name cell {gender}/{race} has {len(cell)} entries, "
                f"needs >= {_MIN_NAMES_PER_CELL} to avoid name reuse inside pairs")
        return cell


def default_templates() -> list[Template]:
    return load_templates(load_data("templates.json")["templates"])


def default_lexicons() -> PomsLexicons:
    raw = load_data("lexicons.json")
    fillers = {key: raw[key] for key in _FILLER_SLOTS.values()}
    return PomsLexicons(
        names=raw["names"],
        emotions=raw["emotions"],
        ambiguous=raw["ambiguous_emotions"],
        noise_sentences=raw["noise_sentences"],
        label_noise_links=raw["label_noise_links"],
        fillers=fillers,
    )


def _noise_weights(label: str, lexicons: PomsLexicons) -> np.ndarray:
    w = np.ones(len(lexicons.noise_sentences))
    for idx in lexicons.label_noise_links[label]:
        w[idx] = _NOISE_BOOST
    return w / w.sum()


def _fill_template(template: Template, name: str, gender: int, emotion: str | None,
                   lexicons: PomsLexicons, rng: np.random.Generator) -> list[TaggedToken]:
    out: list[TaggedToken] = []
    for tok in template.tokens:
        if tok == "<person>":
            out.append(TaggedToken(name, "person-name"))
        elif tok == "<emotion>":
            if emotion is None:
                raise CorpusError(f"template {template.id} has an emotion slot but no emotion was drawn")
            out.append(TaggedToken(emotion, "emotion-word"))
        elif tok in _PRONOUNS:
            out.append(TaggedToken(_PRONOUNS[tok][gender], "gender-pronoun"))
        elif tok == "<ind>":
            article = "an" if emotion and emotion[0] in "aeiou" else "a"
            out.append(TaggedToken(article, "filler"))
        elif tok in _FILLER_SLOTS:
            choices = lexicons.fillers[_FILLER_SLOTS[tok]]
            out.append(TaggedToken(choices[rng.integers(len(choices))], "filler"))
        else:
            out.append(TaggedToken(tok, "filler"))
    return out


def _build_example(index: int, seed: int, templates: list[Template], template_probs: np.ndarray,
                   lexicons: PomsLexicons, bias: BiasSpec) -> Example:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1, index)))
    label_idx = int(rng.integers(len(POMS_LABELS)))
    label = POMS_LABELS[label_idx]

    other = _CONCEPTS[1 - _CONCEPTS.index(bias.concept)]
    concepts = {bias.concept: int(rng.random() < bias.label_probs[label]),
                other: int(rng.random() < 0.5)}
    cell = lexicons.name_cell(concepts)
    name = cell[rng.integers(len(cell))]

    template = templates[rng.choice(len(templates), p=template_probs)]
    emotion = None
    if "<emotion>" in template.tokens:
        ambiguous = lexicons.ambiguous_for(label)
        if ambiguous and rng.random() < _AMBIGUOUS_RATE:
            emotion = ambiguous[rng.integers(len(ambiguous))]
        else:
            words = lexicons.emotions[label]
            emotion = words[rng.integers(len(words))]

    core = _fill_template(template, name, concepts["gender"], emotion, lexicons, rng)
    noise_idx = int(rng.choice(len(lexicons.noise_sentences),
                               p=_noise_weights(label, lexicons)))
    noise = [TaggedToken(t, "noise") for t in lexicons.noise_sentences[noise_idx]]
    if rng.random() < 0.5:
        tokens = (*noise, *core)
    else:
        tokens = (*core, *noise)

    return Example(id=f"poms-{index:06d}", tokens=tokens, label=label_idx, concepts=concepts)


def flip_concept(example: Example, concept: str, lexicons: PomsLexicons, seed: int) -> Example:
    """Return the exact counterfactual twin with ``concept`` flipped.

    Gender flips replace the name (freshly sampled from the opposite-gender,
    same-race cell) and swap pronouns; race flips replace only the name.  All
    other tokens, the label, and the other concept are untouched, so flipping
    twice returns a sentence token-identical to the original up to name
    identity within the same gender/race cell.
    """
    if concept not in _CONCEPTS:
        raise CorpusError(f"cannot flip concept {concept!r}")
    integer(seed, "seed", CorpusError)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2, _CONCEPTS.index(concept) + 1)))
    concepts = {**example.concepts, concept: 1 - example.concepts[concept]}
    cell = lexicons.name_cell(concepts)
    new_name = cell[rng.integers(len(cell))]

    tokens = []
    for tok in example.tokens:
        if tok.slot == "person-name":
            tokens.append(TaggedToken(new_name, "person-name"))
        elif tok.slot == "gender-pronoun" and concept == "gender":
            tokens.append(TaggedToken(_PRONOUN_FORMS[tok.surface][concepts["gender"]], "gender-pronoun"))
        else:
            tokens.append(tok)
    return twin(example, concept, tuple(tokens), concepts)


def generate_poms_corpus(templates: list[Template] | None = None,
                         lexicons: PomsLexicons | None = None,
                         bias: BiasSpec | None = None,
                         n: int = 8000,
                         seed: int = 212) -> CorpusBundle:
    """Generate a mood-state corpus with counterfactual twins for the test set.

    The measured concept-label correlation is checked against the value the
    bias specification implies whenever the corpus is large enough (n >= 2000)
    for the sample correlation to be meaningful.  The tolerance is 5/sqrt(n),
    about five standard deviations of the sample correlation on every rung.
    """
    templates = templates if templates is not None else default_templates()
    lexicons = lexicons if lexicons is not None else default_lexicons()
    bias = bias if bias is not None else BiasSpec.poms("balanced")
    if not templates:
        raise CorpusError("template list must be non-empty")
    if bias.concept not in _CONCEPTS:
        raise CorpusError(f"unsupported bias concept {bias.concept!r} for a mood-state corpus")
    integer(seed, "seed", CorpusError)
    integer(n, "n", CorpusError)
    if n < len(POMS_LABELS):
        raise CorpusError(
            f"bias probabilities infeasible for n={n}: need at least one example per label "
            f"({len(POMS_LABELS)} labels)")
    lexicons.validate()

    probs = template_probs(templates)
    examples = [_build_example(i, seed, templates, probs, lexicons, bias)
                for i in range(n)]

    def twins(index: int, ex: Example) -> list[Example]:
        flip_seed = int(np.random.SeedSequence((seed, 3, index)).generate_state(1)[0])
        return [flip_concept(ex, concept, lexicons, seed=flip_seed) for concept in _CONCEPTS]

    meta = BundleMeta(
        seed=seed,
        bias_version=bias.version,
        concepts=list(_CONCEPTS),
        label_names=list(POMS_LABELS),
        domains=[],
        lexicon_info={"templates": len(templates), "bias_concept": bias.concept},
    )
    bundle = assemble(examples, meta, twins)

    if n >= 2000:
        from .bias import measure_correlation
        measured = measure_correlation(bundle, bias.concept, target_label="joy")
        expected = bias.expected_correlation("joy")
        tolerance = 5 / n ** 0.5
        if abs(measured - expected) > tolerance:
            raise CorpusError(
                f"generated correlation {measured:.4f} deviates from the bias target "
                f"{expected:.4f} by more than {tolerance:.4f}")
    return bundle
