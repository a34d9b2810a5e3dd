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

import numpy as np

from .io import load_data
from .types import (BiasSpec, BundleMeta, CorpusBundle, CorpusError, Example,
                    TaggedToken, assemble, twin)

POMS_LABELS = ("anger", "sadness", "fear", "joy")
_CONCEPTS = ("gender", "race")
_MIN_NAMES_PER_CELL = 10
_AMBIGUOUS_RATE = 0.15  # share of emotion slots given a word shared with another label
_NOISE_BOOST = 5.0

_PRONOUN_FLIP = {"she": "he", "he": "she", "herself": "himself", "himself": "herself"}

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
class Template:
    id: int
    tokens: list[str]
    weight: float = 1.0

    @property
    def has_emotion(self) -> bool:
        return "<emotion>" in self.tokens


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
        for gender in ("female", "male"):
            for race in ("european", "african_american"):
                cell = self.names.get(gender, {}).get(race, [])
                if len(cell) < _MIN_NAMES_PER_CELL:
                    raise CorpusError(
                        f"name cell {gender}/{race} has {len(cell)} entries, "
                        f"needs >= {_MIN_NAMES_PER_CELL} to avoid name reuse inside pairs")
        for label in POMS_LABELS:
            if not self.emotions.get(label):
                raise CorpusError(f"no emotion words for label {label!r}")
        if len(self.noise_sentences) != 13:
            raise CorpusError(f"noise-sentence list must have 13 entries, got {len(self.noise_sentences)}")
        for label in POMS_LABELS:
            links = self.label_noise_links.get(label, [])
            if len(links) != 3:
                raise CorpusError(f"label {label!r} must link to exactly 3 noise sentences")

    def ambiguous_for(self, label: str) -> list[str]:
        return [e["word"] for e in self.ambiguous if label in e["classes"]]

    def name_cell(self, gender: str, race: str) -> list[str]:
        return self.names[gender][race]


def default_templates() -> list[Template]:
    raw = load_data("templates.json")["templates"]
    return [Template(id=t["id"], tokens=list(t["tokens"]), weight=float(t["weight"])) for t in raw]


def default_lexicons() -> PomsLexicons:
    raw = load_data("lexicons.json")
    fillers = {key: raw[key] for key in ("places", "seasons", "times", "days", "observes", "numbers", "family")}
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


def _fill_template(template: Template, name: str, gender: str, emotion: str | None,
                   lexicons: PomsLexicons, rng: np.random.Generator) -> list[TaggedToken]:
    out: list[TaggedToken] = []
    for tok in template.tokens:
        if tok == "<person>":
            out.append(TaggedToken(name, "person-name"))
        elif tok == "<emotion>":
            if emotion is None:
                raise CorpusError(f"template {template.id} has an emotion slot but no emotion was drawn")
            out.append(TaggedToken(emotion, "emotion-word"))
        elif tok == "<pron>":
            out.append(TaggedToken("she" if gender == "female" else "he", "gender-pronoun"))
        elif tok == "<refl>":
            out.append(TaggedToken("herself" if gender == "female" else "himself", "gender-pronoun"))
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

    concept_value = int(rng.random() < bias.label_probs[label])
    if bias.concept == "gender":
        gender = "female" if concept_value else "male"
        race = "african_american" if rng.random() < 0.5 else "european"
    elif bias.concept == "race":
        race = "african_american" if concept_value else "european"
        gender = "female" if rng.random() < 0.5 else "male"
    else:
        raise CorpusError(f"unsupported bias concept {bias.concept!r} for a mood-state corpus")

    cell = lexicons.name_cell(gender, race)
    name = cell[rng.integers(len(cell))]

    template = templates[rng.choice(len(templates), p=template_probs)]
    emotion = None
    if template.has_emotion:
        ambiguous = lexicons.ambiguous_for(label)
        if ambiguous and rng.random() < _AMBIGUOUS_RATE:
            emotion = ambiguous[rng.integers(len(ambiguous))]
        else:
            words = lexicons.emotions[label]
            emotion = words[rng.integers(len(words))]

    core = _fill_template(template, name, gender, emotion, lexicons, rng)
    noise_idx = int(rng.choice(len(lexicons.noise_sentences),
                               p=_noise_weights(label, lexicons)))
    noise = [TaggedToken(t, "noise") for t in lexicons.noise_sentences[noise_idx]]
    if rng.random() < 0.5:
        tokens = (*noise, *core)
    else:
        tokens = (*core, *noise)

    return Example(
        id=f"poms-{index:06d}",
        tokens=tokens,
        label=label_idx,
        concepts={
            "gender": 1 if gender == "female" else 0,
            "race": 1 if race == "african_american" else 0,
        },
    )


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
    rng = np.random.default_rng(np.random.SeedSequence((seed, 2, 1 if concept == "gender" else 2)))
    gender = "female" if example.concepts["gender"] else "male"
    race = "african_american" if example.concepts["race"] else "european"
    if concept == "gender":
        gender = "male" if gender == "female" else "female"
    else:
        race = "european" if race == "african_american" else "african_american"
    cell = lexicons.name_cell(gender, race)
    if not cell:
        raise CorpusError(f"empty name cell {gender}/{race}")
    new_name = cell[rng.integers(len(cell))]

    tokens = []
    for tok in example.tokens:
        if tok.slot == "person-name":
            tokens.append(TaggedToken(new_name, "person-name"))
        elif tok.slot == "gender-pronoun" and concept == "gender":
            tokens.append(TaggedToken(_PRONOUN_FLIP[tok.surface], "gender-pronoun"))
        else:
            tokens.append(tok)

    concepts = dict(example.concepts)
    concepts[concept] = 1 - concepts[concept]
    return twin(example, concept, tuple(tokens), concepts)


def generate_poms_corpus(templates: list[Template] | None = None,
                         lexicons: PomsLexicons | None = None,
                         bias: BiasSpec | None = None,
                         n: int = 8000,
                         seed: int = 212) -> CorpusBundle:
    """Generate a mood-state corpus with counterfactual twins for the test set.

    The measured concept-label correlation is checked against the value the
    bias specification implies (within +/-0.05) whenever the corpus is large
    enough (n >= 2000) for the sample correlation to be meaningful.
    """
    templates = templates if templates is not None else default_templates()
    lexicons = lexicons if lexicons is not None else default_lexicons()
    bias = bias if bias is not None else BiasSpec.poms("balanced")
    if not templates:
        raise CorpusError("template list must be non-empty")
    if bias.label_probs is None or set(bias.label_probs) != set(POMS_LABELS):
        raise CorpusError("bias specification must give a concept probability for every label")
    if n < len(POMS_LABELS):
        raise CorpusError(
            f"bias probabilities infeasible for n={n}: need at least one example per label "
            f"({len(POMS_LABELS)} labels)")
    lexicons.validate()

    weights = np.array([t.weight for t in templates], dtype=float)
    template_probs = weights / weights.sum()

    examples = [_build_example(i, seed, templates, template_probs, lexicons, bias)
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

    if n >= 2000 and bias.concept in _CONCEPTS:
        from .bias import measure_correlation
        measured = measure_correlation(bundle, bias.concept, target_label="joy")
        expected = bias.expected_correlation("joy")
        if abs(measured - expected) > 0.05:
            raise CorpusError(
                f"generated correlation {measured:.4f} deviates from the bias target "
                f"{expected:.4f} by more than 0.05")
    return bundle
