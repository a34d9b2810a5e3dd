"""Template-based mood-state corpus with exact gender/race counterfactuals.

Every sentence is built from one of the packaged templates (a person name, an
emotion word, and filler slots), plus one of thirteen noise sentences
concatenated before or after it.  Three noise sentences per label are five
times more likely than the rest for that label, so the corpus carries label
signal beyond the emotion word.  Concept conventions: ``gender=1`` means a
female name (and matching pronouns), ``race=1`` means an African-American name.

The templates and word lists are the packaged ``data/templates.json`` and
``data/lexicons.json``, read once at import.  The template and noise-sentence
draw tables and every token an example can hold are built from them then too,
once, and shared by every example.  Generation is a pure function of (bias,
n, seed): every example draws from its own ``(seed, index)`` stream, and every
counterfactual twin from one derived from ``(seed, index)`` and its concept.
"""

from __future__ import annotations

import numpy as np

from ..checks import integer
from .io import load_data
from .types import (BiasSpec, BundleMeta, CorpusBundle, CorpusError, Example,
                    TaggedToken, assemble, draw, draw_table, tagged, twin)

POMS_LABELS = ("anger", "sadness", "fear", "joy")
_CONCEPTS = ("gender", "race")
_AMBIGUOUS_RATE = 0.15  # share of emotion slots given a word shared with another label
_NOISE_BOOST = 5.0

_LEXICONS = load_data("lexicons.json")
_TEMPLATES = load_data("templates.json")["templates"]
_NOISE = _LEXICONS["noise_sentences"]

_PRONOUNS = {"<pron>": ("he", "she"), "<refl>": ("himself", "herself")}
_FILLER_SLOTS = {
    "<place>": "places",
    "<season>": "seasons",
    "<time>": "times",
    "<day>": "days",
    "<observe>": "observes",
    "<number>": "numbers",
    "<family>": "family",
}

# Every token an example can hold is built here once, and examples share them.
# The name and pronoun tables are indexed by concept bits: gender=1 is female, race=1 African-American.
_NAME_TOKENS = [[tagged(_LEXICONS["names"][g][r], "person-name") for r in ("european", "african_american")]
                for g in ("male", "female")]
_PRONOUN_TOKENS = {slot: tagged(forms, "gender-pronoun") for slot, forms in _PRONOUNS.items()}
_PRONOUN_FORMS = {tok.surface: forms for forms in _PRONOUN_TOKENS.values() for tok in forms}
_ARTICLES = tagged(("a", "an"), "filler")  # indexed by whether the emotion word starts with a vowel
_FILLER_TOKENS = {slot: tagged(_LEXICONS[key], "filler") for slot, key in _FILLER_SLOTS.items()}
_EMOTION_TOKENS = {label: tagged(_LEXICONS["emotions"][label], "emotion-word") for label in POMS_LABELS}
_AMBIGUOUS_TOKENS = {
    label: tagged([e["word"] for e in _LEXICONS["ambiguous_emotions"] if label in e["classes"]], "emotion-word")
    for label in POMS_LABELS}
_NOISE_TOKENS = [tagged(sentence, "noise") for sentence in _NOISE]

_SLOTS = {"<person>", "<emotion>", "<ind>", *_PRONOUN_TOKENS, *_FILLER_TOKENS}
# Per template: its tokens, the fixed ones tagged and the slots left as "<...>" strings,
# and whether it has an emotion slot.
_TEMPLATE_TOKENS = [(tuple(tok if tok in _SLOTS else TaggedToken(tok, "filler") for tok in t["tokens"]),
                     "<emotion>" in t["tokens"]) for t in _TEMPLATES]
_TEMPLATE_CDF = draw_table([t["weight"] for t in _TEMPLATES], "template")


def _noise_cdf(label: str) -> np.ndarray:
    boosted = _LEXICONS["label_noise_links"][label]
    return draw_table([_NOISE_BOOST if i in boosted else 1.0 for i in range(len(_NOISE))], f"{label} noise")


_NOISE_CDF = {label: _noise_cdf(label) for label in POMS_LABELS}

# The bias ladder: version -> (P(concept=1 | joy), P(concept=1 | any other label)).
# balanced is uniform; gentle raises joy to 0.9; aggressive also lowers the rest to 0.1.
_LADDER = {"balanced": (0.5, 0.5), "gentle": (0.9, 0.5), "aggressive": (0.9, 0.1)}
# version -> P(concept=1 | label), in POMS_LABELS order.
_LABEL_PROBS = {version: tuple(p_joy if label == "joy" else p_other for label in POMS_LABELS)
                for version, (p_joy, p_other) in _LADDER.items()}


def expected_correlation(bias: BiasSpec) -> float:
    """Pearson correlation of ``bias.concept`` with joy-vs-rest that the rung
    implies for uniformly drawn labels."""
    probs = _LABEL_PROBS[bias.version]
    k = len(probs)
    e_c = sum(probs) / k
    e_y = 1.0 / k
    cov = probs[POMS_LABELS.index("joy")] / k - e_c * e_y
    var_c = e_c * (1 - e_c)
    var_y = e_y * (1 - e_y)
    return cov / (var_c * var_y) ** 0.5


def _fill_template(template: tuple, name: TaggedToken, gender: int, emotion: TaggedToken | None,
                   rng: np.random.Generator) -> list[TaggedToken]:
    out: list[TaggedToken] = []
    for tok in template:
        if type(tok) is TaggedToken:
            out.append(tok)
        elif tok == "<person>":
            out.append(name)
        elif tok == "<emotion>":
            out.append(emotion)
        elif tok in _PRONOUN_TOKENS:
            out.append(_PRONOUN_TOKENS[tok][gender])
        elif tok == "<ind>":
            out.append(_ARTICLES[emotion is not None and emotion.surface[0] in "aeiou"])
        else:
            choices = _FILLER_TOKENS[tok]
            out.append(choices[rng.integers(len(choices))])
    return out


def _build_example(index: int, seed: int, concept: str, label_probs: tuple[float, ...]) -> Example:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 1, index)))
    label_idx = int(rng.integers(len(POMS_LABELS)))
    label = POMS_LABELS[label_idx]

    other = _CONCEPTS[1 - _CONCEPTS.index(concept)]
    concepts = {concept: int(rng.random() < label_probs[label_idx]),
                other: int(rng.random() < 0.5)}
    cell = _NAME_TOKENS[concepts["gender"]][concepts["race"]]
    name = cell[rng.integers(len(cell))]

    template, has_emotion = _TEMPLATE_TOKENS[draw(rng, _TEMPLATE_CDF)]
    emotion = None
    if has_emotion:
        if rng.random() < _AMBIGUOUS_RATE:
            words = _AMBIGUOUS_TOKENS[label]
        else:
            words = _EMOTION_TOKENS[label]
        emotion = words[rng.integers(len(words))]

    core = _fill_template(template, name, concepts["gender"], emotion, rng)
    noise = _NOISE_TOKENS[draw(rng, _NOISE_CDF[label])]
    if rng.random() < 0.5:
        tokens = (*noise, *core)
    else:
        tokens = (*core, *noise)

    return Example(id=f"poms-{index:06d}", tokens=tokens, label=label_idx, concepts=concepts)


def flip_concept(example: Example, concept: str, seed: int) -> Example:
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
    for c in _CONCEPTS:  # the factual's bits, before one is flipped
        integer(example.concepts.get(c), f"person concept {c!r}", CorpusError, high=2)
    concepts = {**example.concepts, concept: 1 - example.concepts[concept]}
    cell = _NAME_TOKENS[concepts["gender"]][concepts["race"]]
    new_name = cell[rng.integers(len(cell))]

    tokens = []
    for tok in example.tokens:
        if tok.slot == "person-name":
            tokens.append(new_name)
        elif tok.slot == "gender-pronoun" and concept == "gender":
            tokens.append(_PRONOUN_FORMS[tok.surface][concepts["gender"]])
        else:
            tokens.append(tok)
    return twin(example, concept, tuple(tokens), concepts)


def generate_poms_corpus(bias: BiasSpec | None = None, n: int = 8000, seed: int = 212) -> CorpusBundle:
    """Generate a mood-state corpus with counterfactual twins for the test set.

    The measured concept-label correlation is checked against
    ``expected_correlation(bias)`` whenever the corpus is large enough (n >= 2000)
    for the sample correlation to be meaningful.  The tolerance is 5/sqrt(n),
    about five standard deviations of the sample correlation on every rung.
    """
    bias = bias if bias is not None else BiasSpec.poms("balanced")
    if bias.concept not in _CONCEPTS:
        raise CorpusError(f"unsupported bias concept {bias.concept!r} for a mood-state corpus")
    integer(seed, "seed", CorpusError)
    integer(n, "n", CorpusError, low=len(POMS_LABELS))

    label_probs = _LABEL_PROBS[bias.version]
    examples = [_build_example(i, seed, bias.concept, label_probs) for i in range(n)]

    def twins(index: int, ex: Example) -> list[Example]:
        flip_seed = int(np.random.SeedSequence((seed, 3, index)).generate_state(1)[0])
        return [flip_concept(ex, concept, seed=flip_seed) for concept in _CONCEPTS]

    meta = BundleMeta(
        seed=seed,
        bias_version=bias.version,
        concepts=list(_CONCEPTS),
        label_names=list(POMS_LABELS),
        domains=[],
        provenance={"templates": len(_TEMPLATES), "bias_concept": bias.concept},
    )
    bundle = assemble(examples, meta, twins)

    if n >= 2000:
        from .bias import measure_correlation
        measured = measure_correlation(bundle, bias.concept, target_label="joy")
        expected = expected_correlation(bias)
        tolerance = 5 / n ** 0.5
        if abs(measured - expected) > tolerance:
            raise CorpusError(
                f"generated correlation {measured:.4f} deviates from the bias target "
                f"{expected:.4f} by more than {tolerance:.4f}")
    return bundle
