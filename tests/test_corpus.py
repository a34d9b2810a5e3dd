"""Corpus generation, bias injection, correlation, and JSONL round-trips."""

import json
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptfx.corpus import (BiasSpec, BundleMeta, CorpusBundle, CorpusError,
                              Example, TaggedToken,
                              UndefinedCorrelationError, adjective_ratio,
                              apply_ratio_bias, delete_adjectives, flip_concept,
                              generate_poms_corpus, generate_review_corpus,
                              measure_correlation, read_jsonl, write_jsonl)
from conceptfx.corpus import poms
from conceptfx.corpus.io import load_data
from conceptfx.corpus.poms import _FILLER_SLOTS, _PRONOUNS
from conceptfx.corpus.types import BIAS_VERSIONS, split_sizes, twin_origin
from conceptfx.model import EncoderConfig

NAMES = load_data("lexicons.json")["names"]


def phi_coefficient(pairs):
    """Brute-force 2x2 co-occurrence counter; independent of the library path."""
    n11 = sum(1 for c, y in pairs if c == 1 and y == 1)
    n10 = sum(1 for c, y in pairs if c == 1 and y == 0)
    n01 = sum(1 for c, y in pairs if c == 0 and y == 1)
    n00 = sum(1 for c, y in pairs if c == 0 and y == 0)
    denom = (n11 + n10) * (n01 + n00) * (n11 + n01) * (n10 + n00)
    return (n11 * n00 - n10 * n01) / denom**0.5


def joy_binarized(bundle, concept):
    joy = bundle.meta.label_names.index("joy")
    return [(ex.concepts[concept], 1 if ex.label == joy else 0) for ex in bundle.all_examples()]


class TestPomsGeneration:
    def test_balanced_correlation_near_zero(self):
        bundle = generate_poms_corpus(bias=BiasSpec.poms("balanced"), n=10000, seed=212)
        r = measure_correlation(bundle, "gender", target_label="joy")
        assert abs(r) <= 0.05

    def test_aggressive_correlation_matches_recount(self):
        bundle = generate_poms_corpus(bias=BiasSpec.poms("aggressive"), n=4000, seed=7)
        r = measure_correlation(bundle, "gender", target_label="joy")
        assert r == pytest.approx(phi_coefficient(joy_binarized(bundle, "gender")), abs=1e-12)
        assert abs(r - poms.expected_correlation(BiasSpec.poms("aggressive"))) <= 0.05

    @pytest.mark.parametrize("concept", ["gender", "race"])
    @pytest.mark.parametrize("seed", [19, 55, 94])
    def test_balanced_sampling_noise_passes_the_self_check(self, seed, concept):
        # These draws sit 0.050-0.074 from 0; a fixed 0.05 tolerance rejected them.
        generate_poms_corpus(bias=BiasSpec.poms("balanced", concept=concept), n=2000, seed=seed)

    def test_self_check_rejects_a_draw_off_its_rung(self, monkeypatch):
        aggressive = poms.expected_correlation(BiasSpec.poms("aggressive"))
        monkeypatch.setattr(poms, "expected_correlation", lambda bias: aggressive)
        with pytest.raises(CorpusError, match="bias target 0.7559 by more than 0.1118"):
            generate_poms_corpus(bias=BiasSpec.poms("balanced"), n=2000, seed=19)

    @pytest.mark.parametrize("version, bits", [
        ("balanced", "0x0.0p+0"), ("gentle", "0x1.6a09e667f3bcep-2"),
        ("aggressive", "0x1.83091e6a7f7e5p-1"),
    ])
    def test_expected_correlation_bits(self, version, bits):
        assert poms.expected_correlation(BiasSpec.poms(version)).hex() == bits

    def test_ladder_has_a_rung_for_every_bias_version(self):
        # A version BiasSpec accepts but the ladder lacks would leak a KeyError.
        assert tuple(poms._LADDER) == BIAS_VERSIONS

    def test_bias_monotonicity(self):
        rs = []
        for version in ("balanced", "gentle", "aggressive"):
            bundle = generate_poms_corpus(bias=BiasSpec.poms(version), n=4000, seed=3)
            rs.append(measure_correlation(bundle, "gender", target_label="joy"))
        assert rs[0] <= rs[1] + 0.02
        assert rs[1] <= rs[2] + 0.02

    def test_splits_disjoint_and_proportioned(self):
        bundle = generate_poms_corpus(n=1000, seed=5)
        ids = [ex.id for ex in bundle.all_examples()]
        assert len(ids) == len(set(ids)) == 1000
        assert len(bundle.train) == 640
        assert len(bundle.dev) == 160
        assert len(bundle.test) == 200

    def test_split_sizes_rounding(self):
        for n in (10, 11, 99, 1001):
            a, b, c = split_sizes(n)
            assert a + b + c == n
            assert abs(a - 0.64 * n) <= 1 and abs(b - 0.16 * n) <= 1 and abs(c - 0.2 * n) <= 1

    def test_determinism(self):
        a = generate_poms_corpus(n=300, seed=11)
        b = generate_poms_corpus(n=300, seed=11)
        assert a == b
        c = generate_poms_corpus(n=300, seed=12)
        assert a != c

    def test_gender_flip_on_simple_template(self):
        bundle = generate_poms_corpus(n=200, seed=4)
        females = [p for p in bundle.pairs
                   if p.concept == "gender"
                   and p.factual.concepts["gender"] == 1
                   and p.factual.concepts["race"] == 0]
        assert females, "expected at least one female/european test pair"
        for pair in females:
            cf = pair.counterfactual
            assert cf.concepts["gender"] == 0 and cf.concepts["race"] == 0
            name_tokens = [t for t in cf.tokens if t.slot == "person-name"]
            factual_names = [t for t in pair.factual.tokens if t.slot == "person-name"]
            assert len(name_tokens) == len(factual_names) == 1
            assert name_tokens[0].surface != factual_names[0].surface
            assert all(t.surface in NAMES["male"]["european"] for t in name_tokens)
            for ft, ct in zip(pair.factual.tokens, cf.tokens):
                if ft.slot not in ("person-name", "gender-pronoun"):
                    assert ft == ct
            assert cf.label == pair.factual.label

    def test_every_test_example_has_both_pairs(self):
        bundle = generate_poms_corpus(n=300, seed=2)
        by_concept = {}
        for p in bundle.pairs:
            by_concept.setdefault(p.concept, set()).add(p.factual.id)
        test_ids = {ex.id for ex in bundle.test}
        assert by_concept["gender"] == test_ids
        assert by_concept["race"] == test_ids

    def test_pair_fields_are_frozen(self):
        bundle = generate_poms_corpus(n=50, seed=2)
        pair, other = bundle.pairs[0], bundle.pairs[-1]
        with pytest.raises(FrozenInstanceError):
            pair.counterfactual = other.counterfactual

    @pytest.mark.parametrize("concepts", [{"gender": -1, "race": 0}, {"gender": 2, "race": 1},
                                          {"gender": 0, "race": -1}, {"gender": 1, "race": 2},
                                          {"gender": 1}, {"race": 1}])
    @pytest.mark.parametrize("concept", ["gender", "race"])
    def test_flip_rejects_non_binary_concepts(self, concepts, concept):
        # gender=-1 drew a female name and kept -1; gender=2 leaked IndexError; a
        # missing concept leaked a raw KeyError.
        ex = Example(id="poms-000000", label=0, concepts=concepts,
                     tokens=(TaggedToken("amanda", "person-name"), TaggedToken("smiles", "filler")))
        bad = next(c for c in ("gender", "race") if concepts.get(c) not in (0, 1))
        with pytest.raises(CorpusError, match=rf"person concept '{bad}' must be an integer in \[0, 2\), "
                                              rf"got {concepts.get(bad)}"):
            flip_concept(ex, concept, seed=0)

    def test_infeasible_n_rejected(self):
        with pytest.raises(CorpusError, match="n must be an integer >= 4, got 2"):
            generate_poms_corpus(n=2, seed=1)

    def test_packaged_data_fits_the_encoder_window(self):
        # Each slot fills one token, so the longest template plus the longest noise
        # sentence bounds every POMS example; CLS takes one of max_len positions.
        window = EncoderConfig(vocab_size=5).max_len - 1
        template = max(len(t["tokens"]) for t in load_data("templates.json")["templates"])
        noise = max(len(sentence) for sentence in load_data("lexicons.json")["noise_sentences"])
        frame = max(len(f["tokens"]) for f in load_data("review_grammar.json")["frames"])
        assert template + noise <= window
        assert frame <= window

    def test_packaged_surfaces_are_lowercase_words(self):
        # A generated token is not checked when it is built, so every surface the
        # generators can emit must be a non-empty lowercase string here.  Template
        # and frame placeholders are included: they are lowercase too.
        lex, grammar = load_data("lexicons.json"), load_data("review_grammar.json")
        surfaces = [
            *(name for races in lex["names"].values() for cell in races.values() for name in cell),
            *(word for words in lex["emotions"].values() for word in words),
            *(entry["word"] for entry in lex["ambiguous_emotions"]),
            *(word for sentence in lex["noise_sentences"] for word in sentence),
            *(word for key in _FILLER_SLOTS.values() for word in lex[key]),
            *(word for t in load_data("templates.json")["templates"] for word in t["tokens"]),
            *(form for forms in _PRONOUNS.values() for form in forms), "a", "an",
            *(word for words in grammar["adjectives"].values() for word in words),
            *(word for words in grammar["topic_words"].values() for word in words),
            *grammar["generic_nouns"],
            *(word for frame in grammar["frames"] for word in frame["tokens"]),
        ]
        assert [s for s in surfaces if not isinstance(s, str) or not s or s != s.lower()] == []

    def test_unknown_bias_concept_rejected(self):
        with pytest.raises(CorpusError, match="'topic'"):
            generate_poms_corpus(bias=BiasSpec.poms("gentle", concept="topic"))

    @pytest.mark.parametrize("concept", ["gender", "race"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_flip_involution(self, concept, seed):
        bundle = generate_poms_corpus(n=10, seed=seed % 100)
        ex = bundle.train[seed % len(bundle.train)]
        once = flip_concept(ex, concept, seed=seed)
        twice = flip_concept(once, concept, seed=seed + 1)
        assert once.concepts[concept] == 1 - ex.concepts[concept]
        assert twice.concepts == ex.concepts
        gender = "female" if ex.concepts["gender"] else "male"
        race = "african_american" if ex.concepts["race"] else "european"
        for orig, back in zip(ex.tokens, twice.tokens):
            if orig.slot == "person-name":
                assert back.surface in NAMES[gender][race]
            else:
                assert orig == back

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_pair_integrity_property(self, seed):
        bundle = generate_poms_corpus(n=50, seed=seed)
        for pair in bundle.pairs:
            assert pair.factual.label == pair.counterfactual.label
            assert twin_origin(pair.counterfactual.id) == (pair.factual.id, pair.concept)
            flipped_slots = {"person-name"}
            if pair.concept == "gender":
                flipped_slots.add("gender-pronoun")
            assert len(pair.factual.tokens) == len(pair.counterfactual.tokens)
            for ft, ct in zip(pair.factual.tokens, pair.counterfactual.tokens):
                if ft.slot not in flipped_slots:
                    assert ft == ct


class TestReviewGeneration:
    def test_lovely_table_counterfactual(self):
        ex = Example(
            id="rev-x",
            tokens=(TaggedToken("it", "filler"), TaggedToken("'s", "filler"),
                    TaggedToken("a", "filler"), TaggedToken("lovely", "adjective"),
                    TaggedToken("table", "topic-word")),
            label=1, concepts={"adjectives": 1}, domain="kitchen",
        )
        cf = delete_adjectives(ex)
        assert [t.surface for t in cf.tokens] == ["it", "'s", "a", "table"]
        assert cf.label == ex.label

    def test_zero_adjective_frame_identity(self):
        bundle = generate_review_corpus(n=400, seed=9)
        zero_adj = [p for p in bundle.pairs
                    if not any(t.slot == "adjective" for t in p.factual.tokens)]
        assert zero_adj, "grammar should emit some zero-adjective frames"
        for pair in zero_adj:
            assert pair.factual.tokens == pair.counterfactual.tokens
            assert adjective_ratio(pair.factual) == 0.0

    def test_ratio_variance_nonzero(self):
        bundle = generate_review_corpus(n=500, seed=1)
        ratios = [adjective_ratio(ex) for ex in bundle.all_examples()]
        assert np.std(ratios) > 0

    def test_planted_topic_rate_matches_recount(self):
        grammar = load_data("review_grammar.json")
        bundle = generate_review_corpus(n=4000, seed=13)
        # expected P(>=1 in-domain topic word) from the frame distribution
        weights = np.array([f["weight"] for f in grammar["frames"]], dtype=float)
        probs = weights / weights.sum()
        rate = grammar["topic_word_rate"]
        expected = sum(p * (1 - (1 - rate) ** f["tokens"].count("<topic>"))
                       for p, f in zip(probs, grammar["frames"]))
        hits = 0
        for ex in bundle.all_examples():
            words = set(grammar["topic_words"][ex.domain])
            hits += any(t.surface in words for t in ex.tokens)
        measured = hits / len(bundle.all_examples())
        assert measured == pytest.approx(expected, abs=0.03)

    def test_review_determinism(self):
        assert generate_review_corpus(n=200, seed=3) == generate_review_corpus(n=200, seed=3)


class TestRatioBias:
    def _toy_bundle(self, scores_neg, scores_pos):
        def mk(i, label, score):
            length = max(2, int(round(score * 10)) + 1)
            tokens = tuple(TaggedToken("w", "adjective") if j < int(round(score * 10)) else TaggedToken("x", "filler")
                           for j in range(length))
            return Example(id=f"e{i}", tokens=tokens, label=label, concepts={"c": 0})
        # round(10 * score) adjectives and one or two fillers, so adjective_ratio
        # sorts the examples as their scores do; the side table reads the score back
        examples = []
        table = {}
        i = 0
        for s in scores_neg:
            e = mk(i, 0, s); table[e.id] = s; examples.append(e); i += 1
        for s in scores_pos:
            e = mk(i, 1, s); table[e.id] = s; examples.append(e); i += 1
        meta = BundleMeta(seed=0, bias_version="balanced", concepts=["c"],
                          label_names=["negative", "positive"])
        bundle = CorpusBundle(train=examples, dev=list(examples), test=list(examples),
                              pairs=[], meta=meta)
        return bundle, (lambda ex: table[ex.id])

    def test_balanced_is_identity(self):
        bundle, _ = self._toy_bundle([0.4, 0.3], [0.2, 0.1])
        assert apply_ratio_bias(bundle, "balanced") is bundle

    def test_gentle_deletes_top_half_negatives(self):
        bundle, score = self._toy_bundle([0.4, 0.3, 0.2, 0.1], [0.5, 0.6])
        out = apply_ratio_bias(bundle, "gentle")
        neg_scores = sorted(score(e) for e in out.train if e.label == 0)
        assert neg_scores == [0.1, 0.2]
        assert sorted(score(e) for e in out.train if e.label == 1) == [0.5, 0.6]

    def test_aggressive_also_deletes_bottom_half_positives(self):
        bundle, score = self._toy_bundle([0.4, 0.3, 0.2, 0.1], [0.5, 0.6, 0.7, 0.8])
        out = apply_ratio_bias(bundle, "aggressive")
        assert sorted(score(e) for e in out.train if e.label == 0) == [0.1, 0.2]
        assert sorted(score(e) for e in out.train if e.label == 1) == [0.7, 0.8]

    def test_gentle_raises_score_label_correlation(self):
        bundle = generate_review_corpus(n=2000, seed=21)
        def r_of(b):
            med = np.median([adjective_ratio(e) for e in b.all_examples()])
            pts = [(1 if adjective_ratio(e) > med else 0, e.label) for e in b.all_examples()]
            return phi_coefficient(pts)
        biased = apply_ratio_bias(bundle, "gentle")
        assert r_of(biased) > r_of(bundle)

    def test_poms_bundle_rejected(self):
        # A POMS bundle came back 181 of 200 examples labelled gentle, with "anger"
        # (label 0) rows deleted by a ratio that is 0 for every example.
        with pytest.raises(CorpusError, match=r"needs the labels \['negative', 'positive'\], got \['anger'"):
            apply_ratio_bias(generate_poms_corpus(n=200, seed=1), "gentle")

    def test_empty_stratum_rejected(self):
        bundle, _ = self._toy_bundle([0.4], [])
        with pytest.raises(CorpusError, match="stratum"):
            apply_ratio_bias(bundle, "gentle")

    @pytest.mark.parametrize("before", ["gentle", "aggressive"])
    @pytest.mark.parametrize("after", ["gentle", "aggressive"])
    def test_biased_bundle_is_not_biased_again(self, before, after):
        # An aggressive bundle asked for gentle came back 752 examples labelled
        # gentle, where a gentle corpus of the same n has 1499.
        bundle = apply_ratio_bias(self._toy_bundle([0.4, 0.3], [0.2, 0.1])[0], before)
        with pytest.raises(CorpusError, match=f"already {before}; only a balanced one can become {after}"):
            apply_ratio_bias(bundle, after)
        assert apply_ratio_bias(bundle, "balanced") is bundle


def with_gender(bundle, gender):
    """The bundle with each example's gender concept set to ``gender(example)``."""
    def split(examples):
        return [replace(ex, concepts={**ex.concepts, "gender": gender(ex)}) for ex in examples]
    return replace(bundle, train=split(bundle.train), dev=split(bundle.dev), test=split(bundle.test))


class TestCorrelation:
    def test_constant_concept_errors(self):
        bundle = with_gender(generate_poms_corpus(n=50, seed=1), lambda ex: 1)
        with pytest.raises(UndefinedCorrelationError):
            measure_correlation(bundle, "gender", target_label="joy")

    def test_perfect_alignment_is_one(self):
        bundle = generate_poms_corpus(n=50, seed=1)
        joy = bundle.meta.label_names.index("joy")
        bundle = with_gender(bundle, lambda ex: 1 if ex.label == joy else 0)
        assert measure_correlation(bundle, "gender", target_label="joy") == pytest.approx(1.0, abs=1e-12)

    def test_matches_independent_recomputation(self):
        bundle = generate_poms_corpus(n=1000, seed=17)
        r = measure_correlation(bundle, "gender", target_label="joy")
        joy = bundle.meta.label_names.index("joy")
        c = np.array([ex.concepts["gender"] for ex in bundle.all_examples()], dtype=float)
        y = np.array([1.0 if ex.label == joy else 0.0 for ex in bundle.all_examples()])
        assert r == pytest.approx(np.corrcoef(c, y)[0, 1], abs=1e-12)


class TestJsonl:
    def test_empty_bundle_roundtrip(self, tmp_path):
        meta = BundleMeta(seed=1, bias_version="balanced", concepts=[], label_names=["a", "b"])
        bundle = CorpusBundle(train=[], dev=[], test=[], pairs=[], meta=meta)
        path = tmp_path / "empty.jsonl"
        write_jsonl(bundle, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["schema_version"] == 2
        assert read_jsonl(path) == bundle

    def test_roundtrip_deep_equality(self, tmp_path):
        bundle = generate_poms_corpus(n=120, seed=8)
        path = tmp_path / "poms.jsonl"
        write_jsonl(bundle, path)
        back = read_jsonl(path)
        assert back == bundle

    def test_byte_stable_output(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(generate_poms_corpus(n=150, seed=6), a)
        write_jsonl(generate_poms_corpus(n=150, seed=6), b)
        assert a.read_bytes() == b.read_bytes()

    def test_review_roundtrip(self, tmp_path):
        bundle = generate_review_corpus(n=150, seed=2,
                                        bias=BiasSpec.reviews("gentle"))
        path = tmp_path / "rev.jsonl"
        write_jsonl(bundle, path)
        assert read_jsonl(path) == bundle

    def test_malformed_line_reports_number(self, tmp_path):
        bundle = generate_poms_corpus(n=50, seed=8)
        path = tmp_path / "bad.jsonl"
        write_jsonl(bundle, path)
        lines = path.read_text().splitlines()
        lines[3] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusError, match="line 4"):
            read_jsonl(path)

    def test_unknown_slot_kind_rejected(self, tmp_path):
        bundle = generate_poms_corpus(n=50, seed=8)
        path = tmp_path / "bad.jsonl"
        write_jsonl(bundle, path)
        lines = path.read_text().splitlines()
        record = json.loads(lines[2])
        record["tokens"][0]["s"] = "verb"
        lines[2] = json.dumps(record, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(CorpusError, match="line 3"):
            read_jsonl(path)
