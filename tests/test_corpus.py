"""Corpus generation, bias injection, correlation, and JSONL round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptfx.corpus import (BiasSpec, BundleMeta, CorpusBundle, CorpusError,
                              Example, TaggedToken, UndefinedCorrelationError,
                              adjective_ratio, apply_ratio_bias,
                              default_lexicons, delete_adjectives,
                              flip_concept, generate_poms_corpus,
                              generate_review_corpus, measure_correlation,
                              read_jsonl, write_jsonl)
from conceptfx.corpus.poms import Template
from conceptfx.corpus.types import split_sizes, twin_origin


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
        assert abs(r - BiasSpec.poms("aggressive").expected_correlation("joy")) <= 0.05

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
        templates = [Template(id=1, tokens=["<person>", "feels", "<emotion>", "."])]
        bundle = generate_poms_corpus(templates=templates, n=200, seed=4)
        lex = default_lexicons()
        females = [p for p in bundle.pairs
                   if p.concept == "gender"
                   and p.factual.concepts["gender"] == 1
                   and p.factual.concepts["race"] == 0]
        assert females, "expected at least one female/european test pair"
        for pair in females:
            cf = pair.counterfactual
            assert cf.concepts["gender"] == 0 and cf.concepts["race"] == 0
            assert cf.tokens[0].surface != pair.factual.tokens[0].surface or True
            name_tokens = [t for t in cf.tokens if t.slot == "person-name"]
            assert all(t.surface in lex.names["male"]["european"] for t in name_tokens)
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

    def test_small_lexicon_cell_rejected(self):
        lex = default_lexicons()
        lex.names["female"]["european"] = ["amanda"]
        with pytest.raises(CorpusError, match="female/european"):
            generate_poms_corpus(lexicons=lex, n=100, seed=1)

    def test_infeasible_n_rejected(self):
        with pytest.raises(CorpusError, match="infeasible"):
            generate_poms_corpus(n=2, seed=1)

    def test_empty_templates_rejected(self):
        with pytest.raises(CorpusError):
            generate_poms_corpus(templates=[], n=100, seed=1)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_gender_flip_involution(self, seed):
        lex = default_lexicons()
        bundle = generate_poms_corpus(n=10, seed=seed % 100)
        ex = bundle.train[seed % len(bundle.train)]
        once = flip_concept(ex, "gender", lex, seed=seed)
        twice = flip_concept(once, "gender", lex, seed=seed + 1)
        assert twice.concepts == ex.concepts
        gender = "female" if ex.concepts["gender"] else "male"
        race = "african_american" if ex.concepts["race"] else "european"
        for orig, back in zip(ex.tokens, twice.tokens):
            if orig.slot == "person-name":
                assert back.surface in lex.names[gender][race]
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
        from conceptfx.corpus.reviews import default_grammar
        grammar = default_grammar()
        bundle = generate_review_corpus(n=4000, seed=13)
        # expected P(>=1 in-domain topic word) from the frame distribution
        weights = np.array([f.weight for f in grammar.frames], dtype=float)
        probs = weights / weights.sum()
        rate = grammar.topic_word_rate
        expected = sum(p * (1 - (1 - rate) ** f.tokens.count("<topic>"))
                       for p, f in zip(probs, grammar.frames))
        hits = 0
        for ex in bundle.all_examples():
            words = set(grammar.topic_words[ex.domain])
            hits += any(t.surface in words for t in ex.tokens)
        measured = hits / len(bundle.all_examples())
        assert measured == pytest.approx(expected, abs=0.03)

    def test_review_determinism(self):
        assert generate_review_corpus(n=200, seed=3) == generate_review_corpus(n=200, seed=3)

    def test_empty_frame_rejected(self):
        from conceptfx.corpus.reviews import Frame, ReviewGrammar, default_grammar
        g = default_grammar()
        g.frames.append(Frame(id=99, tokens=["<adj>", "<adj>"]))
        with pytest.raises(CorpusError, match="zero non-adjective"):
            generate_review_corpus(grammar=g, n=100, seed=1)


class TestRatioBias:
    def _toy_bundle(self, scores_neg, scores_pos):
        def mk(i, label, score):
            length = max(2, int(round(score * 10)) + 1)
            tokens = tuple(TaggedToken("w", "adjective") if j < int(round(score * 10)) else TaggedToken("x", "filler")
                           for j in range(length))
            return Example(id=f"e{i}", tokens=tokens, label=label, concepts={"c": 0})
        # encode desired score directly via a side table
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
        bundle, score = self._toy_bundle([0.4, 0.3], [0.2, 0.1])
        assert apply_ratio_bias(bundle, score, "balanced") is bundle

    def test_gentle_deletes_top_half_negatives(self):
        bundle, score = self._toy_bundle([0.4, 0.3, 0.2, 0.1], [0.5, 0.6])
        out = apply_ratio_bias(bundle, score, "gentle")
        neg_scores = sorted(score(e) for e in out.train if e.label == 0)
        assert neg_scores == [0.1, 0.2]
        assert sorted(score(e) for e in out.train if e.label == 1) == [0.5, 0.6]

    def test_aggressive_also_deletes_bottom_half_positives(self):
        bundle, score = self._toy_bundle([0.4, 0.3, 0.2, 0.1], [0.5, 0.6, 0.7, 0.8])
        out = apply_ratio_bias(bundle, score, "aggressive")
        assert sorted(score(e) for e in out.train if e.label == 0) == [0.1, 0.2]
        assert sorted(score(e) for e in out.train if e.label == 1) == [0.7, 0.8]

    def test_gentle_raises_score_label_correlation(self):
        bundle = generate_review_corpus(n=2000, seed=21)
        def r_of(b):
            med = np.median([adjective_ratio(e) for e in b.all_examples()])
            pts = [(1 if adjective_ratio(e) > med else 0, e.label) for e in b.all_examples()]
            return phi_coefficient(pts)
        biased = apply_ratio_bias(bundle, adjective_ratio, "gentle")
        assert r_of(biased) > r_of(bundle)

    def test_empty_stratum_rejected(self):
        bundle, score = self._toy_bundle([0.4], [])
        with pytest.raises(CorpusError, match="stratum"):
            apply_ratio_bias(bundle, score, "gentle")


class TestCorrelation:
    def test_constant_concept_errors(self):
        bundle = generate_poms_corpus(n=50, seed=1)
        for ex in bundle.all_examples():
            ex.concepts["gender"] = 1
        with pytest.raises(UndefinedCorrelationError):
            measure_correlation(bundle, "gender")

    def test_perfect_alignment_is_one(self):
        bundle = generate_poms_corpus(n=50, seed=1)
        joy = bundle.meta.label_names.index("joy")
        for ex in bundle.all_examples():
            ex.concepts["gender"] = 1 if ex.label == joy else 0
        assert measure_correlation(bundle, "gender") == pytest.approx(1.0, abs=1e-12)

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
        assert json.loads(lines[0])["schema_version"] == 1
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
