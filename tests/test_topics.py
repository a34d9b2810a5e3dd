"""LDA fitting, treated/control topic selection and median binarization."""

import hashlib
import warnings

import numpy as np
import pytest

from conceptfx.topics import TopicError, TopicModel, assign_topics, fit_lda


def two_cluster_docs(n_per_cluster=10, length=20, n_words=8, seed=0):
    """Documents drawn from two disjoint vocabularies, cluster A first."""
    rng = np.random.default_rng(seed)
    docs = []
    for prefix in ("a", "b"):
        for _ in range(n_per_cluster):
            docs.append([f"{prefix}{i}" for i in rng.integers(n_words, size=length)])
    return docs


def hand_model(theta, doc_ids=None):
    theta = np.asarray(theta, dtype=float)
    D, T = theta.shape
    return TopicModel(T=T, alpha=0.1, beta=0.01, iters=0, seed=0, vocab=["w"],
                      doc_ids=doc_ids or [f"d{i}" for i in range(D)], theta=theta,
                      topic_word=np.ones((T, 1)))


class TestFitLda:
    def test_rows_sum_to_one(self):
        model = fit_lda(two_cluster_docs(), T=3, iters=5, seed=1)
        np.testing.assert_allclose(model.theta.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(model.topic_word.sum(axis=1), 1.0, atol=1e-12)
        assert model.theta.shape == (20, 3)
        assert model.topic_word.shape == (3, len(model.vocab))

    def test_same_seed_same_bytes(self):
        docs = two_cluster_docs()
        a = fit_lda(docs, T=4, iters=5, seed=3)
        b = fit_lda(docs, T=4, iters=5, seed=3)
        assert a.theta.tobytes() == b.theta.tobytes()
        assert a.topic_word.tobytes() == b.topic_word.tobytes()

    def test_pinned_fit(self):
        # sha256 of the fit from the numpy SeedSequence((seed, tag)) sampler.
        model = fit_lda(two_cluster_docs(), T=4, iters=5, seed=3)
        assert hashlib.sha256(model.theta.tobytes()).hexdigest() == (
            "a685d82856750d03b8fce665c5887c597c64450e855568028a9fe526207e594a")
        assert hashlib.sha256(model.topic_word.tobytes()).hexdigest() == (
            "3b253daaaf3237976be3e2bf706626c277217df4eb73c4e4f0b9f6ce3e90e2a8")

    @pytest.mark.parametrize("corpus, kwargs, theta_sha, topic_word_sha", [
        pytest.param("clusters", {"T": 3, "alpha": 0.1, "beta": 0.37, "iters": 5, "seed": 4},
                     "e72c18d6422d3c18c70bcd3301ea220756aa1bd2e698339da1868dd76258f582",
                     "9253bfe8eb015b5599898b4ef774f56c0e86825991ac8203b263f9a63c945f7f",
                     id="fractional-priors"),
        pytest.param("clusters", {"T": 1, "iters": 5, "seed": 2},
                     "44a2420d6f45ff8516f66bbad47077a221eef78b5aa4e7df63d1f19ab1893f7f",
                     "108115a21ff46237d0180039afc7da4e21ddb6b729fb2d5f93f1a5ff58dadc79",
                     id="one-topic"),
        pytest.param("with-empty", {"T": 4, "iters": 5, "seed": 5},
                     "25799d4992fc1c9317dba46d6f3d4f65a186d202309771789cbb38570944bfb2",
                     "5e3c10ccb7f5d3bb69bb4b6bca1f6f2a3ea6d768ccd8073cf214d12651423d44",
                     id="empty-document"),
        # 60 sweeps: the count check also runs after sweep 50.
        pytest.param("clusters", {"T": 4, "iters": 60, "seed": 6},
                     "8300ff914c89343c0e14f495777057e872b1a99188d4231d54044137a83c0142",
                     "ac9fed8f318226f76648a59853b2177f1e25030c7b580e294fd5b4967e6ecd2b",
                     id="periodic-check"),
    ])
    def test_characterization_pins(self, corpus, kwargs, theta_sha, topic_word_sha):
        # Taken from the integer-count sampler with the linear topic search; a
        # rewrite of the sweep must draw the same topics and so the same bytes.
        docs = two_cluster_docs()
        if corpus == "with-empty":
            docs = docs[:5] + [[]] + docs[5:]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            model = fit_lda(docs, **kwargs)
        assert hashlib.sha256(model.theta.tobytes()).hexdigest() == theta_sha
        assert hashlib.sha256(model.topic_word.tobytes()).hexdigest() == topic_word_sha

    def test_empty_document_warns_and_gets_uniform_row(self):
        docs = [["x", "y"], [], ["y", "z", "x"]]
        with pytest.warns(UserWarning, match="1 empty documents"):
            model = fit_lda(docs, T=4, iters=3, seed=0, doc_ids=["p", "q", "r"])
        assert model.empty_docs == ["q"]
        np.testing.assert_array_equal(model.theta[1], np.full(4, 0.25))

    # Argument-check rows keep the ids their earlier match strings gave them,
    # so a test keeps its name when a message's wording changes.
    @pytest.mark.parametrize("docs, kwargs, match", [
        ([["a"]], {"T": 0}, "topic count"),
        ([[], []], {"T": 2}, "no tokens"),
        ([["a"], ["b"]], {"T": 2, "doc_ids": ["only-one"]}, "align"),
        pytest.param([["a"], ["b"]], {"T": 2, "beta": -1.0}, r"^beta must be a real number in \(0, inf\)",
                     id="docs3-kwargs3-beta > 0"),
        pytest.param([["a"], ["b"]], {"T": 2, "alpha": -1.0}, r"^alpha must be a real number in \(0, inf\)",
                     id="docs4-kwargs4-alpha > 0"),
        pytest.param([["a"], ["b"]], {"T": 2, "iters": -3}, "^iters must be an integer >= 0",
                     id="docs5-kwargs5-iters >= 0"),
        ([["a"], ["b"]], {"T": 2.0}, "topic count T"),
        ([["a"], ["b"]], {"T": True}, "topic count T"),
        pytest.param([["a"], ["b"]], {"T": 2, "iters": 2.5}, "^iters must be an integer >= 0",
                     id="docs8-kwargs8-integer iters"),
        pytest.param([["a"], ["b"]], {"T": 2, "seed": -1}, "^seed must be an integer >= 0",
                     id="docs9-kwargs9-integer seed"),
        pytest.param([["a"], ["b"]], {"T": 2, "seed": 1.0}, "^seed must be an integer >= 0",
                     id="docs10-kwargs10-integer seed"),
        pytest.param([["a"], ["b"]], {"T": 2, "beta": float("inf")}, r"^beta must be a real number in \(0, inf\)",
                     id="docs11-kwargs11-finite beta"),
        pytest.param([["a"], ["b"]], {"T": 2, "alpha": float("nan")}, r"^alpha must be a real number in \(0, inf\)",
                     id="docs12-kwargs12-finite alpha"),
        pytest.param([["a"], ["b"]], {"T": 2, "alpha": "0.1"}, r"^alpha must be a real number in \(0, inf\)",
                     id="docs13-kwargs13-finite alpha"),
        ("ab", {"T": 2}, "got a string"),
        ([["a", ["b"]]], {"T": 2}, "hashable and sortable.*unhashable"),
        ([[1, "a"]], {"T": 2}, "hashable and sortable.*not supported"),
        (["the cat", "a dog"], {"T": 2}, "document 0 is a string"),
    ])
    def test_typed_errors(self, docs, kwargs, match):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TopicError, match=match):
                fit_lda(docs, **{"iters": 1, **kwargs})

    @pytest.mark.parametrize("seed", range(20))
    def test_two_disjoint_clusters_separate(self, seed):
        model = fit_lda(two_cluster_docs(), T=2, alpha=0.1, iters=30, seed=seed)
        top = model.theta.argmax(axis=1)
        assert len(set(top[:10])) == 1 and len(set(top[10:])) == 1
        assert top[0] != top[10]


class TestSelection:
    DOMAINS = ["books", "books", "dvd", "dvd"]

    def test_ties_go_to_lowest_id(self):
        model = hand_model([[0.1, 0.3, 0.6], [0.1, 0.3, 0.6],
                            [0.5, 0.3, 0.2], [0.5, 0.3, 0.2]])
        # Topic 1 scores 0 in both domains; topics 0 and 2 are +/-0.4.
        a = assign_topics(model, self.DOMAINS, "books")
        assert (a.t_tc, a.t_cc) == (2, 1)
        flat = hand_model([[0.25] * 4] * 4)
        a = assign_topics(flat, self.DOMAINS, "dvd")
        assert (a.t_tc, a.t_cc) == (0, 1)

    def test_assign_topics_picks_distinct_topics(self):
        model = hand_model([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1],
                            [0.1, 0.1, 0.8], [0.2, 0.1, 0.7]])
        a = assign_topics(model, self.DOMAINS, "books")
        assert (a.t_tc, a.t_cc) == (0, 1)
        assert a.t_tc != a.t_cc
        np.testing.assert_array_equal(a.itt, [1, 1, 0, 0])
        np.testing.assert_array_equal(a.ict, [1, 1, 0, 0])
        assert a.medians == {0: float(np.median(model.theta[:, 0])),
                             1: float(np.median(model.theta[:, 1]))}
        assert a.doc_ids == model.doc_ids

    @pytest.mark.parametrize("theta, domains, domain, match", [
        ([[1.0]] * 4, DOMAINS, "books", "T >= 2"),
        ([[0.5, 0.5]] * 4, DOMAINS, "kitchen", "absent"),
        ([[0.5, 0.5]] * 4, ["books"] * 4, "books", "at least 2 domains"),
    ])
    def test_selection_errors(self, theta, domains, domain, match):
        with pytest.raises(TopicError, match=match):
            assign_topics(hand_model(theta), domains, domain)


def test_binarize_marks_strictly_above_median():
    model = hand_model([[0.1, 0.9], [0.2, 0.8], [0.2, 0.8], [0.3, 0.7], [0.5, 0.5]])
    a = assign_topics(model, ["books", "dvd", "dvd", "dvd", "books"], "books")
    assert (a.t_tc, a.t_cc) == (0, 1)
    np.testing.assert_array_equal(a.itt, [0, 0, 0, 1, 1])
    np.testing.assert_array_equal(a.ict, [1, 0, 0, 0, 0])
