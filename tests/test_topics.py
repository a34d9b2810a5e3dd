"""LDA fitting, treated/control topic selection and median binarization."""

import warnings

import numpy as np
import pytest

from conceptfx.topics import (TopicError, TopicModel, assign_topics,
                              binarize_by_median, fit_lda, select_tc_topic)


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

    def test_empty_document_warns_and_gets_uniform_row(self):
        docs = [["x", "y"], [], ["y", "z", "x"]]
        with pytest.warns(UserWarning, match="1 empty documents"):
            model = fit_lda(docs, T=4, iters=3, seed=0, doc_ids=["p", "q", "r"])
        assert model.empty_docs == ["q"]
        np.testing.assert_array_equal(model.theta[1], np.full(4, 0.25))

    @pytest.mark.parametrize("docs, kwargs, match", [
        ([["a"]], {"T": 0}, "topic count"),
        ([[], []], {"T": 2}, "no tokens"),
        ([["a"], ["b"]], {"T": 2, "doc_ids": ["only-one"]}, "align"),
    ])
    def test_typed_errors(self, docs, kwargs, match):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(TopicError, match=match):
                fit_lda(docs, iters=1, **kwargs)

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
        assert select_tc_topic(model, self.DOMAINS, "books") == 2
        assert select_tc_topic(model, self.DOMAINS, "books", exclude={2}) == 1
        flat = hand_model([[0.25] * 4] * 4)
        assert select_tc_topic(flat, self.DOMAINS, "dvd") == 0
        assert select_tc_topic(flat, self.DOMAINS, "dvd", exclude={0}) == 1

    def test_assign_topics_picks_distinct_topics(self):
        model = hand_model([[0.7, 0.2, 0.1], [0.6, 0.3, 0.1],
                            [0.1, 0.1, 0.8], [0.2, 0.1, 0.7]])
        a = assign_topics(model, self.DOMAINS, "books")
        assert (a.t_tc, a.t_cc) == (0, 1)
        assert a.t_tc != a.t_cc
        np.testing.assert_array_equal(a.itt, binarize_by_median(model, 0))
        np.testing.assert_array_equal(a.ict, binarize_by_median(model, 1))
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
    np.testing.assert_array_equal(binarize_by_median(model, 0), [0, 0, 0, 1, 1])
    np.testing.assert_array_equal(binarize_by_median(model, 1), [1, 0, 0, 0, 0])
    with pytest.raises(TopicError, match="out of range"):
        binarize_by_median(model, 2)
