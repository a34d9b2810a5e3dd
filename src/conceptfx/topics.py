"""LDA topic model (collapsed Gibbs sampling) and binary topic-task labels.

Fits per-document topic proportions, selects the treated topic for a domain
as the topic whose mean per-document proportion is most elevated inside that
domain relative to outside it (the control topic repeats the selection with
the treated topic excluded), and binarizes proportions at the corpus-wide
median to produce the binary topic-prediction task labels.

A Gibbs sweep is sequential per model; independent seeds/models can run in
parallel.  Fitting is deterministic under (docs, T, alpha, beta, iters, seed).
"""

from __future__ import annotations

import random
import warnings
from dataclasses import dataclass, field

import numpy as np


class TopicError(Exception):
    pass


# Sweeps between checks that the count tables still agree with the documents.
_CHECK_EVERY = 50


@dataclass
class TopicModel:
    T: int
    alpha: float
    beta: float
    iters: int
    seed: int
    vocab: list[str]
    doc_ids: list[str]
    theta: np.ndarray          # [D, T] document-topic proportions, rows sum to 1
    topic_word: np.ndarray     # [T, V] topic-word distributions, rows sum to 1
    empty_docs: list[str] = field(default_factory=list)


@dataclass
class TopicAssignment:
    """Chosen treated/control topics plus the binarized per-example labels."""

    t_tc: int
    t_cc: int
    medians: dict[int, float]
    itt: np.ndarray
    ict: np.ndarray
    doc_ids: list[str]


def _check_counts(n_dk, n_kw, n_k, doc_lens, sweep):
    for d, row in enumerate(n_dk):
        if sum(row) != doc_lens[d]:
            raise TopicError(f"sweep {sweep}: document-topic counts drifted for doc {d}")
    for k, row in enumerate(n_kw):
        if sum(row) != n_k[k]:
            raise TopicError(f"sweep {sweep}: topic-word counts drifted for topic {k}")


def fit_lda(docs, T: int, alpha: float | None = None, beta: float = 0.01,
            iters: int = 500, seed: int = 0, doc_ids=None) -> TopicModel:
    """Collapsed Gibbs sampling with p(z=k) ~ (n_dk+a)(n_kw+b)/(n_k+Vb).

    ``alpha`` defaults to ``50/T``.  Documents that are empty after
    tokenization are excluded from fitting (with a warning) and receive a
    uniform topic row.
    """
    if T < 1:
        raise TopicError(f"topic count must be >= 1, got {T}")
    docs = [list(doc) for doc in docs]
    if doc_ids is None:
        doc_ids = [f"doc-{i}" for i in range(len(docs))]
    if len(doc_ids) != len(docs):
        raise TopicError("doc_ids must align with docs")
    if alpha is None:
        alpha = 50.0 / T
    empty = [doc_ids[i] for i, doc in enumerate(docs) if not doc]
    if empty:
        warnings.warn(f"{len(empty)} empty documents excluded from topic fitting", stacklevel=2)

    vocab = sorted({w for doc in docs for w in doc})
    word_id = {w: i for i, w in enumerate(vocab)}
    V = len(vocab)
    if V == 0:
        raise TopicError("no tokens in any document")
    encoded = [[word_id[w] for w in doc] for doc in docs]
    D = len(docs)

    rng = random.Random(seed)
    n_dk = [[0] * T for _ in range(D)]
    n_kw = [[0] * V for _ in range(T)]
    n_k = [0] * T
    assignments = []
    for d, doc in enumerate(encoded):
        z_doc = []
        row = n_dk[d]
        for w in doc:
            k = rng.randrange(T)
            z_doc.append(k)
            row[k] += 1
            n_kw[k][w] += 1
            n_k[k] += 1
        assignments.append(z_doc)

    vbeta = V * beta
    probs = [0.0] * T
    doc_lens = [len(doc) for doc in encoded]
    for sweep in range(iters):
        for d, doc in enumerate(encoded):
            row = n_dk[d]
            z_doc = assignments[d]
            for pos, w in enumerate(doc):
                k_old = z_doc[pos]
                row[k_old] -= 1
                n_kw[k_old][w] -= 1
                n_k[k_old] -= 1
                total = 0.0
                for k in range(T):
                    p = (row[k] + alpha) * (n_kw[k][w] + beta) / (n_k[k] + vbeta)
                    total += p
                    probs[k] = total
                u = rng.random() * total
                k_new = 0
                while probs[k_new] < u:
                    k_new += 1
                z_doc[pos] = k_new
                row[k_new] += 1
                n_kw[k_new][w] += 1
                n_k[k_new] += 1
        if (sweep + 1) % _CHECK_EVERY == 0:
            _check_counts(n_dk, n_kw, n_k, doc_lens, sweep + 1)
    _check_counts(n_dk, n_kw, n_k, doc_lens, iters)

    theta = np.empty((D, T))
    for d in range(D):
        if doc_lens[d] == 0:
            theta[d] = 1.0 / T
        else:
            theta[d] = (np.array(n_dk[d]) + alpha) / (doc_lens[d] + T * alpha)
    topic_word = (np.array(n_kw, dtype=float) + beta) / (np.array(n_k, dtype=float)[:, None] + vbeta)
    return TopicModel(T=T, alpha=alpha, beta=beta, iters=iters, seed=seed,
                      vocab=vocab, doc_ids=list(doc_ids), theta=theta,
                      topic_word=topic_word, empty_docs=empty)


def fit_lda_corpus(bundle, T: int, iters: int = 500, seed: int = 0) -> TopicModel:
    """Fit on all splits combined, using raw token surfaces as the documents."""
    examples = bundle.all_examples()
    docs = [[t.surface for t in ex.tokens] for ex in examples]
    return fit_lda(docs, T, iters=iters, seed=seed, doc_ids=[ex.id for ex in examples])


def domain_scores(model: TopicModel, example_domains, domain: str) -> np.ndarray:
    """Per-topic mean proportion inside the domain minus mean outside it."""
    domains = list(example_domains)
    if len(domains) != len(model.doc_ids):
        raise TopicError("example_domains must align with the fitted documents")
    inside = np.array([d == domain for d in domains])
    if not inside.any():
        raise TopicError(f"domain {domain!r} absent from the corpus")
    if inside.all():
        raise TopicError("selection needs at least 2 domains")
    return model.theta[inside].mean(axis=0) - model.theta[~inside].mean(axis=0)


def select_tc_topic(model: TopicModel, example_domains, domain: str,
                    exclude: set[int] | None = None) -> int:
    """Argmax of the in-vs-out domain score; ties break to the lowest id."""
    if model.T < 2:
        raise TopicError("topic selection needs T >= 2")
    scores = domain_scores(model, example_domains, domain)
    order = [t for t in range(model.T) if not (exclude and t in exclude)]
    if not order:
        raise TopicError("all topics excluded")
    best = order[0]
    for t in order[1:]:
        if scores[t] > scores[best]:
            best = t
    return best


def binarize_by_median(model: TopicModel, topic: int) -> np.ndarray:
    """1 where the topic proportion strictly exceeds its corpus-wide median."""
    if not 0 <= topic < model.T:
        raise TopicError(f"topic {topic} out of range")
    column = model.theta[:, topic]
    median = float(np.median(column))
    return (column > median).astype(np.int64)


def assign_topics(model: TopicModel, example_domains, domain: str) -> TopicAssignment:
    t_tc = select_tc_topic(model, example_domains, domain)
    t_cc = select_tc_topic(model, example_domains, domain, exclude={t_tc})
    medians = {
        t_tc: float(np.median(model.theta[:, t_tc])),
        t_cc: float(np.median(model.theta[:, t_cc])),
    }
    return TopicAssignment(
        t_tc=t_tc, t_cc=t_cc, medians=medians,
        itt=binarize_by_median(model, t_tc),
        ict=binarize_by_median(model, t_cc),
        doc_ids=list(model.doc_ids),
    )
