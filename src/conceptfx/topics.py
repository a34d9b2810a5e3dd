"""LDA topic model (collapsed Gibbs sampling) and binary topic-task labels.

Fits per-document topic proportions, selects the treated topic for a domain
as the topic whose mean per-document proportion is most elevated inside that
domain relative to outside it (the control topic is the runner-up), and
binarizes proportions at the corpus-wide median to produce the binary
topic-prediction task labels.

A Gibbs sweep is sequential per model; independent seeds/models can run in
parallel.  Fitting is deterministic under (docs, T, alpha, beta, iters, seed).
"""

from __future__ import annotations

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
    if alpha is None:
        alpha = 50.0 / T
    if not (alpha > 0 and beta > 0 and iters >= 0):
        raise TopicError(f"need alpha > 0, beta > 0 and iters >= 0, got {alpha}, {beta}, {iters}")
    docs = [list(doc) for doc in docs]
    if doc_ids is None:
        doc_ids = [f"doc-{i}" for i in range(len(docs))]
    if len(doc_ids) != len(docs):
        raise TopicError("doc_ids must align with docs")
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
    doc_lens = [len(doc) for doc in encoded]
    # Token i of the corpus, flattened in document order, is word words[i] of
    # document doc_of[i]; it has topic z[i] and, in each sweep, uniform us[i].
    doc_of = np.repeat(np.arange(D), doc_lens)
    words = np.array([w for doc in encoded for w in doc])
    N = len(words)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 303)))
    z = rng.integers(T, size=N)
    n_dk = np.zeros((D, T), dtype=np.int64)
    np.add.at(n_dk, (doc_of, z), 1)
    n_kw = np.zeros((T, V), dtype=np.int64)
    np.add.at(n_kw, (z, words), 1)
    n_k = np.bincount(z, minlength=T).tolist()
    n_dk, n_kw, z = n_dk.tolist(), n_kw.tolist(), z.tolist()
    tokens = list(zip(doc_of.tolist(), words.tolist()))

    vbeta = V * beta
    probs = [0.0] * T
    for sweep in range(iters):
        us = rng.random(N).tolist()
        for i, (d, w) in enumerate(tokens):
            row = n_dk[d]
            k_old = z[i]
            row[k_old] -= 1
            n_kw[k_old][w] -= 1
            n_k[k_old] -= 1
            total = 0.0
            for k in range(T):
                p = (row[k] + alpha) * (n_kw[k][w] + beta) / (n_k[k] + vbeta)
                total += p
                probs[k] = total
            u = us[i] * total
            k_new = 0
            while probs[k_new] < u:
                k_new += 1
            z[i] = k_new
            row[k_new] += 1
            n_kw[k_new][w] += 1
            n_k[k_new] += 1
        if (sweep + 1) % _CHECK_EVERY == 0:
            _check_counts(n_dk, n_kw, n_k, doc_lens, sweep + 1)
    _check_counts(n_dk, n_kw, n_k, doc_lens, iters)

    lens = np.array(doc_lens, dtype=float)[:, None]
    theta = np.where(lens > 0, (np.array(n_dk, dtype=float) + alpha) / (lens + T * alpha), 1.0 / T)
    topic_word = (np.array(n_kw, dtype=float) + beta) / (np.array(n_k, dtype=float)[:, None] + vbeta)
    return TopicModel(T=T, alpha=alpha, beta=beta, iters=iters, seed=seed,
                      vocab=vocab, doc_ids=list(doc_ids), theta=theta,
                      topic_word=topic_word, empty_docs=empty)


def fit_lda_corpus(bundle, T: int, iters: int = 500, seed: int = 0) -> TopicModel:
    """Fit on all splits combined, using raw token surfaces as the documents."""
    examples = bundle.all_examples()
    docs = [[t.surface for t in ex.tokens] for ex in examples]
    return fit_lda(docs, T, iters=iters, seed=seed, doc_ids=[ex.id for ex in examples])


def assign_topics(model: TopicModel, example_domains, domain: str) -> TopicAssignment:
    """Treated and control topics (ties to the lowest id) and their labels:
    1 where the topic proportion strictly exceeds its corpus-wide median."""
    if model.T < 2:
        raise TopicError("topic selection needs T >= 2")
    domains = list(example_domains)
    if len(domains) != len(model.doc_ids):
        raise TopicError("example_domains must align with the fitted documents")
    inside = np.array([d == domain for d in domains])
    if not inside.any():
        raise TopicError(f"domain {domain!r} absent from the corpus")
    if inside.all():
        raise TopicError("selection needs at least 2 domains")
    scores = model.theta[inside].mean(axis=0) - model.theta[~inside].mean(axis=0)
    t_tc, t_cc = (int(t) for t in np.argsort(-scores, kind="stable")[:2])
    medians = {t: float(np.median(model.theta[:, t])) for t in (t_tc, t_cc)}
    itt, ict = ((model.theta[:, t] > medians[t]).astype(np.int64) for t in (t_tc, t_cc))
    return TopicAssignment(t_tc=t_tc, t_cc=t_cc, medians=medians, itt=itt, ict=ict,
                           doc_ids=list(model.doc_ids))
