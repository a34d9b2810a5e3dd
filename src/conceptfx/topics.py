"""LDA topic model (collapsed Gibbs sampling) and binary topic-task labels.

Fits per-document topic proportions, selects the treated topic for a domain
as the topic whose mean per-document proportion is most elevated inside that
domain relative to outside it (the control topic is the runner-up), and
binarizes proportions at the corpus-wide median to produce the binary
topic-prediction task labels.

A Gibbs sweep is sequential per model; independent seeds/models can run in
parallel.  Fitting is deterministic under (docs, T, alpha, beta, iters, seed).

The sweep is a pure-Python loop laid out for CPython's fast paths.  The count
tables are lists of floats that hold exact integers: every count stays below
2**53, so ``count + alpha`` rounds exactly as it would from an integer count,
and CPython specialises float + float but not int + float.  The word-topic
table is word-major, so each token binds its document row and its word row
once, before the first sweep.  The denominators ``n_k[k] + V * beta`` are
cached and recomputed, by the same expression, only for the two topics a
token leaves and joins.  The new topic is drawn with ``bisect_left`` on the
cumulative weights, which are non-decreasing with ``u <= total``, so it
returns the first index whose cumulative weight reaches ``u``: the index the
linear search found.  Each sweep thus draws the topics the integer-count loop
drew, and the fit has the same bytes.
"""

from __future__ import annotations

import warnings
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .checks import integer, real


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


def _check_counts(n_dk, n_wk, n_k, doc_lens, sweep):
    for d, row in enumerate(n_dk):
        if sum(row) != doc_lens[d]:
            raise TopicError(f"sweep {sweep}: document-topic counts drifted for doc {d}")
    for k, column in enumerate(zip(*n_wk)):
        if sum(column) != n_k[k]:
            raise TopicError(f"sweep {sweep}: topic-word counts drifted for topic {k}")


def fit_lda(docs, T: int, alpha: float | None = None, beta: float = 0.01,
            iters: int = 500, seed: int = 0, doc_ids=None) -> TopicModel:
    """Collapsed Gibbs sampling with p(z=k) ~ (n_dk+a)(n_kw+b)/(n_k+Vb).

    ``alpha`` defaults to ``50/T``.  Documents that are empty after
    tokenization are excluded from fitting (with a warning) and receive a
    uniform topic row.
    """
    integer(T, "topic count T", TopicError, low=1)
    if alpha is None:
        alpha = 50.0 / T
    real(alpha, "alpha", TopicError, 0.0, low_open=True)
    real(beta, "beta", TopicError, 0.0, low_open=True)
    integer(iters, "iters", TopicError)
    integer(seed, "seed", TopicError)
    if isinstance(docs, str):
        raise TopicError("docs must be a sequence of token sequences, got a string")
    docs = list(docs)
    for d, doc in enumerate(docs):
        if isinstance(doc, str):
            raise TopicError(f"document {d} is a string, not a sequence of tokens")
    docs = [list(doc) for doc in docs]
    if doc_ids is None:
        doc_ids = [f"doc-{i}" for i in range(len(docs))]
    if len(doc_ids) != len(docs):
        raise TopicError("doc_ids must align with docs")
    empty = [doc_ids[i] for i, doc in enumerate(docs) if not doc]
    if empty:
        warnings.warn(f"{len(empty)} empty documents excluded from topic fitting", stacklevel=2)

    try:
        vocab = sorted({w for doc in docs for w in doc})
    except TypeError as e:
        raise TopicError(f"tokens must be hashable and sortable together: {e}") from e
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
    # Float counts holding exact integers, and a word-major n_wk[w][k]: see
    # the module docstring.
    n_dk = np.zeros((D, T))
    np.add.at(n_dk, (doc_of, z), 1.0)
    n_wk = np.zeros((V, T))
    np.add.at(n_wk, (words, z), 1.0)
    n_k = np.bincount(z, minlength=T).astype(float).tolist()
    n_dk, n_wk, z = n_dk.tolist(), n_wk.tolist(), z.tolist()
    # Token i's document-topic and word-topic rows, bound once.
    rows = [(n_dk[d], n_wk[w]) for d, w in zip(doc_of.tolist(), words.tolist())]

    vbeta = V * beta
    den = [n + vbeta for n in n_k]
    topics = range(T)
    probs = [0.0] * T
    for sweep in range(iters):
        us = rng.random(N).tolist()
        for i, (dk, wk) in enumerate(rows):
            k = z[i]
            dk[k] -= 1.0
            wk[k] -= 1.0
            n_k[k] -= 1.0
            den[k] = n_k[k] + vbeta
            total = 0.0
            for k in topics:
                total += (dk[k] + alpha) * (wk[k] + beta) / den[k]
                probs[k] = total
            # The first k with probs[k] >= us[i] * total.
            k = bisect_left(probs, us[i] * total)
            z[i] = k
            dk[k] += 1.0
            wk[k] += 1.0
            n_k[k] += 1.0
            den[k] = n_k[k] + vbeta
        if (sweep + 1) % _CHECK_EVERY == 0:
            _check_counts(n_dk, n_wk, n_k, doc_lens, sweep + 1)
    _check_counts(n_dk, n_wk, n_k, doc_lens, iters)

    lens = np.array(doc_lens, dtype=float)[:, None]
    theta = np.where(lens > 0, (np.array(n_dk, dtype=float) + alpha) / (lens + T * alpha), 1.0 / T)
    topic_word = (np.ascontiguousarray(np.array(n_wk).T) + beta) / (np.array(n_k)[:, None] + vbeta)
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
