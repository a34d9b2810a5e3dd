"""Byte pins for the training helpers: Adam, topic assignment and masking plans."""

import hashlib
import json

import numpy as np

from conceptfx.autodiff import Tensor
from conceptfx.corpus import Example, TaggedToken, generate_review_corpus
from conceptfx.model import build_vocab, encode_batch, ima_mask, mlm_mask
from conceptfx.optim import Adam
from conceptfx.topics import assign_topics, fit_lda_corpus


def _sha(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def test_adam_trajectory_pinned():
    # "c" gets its first gradient at step 5 and "b" none at step 12, so the
    # pin covers moments that stay zero until a parameter's first gradient
    # and a parameter skipped under the global step.
    rng = np.random.default_rng(np.random.SeedSequence((11, 1)))
    shapes = {"a": (3, 4), "b": (5,), "c": (2, 3)}
    params = {n: Tensor(rng.standard_normal(s), requires_grad=True, dtype=np.float32)
              for n, s in shapes.items()}
    opt = Adam(params, lr=1e-2)
    for step in range(1, 21):
        for name, p in params.items():
            g = rng.standard_normal(p.shape).astype(np.float32)
            skipped = (name == "c" and step < 5) or (name == "b" and step == 12)
            if not skipped:
                p.grad = g
        opt.step()
        opt.zero_grad()
    assert _sha(*(params[n].data for n in sorted(params))) == (
        "8b7017dba1095f4953799dba67958197316f7c2c09cc16d904415c0a136cda55")


def test_assign_topics_pinned():
    bundle = generate_review_corpus(n=300, seed=5)
    model = fit_lda_corpus(bundle, 6, iters=5, seed=2)
    a = assign_topics(model, [ex.domain for ex in bundle.all_examples()], "books")
    summary = json.dumps({"t_tc": a.t_tc, "t_cc": a.t_cc,
                          "medians": [[t, m.hex()] for t, m in a.medians.items()]})
    assert (a.t_tc, a.t_cc) == (2, 5)
    assert a.doc_ids == model.doc_ids
    assert _sha(np.frombuffer(summary.encode(), np.uint8), a.itt, a.ict) == (
        "16cc640e4b0ac277a91bf8bef80cb61b944a029d401e84abec917aeda3b5dc01")


def test_masking_plans_pinned():
    bundle = generate_review_corpus(n=120, seed=9)
    vocab = build_vocab(bundle)
    arrays = []
    imbalances = []
    # Reviews whose first six tokens hold an adjective, so a 7-long window
    # (CLS plus six tokens) also has one to mask.
    examples = [ex for ex in bundle.test if any(t.slot == "adjective" for t in ex.tokens[:6])][:8]
    # More adjectives than other tokens: the plan records a shortfall.
    examples.append(Example(id="adj-heavy", label=1, concepts={"adjectives": 1}, tokens=tuple(
        TaggedToken(w, s) for w, s in [("lovely", "adjective"), ("superb", "adjective"),
                                       ("great", "adjective"), ("book", "topic-word")])))
    for i, ex in enumerate(examples):
        for max_len in (32, 7):
            plan = ima_mask(ex, vocab, seed=i, max_len=max_len)
            arrays += [plan.positions, plan.actions, plan.replacements, plan.binary_targets]
            imbalances.append(plan.imbalance)
        (ids,), _ = encode_batch([ex], vocab, 32)
        plan = mlm_mask(ids, vocab, rate=0.3, seed=i)
        arrays += [plan.positions, plan.actions, plan.replacements, plan.mlm_targets]
    assert imbalances == [0] * 16 + [2, 2]
    assert _sha(*arrays) == "ab5aec8873e86ac9d52d9e92b5982c4c55b7bfaa5512edb9fddf760b6482b7cd"
