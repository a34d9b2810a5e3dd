"""Vocabulary, masking plans, encoder forward, and head behavior."""

import numpy as np
import pytest

from conceptfx import autodiff as ad
from conceptfx.corpus import TaggedToken, Example, default_lexicons, generate_poms_corpus
from conceptfx.model import (CLS_ID, MASK_ID, PAD_ID, UNK_ID, EncoderConfig,
                             HeadSet, MaskingError, Vocab, build_vocab,
                             encode, encode_batch, encoder_forward,
                             feature_dim, ima_mask, init_encoder_params,
                             mlm_mask, sequence_features)
from conceptfx.model.masking import ACTION_KEEP_PREDICT, ACTION_MASK, ACTION_RANDOM


def _toy_vocab(tokens=("alpha", "beta", "gamma", "delta", "epsilon")):
    ex = Example(id="x", tokens=tuple(TaggedToken(t, "filler") for t in tokens),
                 label=0, concepts={})
    return build_vocab([ex])


class TestVocab:
    def test_empty_tokens_encode_to_cls_pad(self):
        vocab = _toy_vocab()
        ids, truncated = encode([], vocab, max_len=6)
        assert ids.tolist() == [CLS_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID, PAD_ID]
        assert not truncated

    def test_unseen_token_is_unk(self):
        vocab = _toy_vocab()
        ids, _ = encode(["zzz_not_there"], vocab, max_len=4)
        assert ids[1] == UNK_ID

    def test_truncation_flag(self):
        vocab = _toy_vocab()
        ids, truncated = encode(["alpha"] * 10, vocab, max_len=4)
        assert truncated and len(ids) == 4

    def test_vocab_covers_train_lexicon_words(self):
        bundle = generate_poms_corpus(n=600, seed=3)
        vocab = build_vocab(bundle)
        train_surfaces = {t.surface for ex in bundle.train for t in ex.tokens}
        missing = train_surfaces - set(vocab.id_to_token)
        assert missing == set()

    def test_ids_dense_and_stable(self):
        bundle = generate_poms_corpus(n=200, seed=3)
        v1, v2 = build_vocab(bundle), build_vocab(bundle)
        assert v1.token_to_id == v2.token_to_id
        assert sorted(v1.token_to_id.values()) == list(range(v1.size))


class TestMlmMask:
    def test_rate_zero_gives_empty_plan(self):
        vocab = _toy_vocab()
        ids, _ = encode(["alpha", "beta", "gamma"], vocab, max_len=8)
        plan = mlm_mask(ids, vocab, rate=0.0, seed=1)
        assert len(plan) == 0

    def test_deterministic_for_same_seed(self):
        vocab = _toy_vocab()
        ids, _ = encode(["alpha", "beta", "gamma", "delta"], vocab, max_len=8)
        p1 = mlm_mask(ids, vocab, rate=0.5, seed=42)
        p2 = mlm_mask(ids, vocab, rate=0.5, seed=42)
        np.testing.assert_array_equal(p1.positions, p2.positions)
        np.testing.assert_array_equal(p1.actions, p2.actions)
        np.testing.assert_array_equal(p1.replacements, p2.replacements)

    def test_never_selects_cls_or_pad(self):
        vocab = _toy_vocab()
        ids, _ = encode(["alpha", "beta"], vocab, max_len=10)
        for seed in range(50):
            plan = mlm_mask(ids, vocab, rate=0.9, seed=seed)
            assert all(ids[p] not in (CLS_ID, PAD_ID) for p in plan.positions)

    def test_action_fractions_80_10_10(self):
        vocab = _toy_vocab()
        ids, _ = encode(["alpha"] * 30, vocab, max_len=32)
        counts = np.zeros(3)
        total = 0
        for seed in range(6000):
            plan = mlm_mask(ids, vocab, rate=0.6, seed=seed)
            for a in plan.actions:
                counts[a] += 1
            total += len(plan)
        assert total > 100_000
        fractions = counts / total
        assert fractions[ACTION_MASK] == pytest.approx(0.8, abs=0.01)
        assert fractions[ACTION_KEEP_PREDICT] == pytest.approx(0.1, abs=0.01)
        assert fractions[ACTION_RANDOM] == pytest.approx(0.1, abs=0.01)

    def test_mask_replacement_ids(self):
        vocab = _toy_vocab()
        ids, _ = encode(["alpha", "beta", "gamma", "delta", "epsilon"], vocab, max_len=10)
        plan = mlm_mask(ids, vocab, rate=1.0, seed=0)
        masked = plan.apply(ids)
        for pos, action, rep in zip(plan.positions, plan.actions, plan.replacements):
            assert masked[pos] == rep
            if action == ACTION_MASK:
                assert rep == MASK_ID
            elif action == ACTION_KEEP_PREDICT:
                assert rep == ids[pos]
            else:
                assert rep >= 4

    def test_no_maskable_positions_errors(self):
        vocab = _toy_vocab()
        ids, _ = encode([], vocab, max_len=4)
        with pytest.raises(MaskingError):
            mlm_mask(ids, vocab, rate=0.5, seed=0)


def _adjective_example(n_adj, n_other, id="ex"):
    tokens = tuple(TaggedToken(f"adj{i}", "adjective") for i in range(n_adj)) + \
             tuple(TaggedToken(f"tok{i}", "filler") for i in range(n_other))
    return Example(id=id, tokens=tokens, label=0, concepts={})


class TestImaMask:
    def _vocab(self):
        ex = _adjective_example(4, 12)
        return build_vocab([ex])

    def test_two_adjectives_among_ten(self):
        ex = _adjective_example(2, 8)
        plan = ima_mask(ex, build_vocab([ex]), seed=0, max_len=16)
        assert len(plan) == 4
        assert plan.binary_targets.sum() == 2
        assert plan.imbalance == 0

    def test_zero_adjectives_errors(self):
        ex = _adjective_example(0, 8)
        with pytest.raises(MaskingError):
            ima_mask(ex, build_vocab([ex]), seed=0, max_len=16)

    def test_insufficient_non_adjectives_records_imbalance(self):
        ex = _adjective_example(5, 2)
        plan = ima_mask(ex, build_vocab([ex]), seed=0, max_len=16)
        assert plan.imbalance == 3
        assert plan.binary_targets.sum() == 5
        assert (plan.binary_targets == 0).sum() == 2

    def test_class_balance_over_epoch(self):
        rng = np.random.default_rng(0)
        ones = zeros = 0
        for i in range(500):
            ex = _adjective_example(int(rng.integers(1, 4)), 10, id=f"e{i}")
            plan = ima_mask(ex, build_vocab([ex]), seed=i, max_len=16)
            assert plan.imbalance == 0
            ones += int(plan.binary_targets.sum())
            zeros += int((plan.binary_targets == 0).sum())
        assert ones / (ones + zeros) == pytest.approx(0.5, abs=0.01)

    def test_deterministic(self):
        ex = _adjective_example(2, 9)
        vocab = build_vocab([ex])
        p1 = ima_mask(ex, vocab, seed=5, max_len=16)
        p2 = ima_mask(ex, vocab, seed=5, max_len=16)
        np.testing.assert_array_equal(p1.positions, p2.positions)
        np.testing.assert_array_equal(p1.replacements, p2.replacements)


class TestEncoder:
    def _setup(self, dtype=np.float32, max_len=12):
        vocab = _toy_vocab()
        config = EncoderConfig(vocab_size=vocab.size, layers=2, heads=2, dim=8,
                               ffn_dim=16, max_len=max_len, dropout=0.1)
        params = init_encoder_params(config, seed=0, dtype=dtype)
        return vocab, config, params

    def test_eval_mode_deterministic(self):
        vocab, config, params = self._setup()
        ids, _ = encode_batch([_adjective_example(1, 5)], vocab, config.max_len)
        s1, p1 = encoder_forward(ids, params, config, mode="eval")
        s2, p2 = encoder_forward(ids, params, config, mode="eval")
        np.testing.assert_array_equal(s1.data, s2.data)
        np.testing.assert_array_equal(p1.data, p2.data)

    def test_train_mode_uses_dropout_stream(self):
        vocab, config, params = self._setup()
        ids, _ = encode_batch([_adjective_example(1, 5)], vocab, config.max_len)
        s1, _ = encoder_forward(ids, params, config, mode="train", dropout_rng=ad.DropoutRng(1))
        s2, _ = encoder_forward(ids, params, config, mode="train", dropout_rng=ad.DropoutRng(1))
        np.testing.assert_array_equal(s1.data, s2.data)

    def test_pad_tail_invariance(self):
        vocab, config, params = self._setup(dtype=np.float64)
        tokens = ["alpha", "beta", "gamma"]
        short, _ = encode(tokens, vocab, max_len=6)
        long, _ = encode(tokens, vocab, max_len=12)
        s_short, p_short = encoder_forward(short[None, :], params, config, mode="eval")
        s_long, p_long = encoder_forward(long[None, :], params, config, mode="eval")
        np.testing.assert_allclose(s_short.data[0, :4], s_long.data[0, :4], atol=1e-5)
        np.testing.assert_allclose(p_short.data, p_long.data, atol=1e-5)

    def test_degenerate_init_pooled_is_tanh_bias(self):
        vocab, config, params = self._setup(dtype=np.float64)
        for name, tensor in params.items():
            if name.endswith(("_g", "ln1_g", "ln2_g")):
                tensor.data = np.ones_like(tensor.data)
            else:
                tensor.data = np.zeros_like(tensor.data)
        bias = np.linspace(-1, 1, config.dim)
        params["pooler.b"].data = bias.copy()
        ids, _ = encode_batch([_adjective_example(1, 3)], vocab, config.max_len)
        _, pooled = encoder_forward(ids, params, config, mode="eval")
        np.testing.assert_allclose(pooled.data[0], np.tanh(bias), atol=1e-12)

    def test_sequence_features_shape_and_mean(self):
        vocab, config, params = self._setup(dtype=np.float64)
        ids, _ = encode_batch([_adjective_example(1, 3)], vocab, config.max_len)
        states, pooled = encoder_forward(ids, params, config, mode="eval")
        feats = sequence_features(states, pooled, ids)
        assert feats.shape == (1, feature_dim(config))
        n_real = (ids[0] != PAD_ID).sum()
        np.testing.assert_allclose(feats.data[0, config.dim:],
                                   states.data[0, :n_real].mean(axis=0), atol=1e-12)

    def test_dim_head_divisibility_enforced(self):
        from conceptfx.model.encoder import EncoderError
        with pytest.raises(EncoderError):
            EncoderConfig(vocab_size=10, dim=10, heads=3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("name, layer", [
        ("emb.ln_g", -1), ("layer0.ffn.w1", 0), ("layer1.attn.wv", 1), ("pooler.w", 2),
    ])
    def test_non_finite_activation_names_its_layer(self, name, layer):
        from conceptfx.model.encoder import EncoderError
        vocab, config, params = self._setup()
        params[name].data[...] = np.inf
        ids, _ = encode_batch([_adjective_example(1, 3)], vocab, config.max_len)
        with pytest.raises(EncoderError, match=f"^layer {layer}: ") as info:
            encoder_forward(ids, params, config, mode="eval")
        assert info.value.layer == layer


class TestHeads:
    def test_zero_weights_give_uniform_softmax(self):
        heads = HeadSet()
        heads.add_seq("task", in_dim=6, classes=4, seed=0, dtype=np.float64)
        heads.params["head.task.w"].data[:] = 0.0
        feats = ad.Tensor(np.zeros((3, 6)))
        probs = ad.softmax(heads.forward("task", feats))
        np.testing.assert_allclose(probs.data, np.full((3, 4), 0.25), atol=1e-12)

    def test_adversarial_forward_is_identity(self):
        rng = np.random.default_rng(0)
        feats = ad.Tensor(rng.standard_normal((4, 6)))
        plain = HeadSet()
        plain.add_seq("h", in_dim=6, classes=2, seed=7, dtype=np.float64)
        reversed_ = HeadSet()
        reversed_.add_seq("h", in_dim=6, classes=2, seed=7, dtype=np.float64, adversarial=True)
        np.testing.assert_array_equal(plain.forward("h", feats).data,
                                      reversed_.forward("h", feats).data)

    def test_adversarial_backward_scales_input_grad(self):
        rng = np.random.default_rng(1)
        lam = 2.0
        feats = ad.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
        targets = np.array([0, 1, 1, 0])

        def run(adversarial):
            hs = HeadSet()
            hs.add_seq("h", in_dim=6, classes=2, seed=3, dtype=np.float64,
                       adversarial=adversarial, grl_lambda=lam)
            with ad.Tape() as tape:
                loss = ad.cross_entropy(hs.forward("h", feats), targets)
            tape.backward(loss)
            return feats.grad.copy(), hs.params["head.h.w"].grad.copy()

        g_plain, w_plain = run(False)
        g_rev, w_rev = run(True)
        np.testing.assert_array_equal(w_rev, w_plain)
        np.testing.assert_allclose(g_rev, -lam * g_plain, rtol=1e-12)

    def test_class_mismatch_rejected(self):
        from conceptfx.model.heads import HeadError
        heads = HeadSet()
        heads.add_seq("h", in_dim=6, classes=2, seed=0)
        with pytest.raises(HeadError):
            heads.forward("h", ad.Tensor(np.zeros((2, 5))))
