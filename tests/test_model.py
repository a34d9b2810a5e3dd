"""Vocabulary, masking plans, encoder forward, and head behavior."""

import dataclasses

import numpy as np
import pytest

from conceptfx import autodiff as ad
from conceptfx.corpus import TaggedToken, Example, generate_poms_corpus
from conceptfx.model import (CLS_ID, MASK_ID, PAD_ID, SPECIAL_TOKENS, UNK_ID, EncoderConfig,
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

    @pytest.mark.parametrize("call", [
        lambda vocab: encode_batch([_adjective_example(1, 1)], vocab, max_len=0),
        lambda vocab: encode_batch([], vocab, max_len=-3),
        lambda vocab: encode(["alpha"], vocab, max_len=-3),
        lambda vocab: encode(["alpha"], vocab, max_len=4.0),
        lambda vocab: encode(["alpha"], vocab, max_len=True),
    ], ids=["batch-zero", "empty-batch-negative", "negative", "float", "bool"])
    def test_max_len_must_be_a_positive_integer(self, call):
        # max_len=0 leaked IndexError, a negative one numpy's ValueError.
        from conceptfx.model.vocab import VocabError
        with pytest.raises(VocabError, match="max_len must be an integer >= 1"):
            call(_toy_vocab())

    def test_encode_batch_checks_max_len_once(self, monkeypatch):
        # Each row's encode call re-checked it: 1,281 checks for 1,280 rows.
        from conceptfx.model import vocab as vocab_module
        bundle = generate_poms_corpus(n=2000, seed=1)
        vocab = build_vocab(bundle)
        calls = []
        check = vocab_module.integer
        monkeypatch.setattr(vocab_module, "integer", lambda *a, **k: calls.append(a) or check(*a, **k))
        ids, truncations = encode_batch(bundle.train, vocab, 32)
        assert len(bundle.train) == 1280 and len(calls) == 1
        rows = [encode(ex.tokens, vocab, 32) for ex in bundle.train]
        assert ids.tolist() == [row.tolist() for row, _ in rows]
        assert truncations == sum(truncated for _, truncated in rows)

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

    @pytest.mark.parametrize("rate", ["x", float("nan"), -0.1, 1.5, True, None])
    def test_rate_must_be_a_real_in_unit_interval(self, rate):
        # "x" leaked numpy's UFuncTypeError, and NaN masked nothing.
        vocab = _toy_vocab()
        ids, _ = encode(["alpha", "beta"], vocab, max_len=6)
        with pytest.raises(MaskingError, match="rate must be a real number in"):
            mlm_mask(ids, vocab, rate=rate, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        # -1 leaked numpy's ValueError; 1.5 and "x" leaked TypeError.
        vocab = _toy_vocab()
        ids, _ = encode(["alpha", "beta"], vocab, max_len=6)
        with pytest.raises(MaskingError, match="seed must be an integer >= 0"):
            mlm_mask(ids, vocab, rate=0.5, seed=seed)

    def test_batch_of_ids_rejected(self):
        # A [5, 5] batch leaked IndexError.
        with pytest.raises(MaskingError, match=r"1-D sequence, got shape \(5, 5\)"):
            mlm_mask(np.full((5, 5), 5), _toy_vocab(), rate=0.5, seed=0)

    def test_no_maskable_positions_errors(self):
        vocab = _toy_vocab()
        ids, _ = encode([], vocab, max_len=4)
        with pytest.raises(MaskingError):
            mlm_mask(ids, vocab, rate=0.5, seed=0)

    def test_specials_only_vocab_rejected(self):
        # 13 of these 20 seeds drew a random token and leaked numpy's "low >= high".
        for seed in range(20):
            with pytest.raises(MaskingError, match="no non-special token"):
                mlm_mask(np.array([CLS_ID] + [UNK_ID] * 7), Vocab(list(SPECIAL_TOKENS)), rate=1.0, seed=seed)


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

    def test_specials_only_vocab_rejected(self):
        with pytest.raises(MaskingError, match="no non-special token"):
            ima_mask(_adjective_example(2, 8), Vocab(list(SPECIAL_TOKENS)), seed=0, max_len=16)

    @pytest.mark.parametrize("seed", [-1, 1.5, "x", True])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        ex = _adjective_example(2, 8)
        with pytest.raises(MaskingError, match="seed must be an integer >= 0"):
            ima_mask(ex, build_vocab([ex]), seed=seed, max_len=16)

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

    def test_train_mode_dropout_needs_rng(self):
        from conceptfx.model.encoder import EncoderError
        vocab, config, params = self._setup()
        ids, _ = encode_batch([_adjective_example(1, 5)], vocab, config.max_len)
        with pytest.raises(EncoderError, match="dropout with p > 0 requires a DropoutRng"):
            encoder_forward(ids, params, config, mode="train")

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

    @pytest.mark.parametrize("field, value", [
        ("heads", 0), ("dim", 0), ("ffn_dim", 0), ("max_len", 0), ("layers", -1),
    ])
    def test_empty_sizes_rejected(self, field, value):
        # heads=0 raised ZeroDivisionError; the others built a config.
        from conceptfx.model.encoder import EncoderError
        with pytest.raises(EncoderError, match=f"^{field} must be"):
            EncoderConfig(vocab_size=10, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("layers", 1.5), ("dim", 64.0), ("heads", True), ("vocab_size", 40.0),
        ("ffn_dim", np.int64(256)), ("max_len", "32"),
    ])
    def test_non_int_sizes_rejected(self, field, value):
        # layers=1.5 and dim=64.0 built a config; init_encoder_params then leaked TypeError.
        from conceptfx.model.encoder import EncoderError
        with pytest.raises(EncoderError, match=f"^{field} must be an int"):
            EncoderConfig(**{"vocab_size": 40, field: value})

    @pytest.mark.parametrize("value", ["0.1", None, True, 1.0, -0.1, float("nan")])
    def test_dropout_must_be_a_real_in_unit_interval(self, value):
        # dropout="0.1" leaked TypeError from the range check.
        from conceptfx.model.encoder import EncoderError
        with pytest.raises(EncoderError, match="^dropout must be a real number in"):
            EncoderConfig(vocab_size=40, dropout=value)

    @pytest.mark.parametrize("change, name, layer", [
        ("extra-layer", "layer2.attn.wq", 2), ("dropped", "layer1.ffn.w2", 1),
    ])
    def test_missing_parameter_names_itself_and_its_layer(self, change, name, layer):
        # The lookup used to leak a bare KeyError.
        from conceptfx.model.encoder import EncoderError
        vocab, config, params = self._setup()
        if change == "dropped":
            del params[name]
        else:
            config = dataclasses.replace(config, layers=3)
        ids, _ = encode_batch([_adjective_example(1, 3)], vocab, config.max_len)
        with pytest.raises(EncoderError, match=f"^layer {layer}: .*'{name}'") as info:
            encoder_forward(ids, params, config, mode="eval")
        assert info.value.layer == layer

    def test_parameters_of_another_width_name_the_layer(self):
        # A config narrower than its parameters leaked numpy's reshape ValueError.
        from conceptfx.model.encoder import EncoderError
        vocab, config, params = self._setup()
        config = dataclasses.replace(config, dim=4)
        ids, _ = encode_batch([_adjective_example(1, 3)], vocab, config.max_len)
        with pytest.raises(EncoderError, match="^layer 0: reshape") as info:
            encoder_forward(ids, params, config, mode="eval")
        assert info.value.layer == 0

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

    def test_empty_sequences_rejected(self):
        from conceptfx.model.encoder import EncoderError
        _, config, params = self._setup()
        with pytest.raises(EncoderError, match=r"got \(2, 0\)") as info:
            encoder_forward(np.zeros((2, 0), dtype=np.int64), params, config, mode="eval")
        assert info.value.layer is None

    def test_out_of_vocabulary_id_names_the_embeddings(self):
        from conceptfx.model.encoder import EncoderError
        vocab, config, params = self._setup()
        ids, _ = encode_batch([_adjective_example(1, 3)], vocab, config.max_len)
        ids[0, 1] = config.vocab_size
        with pytest.raises(EncoderError, match="^layer -1: ") as info:
            encoder_forward(ids, params, config, mode="eval")
        assert info.value.layer == -1


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

    @pytest.mark.parametrize("in_dim, classes", [(6, 0), (0, 2), (-1, 2)])
    def test_empty_head_rejected(self, in_dim, classes):
        from conceptfx.model.heads import HeadError
        heads = HeadSet()
        with pytest.raises(HeadError, match="'h'"):
            heads.add_seq("h", in_dim=in_dim, classes=classes, seed=0)
        assert heads.heads == {} and heads.params == {}

    @pytest.mark.parametrize("in_dim, classes", [(2.5, 2), (6, 2.0), (True, 2), ("6", 2)],
                             ids=["float-in-dim", "float-classes", "bool-in-dim", "string-in-dim"])
    def test_non_integer_head_size_rejected(self, in_dim, classes):
        # HeadSet().add_seq("t", 2.5, 2, 0) leaked TypeError from rng.normal.
        from conceptfx.model.heads import HeadError
        heads = HeadSet()
        with pytest.raises(HeadError, match="^head 'h' (in_dim|classes) must be an integer >= 1"):
            heads.add_seq("h", in_dim=in_dim, classes=classes, seed=0)
        assert heads.heads == {} and heads.params == {}

    @pytest.mark.parametrize("lam", [-1.0, float("nan"), float("inf"), "x", True])
    def test_adversarial_lambda_checked_when_added(self, lam):
        # -1.0 and "x" were stored and failed only at forward (AutodiffError, raw ValueError).
        from conceptfx.model.heads import HeadError
        heads = HeadSet()
        with pytest.raises(HeadError, match=r"^adversarial head 'h' grl_lambda must be a real number in \[0, inf\)"):
            heads.add_seq("h", in_dim=6, classes=2, seed=0, adversarial=True, grl_lambda=lam)
        assert heads.heads == {} and heads.params == {}

    def test_class_mismatch_rejected(self):
        from conceptfx.model.heads import HeadError
        heads = HeadSet()
        heads.add_seq("h", in_dim=6, classes=2, seed=0)
        with pytest.raises(HeadError):
            heads.forward("h", ad.Tensor(np.zeros((2, 5))))
