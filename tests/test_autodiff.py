"""Unit tests for the reverse-mode engine: primitives, tape, gradient reversal."""

import numpy as np
import pytest

from conceptfx import autodiff as ad


def finite_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function, entry by entry."""
    g = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def check_grad(build_loss, params, rtol=1e-5, h=1e-5):
    """Compare tape gradients of ``build_loss()`` against central differences."""
    with ad.Tape() as tape:
        loss = build_loss()
    tape.backward(loss)
    for name, p in params.items():
        assert p.grad is not None, f"no gradient for {name}"
        num = finite_difference(lambda: build_loss().item(), p.data, h=h)
        scale = np.maximum(np.abs(num), 1.0)
        err = np.abs(p.grad - num) / scale
        assert err.max() < rtol, f"{name}: max rel err {err.max():.3g}"


def _param(rng, shape):
    return ad.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=np.float64)


class TestPrimitiveValues:
    def test_softmax_symmetry(self):
        out = ad.softmax(ad.Tensor([[0.0, 0.0]]))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_cross_entropy_uniform(self):
        loss = ad.cross_entropy(ad.Tensor([[0.0, 0.0]]), np.array([0]))
        assert loss.item() == pytest.approx(np.log(2.0), rel=1e-12)

    def test_cross_entropy_zero_rows_is_zero(self):
        # An MLM batch whose every plan is empty gathers [0, C] logits.
        logits = ad.Tensor(np.zeros((0, 2)), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.cross_entropy(logits, np.zeros(0, dtype=np.int64))
        assert loss.item() == 0.0
        tape.backward(loss)
        np.testing.assert_array_equal(logits.grad, np.zeros((0, 2)))

    def test_non_finite_detection(self):
        big = ad.Tensor(np.array([1e308]))
        with np.errstate(over="ignore"), pytest.raises(ad.NonFiniteError):
            ad.mul(big, big)

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3), (3,)), ((2, 2, 3), (3,)), ((3,), (3, 2))])
    def test_matmul_rejects_a_1d_operand(self, a_shape, b_shape):
        # numpy runs these forward, but the backward pass has no rule for a 1-D operand.
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.Tensor(np.ones(a_shape)), ad.Tensor(np.ones(b_shape)))

    def test_dropout_eval_is_identity(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3))
        assert ad.dropout(x, 0.0, None) is x

    def test_dropout_counter_stream_reproducible(self):
        x = ad.Tensor(np.ones((4, 4)))
        r1, r2 = ad.DropoutRng(7), ad.DropoutRng(7)
        a = ad.dropout(x, 0.5, r1)
        b = ad.dropout(x, 0.5, r2)
        np.testing.assert_array_equal(a.data, b.data)
        c = ad.dropout(x, 0.5, r1)
        assert not np.array_equal(a.data, c.data)


class TestPrimitiveGradients:
    """Every primitive's gradient matches central finite differences (64-bit)."""

    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_matmul_2d(self):
        a, b = _param(self.rng, (4, 5)), _param(self.rng, (5, 3))
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.mul(ad.matmul(a, b), ad.matmul(a, b)), (12,)), 0),
                   {"a": a, "b": b})

    def test_matmul_batched_against_2d(self):
        a, b = _param(self.rng, (2, 3, 4)), _param(self.rng, (4, 3))
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.matmul(a, b), (18,)), 0), {"a": a, "b": b})

    def test_matmul_batched_both(self):
        a, b = _param(self.rng, (2, 3, 4)), _param(self.rng, (2, 4, 2))
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.mul(ad.matmul(a, b), ad.matmul(a, b)), (12,)), 0),
                   {"a": a, "b": b})

    def test_add_broadcast_bias(self):
        x, b = _param(self.rng, (3, 2, 4)), _param(self.rng, (4,))
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.gelu(ad.add(x, b)), (24,)), 0), {"x": x, "b": b})

    def test_mul_broadcast(self):
        x, m = _param(self.rng, (3, 4)), _param(self.rng, (3, 1))
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.mul(x, m), (12,)), 0), {"x": x, "m": m})

    def test_embedding(self):
        table = _param(self.rng, (7, 3))
        ids = np.array([[0, 3, 3], [6, 1, 0]])
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.mul(ad.embedding(table, ids), ad.embedding(table, ids)), (18,)), 0),
                   {"table": table})

    def test_layer_norm(self):
        x, g, b = _param(self.rng, (2, 5)), _param(self.rng, (5,)), _param(self.rng, (5,))
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.mul(ad.layer_norm(x, g, b), ad.layer_norm(x, g, b)), (10,)), 0),
                   {"x": x, "g": g, "b": b}, rtol=1e-4)

    def test_softmax(self):
        x = _param(self.rng, (3, 4))
        w = ad.Tensor(self.rng.standard_normal((3, 4)))
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.mul(ad.softmax(x), w), (12,)), 0), {"x": x})

    def test_gelu(self):
        x = _param(self.rng, (4, 4))
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.mul(ad.gelu(x), ad.gelu(x)), (16,)), 0), {"x": x})

    def test_tanh(self):
        x = _param(self.rng, (2, 6))
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.tanh(x), (12,)), 0), {"x": x})

    def test_cross_entropy_grad(self):
        logits = _param(self.rng, (5, 3))
        targets = np.array([0, 2, 1, 2, 0])
        check_grad(lambda: ad.cross_entropy(logits, targets), {"logits": logits})

    def test_dropout_grad_fixed_mask(self):
        x = _param(self.rng, (4, 4))
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.dropout(x, 0.5, ad.DropoutRng(3)), (16,)), 0),
                   {"x": x})

    def test_gather_positions(self):
        x = _param(self.rng, (2, 4, 3))
        b_idx, p_idx = np.array([0, 0, 1]), np.array([1, 1, 3])
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.mul(ad.gather_positions(x, b_idx, p_idx),
                                                         ad.gather_positions(x, b_idx, p_idx)), (9,)), 0),
                   {"x": x})

    def test_concat_transpose_reshape(self):
        a, b = _param(self.rng, (2, 3)), _param(self.rng, (2, 2))
        def loss():
            c = ad.concat(a, b)
            t = ad.transpose(c, (1, 0))
            return ad.sum_axis(ad.reshape(ad.mul(t, t), (10,)), 0)
        check_grad(loss, {"a": a, "b": b})

    def test_scale(self):
        x = _param(self.rng, (3, 3))
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.scale(ad.gelu(x), -2.5), (9,)), 0), {"x": x})


class TestStage2Gradients:
    """Finite differences through the encoder, a masked-position MLM loss and a control head."""

    def test_mlm_and_control_head_gradients(self):
        from conceptfx.model import (CLS_ID, MASK_ID, PAD_ID, EncoderConfig, HeadSet,
                                     encoder_forward, feature_dim, init_encoder_params,
                                     sequence_features)
        config = EncoderConfig(vocab_size=12, layers=2, heads=2, dim=8, ffn_dim=16,
                               max_len=6, dropout=0.1)
        params = init_encoder_params(config, seed=0, dtype=np.float64)
        heads = HeadSet()
        heads.add_mlm("mlm", config.dim, config.vocab_size, seed=0, dtype=np.float64)
        heads.add_seq("race", feature_dim(config), 2, seed=0, dtype=np.float64)
        # Weights well away from the N(0, 0.02) init, so every gradient is far from 0.
        rng = np.random.default_rng(5)
        for p in [*params.values(), *heads.params.values()]:
            p.data = p.data + rng.normal(0.0, 0.3, size=p.shape)
        ids = np.array([[CLS_ID, 5, MASK_ID, 7, PAD_ID, PAD_ID],
                        [CLS_ID, MASK_ID, 9, 10, MASK_ID, 4]])
        b_idx, p_idx, targets = np.array([0, 1, 1]), np.array([2, 1, 4]), np.array([6, 8, 11])
        labels = np.array([1, 0])

        def loss():
            states, pooled = encoder_forward(ids, params, config, mode="eval")
            mlm = heads.forward("mlm", ad.gather_positions(states, b_idx, p_idx))
            race = heads.forward("race", sequence_features(states, pooled, ids))
            return ad.add(ad.cross_entropy(mlm, targets), ad.cross_entropy(race, labels))

        checked = {name: params[name] for name in
                   ("emb.tok", "layer0.attn.wq", "layer1.ffn.w1", "pooler.w")}
        checked.update(heads.params)
        check_grad(loss, checked, rtol=1e-6)


class TestGradReverse:
    def test_forward_identity(self):
        x = ad.Tensor(np.arange(4.0))
        np.testing.assert_array_equal(ad.grad_reverse(x, 1.0).data, x.data)

    def test_unit_lambda_negates_gradient(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        w = ad.Tensor(np.array([2.0, -1.0, 0.5]), requires_grad=True)
        with ad.Tape() as tape:
            plain = ad.sum_axis(ad.mul(x, w), 0)
        tape.backward(plain)
        g_plain = x.grad.copy()
        with ad.Tape() as tape:
            rev = ad.sum_axis(ad.mul(ad.grad_reverse(x, 1.0), w), 0)
        tape.backward(rev)
        np.testing.assert_array_equal(x.grad, -g_plain)

    def test_zero_lambda_detaches(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            loss = ad.sum_axis(ad.grad_reverse(x, 0.0), 0)
        tape.backward(loss)
        np.testing.assert_array_equal(x.grad, np.zeros(3))

    def test_downstream_params_unaffected(self):
        # Parameters strictly downstream of the reversal see identical gradients.
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((3, 2)), requires_grad=True)
        targets = np.array([0, 1])

        def run(lam):
            with ad.Tape() as tape:
                h = ad.grad_reverse(x, lam) if lam is not None else x
                loss = ad.cross_entropy(ad.matmul(h, w), targets)
            tape.backward(loss)
            return x.grad.copy(), w.grad.copy()

        gx_plain, gw_plain = run(None)
        gx_rev, gw_rev = run(3.0)
        np.testing.assert_array_equal(gw_rev, gw_plain)
        np.testing.assert_allclose(gx_rev, -3.0 * gx_plain, rtol=1e-12)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ad.AutodiffError):
            ad.grad_reverse(ad.Tensor(np.ones(2)), -0.5)


class TestTape:
    def test_fanout_accumulates(self):
        x = ad.Tensor(np.array([3.0]), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)      # x used twice
            loss = ad.sum_axis(y, 0)
        tape.backward(loss)
        np.testing.assert_allclose(x.grad, [6.0])

    def test_linearity(self):
        # backward of a*L1 + b*L2 equals a*backward(L1) + b*backward(L2)
        rng = np.random.default_rng(2)
        w = ad.Tensor(rng.standard_normal((4, 3)), requires_grad=True)
        x = ad.Tensor(rng.standard_normal((5, 4)))
        t1 = np.array([0, 1, 2, 0, 1])
        t2 = np.array([2, 2, 0, 1, 1])

        def grad_of(build):
            with ad.Tape() as tape:
                loss = build()
            tape.backward(loss)
            return w.grad.copy()

        g1 = grad_of(lambda: ad.cross_entropy(ad.matmul(x, w), t1))
        g2 = grad_of(lambda: ad.cross_entropy(ad.matmul(x, w), t2))
        a, b = 0.7, -1.3
        g_combo = grad_of(lambda: ad.add(ad.scale(ad.cross_entropy(ad.matmul(x, w), t1), a),
                                         ad.scale(ad.cross_entropy(ad.matmul(x, w), t2), b)))
        np.testing.assert_allclose(g_combo, a * g1 + b * g2, atol=1e-6)

    def test_no_tape_records_nothing(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        y = ad.mul(x, x)
        assert y.requires_grad is False

    def test_backward_needs_scalar(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ad.ShapeError):
            tape.backward(y)
