"""Unit tests for the reverse-mode engine: primitives, tape, gradient reversal."""

import hashlib
import inspect
import re
import threading
import time
import tracemalloc

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


def _forward_and_grads(op, tensors, g):
    """Run ``op(*tensors)`` on a tape; return its output and its node's ``backward_fn(g)``."""
    with ad.Tape() as tape:
        out = op(*tensors)
    return out, tape._nodes[-1].backward_fn(g)


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()[:16]


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
        with pytest.raises(ad.NonFiniteError):
            ad.mul(big, big)

    @pytest.mark.parametrize("call", [
        lambda t: ad.matmul(t([[3e38, 3e38]]), t([[3e38], [3e38]])),
        lambda t: ad.add(t([3e38]), t([3e38])),
        lambda t: ad.mul(t([3e38]), t([3e38])),
        lambda t: ad.scale(t([3e38]), 10.0),
        lambda t: ad.layer_norm(t([[np.inf, 0.0]]), t([1.0, 1.0]), t([0.0, 0.0])),
        lambda t: ad.softmax(t([[np.inf, 0.0]])),
        lambda t: ad.gelu(t([np.inf])),
        lambda t: ad.tanh(t([np.nan])),  # tanh maps +-inf to +-1, so only NaN is left
        lambda t: ad.dropout(t([3e38]), 0.5, ad.DropoutRng(0)),
        lambda t: ad.cross_entropy(t([[3e38, -3e38]]), np.array([1])),
        lambda t: ad.sum_axis(t([3e38, 3e38]), 0),
    ], ids=["matmul", "add", "mul", "scale", "layer_norm", "softmax", "gelu", "tanh", "dropout",
            "cross_entropy", "sum_axis"])
    def test_non_finite_output_raises_the_typed_error_and_no_warning(self, call):
        # Warnings are errors in this suite; before the ops ran with numpy's warnings off, all
        # but gelu and tanh raised numpy's RuntimeWarning (overflow or invalid value) here.
        with pytest.raises(ad.NonFiniteError):
            call(lambda values: ad.Tensor(np.array(values, np.float32)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("at", [0, 777, -1], ids=["first", "middle", "last"])
    def test_check_finite_finds_one_bad_entry(self, value, at):
        data = np.zeros((64, 32), np.float32)
        data.reshape(-1)[at] = value
        with pytest.raises(ad.NonFiniteError, match="'probe'"):
            ad._check_finite(data, "probe")

    def test_overflow_and_negative_inf_outputs_raise(self):
        with pytest.raises(ad.NonFiniteError, match="'scale'"):
            ad.scale(ad.Tensor(np.array([3e38], np.float32)), 10.0)
        with pytest.raises(ad.NonFiniteError, match="'scale'"):
            ad.scale(ad.Tensor(np.array([1.0, 3e38], np.float32)), -10.0)

    def test_empty_output_is_finite(self):
        # An MLM batch with no masked position gathers no rows.
        x = ad.Tensor(np.ones((2, 3, 4), np.float32))
        out = ad.gather_positions(x, np.zeros(0, np.int64), np.zeros(0, np.int64))
        assert out.shape == (0, 4)

    def test_check_finite_allocates_nothing_output_sized(self):
        # np.all(np.isfinite(data)) built a boolean array a quarter of a float32 output.
        data = np.random.default_rng(2).standard_normal((64, 32, 256)).astype(np.float32)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ad._check_finite(data, "probe")
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * data.nbytes, f"_check_finite peaked at {peak} bytes"

    @pytest.mark.parametrize("batch", [8, 32, 128])
    @pytest.mark.parametrize("d, n", [(64, 64), (64, 256), (256, 64)])
    def test_matmul_input_gradient_has_the_bits_of_the_batched_product(self, batch, d, n):
        # Under a 2-D b the input gradient is one 2-D product, not one product per batch row.
        rng = np.random.default_rng(batch + d + n)
        a = ad.Tensor(rng.standard_normal((batch, 32, d)), requires_grad=True, dtype=np.float32)
        b = ad.Tensor(rng.standard_normal((d, n)), requires_grad=True, dtype=np.float32)
        g = rng.standard_normal((batch, 32, n)).astype(np.float32)
        _, (ga, _) = _forward_and_grads(ad.matmul, (a, b), g)
        assert ga.shape == a.shape
        assert ga.tobytes() == (g @ np.swapaxes(b.data, -1, -2)).tobytes()

    def test_shape_mismatch(self):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    @pytest.mark.parametrize("call, match", [
        (lambda x: ad.transpose(x, (0, 0, 1)), r"transpose of \(2, 3, 4\) by axes \(0, 0, 1\)"),
        (lambda x: ad.sum_axis(x, 3), r"sum_axis of \(2, 3, 4\) over axis 3"),
        (lambda x: ad.concat(x, ad.Tensor(np.ones((3, 3, 4)))), r"concat of \(2, 3, 4\) and \(3, 3, 4\)"),
    ], ids=["transpose", "sum_axis", "concat"])
    def test_numpy_shape_failures_are_shape_errors(self, call, match):
        # numpy's ValueError / AxisError used to escape from these ops.
        with pytest.raises(ad.ShapeError, match=match):
            call(ad.Tensor(np.ones((2, 3, 4))))

    def test_reshape_size_mismatch_is_a_shape_error(self):
        # numpy's ValueError used to escape, which encoder_forward does not map.
        with pytest.raises(ad.ShapeError, match=r"reshape of \(2, 6\)"):
            ad.reshape(ad.Tensor(np.ones((2, 6))), (5, 2))

    @pytest.mark.parametrize("a_shape, b_shape", [((2, 3), (3,)), ((2, 2, 3), (3,)), ((3,), (3, 2)),
                                                  ((3, 4), (2, 4, 5)), ((2, 3, 4), (1, 4, 5))])
    def test_matmul_rejects_a_1d_operand(self, a_shape, b_shape):
        # numpy runs these forward, but the backward pass has no rule for a 1-D operand,
        # and summed no broadcast batch axis out of a gradient (a.grad came back (2, 3, 4)).
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.Tensor(np.ones(a_shape)), ad.Tensor(np.ones(b_shape)))

    @pytest.mark.parametrize("b_shape, bias_shape", [((4, 5), (4,)), ((4, 5), (1, 5)), ((2, 4, 5), (5,))],
                             ids=["wrong-length", "2d-bias", "batched-b"])
    def test_matmul_rejects_a_misshapen_bias(self, b_shape, bias_shape):
        with pytest.raises(ad.ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 3, 4))), ad.Tensor(np.ones(b_shape)), ad.Tensor(np.ones(bias_shape)))

    def test_matmul_rejects_a_wider_bias(self):
        # The in-place add would cast a float64 bias's sum back to a float32 product.
        x, w = ad.Tensor(np.ones((2, 4)), dtype=np.float32), ad.Tensor(np.ones((4, 3)), dtype=np.float32)
        with pytest.raises(ad.ShapeError):
            ad.matmul(x, w, ad.Tensor(np.zeros(3)))

    def test_matmul_bias_has_the_bits_of_add(self):
        rng = np.random.default_rng(3)
        a, b, bias = (ad.Tensor(rng.standard_normal(s), requires_grad=True, dtype=np.float32)
                      for s in [(4, 6, 64), (64, 48), (48,)])
        g = rng.standard_normal((4, 6, 48)).astype(np.float32)

        def grads(build):
            with ad.Tape() as tape:
                out = build()
                loss = ad.sum_axis(ad.reshape(ad.mul(out, ad.Tensor(g)), (g.size,)), 0)
            tape.backward(loss)
            return [out.data.tobytes(), *(t.grad.tobytes() for t in (a, b, bias))]

        assert grads(lambda: ad.matmul(a, b, bias)) == grads(lambda: ad.add(ad.matmul(a, b), bias))

    def test_layer_norm_rejects_mixed_dtypes(self):
        # The in-place bias add would cast a float64 bias's sum back to float32.
        x, gain = ad.Tensor(np.ones((2, 4)), dtype=np.float32), ad.Tensor(np.ones(4), dtype=np.float32)
        with pytest.raises(ad.ShapeError):
            ad.layer_norm(x, gain, ad.Tensor(np.zeros(4)))

    @pytest.mark.parametrize("call", [
        pytest.param(lambda x: ad.cross_entropy(ad.Tensor(np.zeros((2, 3))), np.array([0.0, 1.0])),
                     id="float-targets"),
        pytest.param(lambda x: ad.gather_positions(x, [5], [0]), id="batch-out-of-range"),
        pytest.param(lambda x: ad.gather_positions(x, [-1], [0]), id="negative-batch"),
        pytest.param(lambda x: ad.gather_positions(x, [0], [3]), id="position-out-of-range"),
        pytest.param(lambda x: ad.gather_positions(x, [0], [-1]), id="negative-position"),
        pytest.param(lambda x: ad.gather_positions(x, [0, 1], [0]), id="unequal-lengths"),
        pytest.param(lambda x: ad.gather_positions(x, [0.0], [1]), id="float-batch"),
        pytest.param(lambda x: ad.gather_positions(x, [[0, 1]], [[1, 2]]), id="2d-indices"),
    ])
    def test_index_ops_reject_bad_indices(self, call):
        # numpy raised IndexError for some of these and wrapped or broadcast the others.
        x = ad.Tensor(np.ones((2, 3, 4)))
        with pytest.raises(ad.ShapeError):
            call(x)

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

    def test_consecutive_dropout_masks_share_no_draws(self):
        # Mask i started at Philox counter [i, 0, 0, 0], four draws into mask i - 1's
        # stream, so mask i + 1 was mask i shifted by four positions.
        rng = ad.DropoutRng(1)
        a, b = (rng.keep_mask((10 ** 5,), 0.5) for _ in range(2))
        for shift in range(1, 65):
            for first, second in ((a, b), (b, a)):
                agree = np.mean(first[shift:] == second[:-shift])
                assert agree <= 0.6, f"masks agree on {agree:.3f} of positions at shift {shift}"

    def test_dropout_mask_keeps_its_rate(self):
        kept = ad.DropoutRng(1).keep_mask((10 ** 5,), 0.5).mean()
        assert abs(kept - 0.5) <= 5 * (0.25 / 10 ** 5) ** 0.5

    def test_dropout_mask_depends_only_on_seed_and_call_index(self):
        rng = ad.DropoutRng(5)
        masks = [rng.keep_mask((10 ** 5,), 0.5) for _ in range(4)]
        for i, mask in enumerate(masks):
            fresh = ad.DropoutRng(5)
            fresh.calls = i
            np.testing.assert_array_equal(fresh.keep_mask((10 ** 5,), 0.5), mask)

    @pytest.mark.parametrize("p", ["x", 1.0, -0.1, float("nan")])
    def test_dropout_probability_must_be_a_real_in_unit_interval(self, p):
        # "x" leaked TypeError from the range check.
        with pytest.raises(ad.AutodiffError, match=r"^dropout probability must be a real number in \[0, 1\)"):
            ad.dropout(ad.Tensor(np.ones((2, 2))), p, ad.DropoutRng(0))

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, 2.9, "5", True, None],
                             ids=["negative", "2**128", "float", "string", "bool", "none"])
    def test_dropout_rng_rejects_a_seed_philox_cannot_key(self, seed):
        # Philox raised its own ValueError only at the first mask, deep in a forward pass.
        with pytest.raises(ad.AutodiffError, match="dropout seed"):
            ad.DropoutRng(seed)


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

    def test_matmul_bias(self):
        a, b, bias = _param(self.rng, (2, 3, 4)), _param(self.rng, (4, 5)), _param(self.rng, (5,))
        check_grad(lambda: ad.sum_axis(ad.reshape(ad.gelu(ad.matmul(a, b, bias)), (30,)), 0),
                   {"a": a, "b": b, "bias": bias})

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


class TestKernelBits:
    """Layer norm, softmax and GELU outputs and gradients, byte for byte.

    The in-place kernels evaluate the same operations in the same order as
    the out-of-place ones the sha256 pins were taken from (numpy 2.4 on
    x86-64 with AVX-512).  numpy's SIMD ``exp`` may round differently on
    another CPU family, so a pin that moves there is checked against the
    previous commit on that machine.
    """

    # "<op>/<dtype>": digests of the output, then of each returned gradient.
    PINNED = {
        "layer_norm/float32": ["1b4dd107a44f73da", "8df5fbd757ca6040", "c1ebd3a683efc9e5", "97ea4877fe4e7cda"],
        "layer_norm/float64": ["5b6a055e9e9c8471", "823f8fe1d44a93f3", "640585c5543c3c39", "6cee12333b6bc217"],
        "softmax/float32": ["69b48a2944c0084e", "da72104d05747b8b"],
        "softmax/float64": ["f16f2399da18866c", "01ebb8656cc4841f"],
    }

    @staticmethod
    def _inputs(shape, dtype):
        rng = np.random.default_rng(11)
        x = ad.Tensor(rng.standard_normal(shape), requires_grad=True, dtype=dtype)
        g = rng.standard_normal(shape).astype(dtype)
        return rng, x, g

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_layer_norm(self, dtype):
        rng, x, g = self._inputs((8, 32, 64), dtype)
        gain = ad.Tensor(1.0 + 0.1 * rng.standard_normal(64), requires_grad=True, dtype=dtype)
        bias = ad.Tensor(0.1 * rng.standard_normal(64), requires_grad=True, dtype=dtype)
        out, grads = _forward_and_grads(ad.layer_norm, (x, gain, bias), g)
        assert [_digest(a) for a in (out.data, *grads)] == self.PINNED[f"layer_norm/{dtype}"]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_softmax(self, dtype):
        _, x, g = self._inputs((8, 4, 32, 32), dtype)
        out, grads = _forward_and_grads(ad.softmax, (x,), g)
        assert [_digest(a) for a in (out.data, *grads)] == self.PINNED[f"softmax/{dtype}"]

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_row_max_by_halving_equals_numpy_max(self, dtype):
        from conceptfx.model.encoder import ATTN_MASK_BIAS
        rng = np.random.default_rng(5)
        for width in range(1, 66):
            rows = rng.standard_normal((8, width)).astype(dtype)
            rows[1] += ATTN_MASK_BIAS                   # every key masked
            rows[2, width // 2:] += ATTN_MASK_BIAS      # padded tail
            rows[3, width // 2] = 50.0                  # max in the middle column
            rows[4, -1] = 50.0                          # max in the last column
            rows[5, 0] = 50.0                           # max in the first column
            rows[6] = 1.5                               # ties everywhere
            scratch = np.empty(len(rows) * (width - 1), dtype)
            got = ad._row_max(rows, scratch)
            assert got.shape == (8, 1)
            assert got.tobytes() == rows.max(axis=-1, keepdims=True).tobytes(), width

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_gelu_matches_written_out_formula(self, dtype):
        _, x, g = self._inputs((8, 32, 64), dtype)
        x.data *= 3
        xd = x.data
        c = float(np.sqrt(2.0 / np.pi))
        t = np.tanh(c * (xd + 0.044715 * (xd * xd * xd)))
        want_out = 0.5 * xd * (1.0 + t)
        want_grad = g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * (c * (1.0 + 3 * 0.044715 * (xd * xd))))
        out, (grad,) = _forward_and_grads(ad.gelu, (x,), g)
        assert out.data.tobytes() == want_out.tobytes()
        assert grad.tobytes() == want_grad.tobytes()

    # Shapes that span at least four blocks plus a ragged tail (elements for gelu, rows
    # for layer_norm and softmax), and "<op>/<dtype>": digests of the output, then of
    # each returned gradient, pinned at the unblocked kernels.
    BLOCKED_SHAPES = {"gelu": (5, 97, 601), "layer_norm": (13, 149, 150), "softmax": (9, 4, 83, 101)}
    BLOCKED_PINS = {
        "gelu/float32": ["0021f0611ce70d4a", "c3ce8638b5215c04"],
        "gelu/float64": ["5bab6f13f16ab4bf", "5bd0df4ca34ca8ea"],
        "layer_norm/float32": ["8451dff904b20514", "aaa1b5dcf39482d8", "c2590bb29f325377", "3dd87c71033c61dd"],
        "layer_norm/float64": ["10bf858914d822ad", "706ff999de5779b2", "20d046ae65971d6d", "d9d53e9eabdb59ad"],
        "softmax/float32": ["ce3b3e5ccc7136e1", "7cb668eab070aacf"],
        "softmax/float64": ["a05f2d3777b0a4df", "58535a76399d4e66"],
    }

    def _blocked_call(self, op, dtype):
        """``(op, operands, upstream gradient)`` at the op's multi-block shape."""
        shape = self.BLOCKED_SHAPES[op]
        rng, x, g = self._inputs(shape, dtype)
        if op == "gelu":
            x.data *= 3
            return ad.gelu, (x,), g
        if op == "softmax":
            return ad.softmax, (x,), g
        gain = ad.Tensor(1.0 + 0.1 * rng.standard_normal(shape[-1]), requires_grad=True, dtype=dtype)
        bias = ad.Tensor(0.1 * rng.standard_normal(shape[-1]), requires_grad=True, dtype=dtype)
        return ad.layer_norm, (x, gain, bias), g

    @pytest.mark.parametrize("op", sorted(BLOCKED_SHAPES))
    def test_pinned_shapes_span_blocks_and_a_tail(self, op):
        shape = self.BLOCKED_SHAPES[op]
        units, per_block = ((np.prod(shape), ad._BLOCK) if op == "gelu"
                            else (np.prod(shape[:-1]), ad._BLOCK // shape[-1]))
        assert units >= 4 * per_block and units % per_block

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    @pytest.mark.parametrize("op", sorted(BLOCKED_SHAPES))
    def test_multi_block_pins(self, op, dtype):
        out, grads = _forward_and_grads(*self._blocked_call(op, dtype))
        assert [_digest(a) for a in (out.data, *grads)] == self.BLOCKED_PINS[f"{op}/{dtype}"]

    @pytest.mark.parametrize("op", sorted(BLOCKED_SHAPES))
    def test_untaped_output_matches_taped(self, op):
        fn, operands, _ = self._blocked_call(op, "float32")
        untaped = fn(*operands)
        with ad.Tape() as tape:
            taped = fn(*operands)
        assert len(tape) == 1 and not untaped.requires_grad
        assert untaped.data.tobytes() == taped.data.tobytes()

    def test_untaped_encoder_matches_taped(self):
        from conceptfx.model import EncoderConfig, encoder_forward, init_encoder_params
        config = EncoderConfig(vocab_size=40)
        params = init_encoder_params(config, seed=3)
        # 40 rows put every gelu, softmax and layer_norm call across more than one block.
        ids = np.random.default_rng(3).integers(0, 40, size=(40, config.max_len))
        untaped = encoder_forward(ids, params, config, mode="eval")
        with ad.Tape() as tape:
            taped = encoder_forward(ids, params, config, mode="eval")
        assert len(tape) > 0
        assert [t.data.tobytes() for t in untaped] == [t.data.tobytes() for t in taped]

    def test_gelu_costs_a_few_tanh(self):
        # A float32 ``pow`` in the cube made gelu ~165x one np.tanh; x*x*x makes it ~6x.
        x = ad.Tensor(np.random.default_rng(0).standard_normal((32, 32, 256)), dtype=np.float32)

        def best_of_5(fn):
            times = []
            for _ in range(5):
                start = time.perf_counter()
                fn()
                times.append(time.perf_counter() - start)
            return min(times)

        ratio = best_of_5(lambda: ad.gelu(x)) / best_of_5(lambda: np.tanh(x.data))
        assert ratio < 25, f"gelu forward costs {ratio:.0f}x one np.tanh"


class TestAllocation:
    """Untaped kernels allocate little beyond their output; taped ones keep their backward arrays."""

    SHAPE = (64, 32, 256)

    @staticmethod
    def _traced(call):
        """Run ``call``; return its output and the peak and retained bytes, each over the output's."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = call()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return out, (peak - base) / out.data.nbytes, (current - base) / out.data.nbytes

    def _call(self, op):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.standard_normal(self.SHAPE), requires_grad=True, dtype=np.float32)
        if op == "gelu":
            return lambda: ad.gelu(x)
        gain, bias = (ad.Tensor(np.ones(self.SHAPE[-1]), requires_grad=True, dtype=np.float32)
                      for _ in range(2))
        return lambda: ad.layer_norm(x, gain, bias)

    @pytest.mark.parametrize("op", ["gelu", "layer_norm"])
    def test_untaped_peak_is_near_the_output(self, op):
        # Whole-array temporaries made these 3.00x (gelu) and 2.26x (layer_norm), and the
        # finiteness check's boolean array 1.38x (both).
        _, peak, _ = self._traced(self._call(op))
        assert peak < 1.2, f"untaped {op} peaked at {peak:.2f}x its output"

    @pytest.mark.parametrize("op", ["gelu", "layer_norm"])
    def test_taped_call_keeps_its_backward_arrays(self, op):
        # gelu keeps its derivative, layer_norm keeps xhat (and inv): each as large as the output.
        call = self._call(op)
        with ad.Tape() as tape:
            out, _, kept = self._traced(call)
        assert len(tape) == 1 and out.requires_grad
        assert kept >= 2.0, f"taped {op} keeps {kept:.2f}x its output"

    def test_taped_gelu_backward_peaks_at_its_gradient(self):
        # Rebuilding the derivative from a kept t took two block scratch arrays: 1.25x.
        with ad.Tape() as tape:
            self._call("gelu")()
        g = np.ones(self.SHAPE, np.float32)
        backward_fn = tape._nodes[-1].backward_fn
        _, peak, _ = self._traced(lambda: ad.Tensor(backward_fn(g)[0]))
        assert peak <= 1.1, f"taped gelu backward peaked at {peak:.2f}x its gradient"


# One call per op: the op and the shapes of its float64 operands.
_EVERY_OP = {
    "matmul": (ad.matmul, [(2, 3, 4), (4, 5)]),
    "add": (ad.add, [(3, 4), (4,)]),
    "mul": (ad.mul, [(3, 4), (3, 1)]),
    "scale": (lambda x: ad.scale(x, -2.5), [(3, 4)]),
    "embedding": (lambda t: ad.embedding(t, np.array([[0, 3, 3], [6, 1, 0]])), [(7, 3)]),
    "layer_norm": (ad.layer_norm, [(2, 3, 5), (5,), (5,)]),
    "softmax": (ad.softmax, [(2, 3, 4)]),
    "gelu": (ad.gelu, [(3, 4)]),
    "tanh": (ad.tanh, [(3, 4)]),
    "dropout": (lambda x: ad.dropout(x, 0.5, ad.DropoutRng(3)), [(3, 4)]),
    "cross_entropy": (lambda z: ad.cross_entropy(z, np.array([0, 2, 1, 2])), [(4, 3)]),
    "grad_reverse": (lambda x: ad.grad_reverse(x, 1.5), [(3, 4)]),
    "reshape": (lambda x: ad.reshape(x, (3, 4)), [(2, 6)]),
    "transpose": (lambda x: ad.transpose(x, (2, 0, 1)), [(2, 3, 4)]),
    "gather_positions": (lambda x: ad.gather_positions(x, np.array([0, 1, 1]), np.array([2, 0, 2])),
                         [(2, 3, 4)]),
    "sum_axis": (lambda x: ad.sum_axis(x, 1), [(2, 3)]),
    "concat": (ad.concat, [(2, 3), (2, 2)]),
}


# Further calls of an op whose options take another path.
_OP_VARIANTS = {
    "matmul-bias": (ad.matmul, [(2, 3, 4), (4, 5), (5,)]),
}


class TestNoAliasing:
    """No op writes into an operand's ``.data`` or into its upstream gradient."""

    def test_every_op_is_covered(self):
        made = set(re.findall(r'_make\(\s*"(\w+)"', inspect.getsource(ad)))
        assert made == set(_EVERY_OP)

    @pytest.mark.parametrize("name", sorted({**_EVERY_OP, **_OP_VARIANTS}))
    def test_operands_and_upstream_gradient_unchanged(self, name):
        op, shapes = {**_EVERY_OP, **_OP_VARIANTS}[name]
        rng = np.random.default_rng(4)
        operands = [_param(rng, shape) for shape in shapes]
        before = [t.data.tobytes() for t in operands]
        with ad.Tape() as tape:
            out = op(*operands)
        assert [t.data.tobytes() for t in operands] == before
        g = rng.standard_normal(out.shape)
        g_before = g.tobytes()
        tape._nodes[-1].backward_fn(g)
        assert g.tobytes() == g_before
        assert [t.data.tobytes() for t in operands] == before

    @pytest.mark.parametrize("name", sorted({**_EVERY_OP, **_OP_VARIANTS}))
    def test_one_gradient_per_operand_when_one_is_constant(self, name):
        # Tape.backward alone drops the gradients of constants, so a backward
        # returns one for every operand, shaped like it.  An op with one operand
        # is taped only when that operand needs a gradient.
        op, shapes = {**_EVERY_OP, **_OP_VARIANTS}[name]
        rng = np.random.default_rng(4)
        for constant in range(len(shapes)) if len(shapes) > 1 else [None]:
            operands = [_param(rng, shape) for shape in shapes]
            if constant is not None:
                operands[constant].requires_grad = False
            with ad.Tape() as tape:
                out = op(*operands)
            grads = tape._nodes[-1].backward_fn(rng.standard_normal(out.shape))
            assert [np.shape(gi) for gi in grads] == [t.shape for t in operands]


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

    # ``lam < 0`` is false for NaN, so a sign check alone let NaN through;
    # ``float(lam)`` let "0.5" and True through.
    @pytest.mark.parametrize("lam", [-0.5, float("nan"), float("inf"), "0.5", True])
    def test_negative_lambda_rejected(self, lam):
        with pytest.raises(ad.AutodiffError):
            ad.grad_reverse(ad.Tensor(np.ones(2)), lam)


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

    def test_tapes_in_two_threads_record_only_their_own_ops(self):
        # With one module-wide tape stack, both threads' ops landed on the tape
        # entered last.
        barrier = threading.Barrier(2, timeout=30)
        results = {}

        def run(name, value):
            w = ad.Tensor(np.full(3, value), requires_grad=True)
            with ad.Tape() as tape:
                barrier.wait()  # both tapes are entered
                loss = ad.sum_axis(ad.mul(w, w), 0)
                barrier.wait()  # both graphs are recorded
            tape.backward(loss)
            results[name] = (len(tape), w.grad)

        threads = [threading.Thread(target=run, args=args) for args in (("a", 1.0), ("b", 2.0))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert {name: n for name, (n, _) in results.items()} == {"a": 2, "b": 2}
        np.testing.assert_array_equal(results["a"][1], np.full(3, 2.0))
        np.testing.assert_array_equal(results["b"][1], np.full(3, 4.0))

    def test_nested_tape_rejected_and_outer_gradients_kept(self):
        # A nested tape took z's node from the outer one, whose backward then left
        # p.grad None and put a .grad on the non-leaf z.
        x = ad.Tensor(np.array([[3.0]]))
        p = ad.Tensor(np.array([[2.0]]), requires_grad=True)
        with ad.Tape() as outer:
            y = ad.matmul(x, p)
            with pytest.raises(ad.AutodiffError, match="already recording"):
                with ad.Tape():
                    pass
            z = ad.scale(y, 5)
        outer.backward(z)
        np.testing.assert_array_equal(p.grad, [[15.0]])
        assert z.grad is None and len(outer) == 2

    def test_block_that_raises_leaves_no_tape_recording(self):
        w = ad.Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ad.ShapeError):
            with ad.Tape():
                ad.add(w, ad.Tensor(np.ones(4)))
        assert ad.mul(w, w).requires_grad is False
        with ad.Tape() as tape:
            loss = ad.sum_axis(ad.mul(w, w), 0)
        tape.backward(loss)
        assert len(tape) == 2
        np.testing.assert_array_equal(w.grad, np.full(3, 2.0))

    def test_backward_needs_scalar(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ad.ShapeError):
            tape.backward(y)

    @pytest.mark.parametrize("where", ["after-the-block", "another-tape"])
    def test_backward_rejects_a_loss_it_did_not_record(self, where):
        # Such a backward used to return quietly with every .grad left None, so an
        # optimizer step after it moved no parameter.
        w = ad.Tensor(np.ones(3), requires_grad=True)
        with ad.Tape() as tape:
            ad.mul(w, w)
        if where == "another-tape":
            with ad.Tape():
                loss = ad.sum_axis(ad.mul(w, w), 0)
        else:
            loss = ad.sum_axis(ad.mul(w, w), 0)
        with pytest.raises(ad.AutodiffError, match="did not record"):
            tape.backward(loss)
        assert w.grad is None
