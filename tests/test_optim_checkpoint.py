"""Adam update semantics and checkpoint round-trips."""

import functools
import json
import os
import struct
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conceptfx.autodiff import Tape, Tensor, mul
from conceptfx.checkpoint import (CheckpointError, checkpoint_hash,
                                  load_checkpoint, save_checkpoint)
from conceptfx.optim import Adam, OptimError


def scalar_adam_reference(g_seq, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, x0=0.0):
    """Hand-rolled scalar Adam, kept independent of the library implementation."""
    x, m, v = x0, 0.0, 0.0
    for t, g in enumerate(g_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x -= lr * m_hat / (np.sqrt(v_hat) + eps)
    return x


def _adam_run(grad_seq, x0=0.0, lr=1e-3):
    """Drive ``Adam`` on one float64 parameter through a sequence of gradients."""
    x = Tensor(np.atleast_1d(np.asarray(x0, dtype=float)), requires_grad=True)
    opt = Adam({"x": x}, lr=lr)
    for g in grad_seq:
        x.grad = np.atleast_1d(np.asarray(g, dtype=float))
        opt.step()
    return x.data


class TestAdam:
    def test_zero_gradient_keeps_params(self):
        w = _adam_run([np.zeros(2)], x0=[1.0, -2.0])
        np.testing.assert_array_equal(w, [1.0, -2.0])

    def test_single_step_matches_scalar_reference(self):
        x = _adam_run([1.0], lr=1e-3)
        assert x[0] == pytest.approx(scalar_adam_reference([1.0]), abs=1e-15)

    def test_trajectory_matches_scalar_reference(self):
        g_seq = [1.0, -0.5, 0.25, 2.0, -1.0]
        x = _adam_run(g_seq, lr=1e-3)
        assert x[0] == pytest.approx(scalar_adam_reference(g_seq), abs=1e-14)

    def test_deterministic_trajectories(self):
        def run():
            rng = np.random.default_rng(5)
            x0 = rng.standard_normal(8)
            return _adam_run([rng.standard_normal(8) for _ in range(20)], x0=x0)
        np.testing.assert_array_equal(run(), run())

    def test_non_finite_gradient_aborts(self):
        a = Tensor(np.ones(3), requires_grad=True)
        w = Tensor(np.ones(2), requires_grad=True)
        opt = Adam({"a": a, "w": w})
        a.grad = np.ones(3)
        w.grad = np.array([1.0, np.nan])
        with pytest.raises(OptimError, match="'w'"):
            opt.step()
        np.testing.assert_array_equal(a.data, np.ones(3))
        np.testing.assert_array_equal(w.data, np.ones(2))
        assert opt.t == 0
        assert all(not arr.any() for arr in (*opt.m.values(), *opt.v.values()))

    def test_overflowing_backward_is_reported_by_the_step(self):
        # d(x * w * w)/dx = w * w overflows float32 while the forward stays finite; the
        # backward pass raised numpy's RuntimeWarning under the suite's warnings-as-errors.
        x = Tensor(np.array([1e-30], np.float32), requires_grad=True)
        w = Tensor(np.array([1e20], np.float32), requires_grad=True)
        with Tape() as tape:
            loss = mul(mul(x, w), w)
        tape.backward(loss)
        assert np.isinf(x.grad).all()
        with pytest.raises(OptimError, match="non-finite gradient for parameter 'x'"):
            Adam({"x": x, "w": w}).step()

    def test_gradient_whose_square_overflows_aborts(self):
        # (g * g) overflowed float32: v went to inf and froze the entry, and under the suite's
        # warnings-as-errors numpy's RuntimeWarning fired after t and m had already changed.
        p = Tensor(np.ones(2, np.float32), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.array([1e20, 1.0], np.float32)
        with pytest.raises(OptimError, match=r"gradient for parameter 'p' reaches 1e\+20"):
            opt.step()
        np.testing.assert_array_equal(p.data, np.ones(2, np.float32))
        assert opt.t == 0
        assert not opt.m["p"].any() and not opt.v["p"].any()

    def test_large_finite_gradient_steps(self):
        p = Tensor(np.ones(2, np.float32), requires_grad=True)
        opt = Adam({"p": p})
        p.grad = np.array([1e18, -1.0], np.float32)
        opt.step()
        assert opt.t == 1 and np.isfinite(opt.v["p"]).all()
        np.testing.assert_allclose(p.data, [1 - 1e-3, 1 + 1e-3], rtol=1e-6)

    @pytest.mark.parametrize("grad_shape", [(1,), (4,)])
    def test_misshapen_gradient_aborts(self, grad_shape):
        a = Tensor(np.ones(3), requires_grad=True)
        w = Tensor(np.ones(3), requires_grad=True)
        opt = Adam({"a": a, "w": w})
        a.grad = np.ones(3)
        w.grad = np.ones(grad_shape)
        with pytest.raises(OptimError, match=r"'w'.*\(3,\)"):
            opt.step()
        np.testing.assert_array_equal(a.data, np.ones(3))
        np.testing.assert_array_equal(w.data, np.ones(3))
        assert opt.t == 0
        assert all(not arr.any() for arr in (*opt.m.values(), *opt.v.values()))

    @pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1e-3, "x", None, True, np.float32("inf")])
    def test_bad_learning_rate_rejected(self, lr):
        with pytest.raises(OptimError, match="learning rate"):
            Adam({"x": Tensor(np.zeros(2), requires_grad=True)}, lr=lr)

    def test_real_learning_rate_steps_as_its_float(self):
        # A Fraction passed the old finite check, then step failed with numpy's UFuncTypeError.
        np.testing.assert_array_equal(_adam_run([1.0], lr=Fraction(1, 1000)), _adam_run([1.0], lr=1e-3))

    def test_wrapper_reads_tensor_grads(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam({"p": p}, lr=0.1)
        p.grad = np.ones(3)
        opt.step()
        assert np.all(p.data < 0)
        opt.zero_grad()
        assert p.grad is None


SAVED_ARRAYS = {"enc.w": np.arange(6, dtype=np.float32).reshape(2, 3) / 7,
                "enc.b": np.array([0.5, -2.0])}
SAVED_CONFIG = {"dim": 64, "name": "enc"}


@functools.cache
def saved_checkpoint() -> bytes:
    """The bytes of a small two-dtype checkpoint of ``SAVED_ARRAYS`` and ``SAVED_CONFIG``."""
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(Path(d) / "ck.bin", SAVED_ARRAYS, SAVED_CONFIG)
        return (Path(d) / "ck.bin").read_bytes()


def load_bytes(raw: bytes):
    """``load_checkpoint`` of a file holding ``raw``."""
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "ck.bin"
        path.write_bytes(raw)
        return load_checkpoint(path)


def flip(raw: bytes, bit: int) -> bytes:
    damaged = bytearray(raw)
    damaged[bit // 8] ^= 1 << bit % 8
    return bytes(damaged)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {
            "enc.w": rng.standard_normal((5, 3)).astype(np.float32),
            "enc.b": rng.standard_normal(3),
            "head.w": rng.standard_normal((3, 2)).astype(np.float32),
            "step": np.float32(3.5),  # np.ascontiguousarray made a 0-d array (1,) on save
        }
        config = {"dim": 3, "note": "x"}
        path = tmp_path / "ck.bin"
        save_checkpoint(path, arrays, config)
        loaded, cfg = load_checkpoint(path)
        assert cfg == config
        assert set(loaded) == set(arrays)
        for name in arrays:
            assert loaded[name].dtype == arrays[name].dtype
            assert loaded[name].shape == np.shape(arrays[name])
            assert loaded[name].tobytes() == arrays[name].tobytes()

    def test_same_content_same_bytes(self, tmp_path):
        arrays = {"a": np.arange(4.0, dtype=np.float32)}
        save_checkpoint(tmp_path / "1.bin", arrays, {"k": 1})
        save_checkpoint(tmp_path / "2.bin", arrays, {"k": 1})
        assert (tmp_path / "1.bin").read_bytes() == (tmp_path / "2.bin").read_bytes()

    def test_failed_save_keeps_the_earlier_file(self, tmp_path, monkeypatch):
        path = tmp_path / "ck.bin"
        a = {"w": np.arange(3.0, dtype=np.float32)}
        save_checkpoint(path, a, {"which": "a"})

        def fail(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, {"w": np.ones(5, dtype=np.float32)}, {"which": "b"})
        arrays, config = load_checkpoint(path)
        assert config == {"which": "a"}
        assert checkpoint_hash(arrays) == checkpoint_hash(a)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.bin"]

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x05\x00\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    @settings(max_examples=150, deadline=None)
    @given(kind=st.sampled_from(["flip", "truncate", "append"]), data=st.data())
    def test_damaged_file_rejected(self, kind, data):
        # A flipped bit in the blob or in the config block, and appended bytes, used to load silently.
        raw = saved_checkpoint()
        if kind == "flip":
            try:
                arrays, config = load_bytes(flip(raw, data.draw(st.integers(0, 8 * len(raw) - 1))))
            except CheckpointError:
                return
            assert config == SAVED_CONFIG
            assert {k: (v.dtype, v.shape, v.tobytes()) for k, v in arrays.items()} == \
                {k: (v.dtype, v.shape, v.tobytes()) for k, v in SAVED_ARRAYS.items()}
            return
        if kind == "truncate":
            damaged = raw[:data.draw(st.integers(0, len(raw) - 1))]
        else:
            damaged = raw + data.draw(st.binary(min_size=1, max_size=16))
        with pytest.raises(CheckpointError):
            load_bytes(damaged)

    def test_every_config_bit_flip_rejected(self):
        # {"dim": 64} with one bit of the 6 flipped used to load as {"dim": 44}.
        raw = saved_checkpoint()
        block = json.dumps(SAVED_CONFIG, sort_keys=True, separators=(",", ":")).encode("utf-8")
        start = raw.index(block)
        for bit in range(8 * start, 8 * (start + len(block))):
            with pytest.raises(CheckpointError):
                load_bytes(flip(raw, bit))

    @pytest.mark.parametrize("digest", [None, "0" * 64])
    def test_missing_or_wrong_digest_rejected(self, tmp_path, digest):
        raw = saved_checkpoint()
        mlen = struct.unpack("<Q", raw[:8])[0]
        manifest = json.loads(raw[8:8 + mlen])
        manifest.pop("sha256")
        if digest is not None:
            manifest["sha256"] = digest
        head = json.dumps(manifest).encode("utf-8")
        path = tmp_path / "ck.bin"
        path.write_bytes(struct.pack("<Q", len(head)) + head + raw[8 + mlen:])
        with pytest.raises(CheckpointError, match="sha256"):
            load_checkpoint(path)

    def test_hash_sensitive_to_values(self):
        a = {"w": np.array([1.0, 2.0], dtype=np.float32)}
        b = {"w": np.array([1.0, 2.0000002], dtype=np.float32)}
        assert checkpoint_hash(a) != checkpoint_hash(b)
        assert checkpoint_hash(a) == checkpoint_hash({"w": a["w"].copy()})
        assert checkpoint_hash({"w": np.float32(1.0)}) != checkpoint_hash({"w": a["w"][:1]})
