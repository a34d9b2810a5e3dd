"""The mini masked-language-model encoder.

A scaled-down bidirectional transformer: learned token and position
embeddings, post-norm attention/feed-forward blocks, and a tanh pooler over
the CLS state.  Sequence-level heads consume the concatenation of the pooled
state and the mean of the non-PAD token states.  PAD positions are excluded
from attention with an additive mask, so states at real positions are
invariant to the PAD tail.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .. import autodiff as ad
from ..checks import integer, real
from .vocab import PAD_ID

ATTN_MASK_BIAS = -1e9


class EncoderError(Exception):
    def __init__(self, message: str, layer: int | None = None):
        super().__init__(message if layer is None else f"layer {layer}: {message}")
        self.layer = layer


@dataclass(frozen=True)
class EncoderConfig:
    vocab_size: int
    layers: int = 2
    heads: int = 4
    dim: int = 64
    ffn_dim: int = 256
    max_len: int = 32
    dropout: float = 0.1

    def __post_init__(self):
        integer(self.vocab_size, "vocab_size", EncoderError, low=5)
        integer(self.layers, "layers", EncoderError)
        for name in ("heads", "dim", "ffn_dim", "max_len"):
            integer(getattr(self, name), name, EncoderError, low=1)
        if self.dim % self.heads != 0:
            raise EncoderError(f"dim {self.dim} not divisible by heads {self.heads}")
        real(self.dropout, "dropout", EncoderError, 0.0, 1.0)

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads

    def to_dict(self) -> dict:
        return asdict(self)


def init_encoder_params(config: EncoderConfig, seed: int, dtype=np.float32) -> dict[str, ad.Tensor]:
    """Normal(0, 0.02) weights, zero biases, unit layer-norm gains."""
    integer(seed, "seed", EncoderError)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))

    def normal(*shape):
        return rng.normal(0.0, 0.02, size=shape)

    params: dict[str, np.ndarray] = {
        "emb.tok": normal(config.vocab_size, config.dim),
        "emb.pos": normal(config.max_len, config.dim),
        "emb.ln_g": np.ones(config.dim),
        "emb.ln_b": np.zeros(config.dim),
        "pooler.w": normal(config.dim, config.dim),
        "pooler.b": np.zeros(config.dim),
    }
    for i in range(config.layers):
        p = f"layer{i}."
        for name in ("wq", "wk", "wv", "wo"):
            params[p + "attn." + name] = normal(config.dim, config.dim)
            params[p + "attn." + name.replace("w", "b")] = np.zeros(config.dim)
        params[p + "ln1_g"] = np.ones(config.dim)
        params[p + "ln1_b"] = np.zeros(config.dim)
        params[p + "ffn.w1"] = normal(config.dim, config.ffn_dim)
        params[p + "ffn.b1"] = np.zeros(config.ffn_dim)
        params[p + "ffn.w2"] = normal(config.ffn_dim, config.dim)
        params[p + "ffn.b2"] = np.zeros(config.dim)
        params[p + "ln2_g"] = np.ones(config.dim)
        params[p + "ln2_b"] = np.zeros(config.dim)
    return {name: ad.Tensor(arr, requires_grad=True, dtype=dtype)
            for name, arr in params.items()}


def encoder_forward(ids: np.ndarray, params: dict[str, ad.Tensor], config: EncoderConfig,
                    mode: str = "train", dropout_rng: ad.DropoutRng | None = None):
    """Run the encoder; returns (token states [B, L, D], pooled state [B, D]).

    ``mode`` is ``"train"`` (dropout at ``config.dropout``, which needs a
    ``dropout_rng`` when positive) or ``"eval"`` (no dropout, deterministic).
    A failing op (a non-finite activation, an id outside the vocabulary, a
    parameter shaped for another config) or a parameter missing from
    ``params`` raises ``EncoderError`` carrying the failing layer index.
    """
    if mode not in ("train", "eval"):
        raise EncoderError(f"unknown mode {mode!r}")
    p = config.dropout if mode == "train" else 0.0
    ids = np.asarray(ids)
    if ids.ndim != 2 or not 0 < ids.shape[1] <= config.max_len:
        raise EncoderError(f"ids must be [B, 0 < L <= {config.max_len}], got {ids.shape}")
    B, L = ids.shape
    scale = 1.0 / np.sqrt(config.head_dim)

    layer = -1  # the embeddings; block i is layer i and the pooler is config.layers
    try:
        # Each op's finiteness check reports an inf or NaN; a numpy warning would pre-empt it.
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            pad_bias = np.where(ids == PAD_ID, ATTN_MASK_BIAS, 0.0).astype(params["emb.tok"].dtype)
            attn_bias = ad.Tensor(pad_bias[:, None, None, :])
            x = ad.embedding(params["emb.tok"], ids)
            x = ad.add(x, ad.embedding(params["emb.pos"], np.arange(L)))
            x = ad.layer_norm(x, params["emb.ln_g"], params["emb.ln_b"])
            x = ad.dropout(x, p, dropout_rng)

            for layer in range(config.layers):
                prefix = f"layer{layer}."
                q = ad.matmul(x, params[prefix + "attn.wq"], params[prefix + "attn.bq"])
                k = ad.matmul(x, params[prefix + "attn.wk"], params[prefix + "attn.bk"])
                v = ad.matmul(x, params[prefix + "attn.wv"], params[prefix + "attn.bv"])
                q = ad.transpose(ad.reshape(q, (B, L, config.heads, config.head_dim)), (0, 2, 1, 3))
                k = ad.transpose(ad.reshape(k, (B, L, config.heads, config.head_dim)), (0, 2, 3, 1))
                v = ad.transpose(ad.reshape(v, (B, L, config.heads, config.head_dim)), (0, 2, 1, 3))
                scores = ad.add(ad.scale(ad.matmul(q, k), scale), attn_bias)
                attn = ad.dropout(ad.softmax(scores), p, dropout_rng)
                ctx = ad.reshape(ad.transpose(ad.matmul(attn, v), (0, 2, 1, 3)), (B, L, config.dim))
                out = ad.dropout(ad.matmul(ctx, params[prefix + "attn.wo"], params[prefix + "attn.bo"]),
                                 p, dropout_rng)
                x = ad.layer_norm(ad.add(x, out), params[prefix + "ln1_g"], params[prefix + "ln1_b"])
                # feed-forward
                h = ad.gelu(ad.matmul(x, params[prefix + "ffn.w1"], params[prefix + "ffn.b1"]))
                o = ad.dropout(ad.matmul(h, params[prefix + "ffn.w2"], params[prefix + "ffn.b2"]),
                               p, dropout_rng)
                x = ad.layer_norm(ad.add(x, o), params[prefix + "ln2_g"], params[prefix + "ln2_b"])

            layer = config.layers
            cls_state = ad.gather_positions(x, np.arange(B), np.zeros(B, dtype=np.int64))
            pooled = ad.tanh(ad.matmul(cls_state, params["pooler.w"], params["pooler.b"]))
    except ad.AutodiffError as e:
        raise EncoderError(str(e), layer=layer) from e
    except KeyError as e:
        raise EncoderError(f"params have no {e.args[0]!r}", layer=layer) from e
    return x, pooled


def sequence_features(states, pooled, ids: np.ndarray):
    """Concatenate the pooled state with the mean of non-PAD token states."""
    dtype = states.dtype
    mask = (np.asarray(ids) != PAD_ID).astype(dtype)
    counts = mask.sum(axis=1, keepdims=True)
    masked = ad.mul(states, ad.Tensor(mask[:, :, None]))
    mean = ad.mul(ad.sum_axis(masked, axis=1), ad.Tensor((1.0 / counts).astype(dtype)))
    return ad.concat(pooled, mean)


def feature_dim(config: EncoderConfig) -> int:
    return 2 * config.dim
