"""The three benchmark workloads, assembled from conceptfx's public functions.

Each workload builds its inputs from the seed (set-up, repeated and timed),
then runs a closed loop of operations until both the time budget and its
minimum operation count are met.  An operation is a training step, an
evaluation batch, or a phase of the topic pipeline; it fails when it raises
one of the package's typed errors or when an output check on it fails.

conceptfx is always called through module attributes (``encoder.
encoder_forward``, not a name imported from it) so that the traced run's
wrappers see every call.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from conceptfx import autodiff as ad
from conceptfx import checkpoint, optim, topics
from conceptfx.corpus import io, poms, reviews, types
from conceptfx.model import encoder, heads, masking, vocab

from spans import Instrumentation, Tracer


class CheckFailed(Exception):
    """An output of the program is wrong."""


FAILURES = (ad.NonFiniteError, encoder.EncoderError, optim.OptimError,
            checkpoint.CheckpointError, topics.TopicError, types.CorpusError, CheckFailed)

PROCESSES = 3         # an untraced run pools this many measuring processes
MIN_TIMED = 100       # timed primary operations per run, for a true 90th percentile
PER_PROCESS = math.ceil(MIN_TIMED / PROCESSES)
SETUP_REPS = 5        # per process
START_WINDOW = 10     # steps whose mean loss the end of training must beat
MAX_SECONDS = 25.0    # per process: three stay well inside three minutes on a slow host


class Measure:
    """Times and counts operations; in a traced run, decides which are traced.

    Operations of the workload's primary kind alternate between untraced and
    traced, so the two halves run under the same conditions and their
    difference is the tracing overhead.  Every other operation, and every
    set-up, is traced.  The first operation of each kind is a warm-up: it
    counts, but its time is not sampled.

    The garbage collector is settled outside the timed region: the set-up's
    objects are frozen once, and a collection runs before every operation.
    Otherwise the collection of one operation's garbage, and the heap it
    leaves behind, land in some later operation; on the topic workload that
    alone moved an LDA fit between 90 and 155 ms.
    """

    def __init__(self, primary: str, seconds: float, tracer: Tracer | None = None):
        self.primary = primary
        self.seconds = seconds
        self.tracer = tracer
        self.instr = Instrumentation(tracer) if tracer is not None else None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.times: dict[str, list[float]] = defaultdict(list)
        self.traced_times: dict[str, list[float]] = defaultdict(list)
        self.seen: dict[str, int] = defaultdict(int)
        self.passes: list[float] = []
        self.setup_times: list[float] = []
        self.start = None

    def setup(self, build):
        """Run ``build`` SETUP_REPS times; keep the last result."""
        state = None
        for _ in range(SETUP_REPS):
            gc.collect()
            with self._maybe_traced("setup", True):
                t0 = time.perf_counter()
                state = build()
                self.setup_times.append(time.perf_counter() - t0)
        gc.collect()
        gc.freeze()
        self.start = time.perf_counter()
        return state

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def done(self, min_samples: int) -> bool:
        """Time is up, and the primary kind has ``min_samples`` timed operations.

        After a failure, or past ``MAX_SECONDS``, time alone ends the run.
        """
        elapsed = self.elapsed()
        if elapsed < self.seconds:
            return False
        timed = len(self.times[self.primary]) + len(self.traced_times[self.primary])
        return self.failed > 0 or elapsed >= MAX_SECONDS or timed >= min_samples

    @contextmanager
    def _maybe_traced(self, kind: str, traced: bool):
        if not traced or self.instr is None:
            yield
            return
        with self.instr.on(), self.tracer.span("op." + kind):
            yield

    @contextmanager
    def op(self, kind: str):
        """One operation: counted, timed, and failed on a typed error."""
        n = self.seen[kind]
        traced = kind != self.primary or n % 2 == 1
        self.attempted += 1
        gc.collect()
        t0 = time.perf_counter()
        try:
            with self._maybe_traced(kind, traced):
                yield
        except FAILURES as e:
            self.failed += 1
            self.errors.append(f"{kind} #{n}: {type(e).__name__}: {e}")
        finally:
            dt = time.perf_counter() - t0
            if n > 0:
                (self.traced_times if traced and self.instr else self.times)[kind].append(dt)
            self.seen[kind] = n + 1

    @contextmanager
    def one_pass(self):
        t0 = time.perf_counter()
        yield
        self.passes.append(time.perf_counter() - t0)


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Result:
    """What a workload reports besides the operation counts."""

    primary_ms: list[float]          # latency samples of the workload's unit operation
    units_per_op: float              # work units (examples, token sweeps) in one of them
    loss_end: float
    details: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# poms-stage2-train
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    n: int = 2000
    batch: int = 32
    max_len: int = 32
    mask_rate: float = 0.15
    lr: float = 1e-3
    grl_lambda: float = 1.0
    min_steps: int = 100            # timed steps, and the end of the loss window
    loss_window: int = 50           # loss_end: mean loss of the last 50 of those steps


def _poms_corpus(n: int, seed: int):
    return poms.generate_poms_corpus(bias=types.BiasSpec.poms("aggressive"), n=n, seed=seed)


def _train_setup(cfg: TrainConfig, seed: int) -> dict:
    bundle = _poms_corpus(cfg.n, seed)
    voc = vocab.build_vocab(bundle)
    ids, _ = vocab.encode_batch(bundle.train, voc, cfg.max_len)
    enc_cfg = encoder.EncoderConfig(vocab_size=voc.size, max_len=cfg.max_len)
    params = encoder.init_encoder_params(enc_cfg, seed)
    head_set = heads.HeadSet()
    head_set.add_mlm("mlm", enc_cfg.dim, voc.size, seed)
    feat = encoder.feature_dim(enc_cfg)
    head_set.add_seq("gender", feat, 2, seed, adversarial=True, grl_lambda=cfg.grl_lambda)
    head_set.add_seq("race", feat, 2, seed)
    return {
        "vocab": voc, "ids": ids, "enc_cfg": enc_cfg, "params": params, "heads": head_set,
        "gender": np.array([ex.concepts["gender"] for ex in bundle.train]),
        "race": np.array([ex.concepts["race"] for ex in bundle.train]),
        "opt": optim.Adam({**params, **head_set.params}, lr=cfg.lr),
        "dropout": ad.DropoutRng(seed),
    }


def _train_step(st: dict, cfg: TrainConfig, rows: np.ndarray, mask_seed: int) -> float:
    """One stage-2 step: MLM + adversarial gender + control race, then Adam."""
    ids = st["ids"][rows]
    masked = ids.copy()
    b_idx, p_idx, targets = [], [], []
    for r, row in enumerate(ids):
        plan = masking.mlm_mask(row, st["vocab"], rate=cfg.mask_rate, seed=mask_seed + r)
        masked[r] = plan.apply(row)
        b_idx.append(np.full(len(plan), r))
        p_idx.append(plan.positions)
        targets.append(plan.mlm_targets)
    b_idx, p_idx, targets = np.concatenate(b_idx), np.concatenate(p_idx), np.concatenate(targets)

    head_set = st["heads"]
    with ad.Tape() as tape:
        states, pooled = encoder.encoder_forward(masked, st["params"], st["enc_cfg"], mode="train",
                                                 dropout_rng=st["dropout"])
        feats = encoder.sequence_features(states, pooled, masked)
        mlm_logits = head_set.forward("mlm", ad.gather_positions(states, b_idx, p_idx))
        loss = ad.add(ad.add(ad.cross_entropy(mlm_logits, targets),
                             ad.cross_entropy(head_set.forward("gender", feats), st["gender"][rows])),
                      ad.cross_entropy(head_set.forward("race", feats), st["race"][rows]))
    tape.backward(loss)
    st["opt"].step()
    st["opt"].zero_grad()
    return float(loss.item())


def run_train(seed: int, m: Measure, work: Path, cfg: TrainConfig) -> Result:
    st = m.setup(lambda: _train_setup(cfg, seed))
    n_train = len(st["ids"])
    per_epoch = n_train // cfg.batch
    order_rng = np.random.default_rng(np.random.SeedSequence((seed, 7)))
    losses: dict[int, float] = {}
    step = 0
    while not m.done(cfg.min_steps):
        perm = order_rng.permutation(n_train)
        with m.one_pass():
            for b in range(per_epoch):
                rows = perm[b * cfg.batch:(b + 1) * cfg.batch]
                with m.op("step"):
                    value = _train_step(st, cfg, rows, mask_seed=(seed * 1_000_003 + step) * cfg.batch)
                    check(bool(np.isfinite(value)), f"step {step}: loss {value}")
                    losses[step] = value
                step += 1
                if m.done(cfg.min_steps):
                    break
        if b + 1 < per_epoch:
            m.passes.pop()  # a partial epoch is not a pass

    # The adversarial head's loss swings from step to step; a long window
    # keeps loss_end steady across seeds.
    first = [losses.get(i) for i in range(START_WINDOW)]
    last = [losses.get(i) for i in range(cfg.min_steps - cfg.loss_window, cfg.min_steps)]
    complete = None not in first and None not in last
    loss_start = float(np.mean(first)) if complete else float("nan")
    loss_end = float(np.mean(last)) if complete else float("nan")
    with m.op("checks"):
        check(complete, "a step inside a loss window failed")
        check(loss_end < loss_start,
              f"loss did not fall: first {loss_start:.4f}, last {loss_end:.4f}")
    step_s = m.times["step"]
    return Result(
        primary_ms=[t * 1e3 for t in step_s],
        units_per_op=cfg.batch,
        loss_end=loss_end,
        details={"steps": step, "loss_start": loss_start},
    )


# ---------------------------------------------------------------------------
# poms-stage3-eval
# ---------------------------------------------------------------------------

@dataclass
class EvalConfig:
    n: int = 2000
    batch: int = 128
    max_len: int = 32
    head_batch: int = 128
    head_epochs: int = 3
    lr: float = 1e-3
    min_batches: int = PER_PROCESS  # timed full batches


def _eval_setup(cfg: EvalConfig, seed: int) -> dict:
    bundle = _poms_corpus(cfg.n, seed)
    voc = vocab.build_vocab(bundle)
    twins = [p.counterfactual for p in bundle.pairs if p.concept == "gender"]
    factuals = [p.factual for p in bundle.pairs if p.concept == "gender"]
    ids, _ = vocab.encode_batch([*bundle.train, *factuals, *twins], voc, cfg.max_len)
    enc_cfg = encoder.EncoderConfig(vocab_size=voc.size, max_len=cfg.max_len)
    # "original" and "counterfactual" encoders differ only in their init seed.
    encoders = [{k: t.data for k, t in encoder.init_encoder_params(enc_cfg, 2 * seed + i).items()}
                for i in range(2)]
    n_train, n_pairs = len(bundle.train), len(twins)
    return {
        "ids": ids, "enc_cfg": enc_cfg, "encoders": encoders,
        "labels": np.array([ex.label for ex in bundle.train]),
        "train": slice(0, n_train),
        "factual": slice(n_train, n_train + n_pairs),
        "twin": slice(n_train + n_pairs, n_train + 2 * n_pairs),
        "n_classes": len(bundle.meta.label_names),
    }


def _eval_pass(st: dict, cfg: EvalConfig, m: Measure, e: int, seed: int, work: Path,
               out: dict) -> None:
    enc_cfg = st["enc_cfg"]
    params = None
    with m.op("checkpoint"):
        path = work / f"encoder{e}.ckpt"
        checkpoint.save_checkpoint(path, st["encoders"][e], config=enc_cfg.to_dict())
        arrays, _ = checkpoint.load_checkpoint(path)
        check(checkpoint.checkpoint_hash(arrays) == checkpoint.checkpoint_hash(st["encoders"][e]),
                f"encoder {e}: checkpoint_hash changed across save/load")
        params = {k: ad.Tensor(v) for k, v in arrays.items()}
    if params is None:
        return

    ids = st["ids"]
    feats = np.empty((len(ids), encoder.feature_dim(enc_cfg)), dtype=np.float32)
    for start in range(0, len(ids), cfg.batch):
        chunk = ids[start:start + cfg.batch]
        with m.op("batch" if len(chunk) == cfg.batch else "batch_tail"):
            states, pooled = encoder.encoder_forward(chunk, params, enc_cfg, mode="eval")
            feats[start:start + len(chunk)] = encoder.sequence_features(states, pooled, chunk).data

    with m.op("determinism"):
        again = encoder.sequence_features(*encoder.encoder_forward(ids[:cfg.batch], params, enc_cfg,
                                                                   mode="eval"), ids[:cfg.batch])
        check(again.data.tobytes() == feats[:cfg.batch].tobytes(),
              f"encoder {e}: two eval passes over the same batch gave different bytes")

    head_set = heads.HeadSet()
    head_set.add_seq("task", feats.shape[1], st["n_classes"], seed)
    opt = optim.Adam(head_set.params, lr=cfg.lr)
    x_train, y_train = feats[st["train"]], st["labels"]
    losses = []
    for _ in range(cfg.head_epochs):
        for start in range(0, len(x_train), cfg.head_batch):
            with m.op("head_fit"):
                with ad.Tape() as tape:
                    logits = head_set.forward("task", ad.Tensor(x_train[start:start + cfg.head_batch]))
                    loss = ad.cross_entropy(logits, y_train[start:start + cfg.head_batch])
                tape.backward(loss)
                opt.step()
                opt.zero_grad()
                losses.append(float(loss.item()))
    per_epoch = -(-len(x_train) // cfg.head_batch)
    out.setdefault(f"head_loss_end.{e}", float(np.mean(losses[-per_epoch:])))

    with m.op("distance"):
        p_fact = ad.softmax(head_set.forward("task", ad.Tensor(feats[st["factual"]]))).data
        p_twin = ad.softmax(head_set.forward("task", ad.Tensor(feats[st["twin"]]))).data
        for p in (p_fact, p_twin):
            worst = float(np.max(np.abs(p.sum(axis=1, dtype=np.float64) - 1.0)))
            check(worst <= 1e-5, f"encoder {e}: a class distribution sums to 1 +/- {worst}")
        out.setdefault(f"distance.{e}", float(np.abs(p_fact - p_twin).sum(axis=1).mean()))


def run_eval(seed: int, m: Measure, work: Path, cfg: EvalConfig) -> Result:
    st = m.setup(lambda: _eval_setup(cfg, seed))
    out: dict = {}
    e = 0
    while not m.done(cfg.min_batches):
        with m.one_pass():
            _eval_pass(st, cfg, m, e, seed, work, out)
        e = 1 - e
    batch_s = m.times["batch"]
    return Result(
        primary_ms=[t * 1e3 for t in batch_s],
        units_per_op=cfg.batch,
        loss_end=out.get("head_loss_end.0", float("nan")),
        details={"mean_distance_original": out.get("distance.0"),
                 "mean_distance_counterfactual": out.get("distance.1"),
                 "head_loss_end_counterfactual": out.get("head_loss_end.1")},
    )


# ---------------------------------------------------------------------------
# reviews-topics
# ---------------------------------------------------------------------------

@dataclass
class TopicsConfig:
    n: int = 2000
    topics: int = 10
    lda_iters: int = 5
    domain: str = "books"
    max_len: int = 32
    min_fits: int = PER_PROCESS     # timed LDA fits


def _topics_setup(cfg: TopicsConfig, seed: int) -> dict:
    bundle = reviews.generate_review_corpus(bias=types.BiasSpec.reviews("aggressive"), n=cfg.n,
                                            seed=seed)
    voc = vocab.build_vocab(bundle)
    # The IMA task only applies to sequences that contain an adjective.
    with_adj = [ex for ex in bundle.train if any(t.slot == "adjective" for t in ex.tokens)]
    return {"bundle": bundle, "vocab": voc, "ima_examples": with_adj}


def _token_nll(model, examples) -> float:
    """Mean negative log-likelihood per token under the fitted topic model."""
    word_id = {w: i for i, w in enumerate(model.vocab)}
    doc = np.concatenate([np.full(len(ex.tokens), d) for d, ex in enumerate(examples)])
    word = np.array([word_id[t.surface] for ex in examples for t in ex.tokens])
    p = np.einsum("nk,kn->n", model.theta[doc], model.topic_word[:, word])
    return float(-np.log(p).mean())


def run_topics(seed: int, m: Measure, work: Path, cfg: TopicsConfig) -> Result:
    st = m.setup(lambda: _topics_setup(cfg, seed))
    first, second = work / "corpus-a.jsonl", work / "corpus-b.jsonl"
    out: dict = {}
    io_examples = 0
    while not m.done(cfg.min_fits):
        with m.one_pass():
            read = model = None
            with m.op("io"):
                io.write_jsonl(st["bundle"], first)
                read = io.read_jsonl(first)
                io.write_jsonl(read, second)
                check(first.read_bytes() == second.read_bytes(),
                        "write -> read -> write changed the JSONL bytes")
                io_examples = 3 * (len(read.all_examples()) + len(read.pairs))
            if read is None:
                continue
            with m.op("lda"):
                model = topics.fit_lda_corpus(read, cfg.topics, iters=cfg.lda_iters, seed=seed)
            if model is None:
                continue
            with m.op("assign"):
                assignment = topics.assign_topics(model, [ex.domain for ex in read.all_examples()],
                                                  cfg.domain)
                check(assignment.t_tc != assignment.t_cc, "treated and control topics coincide")
                worst = float(np.max(np.abs(model.theta.sum(axis=1) - 1.0)))
                check(worst <= 1e-9, f"a theta row sums to 1 +/- {worst}")
            with m.op("ima"):
                out["ima_imbalance"] = sum(
                    masking.ima_mask(ex, st["vocab"], seed=i, max_len=cfg.max_len).imbalance
                    for i, ex in enumerate(st["ima_examples"]))
        if "nll" not in out:
            out["nll"] = _token_nll(model, read.all_examples())
            out["token_sweeps"] = sum(len(ex.tokens) for ex in read.all_examples()) * cfg.lda_iters
    lda_s, io_s = m.times["lda"], m.times["io"]
    return Result(
        primary_ms=[t * 1e3 for t in lda_s],
        units_per_op=out.get("token_sweeps", 0),
        loss_end=out.get("nll", float("nan")),
        details={"corpus_examples_per_s": io_examples * len(io_s) / sum(io_s) if io_s else None,
                 "ima_imbalance": out.get("ima_imbalance")},
    )


# name -> (primary operation kind, runner, config class)
WORKLOADS = {
    "poms-stage2-train": ("step", run_train, TrainConfig),
    "poms-stage3-eval": ("batch", run_eval, EvalConfig),
    "reviews-topics": ("lda", run_topics, TopicsConfig),
}


def run_worker(name: str, seed: int, seconds: float, work: str, config=None) -> dict:
    """One untraced measuring process: what the parent pools across processes."""
    primary, runner, config_cls = WORKLOADS[name]
    m = Measure(primary, seconds)
    result = runner(seed, m, Path(work), config or config_cls())
    return {
        "attempted": m.attempted, "failed": m.failed, "errors": m.errors,
        "setup_s": m.setup_times, "pass_s": m.passes, "op_ms": result.primary_ms,
        "units": result.units_per_op * len(result.primary_ms),
        "loss_end": result.loss_end, "details": result.details,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


if __name__ == "__main__":
    # A measuring process of the untraced run: argv is workload, seed,
    # seconds, work directory and JSON config overrides; stdout is one JSON.
    name, seed, seconds, work, overrides = sys.argv[1:]
    config = replace(WORKLOADS[name][2](), **json.loads(overrides))
    print(json.dumps(run_worker(name, int(seed), float(seconds), work, config)))
