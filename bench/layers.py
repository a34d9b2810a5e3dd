"""Per-layer metrics computed from the spans of a traced run.

Timings are medians per call of one span name (the run record adds the
percentile rule's tail and sample count for every span name).  Counts are
per primary operation of the workload (per training step, evaluation batch
or LDA fit), per call, or per phase.  A layer the workload never calls
reads 0.
"""

from __future__ import annotations

from collections import Counter, defaultdict

from spans import AUTODIFF_OPS, COUNT, END, NAME, ROOT, START, self_times
from stats import summarize

LAYERS = ("corpus", "vocab", "masking", "encoder", "heads", "autodiff", "optim",
          "checkpoint", "topics")

# Timing metrics: metric name -> (span name, unit, scale from seconds).
_TIMINGS = {}
for _op in AUTODIFF_OPS:
    _TIMINGS[f"autodiff.{_op}.fwd_ms"] = (f"autodiff.{_op}.fwd", "ms", 1e3)
    _TIMINGS[f"autodiff.{_op}.bwd_ms"] = (f"autodiff.{_op}.bwd", "ms", 1e3)
for _name, _span, _unit, _scale in [
    ("autodiff.Tape.backward.ms", "autodiff.Tape.backward", "ms", 1e3),
    ("encoder.encoder_forward.train.ms", "encoder.encoder_forward.train", "ms", 1e3),
    ("encoder.encoder_forward.eval.ms", "encoder.encoder_forward.eval", "ms", 1e3),
    ("encoder.sequence_features.ms", "encoder.sequence_features", "ms", 1e3),
    ("heads.forward.mlm.ms", "heads.forward.mlm", "ms", 1e3),
    ("heads.forward.gender.ms", "heads.forward.gender", "ms", 1e3),
    ("heads.forward.race.ms", "heads.forward.race", "ms", 1e3),
    ("heads.forward.task.ms", "heads.forward.task", "ms", 1e3),
    ("optim.Adam.step.ms", "optim.Adam.step", "ms", 1e3),
    ("masking.mlm_mask.us_per_seq", "masking.mlm_mask", "us", 1e6),
    ("masking.ima_mask.us_per_seq", "masking.ima_mask", "us", 1e6),
    ("topics.fit_lda.s", "topics.fit_lda", "s", 1.0),
    ("topics.assign_topics.ms", "topics.assign_topics", "ms", 1e3),
    ("corpus.write_jsonl.ms", "corpus.write_jsonl", "ms", 1e3),
    ("corpus.read_jsonl.ms", "corpus.read_jsonl", "ms", 1e3),
    ("vocab.build_vocab.ms", "vocab.build_vocab", "ms", 1e3),
    ("vocab.encode_batch.ms", "vocab.encode_batch", "ms", 1e3),
    ("checkpoint.save_checkpoint.ms", "checkpoint.save_checkpoint", "ms", 1e3),
    ("checkpoint.load_checkpoint.ms", "checkpoint.load_checkpoint", "ms", 1e3),
    ("checkpoint.checkpoint_hash.ms", "checkpoint.checkpoint_hash", "ms", 1e3),
]:
    _TIMINGS[_name] = (_span, _unit, _scale)

# Time per unit of the span's count: metric name -> (span name, unit, scale).
_PER_UNIT = {
    "corpus.generate_poms_corpus.us_per_example": ("corpus.generate_poms_corpus", "us", 1e6),
    "corpus.generate_review_corpus.us_per_example": ("corpus.generate_review_corpus", "us", 1e6),
    "topics.us_per_token_sweep": ("topics.fit_lda", "us", 1e6),
}

# Counts: metric name -> (span name, how the counts of one name are combined).
#   "calls": spans per primary operation
#   "per_call": mean count per span
#   "per_op": sum of counts per primary operation (or per set-up)
_COUNTS = {f"autodiff.{op}.calls": (f"autodiff.{op}.fwd", "calls") for op in AUTODIFF_OPS}
_COUNTS.update({
    "autodiff.tape_nodes": ("autodiff.Tape.backward", "per_call"),
    "masking.mlm_mask.masked_per_seq": ("masking.mlm_mask", "per_call"),
    "masking.ima_mask.imbalance": ("masking.ima_mask", "per_op"),
    "vocab.truncations": ("vocab.encode_batch", "per_op"),
    "checkpoint.bytes_written": ("checkpoint.save_checkpoint", "per_call"),
})

OVERHEAD = "tracing.overhead_ratio"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {name: unit for name, (_, unit, _) in _TIMINGS.items()}
    units.update({name: unit for name, (_, unit, _) in _PER_UNIT.items()})
    units.update({name: "count" for name in _COUNTS})
    units.update({f"{layer}.self_share": "share" for layer in LAYERS})
    units[OVERHEAD] = "ratio"
    return units


def span_table(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and the per-call summary."""
    selfs = self_times(spans)
    durations: dict[str, list[float]] = defaultdict(list)
    self_total: dict[str, float] = defaultdict(float)
    for s, own in zip(spans, selfs):
        durations[s[NAME]].append(s[END] - s[START])
        self_total[s[NAME]] += own
    return {name: {"calls": len(d), "total_s": sum(d), "self_s": self_total[name],
                   "per_call_s": summarize(d)}
            for name, d in sorted(durations.items())}


def per_layer(spans, primary: str, overhead_ratio: float) -> dict[str, float]:
    """Every metric of ``metric_units()``, computed from one traced run."""
    by_name: dict[str, list[list]] = defaultdict(list)
    for s in spans:
        by_name[s[NAME]].append(s)
    op_roots = [i for i, s in enumerate(spans) if s[NAME] == "op." + primary]

    def median(values):
        return float(summarize(values)["p50"]) if values else 0.0

    out: dict[str, float] = {}
    for metric, (name, _, scale) in _TIMINGS.items():
        out[metric] = median([(s[END] - s[START]) * scale for s in by_name[name]])
    for metric, (name, _, scale) in _PER_UNIT.items():
        out[metric] = median([(s[END] - s[START]) * scale / s[COUNT]
                              for s in by_name[name] if s[COUNT]])
    for metric, (name, how) in _COUNTS.items():
        group = by_name[name]
        if how == "per_call":
            out[metric] = float(sum(s[COUNT] for s in group) / len(group)) if group else 0.0
            continue
        per_root = Counter()
        for s in group:
            per_root[s[ROOT]] += 1 if how == "calls" else s[COUNT]
        roots = op_roots if how == "calls" else sorted(per_root)
        out[metric] = median([per_root[r] for r in roots])

    selfs = self_times(spans)
    wall = sum(s[END] - s[START] for i, s in enumerate(spans) if s[ROOT] == i)
    layer_self = Counter()
    for s, own in zip(spans, selfs):
        layer_self[s[NAME].split(".", 1)[0]] += own
    for layer in LAYERS:
        out[f"{layer}.self_share"] = layer_self[layer] / wall if wall else 0.0
    out[OVERHEAD] = overhead_ratio
    return out
