"""JSONL corpus persistence with byte-stable output.

Line 1 is a header ``{schema_version, seed, bias_version, concepts,
label_names, domains, provenance}``; every following line is one example
``{id, pair_id, split, label, domain, concepts, tokens}`` with tokens encoded
as ``{"t": surface, "s": slot}``.  Keys are emitted in exactly this order and
surfaces are lowercase UTF-8, so identical bundles serialize to identical
bytes.  Counterfactual twins are stored with ``split="cf"`` under the ids
that ``types.twin`` gives them, after every factual example.  The
``pair_id`` column is derived from ``CorpusBundle.pairs`` on write (a paired
factual's own id, a twin's factual id, else null) and checked on read.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from .types import (BundleMeta, CorpusBundle, CorpusError, Example,
                    ExamplePair, SLOT_KINDS, TaggedToken, twin_origin)

SCHEMA_VERSION = 1


def load_data(name: str) -> dict:
    """A JSON file packaged under ``conceptfx/corpus/data``."""
    return json.loads(resources.files("conceptfx.corpus").joinpath(f"data/{name}").read_text("utf-8"))


def _example_record(ex: Example, split: str, pair_id: str | None) -> dict:
    return {
        "id": ex.id,
        "pair_id": pair_id,
        "split": split,
        "label": ex.label,
        "domain": ex.domain,
        "concepts": {k: ex.concepts[k] for k in sorted(ex.concepts)},
        "tokens": [{"t": t.surface, "s": t.slot} for t in ex.tokens],
    }


def _dump(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), ensure_ascii=True)


def write_jsonl(bundle: CorpusBundle, path) -> None:
    """Serialize a bundle; an empty bundle writes the header line only."""
    meta = bundle.meta
    header = {
        "schema_version": SCHEMA_VERSION,
        "seed": meta.seed,
        "bias_version": meta.bias_version,
        "concepts": list(meta.concepts),
        "label_names": list(meta.label_names),
        "domains": list(meta.domains),
        "provenance": {k: meta.lexicon_info[k] for k in sorted(meta.lexicon_info)},
    }
    paired = {pair.factual.id for pair in bundle.pairs}
    lines = [_dump(header)]
    for split in ("train", "dev", "test"):
        for ex in getattr(bundle, split):
            if any(t.surface != t.surface.lower() for t in ex.tokens):
                raise CorpusError(f"example {ex.id}: surfaces must be lowercase")
            lines.append(_dump(_example_record(ex, split, ex.id if ex.id in paired else None)))
    for pair in bundle.pairs:
        lines.append(_dump(_example_record(pair.counterfactual, "cf", pair.factual.id)))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_example(record: dict, meta: BundleMeta) -> tuple[Example, str | None]:
    """The example a record holds, validated against the header, and its pair_id."""
    try:
        if not isinstance(record["id"], str):
            raise CorpusError(f"example id must be a string, got {record['id']!r}")
        tokens = tuple(TaggedToken(t["t"], t["s"]) for t in record["tokens"])
        ex = Example(
            id=record["id"],
            tokens=tokens,
            label=int(record["label"]),
            concepts={str(k): int(v) for k, v in record["concepts"].items()},
            domain=record["domain"],
        )
        pair_id = record["pair_id"]
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CorpusError(f"malformed example record: {e!r}") from e
    ex.validate(len(meta.label_names), None, tuple(meta.concepts))
    return ex, pair_id


def read_jsonl(path) -> CorpusBundle:
    """Parse a corpus file; malformed lines raise with their line number."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise CorpusError(f"{path}: empty file, expected a header line")
    try:
        header = json.loads(lines[0])
    except ValueError as e:
        raise CorpusError(f"line 1: malformed header: {e}") from e
    if not isinstance(header, dict):
        raise CorpusError(f"line 1: header must be a JSON object, got {type(header).__name__}")
    if header.get("schema_version") != SCHEMA_VERSION:
        raise CorpusError(f"line 1: unsupported schema_version {header.get('schema_version')!r}")
    try:
        meta = BundleMeta(
            seed=header["seed"],
            bias_version=header["bias_version"],
            concepts=list(header["concepts"]),
            label_names=list(header["label_names"]),
            domains=list(header["domains"]),
            lexicon_info=dict(header.get("provenance", {})),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusError(f"line 1: malformed header: {e!r}") from e
    splits: dict[str, list[Example]] = {"train": [], "dev": [], "test": []}
    factuals: dict[str, Example] = {}
    pair_lines: dict[str, int] = {}  # factual id -> its line, for factuals with a pair_id
    pairs: list[ExamplePair] = []
    for line_no, line in enumerate(lines[1:], start=2):
        if not line.strip():
            raise CorpusError(f"line {line_no}: blank line inside corpus file")
        try:
            record = json.loads(line)
        except ValueError as e:
            raise CorpusError(f"line {line_no}: malformed JSON: {e}") from e
        if not isinstance(record, dict):
            raise CorpusError(f"line {line_no}: record must be a JSON object, got {type(record).__name__}")
        split = record.get("split")
        if split not in ("train", "dev", "test", "cf"):
            raise CorpusError(f"line {line_no}: unknown split {split!r}")
        try:
            ex, pair_id = _parse_example(record, meta)
            if split != "cf":
                if pair_id not in (None, ex.id):
                    raise CorpusError(f"example {ex.id!r} has pair_id {pair_id!r}, neither null nor its id")
                splits[split].append(ex)
                factuals[ex.id] = ex
                if pair_id is not None:
                    pair_lines[ex.id] = line_no
                continue
            factual_id, concept = twin_origin(ex.id)
            if factual_id not in factuals:
                raise CorpusError(f"counterfactual {ex.id!r} references unknown example {factual_id!r}")
            if pair_id != factual_id or factual_id not in pair_lines:
                raise CorpusError(f"counterfactual {ex.id!r} (pair_id {pair_id!r}) and example "
                                  f"{factual_id!r} must both have pair_id {factual_id!r}")
            pairs.append(ExamplePair(factual=factuals[factual_id], counterfactual=ex, concept=concept))
            pairs[-1].validate()
        except CorpusError as e:
            raise CorpusError(f"line {line_no}: {e}") from e
    unpaired = [(pair_lines[i], i) for i in pair_lines.keys() - {p.factual.id for p in pairs}]
    if unpaired:
        line_no, factual_id = min(unpaired)
        raise CorpusError(f"line {line_no}: example {factual_id!r} has a pair_id but no counterfactual")
    return CorpusBundle(train=splits["train"], dev=splits["dev"], test=splits["test"],
                        pairs=pairs, meta=meta)


__all__ = ["write_jsonl", "read_jsonl", "SCHEMA_VERSION", "SLOT_KINDS"]
