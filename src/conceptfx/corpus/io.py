"""JSONL corpus persistence with byte-stable output.

Line 1 is a header ``{schema_version, seed, bias_version, concepts,
label_names, domains, provenance}``; every following line is one example
``{id, pair_id, split, label, domain, concepts, tokens}`` with tokens encoded
as ``{"t": surface, "s": slot}``.  Keys are emitted in exactly this order and
surfaces are lowercase UTF-8, so identical bundles serialize to identical
bytes.  Counterfactual twins are stored with ``split="cf"`` under the ids
that ``types.twin`` gives them.
"""

from __future__ import annotations

import json
from pathlib import Path

from .types import (BundleMeta, CorpusBundle, CorpusError, Example,
                    ExamplePair, SLOT_KINDS, TaggedToken, twin_origin)

SCHEMA_VERSION = 1


def _example_record(ex: Example, split: str) -> dict:
    return {
        "id": ex.id,
        "pair_id": ex.pair_id,
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
    lines = [_dump(header)]
    for split in ("train", "dev", "test"):
        for ex in getattr(bundle, split):
            if any(t.surface != t.surface.lower() for t in ex.tokens):
                raise CorpusError(f"example {ex.id}: surfaces must be lowercase")
            lines.append(_dump(_example_record(ex, split)))
    for pair in bundle.pairs:
        lines.append(_dump(_example_record(pair.counterfactual, "cf")))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_example(record: dict, line_no: int) -> Example:
    try:
        if not isinstance(record["id"], str):
            raise CorpusError(f"example id must be a string, got {record['id']!r}")
        tokens = tuple(TaggedToken(t["t"], t["s"]) for t in record["tokens"])
        return Example(
            id=record["id"],
            tokens=tokens,
            label=int(record["label"]),
            concepts={str(k): int(v) for k, v in record["concepts"].items()},
            domain=record["domain"],
            pair_id=record["pair_id"],
        )
    except CorpusError as e:
        raise CorpusError(f"line {line_no}: {e}") from e
    except (AttributeError, KeyError, TypeError, ValueError) as e:
        raise CorpusError(f"line {line_no}: malformed example record: {e!r}") from e


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
    cf_records: list[Example] = []
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
        ex = _parse_example(record, line_no)
        if split == "cf":
            cf_records.append(ex)
        else:
            splits[split].append(ex)

    by_id = {ex.id: ex for split in splits.values() for ex in split}
    pairs: list[ExamplePair] = []
    for cf in cf_records:
        factual_id, concept = twin_origin(cf.id)
        factual = by_id.get(factual_id)
        if factual is None:
            raise CorpusError(f"counterfactual {cf.id!r} references unknown example {factual_id!r}")
        pairs.append(ExamplePair(factual=factual, counterfactual=cf, concept=concept))

    bundle = CorpusBundle(train=splits["train"], dev=splits["dev"], test=splits["test"],
                          pairs=pairs, meta=meta)
    for pair in pairs:
        pair.validate()
    return bundle


__all__ = ["write_jsonl", "read_jsonl", "SCHEMA_VERSION", "SLOT_KINDS"]
