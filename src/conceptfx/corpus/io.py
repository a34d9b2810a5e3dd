"""JSONL corpus persistence with byte-stable output.

Line 1 is a header, ``schema_version`` then ``BundleMeta``'s fields in field
order; every following line is one example
``{id, split, label, domain, concepts, tokens}`` with tokens encoded as
``{"t": surface, "s": slot}``, keys in exactly this order, so identical
bundles serialize to identical bytes.  Twins follow every factual example
with ``split="cf"`` and the id ``types.twin`` gives them,
``<factual-id>~cf~<concept>``, the only record of a pair.

The reader is the one check on stored data and rejects what the writer cannot
write.  Header and record hold exactly the keys above, so schema 1's pair
column is an unknown key.  Header: schema 2, a seed >= 0, a known bias
version, string lists of concepts, label names and domains, and an object as
provenance.  Record: a known split, a new string id, one or more tokens with
non-empty lowercase surfaces and slots in ``SLOT_KINDS``, a label in range,
exactly the header's concepts as 0/1 bits, and one of the header's domains,
or null if it lists none.  Twin: a header concept and an earlier test
factual whose label, domain and other bits it keeps.  Every integer passes
``checks.integer``: no float, no string, no ``true``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from importlib import resources
from pathlib import Path

from ..checks import integer
from .types import (BIAS_VERSIONS, BundleMeta, CorpusBundle, CorpusError, Example,
                    ExamplePair, SLOT_KINDS, TaggedToken, twin, twin_origin)

SCHEMA_VERSION = 2
_HEADER_KEYS = {"schema_version", *(f.name for f in fields(BundleMeta))}
_RECORD_KEYS = {"id", "split", "label", "domain", "concepts", "tokens"}


def load_data(name: str) -> dict:
    """A JSON file packaged under ``conceptfx/corpus/data``."""
    return json.loads(resources.files("conceptfx.corpus").joinpath(f"data/{name}").read_text("utf-8"))


def _example_record(ex: Example, split: str) -> dict:
    return {
        "id": ex.id,
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
    header = {"schema_version": SCHEMA_VERSION, **asdict(bundle.meta)}
    header["provenance"] = dict(sorted(header["provenance"].items()))
    lines = [_dump(header)]
    for split in ("train", "dev", "test"):
        lines.extend(_dump(_example_record(ex, split)) for ex in getattr(bundle, split))
    lines.extend(_dump(_example_record(pair.counterfactual, "cf")) for pair in bundle.pairs)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_example(record: dict, meta: BundleMeta) -> Example:
    """The example a record holds, validated against the header."""
    if not record.keys() <= _RECORD_KEYS:
        raise CorpusError(f"unknown record key {min(record.keys() - _RECORD_KEYS)!r}")
    try:
        if not isinstance(record["id"], str):
            raise CorpusError(f"example id must be a string, got {record['id']!r}")
        where = f"example {record['id']}"
        tokens = tuple(TaggedToken(t["t"], t["s"]) for t in record["tokens"])
        if sum(map(len, record["tokens"])) != 2 * len(tokens):  # every token holds "t" and "s"
            extra = next(t.keys() - {"t", "s"} for t in record["tokens"] if len(t) > 2)
            raise CorpusError(f"{where}: unknown token key {min(extra)!r}")
        label = integer(record["label"], f"{where}: label", CorpusError, high=len(meta.label_names))
        concepts = dict(record["concepts"].items())
        domain = record["domain"]
    except (AttributeError, KeyError, TypeError) as e:
        raise CorpusError(f"malformed example record: {e!r}") from e
    if not tokens:
        raise CorpusError(f"{where}: no tokens")
    for surface, slot in tokens:
        if not isinstance(surface, str) or not surface or surface != surface.lower():
            raise CorpusError(f"token surface {surface!r} is empty or not lowercase")
        if slot not in SLOT_KINDS:
            raise CorpusError(f"unknown slot kind {slot!r}")
    if concepts.keys() != set(meta.concepts):
        raise CorpusError(f"{where}: concepts {sorted(concepts)} are not the header's {meta.concepts}")
    for concept, value in concepts.items():
        integer(value, f"{where}: concept {concept!r}", CorpusError, high=2)
    if domain not in (meta.domains or [None]):
        raise CorpusError(f"{where}: domain {domain!r} is not one of {meta.domains or [None]}")
    return Example(id=record["id"], tokens=tokens, label=label, concepts=concepts, domain=domain)


def _parse_header(header: dict) -> BundleMeta:
    """The header's metadata, with the type of every field checked."""
    def bad(what: str) -> CorpusError:
        return CorpusError(f"line 1: malformed header: {what}")

    if header.keys() != _HEADER_KEYS:
        missing, unknown = _HEADER_KEYS - header.keys(), header.keys() - _HEADER_KEYS
        raise bad(f"missing {min(missing)!r}" if missing else f"unknown key {min(unknown)!r}")
    meta = BundleMeta(**{key: header[key] for key in _HEADER_KEYS - {"schema_version"}})
    integer(meta.seed, "line 1: malformed header: seed", CorpusError)
    if meta.bias_version not in BIAS_VERSIONS:
        raise bad(f"unknown bias_version {meta.bias_version!r}")
    for key in ("concepts", "label_names", "domains"):
        value = getattr(meta, key)
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise bad(f"{key} {value!r} is not a list of strings")
    if not isinstance(meta.provenance, dict):
        raise bad(f"provenance {meta.provenance!r} is not an object")
    return meta


def read_jsonl(path) -> CorpusBundle:
    """Parse a corpus file; malformed lines raise with their line number."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
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
    meta = _parse_header(header)
    splits: dict[str, dict[str, Example]] = {"train": {}, "dev": {}, "test": {}}  # split -> id -> example
    id_lines: dict[str, int] = {}  # example id -> its line
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
            ex = _parse_example(record, meta)
            factual_id, concept = twin_origin(ex.id) if split == "cf" else (None, None)
            if ex.id in id_lines:
                raise CorpusError(f"example id {ex.id!r} already appears on line {id_lines[ex.id]}")
            id_lines[ex.id] = line_no
            if factual_id is None:
                splits[split][ex.id] = ex
            elif concept not in meta.concepts:
                raise CorpusError(f"counterfactual {ex.id!r}: {concept!r} is not a header concept {meta.concepts}")
            elif factual_id not in id_lines:
                raise CorpusError(f"counterfactual {ex.id!r} references unknown example {factual_id!r}")
            elif factual_id not in splits["test"]:
                raise CorpusError(f"counterfactual {ex.id!r} twins line {id_lines[factual_id]}, not a test example")
            else:
                factual = splits["test"][factual_id]
                if ex.label != factual.label:
                    raise CorpusError(f"pair for {factual_id}: labels differ")
                if ex != twin(factual, concept, ex.tokens, {**factual.concepts, concept: ex.concepts[concept]}):
                    raise CorpusError(f"pair for {factual_id}: its domain or a concept but {concept!r} differs")
                pairs.append(ExamplePair(factual=factual, counterfactual=ex))
        except CorpusError as e:
            raise CorpusError(f"line {line_no}: {e}") from e
    return CorpusBundle(**{split: list(examples.values()) for split, examples in splits.items()},
                        pairs=pairs, meta=meta)
