"""JSONL corpus persistence with byte-stable output.

Line 1 is a header ``{schema_version, seed, bias_version, concepts,
label_names, domains, provenance}``; every following line is one example
``{id, split, label, domain, concepts, tokens}`` with tokens encoded as
``{"t": surface, "s": slot}``.  Keys are emitted in exactly this order and
surfaces are lowercase UTF-8, so identical bundles serialize to identical
bytes.  This is schema 2; a schema 1 file, which also stored each pair in a
column of its own, is rejected.  Counterfactual twins are stored with
``split="cf"`` after every factual example, under the ids that
``types.twin`` gives them: a twin's id, ``<factual-id>~cf~<concept>``, is the
only record of its pair.

The reader rejects a record the writer could not have written: a label or
concept bit that is not a JSON integer in range (``checks.integer``: no float,
no string, no ``true``), or a domain that is neither a string nor null.
"""

from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

from ..checks import integer
from .types import (BIAS_VERSIONS, BundleMeta, CorpusBundle, CorpusError, Example,
                    ExamplePair, SLOT_KINDS, TaggedToken, twin_origin)

SCHEMA_VERSION = 2


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
        lines.extend(_dump(_example_record(ex, split)) for ex in getattr(bundle, split))
    lines.extend(_dump(_example_record(pair.counterfactual, "cf")) for pair in bundle.pairs)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _parse_example(record: dict, meta: BundleMeta) -> Example:
    """The example a record holds, validated against the header."""
    try:
        if not isinstance(record["id"], str):
            raise CorpusError(f"example id must be a string, got {record['id']!r}")
        where = f"example {record['id']}"
        tokens = tuple(TaggedToken(t["t"], t["s"]) for t in record["tokens"])
        label = integer(record["label"], f"{where}: label", CorpusError, high=len(meta.label_names))
        concepts = dict(record["concepts"].items())
        domain = record["domain"]
    except (AttributeError, KeyError, TypeError) as e:
        raise CorpusError(f"malformed example record: {e!r}") from e
    for concept in meta.concepts:
        if concept not in concepts:
            raise CorpusError(f"{where}: missing concept {concept!r}")
    for concept, value in concepts.items():
        integer(value, f"{where}: concept {concept!r}", CorpusError, high=2)
    if domain is not None and not isinstance(domain, str):
        raise CorpusError(f"{where}: domain must be a string or null, got {domain!r}")
    return Example(id=record["id"], tokens=tokens, label=label, concepts=concepts, domain=domain)


def _parse_header(header: dict) -> BundleMeta:
    """The header's metadata, with the type of every field checked."""
    def bad(what: str) -> CorpusError:
        return CorpusError(f"line 1: malformed header: {what}")

    try:
        seed, version = header["seed"], header["bias_version"]
        lists = {key: header[key] for key in ("concepts", "label_names", "domains")}
    except KeyError as e:
        raise bad(f"missing {e}") from e
    provenance = header.get("provenance", {})
    integer(seed, "line 1: malformed header: seed", CorpusError)
    if version not in BIAS_VERSIONS:
        raise bad(f"unknown bias_version {version!r}")
    for key, value in lists.items():
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise bad(f"{key} {value!r} is not a list of strings")
    if not isinstance(provenance, dict):
        raise bad(f"provenance {provenance!r} is not an object")
    return BundleMeta(seed=seed, bias_version=version, lexicon_info=provenance, **lists)


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
                pairs.append(ExamplePair(factual=splits["test"][factual_id], counterfactual=ex))
        except CorpusError as e:
            raise CorpusError(f"line {line_no}: {e}") from e
    return CorpusBundle(**{split: list(examples.values()) for split, examples in splits.items()},
                        pairs=pairs, meta=meta)


__all__ = ["write_jsonl", "read_jsonl", "SCHEMA_VERSION", "SLOT_KINDS"]
