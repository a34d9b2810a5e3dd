"""Malformed corpus and checkpoint files raise the package's typed errors."""

import json
import struct

import pytest

from conceptfx.checkpoint import CheckpointError, load_checkpoint
from conceptfx.corpus import CorpusError, generate_poms_corpus, read_jsonl, write_jsonl


def _drop_seed(lines):
    header = json.loads(lines[0])
    del header["seed"]
    lines[0] = json.dumps(header)


def _string_provenance(lines):
    header = json.loads(lines[0])
    header["provenance"] = "abc"
    lines[0] = json.dumps(header)


def _list_concepts(lines):
    record = json.loads(lines[-1])
    record["concepts"] = [1, 0]
    lines[-1] = json.dumps(record)


def _list_id(lines):
    record = json.loads(lines[-1])
    record["id"] = ["poms-000049"]
    lines[-1] = json.dumps(record)


def _unmarked_twin(lines):
    record = json.loads(lines[-1])
    record["id"] = "poms-000049"
    lines[-1] = json.dumps(record)


def _set(index, key, value):
    """Corrupter that sets ``key`` in the record on ``lines[index]``."""
    def corrupt(lines):
        record = json.loads(lines[index])
        record[key] = value
        lines[index] = json.dumps(record)
    return corrupt


# A POMS n=50 file: header, 32 train, 8 dev and 10 test records (lines 2-51),
# then the gender and race twins of each test record (lines 52-71).
@pytest.mark.parametrize("corrupt, match", [
    (_drop_seed, "line 1: malformed header"),
    (_string_provenance, "line 1: malformed header"),
    (lambda lines: lines.__setitem__(0, "[1, 2]"), "line 1: header must be a JSON object"),
    (lambda lines: lines.__setitem__(2, "[1]"), "line 3: record must be a JSON object"),
    (_list_concepts, r"line \d+: malformed example record"),
    (_list_id, r"line \d+: example id must be a string"),
    (_unmarked_twin, "lacks the ~cf~<concept> suffix"),
    (_set(1, "label", 99), "line 2: example poms-000000: label 99 out of range"),
    (_set(1, "concepts", {"gender": 7, "race": 0}), "line 2: .*concept 'gender' not binary"),
    (_set(-1, "id", "poms-999999~cf~race"), "line 71: .*unknown example 'poms-999999'"),
    (_set(-1, "pair_id", "poms-000048"), "line 71: .*pair_id 'poms-000048'"),
    (_set(1, "pair_id", "zzz"), "line 2: .*pair_id 'zzz'"),
    (_set(1, "pair_id", "poms-000000"), "line 2: .*has a pair_id but no counterfactual"),
    (_set(50, "pair_id", None), "line 70: .*must both have pair_id 'poms-000049'"),
], ids=["no-seed", "string-provenance", "list-header", "list-record", "list-concepts",
        "list-id", "unmarked-twin", "label-99", "non-binary-concept", "unknown-factual",
        "twin-pair-id", "factual-pair-id", "pair-id-without-twin", "twin-of-unpaired"])
def test_read_jsonl_rejects_malformed_file(tmp_path, corrupt, match):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(generate_poms_corpus(n=50, seed=8), path)
    lines = path.read_text().splitlines()
    corrupt(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=match):
        read_jsonl(path)


def _entry(**overrides):
    entry = {"name": "w", "shape": [2], "dtype": "<f4", "byte_offset": 0}
    entry.update(overrides)
    return {k: v for k, v in entry.items() if v is not None}


@pytest.mark.parametrize("manifest, match", [
    ({"config": {}}, "no tensor list"),
    ([], "no tensor list"),
    ({"tensors": {"w": 1}}, "no tensor list"),
    ({"tensors": [["w"]]}, "entry 0 is not a JSON object"),
    ({"tensors": [_entry(shape=None)]}, "entry 0 lacks shape"),
    ({"tensors": [_entry(name=["w"])]}, "entry 0 has a non-string name"),
    ({"tensors": [_entry(dtype=["<f4"])]}, "tensor 'w': unsupported dtype"),
    ({"tensors": [_entry(shape="ab")]}, "tensor 'w': shape 'ab'"),
    ({"tensors": [_entry(shape=[2.0])]}, "tensor 'w': shape"),
    ({"tensors": [_entry(shape=[-2])]}, "tensor 'w': shape"),
    ({"tensors": [_entry(byte_offset=-4)]}, "tensor 'w': byte_offset -4"),
    ({"tensors": [_entry(byte_offset="0")]}, "tensor 'w': byte_offset"),
    ({"tensors": [_entry(byte_offset=4)]}, "tensor 'w' overruns blob"),
], ids=["no-tensors", "list-manifest", "tensor-dict", "list-entry", "no-shape", "list-name",
        "list-dtype", "string-shape", "float-shape", "negative-shape", "negative-offset",
        "string-offset", "overrun"])
def test_load_checkpoint_rejects_malformed_manifest(tmp_path, manifest, match):
    path = tmp_path / "bad.ckpt"
    raw = json.dumps(manifest).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + bytes(8))
    with pytest.raises(CheckpointError, match=match) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)
