"""Malformed corpus and checkpoint files, and bad seeds or sizes at the public
entry points, raise the package's typed errors."""

import dataclasses
import hashlib
import json
import struct
import numpy as np
import pytest

from conceptfx.checkpoint import CheckpointError, checkpoint_hash, load_checkpoint, save_checkpoint
from conceptfx.corpus import (BiasSpec, CorpusError, flip_concept, generate_poms_corpus,
                              generate_review_corpus, read_jsonl, write_jsonl)
from conceptfx.model import EncoderConfig, EncoderError, HeadError, HeadSet, init_encoder_params


def _drop_seed(lines):
    header = json.loads(lines[0])
    del header["seed"]
    lines[0] = json.dumps(header)


def _drop_provenance(lines):
    header = json.loads(lines[0])
    del header["provenance"]
    lines[0] = json.dumps(header)


def _string_provenance(lines):
    header = json.loads(lines[0])
    header["provenance"] = "abc"
    lines[0] = json.dumps(header)


def _header(key, value):
    """Corrupter that sets ``key`` in the header line."""
    def corrupt(lines):
        header = json.loads(lines[0])
        header[key] = value
        lines[0] = json.dumps(header)
    return corrupt


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


def _schema_1(lines):
    """The file as schema 1 wrote it: each record also names its pair."""
    _header("schema_version", 1)(lines)
    for i, line in enumerate(lines[1:], start=1):
        record = json.loads(line)
        factual_id = record["id"].partition("~cf~")[0]
        record = {"id": record["id"], "pair_id": factual_id if record["split"] in ("test", "cf") else None,
                  **record}
        lines[i] = json.dumps(record)


def _uppercase_surface(lines):
    record = json.loads(lines[2])
    record["tokens"][0]["t"] = record["tokens"][0]["t"].upper()
    lines[2] = json.dumps(record)


def _extra_token_key(lines):
    record = json.loads(lines[2])
    record["tokens"][-1]["x"] = 1
    lines[2] = json.dumps(record)


def _twin_of_train_row(lines):
    """The last twin renamed as a twin of the first train row, with that row's label."""
    record = json.loads(lines[-1])
    record["id"] = "poms-000000~cf~race"
    record["label"] = json.loads(lines[1])["label"]
    lines[-1] = json.dumps(record)


def _twin(change):
    """Corrupter that applies ``change`` to the last record, the twin poms-000049~cf~race."""
    def corrupt(lines):
        record = json.loads(lines[-1])
        change(record)
        lines[-1] = json.dumps(record)
    return corrupt


def _twin_in_other_domain(lines):
    """Every record in the header domain books, but the last twin in dvd."""
    _header("domains", ["books", "dvd"])(lines)
    for i, line in enumerate(lines[1:], start=1):
        record = json.loads(line)
        record["domain"] = "dvd" if i == len(lines) - 1 else "books"
        lines[i] = json.dumps(record)


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
    (_header("label_names", "abcd"), "line 1: .*label_names 'abcd' is not a list of strings"),
    (_header("domains", "ab"), "line 1: .*domains 'ab' is not a list of strings"),
    (_header("concepts", ["gender", 1]), "line 1: .*concepts .* is not a list of strings"),
    (_header("seed", "x"), "line 1: malformed header: seed must be an integer >= 0, got 'x'"),
    (_header("seed", True), "line 1: malformed header: seed must be an integer >= 0, got True"),
    (_header("seed", -5), "line 1: malformed header: seed must be an integer >= 0, got -5"),
    (_header("bias_version", 7), "line 1: .*unknown bias_version 7"),
    (_header("provenance", [["a", 1]]), r"line 1: .*provenance \[\['a', 1\]\] is not an object"),
    (lambda lines: lines.__setitem__(2, "[1]"), "line 3: record must be a JSON object"),
    (_list_concepts, r"line \d+: malformed example record"),
    (_list_id, r"line \d+: example id must be a string"),
    (_unmarked_twin, "lacks the ~cf~<concept> suffix"),
    (_set(1, "label", 99), r"line 2: example poms-000000: label must be an integer in \[0, 4\), got 99"),
    (_set(1, "concepts", {"gender": 7, "race": 0}),
     r"line 2: example poms-000000: concept 'gender' must be an integer in \[0, 2\), got 7"),
    (_set(1, "concepts", {"gender": 1}),
     r"line 2: example poms-000000: concepts \['gender'\] are not the header's \['gender', 'race'\]"),
    (_set(-1, "id", "poms-999999~cf~race"), "line 71: .*unknown example 'poms-999999'"),
    (_schema_1, "line 1: unsupported schema_version 1"),
    (_uppercase_surface, "line 3: token surface '[A-Z]+' is empty or not lowercase"),
    (lambda lines: lines.insert(2, lines[1]), "line 3: .*'poms-000000' already appears on line 2"),
    (lambda lines: lines.append(lines[-1]), r"line 72: .*'poms-000049~cf~race' already appears on line 71"),
    (_set(-1, "id", "poms-000049~cf~weather"), "line 71: .*'weather' is not a header concept"),
    (_twin_of_train_row, "line 71: .*twins line 2, not a test example"),
    (_set(1, "label", 1.9), r"line 2: example poms-000000: label must be an integer in \[0, 4\), got 1\.9"),
    (_set(1, "label", "2"), r"line 2: example poms-000000: label must be an integer in \[0, 4\), got '2'"),
    (_set(1, "label", True), r"line 2: example poms-000000: label must be an integer in \[0, 4\), got True"),
    (_set(1, "concepts", {"gender": 0.7, "race": 0}),
     r"line 2: example poms-000000: concept 'gender' must be an integer in \[0, 2\), got 0\.7"),
    (_set(1, "concepts", {"gender": 0, "race": True}),
     r"line 2: example poms-000000: concept 'race' must be an integer in \[0, 2\), got True"),
    (_set(1, "domain", 5), r"line 2: example poms-000000: domain 5 is not one of \[None\]"),
    (_twin(lambda r: r.update(label=(r["label"] + 1) % 4)), "line 71: pair for poms-000049: labels differ"),
    (_set(1, "concepts", {"age": 1, "gender": 0, "race": 0}),
     r"line 2: example poms-000000: concepts \['age', 'gender', 'race'\] "
     r"are not the header's \['gender', 'race'\]"),
    (_twin_in_other_domain, "line 71: pair for poms-000049: its domain or a concept but 'race' differs"),
    (_twin(lambda r: r["concepts"].update(gender=1 - r["concepts"]["gender"])),
     "line 71: pair for poms-000049: its domain or a concept but 'race' differs"),
    (_set(1, "domain", "books"), r"line 2: example poms-000000: domain 'books' is not one of \[None\]"),
    (_set(1, "tokens", []), "line 2: example poms-000000: no tokens"),
    (_set(1, "tokens", [{"t": "she", "s": "pronoun"}]), "line 2: unknown slot kind 'pronoun'"),
    (_drop_provenance, "line 1: malformed header: missing 'provenance'"),
    (_header("lexicon", {}), "line 1: malformed header: unknown key 'lexicon'"),
    (_set(1, "pair_id", None), "line 2: unknown record key 'pair_id'"),
    (_extra_token_key, "line 3: example poms-000001: unknown token key 'x'"),
], ids=["no-seed", "string-provenance", "list-header", "string-label-names", "string-domains",
        "int-in-concepts", "string-seed", "bool-seed", "negative-seed", "int-bias-version", "list-provenance",
        "list-record", "list-concepts",
        "list-id", "unmarked-twin", "label-99", "non-binary-concept", "missing-concept", "unknown-factual",
        "schema-1", "uppercase-surface", "repeated-factual", "repeated-twin",
        "twin-of-unknown-concept", "twin-of-train-row", "float-label", "string-label", "bool-label",
        "float-concept", "bool-concept", "int-domain", "twin-label", "unknown-concept", "twin-domain",
        "twin-other-concept", "unknown-domain", "no-tokens", "unknown-slot", "no-provenance",
        "extra-header-key", "extra-record-key", "extra-token-key"])
def test_read_jsonl_rejects_malformed_file(tmp_path, corrupt, match):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(generate_poms_corpus(n=50, seed=8), path)
    lines = path.read_text().splitlines()
    corrupt(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(CorpusError, match=match):
        read_jsonl(path)


@pytest.mark.parametrize("call, error, match", [
    (lambda: init_encoder_params(EncoderConfig(vocab_size=10), -1), EncoderError, "seed must be"),
    (lambda: HeadSet().add_seq("t", 4, 2, -1), HeadError, "seed must be"),
    (lambda: generate_poms_corpus(n=50, seed=-1), CorpusError, "seed must be"),
    (lambda: generate_review_corpus(n=50, seed=-1), CorpusError, "seed must be"),
    (lambda: flip_concept(generate_poms_corpus(n=50, seed=8).test[0], "gender", seed=-1),
     CorpusError, "seed must be"),
    (lambda: generate_review_corpus(n="x"), CorpusError, "n must be an integer >= 2, got 'x'"),
    (lambda: generate_poms_corpus(n="x"), CorpusError, "n must be an integer >= 4, got 'x'"),
    (lambda: generate_poms_corpus(n=50, seed=np.int64(3)), CorpusError,
     "seed must be an integer >= 0"),
], ids=["encoder-seed", "head-seed", "poms-seed", "review-seed", "flip-seed", "review-n", "poms-n",
        "numpy-seed"])
def test_public_entry_points_reject_bad_seed_and_size(call, error, match):
    # The seeds leaked numpy's ValueError ("expected non-negative integer"), n="x" a
    # TypeError, and a numpy seed a TypeError only in write_jsonl.
    with pytest.raises(error, match=match):
        call()


@pytest.mark.parametrize("config, field, value, error, match", [
    (BiasSpec.poms("gentle"), "version", "bogus", CorpusError, "unknown bias version 'bogus'"),
    (EncoderConfig(vocab_size=10), "dim", 65, EncoderError, "dim 65 not divisible by heads 4"),
], ids=["bias-spec", "encoder-config"])
def test_validated_configs_are_frozen(config, field, value, error, match):
    # Assigning a field skipped the check: version "bogus" leaked KeyError from
    # generate_poms_corpus, and dim 65 with 4 heads was accepted.
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)
    with pytest.raises(error, match=match):
        dataclasses.replace(config, **{field: value})


def _entry(**overrides):
    entry = {"name": "w", "shape": [2], "dtype": "<f4"}
    entry.update(overrides)
    return {k: v for k, v in entry.items() if v is not None}


def _sealed(manifest, config, arrays):
    """``manifest`` with the ``sha256`` a loader computes for ``arrays`` and ``config``."""
    seal = hashlib.sha256((checkpoint_hash(arrays) + json.dumps(config, sort_keys=True)).encode("utf-8"))
    return {**manifest, "sha256": seal.hexdigest()}


@pytest.mark.parametrize("manifest, match", [
    ({"config": {}}, "no tensor list"),
    ([], "no tensor list"),
    ({"tensors": {"w": 1}}, "no tensor list"),
    ({"tensors": [["w"]]}, "entry 0 is not a JSON object"),
    ({"tensors": [_entry(shape=None)]}, "entry 0 lacks shape"),
    ({"tensors": [_entry(name=["w"])]}, "entry 0 has a non-string name"),
    ({"tensors": [_entry(dtype=["<f4"])]}, "tensor 'w': unsupported dtype"),
    ({"tensors": [_entry(shape="ab")]}, "tensor 'w': shape 'ab'"),
    ({"tensors": [_entry(shape=[2.0])]}, r"tensor 'w': shape\[0\] must be an integer >= 0, got 2\.0"),
    ({"tensors": [_entry(shape=[-2])]}, r"tensor 'w': shape\[0\] must be an integer >= 0, got -2"),
    ({"tensors": [_entry(shape=[3])]}, "tensor 'w' overruns blob"),
    # Sealed as the file would have loaded: one 'w' holding the second tensor's values, or
    # the list, or {} as the config.
    (_sealed({"config": {}, "tensors": [_entry(shape=[1]), _entry(shape=[1])]}, {},
             {"w": np.zeros(1, "<f4")}), "tensor 'w' is named twice"),
    (_sealed({"config": [1, 2], "tensors": [_entry()]}, [1, 2], {"w": np.zeros(2, "<f4")}),
     r"config \[1, 2\] is not a JSON object"),
    (_sealed({"tensors": [_entry()]}, {}, {"w": np.zeros(2, "<f4")}), "config None is not a JSON object"),
    # A config that save_checkpoint refuses; it loaded as {'k': nan}.
    (_sealed({"config": {"k": float("nan")}, "tensors": [_entry()]}, {"k": float("nan")},
             {"w": np.zeros(2, "<f4")}), "bad manifest: NaN is not JSON"),
], ids=["no-tensors", "list-manifest", "tensor-dict", "list-entry", "no-shape", "list-name",
        "list-dtype", "string-shape", "float-shape", "negative-shape", "overrun", "dup-name",
        "list-config", "no-config", "nan-config"])
def test_load_checkpoint_rejects_malformed_manifest(tmp_path, manifest, match):
    path = tmp_path / "bad.ckpt"
    raw = json.dumps(manifest).encode("utf-8")
    path.write_bytes(struct.pack("<Q", len(raw)) + raw + bytes(8))
    with pytest.raises(CheckpointError, match=match) as info:
        load_checkpoint(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("config, match", [
    ([1, 2], "config must be a dict, got list"),
    ({1: 2}, r"config \{1: 2\} does not load back equal to itself"),
    ({"k": (1, 2)}, r"config \{'k': \(1, 2\)\} does not load back equal to itself"),
    ({"k": float("nan")}, r"config \{'k': nan\} is not JSON: Out of range float"),
    ({"k": np.int64(3)}, r"config \{'k': np.int64\(3\)\} is not JSON: .*int64 is not JSON serializable"),
], ids=["list", "int-key", "tuple", "nan", "numpy-int"])
def test_save_checkpoint_rejects_a_config_that_does_not_round_trip(tmp_path, config, match):
    # [1, 2] wrote a file that loaded with [1, 2] as its config, {1: 2} loaded as
    # {'1': 2} and (1, 2) as [1, 2]; NaN wrote non-standard JSON and np.int64 leaked
    # TypeError.
    path = tmp_path / "ck.bin"
    with pytest.raises(CheckpointError, match=match):
        save_checkpoint(path, {"w": np.zeros(2, "<f4")}, config)
    assert list(tmp_path.iterdir()) == []
