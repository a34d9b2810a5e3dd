"""Pinned corpus bytes and the immutability of generated examples."""

import dataclasses
import hashlib

import pytest

from conceptfx.corpus import (BiasSpec, CorpusError, generate_poms_corpus,
                              generate_review_corpus, read_jsonl, write_jsonl)

# sha256 of write_jsonl output at n=200, keyed "<corpus>/<bias version>/<seed>".
PINNED = {
    "poms-gender/balanced/0": "78288edba383b6e8ad50acb3995ee5d00a256dde84cf08e98aa2c633a2f0c82a",
    "poms-race/balanced/0": "5f5c0a7da7c22babab66c9d2bfa3e467796566b8433c38382f5883e38187a591",
    "reviews/balanced/0": "2a904e1a90586e82c69b26a084cd97a30383d4d5ebf4dffd3f25c92ed60d3f3a",
    "poms-gender/gentle/0": "37fa6e1b1449da2b3a108da3e4e75eb111e6fd2acae4eb175ea19c3bc8f46b0b",
    "poms-race/gentle/0": "d2d685e35eae21deeb070ebf28d4b8dc824f35a87a11b4cccaa6fb3739eb498a",
    "reviews/gentle/0": "a623c15d951f908300035c4e7622e1982f1a2727fce719aa55973d560391d141",
    "poms-gender/aggressive/0": "1a4117b3a7c37b5f82ad3f6c835fcd19f877522e07bf76a893ed0a6cfe8d059f",
    "poms-race/aggressive/0": "e5de7e157a988d6347b438794784578079acc343630b393fcd730ba5bd6f54e1",
    "reviews/aggressive/0": "f14aba5242e0203c17e9d45bd2b7fc3f8edb804ea421a97006edacaece862e41",
    "poms-gender/balanced/7": "9dbec61a496a2865321924f06c2e015f319565e5c2b19e958193f787157fb1da",
    "poms-race/balanced/7": "6de600894e5828ecb0dbec6bc595c5d34469225246baafe37466a51e09fef6f5",
    "reviews/balanced/7": "44c08bebdb1f44eb8b57cd8c560b7efcdb6cdc844d66adb9c9fb3685145e02ca",
    "poms-gender/gentle/7": "0505dc99507d7127e111bea7db0fe3cba9a8095567d965f651b93f15dd4d0f67",
    "poms-race/gentle/7": "5e35478f9d424cfea57b71b8dc773f1c6f08b964f4f4c75eb65765f3e0c10e0d",
    "reviews/gentle/7": "a489b9fa5efe32e1ce372ce771179b18449be9d39a8eb2ad2abe959c948ac1c3",
    "poms-gender/aggressive/7": "7449b35665f200a46b8a052dcda4fce50ba83ad80bc452b038f7c3259574f833",
    "poms-race/aggressive/7": "22fbdfccee765e712ef8af3e78ee29c7734e2022f9ae56bacdaf45d34865530e",
    "reviews/aggressive/7": "a40c7075596f5153c8f39bf509b6f12ae9eed4b42b9c48b58ff8361e38544c06",
}


def _generate(corpus: str, version: str, seed: int):
    if corpus == "reviews":
        return generate_review_corpus(bias=BiasSpec.reviews(version), n=200, seed=seed)
    concept = corpus.split("-")[1]
    return generate_poms_corpus(bias=BiasSpec.poms(version, concept=concept), n=200, seed=seed)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_jsonl_bytes_pinned(key, tmp_path):
    corpus, version, seed = key.split("/")
    bundle = _generate(corpus, version, int(seed))
    path, again = tmp_path / "corpus.jsonl", tmp_path / "again.jsonl"
    write_jsonl(bundle, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[key]
    back = read_jsonl(path)
    assert back == bundle
    write_jsonl(back, again)
    assert again.read_bytes() == path.read_bytes()


def test_example_fields_are_frozen():
    bundle = generate_review_corpus(n=50, seed=1)
    for ex in (bundle.test[0], bundle.pairs[0].counterfactual):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ex.label = 1 - ex.label


def test_example_concepts_are_read_only():
    bundle = generate_poms_corpus(n=50, seed=1)
    concepts = {"gender": 1, "race": 0}
    ex = dataclasses.replace(bundle.train[0], concepts=concepts)
    concepts["gender"] = 0  # the example holds its own copy
    assert ex.concepts == {"gender": 1, "race": 0} == dict(ex.concepts)
    for example in (ex, bundle.pairs[0].counterfactual):
        with pytest.raises(TypeError):
            example.concepts["gender"] = 1


def test_review_corpus_rejects_poms_bias():
    with pytest.raises(CorpusError, match="gender"):
        generate_review_corpus(bias=BiasSpec.poms("gentle"), n=50, seed=1)
