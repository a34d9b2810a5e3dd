"""Pinned corpus bytes and the immutability of generated examples."""

import dataclasses
import hashlib

import pytest

from conceptfx.corpus import (BiasSpec, CorpusError, generate_poms_corpus,
                              generate_review_corpus, write_jsonl)

# sha256 of write_jsonl output at n=200, keyed "<corpus>/<bias version>/<seed>".
PINNED = {
    "poms-gender/balanced/0": "a7222333ee2729c3104e2a91752af84a284591a63d3ec2d82a33128bee31281f",
    "poms-race/balanced/0": "22882a6b0da9350cffde98d03de733a98a3aea8c6d1cb9d33fa9740e7a0ce6e3",
    "reviews/balanced/0": "1f77563d126c77ccf1562333c97952d8476cf11354c50c6d9d120eea0ee7aef0",
    "poms-gender/gentle/0": "3d011d249ce6fd3e74ca0dfde871e47b7102e0888e8195227de17bf1a994627a",
    "poms-race/gentle/0": "7755d9ba18b2ae3b061469e024285c000f007286257d282c6090293cf86380bb",
    "reviews/gentle/0": "08e693227a670f594419f19d5b9191a24eb11d8835cc7c26a4e9726aaee68b8f",
    "poms-gender/aggressive/0": "052cc7a5eb7fea2f376ba390e196b774a9717d61f0c73a7112868f396588324e",
    "poms-race/aggressive/0": "91e9c60b2d82e181e74bdefb584f1b60b763474384efdcda3d1a61f8b0a96c5f",
    "reviews/aggressive/0": "c441ead0f8aa7cc654900bc9921e2f8011d9e75fc6220642d48ac8fa0e875eaf",
    "poms-gender/balanced/7": "148152109a6fd77531c30cdf0f2a5e77fb8f0d050f73bafe2a48034518c397fc",
    "poms-race/balanced/7": "6789a47faca4ca14c4a0592c8fa1663c998776a7584195dfc0deb8bfc31e0775",
    "reviews/balanced/7": "c350af9ea647165ffad44f28019907816feab928e86bc6e46986fdfd9c95add6",
    "poms-gender/gentle/7": "48a782866b2bef2c9598622d572e6c9c7f331a03c9c101f098745b55684b27e6",
    "poms-race/gentle/7": "7caca2a56de175faf783ece47a4ff1fb436633a997bc50680db5f4ae4f707fba",
    "reviews/gentle/7": "5fc16079440a35d826752090778bc6aacf1f75c903dcc077d13d924f0794006a",
    "poms-gender/aggressive/7": "9df0900129282e902ae95c3c797a722a1d0c5f62523174b55be674cc57b07431",
    "poms-race/aggressive/7": "48ef97a19c199545b3303011abdb73f67f55a41e874abbcbdfc1574715c43091",
    "reviews/aggressive/7": "87fde74f98d51ccdaf0f948696b216e09ad4fe7c069260be91486effd110fbce",
}


def _generate(corpus: str, version: str, seed: int):
    if corpus == "reviews":
        return generate_review_corpus(bias=BiasSpec.reviews(version), n=200, seed=seed)
    concept = corpus.split("-")[1]
    return generate_poms_corpus(bias=BiasSpec.poms(version, concept=concept), n=200, seed=seed)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_jsonl_bytes_pinned(key, tmp_path):
    corpus, version, seed = key.split("/")
    path = tmp_path / "corpus.jsonl"
    write_jsonl(_generate(corpus, version, int(seed)), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[key]


def test_example_fields_are_frozen():
    bundle = generate_review_corpus(n=50, seed=1)
    for ex in (bundle.test[0], bundle.pairs[0].counterfactual):
        with pytest.raises(dataclasses.FrozenInstanceError):
            ex.label = 1 - ex.label


def test_review_corpus_rejects_poms_bias():
    with pytest.raises(CorpusError, match="gender"):
        generate_review_corpus(bias=BiasSpec.poms("gentle"), n=50, seed=1)
