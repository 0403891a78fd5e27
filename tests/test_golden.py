"""The golden corpus: 28 output files of seven configs keep the bytes pinned in ``tests/golden.json``.

``tests/identity.py`` checks the same files, plus the four benchmark
workloads, under any interpreter; this test runs the corpus in tier-1.
"""

import json

import pytest

from identity import MANIFEST, SCENARIOS, corpus_hashes

GOLDEN = json.loads(MANIFEST.read_text(encoding="utf-8"))["corpus"]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> dict[str, dict[str, str]]:
    return corpus_hashes(tmp_path_factory.mktemp("corpus"))


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_corpus_bytes_are_pinned(corpus, scenario):
    assert corpus[scenario] == GOLDEN[scenario]
