"""Every LCS that `select` computes is non-empty.

A candidate shares a word token with the part: `PatternKB.postings` and
`PatternKB.word_trie` list no pattern of the placeholder alone, and
`_ranked` discards it from the part's words.  So no candidate's LCS can be
empty.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_matching_equivalence import (  # noqa: F401  (fixtures)
    big_patterns,
    request_parts,
    small_base_and_part,
)

from perfquant import MatcherConfig, matching, select
from perfquant.data import HOLDOUT_FILE, MINI_CORPUS_FILE, default_store
from perfquant.data import path as data_path
from perfquant.evaluation import load_dataset
from perfquant.matching import lcs
from perfquant.patterns import PatternKB
from perfquant.text import split_expectations, tokenize

WEIGHTS = (0.0, 0.3, 0.7, 1.0)


@pytest.fixture(scope="module")
def store():
    """A store of this module's own: `select` caches pattern vectors on the
    store, and the session's store is measured for growth elsewhere."""
    return default_store()


def lcs_lengths(mp, kb, store, parts, cfg=None):
    """The length of every LCS that `select` computes over `parts`."""
    lengths = []

    def recording_lcs(pattern, req):
        result = lcs(pattern, req)
        lengths.append(len(result.matched_positions))
        return result

    mp.setattr(matching, "lcs", recording_lcs)
    for part in parts:
        select(kb, store, part, cfg)
    return lengths


def test_bundled_base_on_the_bundled_corpora(monkeypatch, bundled_kb, store):
    parts = [
        part
        for name in (MINI_CORPUS_FILE, HOLDOUT_FILE)
        for row in load_dataset(data_path(name))
        for part in split_expectations(tokenize(row.text))
    ]
    lengths = lcs_lengths(monkeypatch, bundled_kb, store, parts)
    assert len(lengths) > len(parts)
    assert min(lengths) >= 1


def test_large_base(monkeypatch, big_patterns, request_parts, store):
    kb = PatternKB.build(big_patterns)
    assert len(kb.patterns) == 988
    lengths = lcs_lengths(monkeypatch, kb, store, request_parts)
    assert len(lengths) > len(request_parts)
    assert min(lengths) >= 1


@settings(max_examples=300, deadline=None)
@given(small_base_and_part(), st.sampled_from(WEIGHTS))
def test_small_bases(store, case, w):
    kb, part = case
    with pytest.MonkeyPatch.context() as mp:
        lengths = lcs_lengths(mp, kb, store, [part], MatcherConfig(w))
    assert all(n >= 1 for n in lengths)
