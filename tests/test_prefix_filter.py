"""select's ranked stream: the patterns whose every distinct token the
part holds, found by walking `PatternKB.word_trie`, then the cap key, then
the rest, all by descending key bound.

A pattern with a token the part lacks, such as its rarest word, misses a
position, so its key bound is below the cap key (fuse(near, 1.0), near,
inf), near = (longest - 1) / longest.  The stream's head, its first pass
before (cap key, None), holds only the key bounds above it; `_reach`
counts every candidate only when the visit goes on past the cap key.
"""

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_matching_equivalence import (  # noqa: F401  (fixtures)
    big_patterns,
    exhaustive_select,
    key_bound,
    request_parts,
    selection_key,
    shares_a_word,
    small_base_and_part,
)
from test_ranking import visit_order

from perfquant import ClassLabel, MatcherConfig, Pattern, matching, select
from perfquant.matching import _SEM_CEILING, fuse
from perfquant.patterns import PLACEHOLDER, PatternKB
from perfquant.text import tokenize

WEIGHTS = (0.0, 0.3, 0.7, 1.0)
ES, GE = ClassLabel.from_codes("E", "S"), ClassLabel.from_codes("G", "E")


def ranked_words(kb, pattern):
    """The pattern's distinct words by ascending number of postings, ties
    to the lower token."""
    return sorted(set(pattern.tokens) - {PLACEHOLDER}, key=lambda t: (len(kb.postings[t]), t))


def rarest_held(kb, part):
    """The patterns whose rarest word, the first of their ranked words,
    occurs in the part."""
    held = {t.normalized for t in part.tokens}
    return {i for i, p in enumerate(kb.patterns) if set(ranked_words(kb, p)[:1]) & held}


def trie_listings(kb):
    """Pattern index -> the token path of every node listing it; and the
    lists of indices at every node."""
    listings, lists, nodes = {}, [], [((), kb.word_trie)]
    while nodes:
        path, (listed, children) = nodes.pop()
        lists.append(listed)
        for i in listed:
            listings.setdefault(i, []).append(path)
        nodes += [((*path, t), child) for t, child in children.items()]
    return listings, lists


def head_and_cap(kb, part, cfg):
    """The stream's items before (cap key, None), and the cap key; the
    stream is not resumed past it, so `_reach` does not run."""
    head = []
    for bound, index in matching._ranked(kb, part, cfg):
        if index is None:
            return head, bound
        head.append((bound, index))
    raise AssertionError("the stream holds no (cap key, None)")


def candidates(kb, part):
    return [i for i, p in enumerate(kb.patterns) if shares_a_word(p, part)]


UNDER = PatternKB.build([Pattern(("under", PLACEHOLDER), ES)])


@settings(max_examples=300, deadline=None)
@given(small_base_and_part(), st.sampled_from(WEIGHTS))
@example((UNDER, tokenize("under 5")), 0.7)
@example((UNDER, tokenize("under x")), 0.7)
@example((UNDER, tokenize("under 5")), 0.0)
def test_every_bound_above_the_cap_is_in_the_first_pass(case, w):
    kb, part = case
    cfg = MatcherConfig(w)
    head, cap = head_and_cap(kb, part, cfg)
    near = (kb.longest - 1) / kb.longest
    assert cap == (fuse(near, _SEM_CEILING, cfg), near, math.inf)
    bounds = sorted(((key_bound(kb, i, part, cfg), i) for i in candidates(kb, part)), reverse=True)
    assert head == [(b, i) for b, i in bounds if b > cap]
    assert all(b[:2] == (fuse(1.0, _SEM_CEILING, cfg), 1.0) for b, _ in head)
    assert all(b < cap for b, i in bounds if i not in rarest_held(kb, part))


@settings(max_examples=300, deadline=None)
@given(small_base_and_part(), st.sampled_from(WEIGHTS))
@example((UNDER, tokenize("under 5")), 0.7)
@example((UNDER, tokenize("under 5")), 0.0)
def test_the_stream_is_every_bound_in_one_ranking(case, w):
    """The stream, its one sentinel included, falls strictly; without the
    sentinel it is every candidate's key bound."""
    kb, part = case
    cfg = MatcherConfig(w)
    stream = list(matching._ranked(kb, part, cfg))
    assert [i for _, i in stream].count(None) == 1
    assert all(a[0] > b[0] for a, b in zip(stream, stream[1:]))
    bounds = sorted(((key_bound(kb, i, part, cfg), i) for i in candidates(kb, part)), reverse=True)
    assert [(b, i) for b, i in stream if i is not None] == bounds


@settings(max_examples=200, deadline=None)
@given(small_base_and_part())
@example((PatternKB.build([Pattern((PLACEHOLDER,), ES), *UNDER.patterns]), tokenize("under 5")))
@example((PatternKB.build([Pattern(("at", "most", "at", PLACEHOLDER), ES)]), tokenize("x")))
def test_each_word_pattern_is_listed_once_where_its_ranked_tokens_end(case):
    kb, _ = case
    listings, lists = trie_listings(kb)
    for i, pattern in enumerate(kb.patterns):
        words = ranked_words(kb, pattern)
        if words:
            assert listings[i] == [(PLACEHOLDER,) * (PLACEHOLDER in pattern.tokens) + tuple(words)]
        else:
            assert i not in listings
    assert all(listed == sorted(listed) for listed in lists)
    assert kb.longest == max(len(p) for p in kb.patterns)


def test_a_pattern_outside_the_first_pass_can_win(mini_store, monkeypatch):
    """The stream's head holds only "the respond", whose span penalty keeps
    its key below the cap key; the visit then goes on past the cap key to
    "respond within <N> milliseconds", whose rarest word the part lacks,
    and it wins on a partial match."""
    kb = PatternKB.build([
        Pattern(("respond", "within", PLACEHOLDER, "milliseconds"), ES),
        Pattern(("the", "respond"), GE),
    ])
    part = tokenize("the system shall respond within 5 seconds")
    cfg = MatcherConfig()
    head, cap = head_and_cap(kb, part, cfg)
    assert [i for _, i in head] == [1]
    full_passes = []
    original = matching._reach

    def counting_reach(*args):
        full_passes.append(args)
        return original(*args)

    monkeypatch.setattr(matching, "_reach", counting_reach)
    got = select(kb, mini_store, part, cfg)
    assert got.pattern_index == 0 and len(got.lcs.matched_positions) == 3
    assert selection_key(got) < cap
    assert got == exhaustive_select(kb, mini_store, part, cfg)
    assert len(full_passes) == 1
    assert visit_order(kb, mini_store, part, cfg) == [1, 0]


def test_the_full_bounds_run_for_few_parts_of_a_large_base(
    big_patterns, request_parts, mini_store, monkeypatch
):
    """On a base of about 1,000 patterns most parts are settled before the
    cap key, and the selections stay those of scoring every pattern."""
    kb = PatternKB.build(big_patterns)
    original = matching._reach
    full_passes = []

    def counting_reach(base, req):
        full_passes.append(req)
        return original(base, req)

    monkeypatch.setattr(matching, "_reach", counting_reach)
    for part in request_parts:
        assert select(kb, mini_store, part) == exhaustive_select(kb, mini_store, part)
    # a part no pattern matches always goes on past the cap
    assert any(req.raw == "nothing here matches any pattern word" for req in full_passes)
    assert len(full_passes) <= len(request_parts) // 10, (len(full_passes), len(request_parts))


def test_a_full_match_ends_the_visit_at_every_weight(
    big_patterns, request_parts, mini_store, monkeypatch
):
    """A contiguous match of every position reaches its key bound, so the
    visit ends at the first one, even at w = 0, where every fused bound is
    1.0: on a base of about 1,000 patterns, select runs `lcs` on few
    candidates per part at every weight."""
    kb = PatternKB.build(big_patterns)
    calls = []
    original = matching.lcs

    def counting_lcs(pattern, req):
        calls.append(pattern)
        return original(pattern, req)

    monkeypatch.setattr(matching, "lcs", counting_lcs)
    for w in WEIGHTS:
        calls.clear()
        matched = [select(kb, mini_store, part, MatcherConfig(w)) for part in request_parts]
        assert sum(m is not None for m in matched) > len(request_parts) // 2
        assert len(calls) <= 5 * len(request_parts) // 4, (w, len(calls), len(request_parts))
