"""select's ranking: reach counted over per-position postings.

On random small bases, with patterns that repeat a word, with and without
the placeholder, and parts with and without a number, every candidate's
counted reach equals the reference `reach`, select visits candidates in
descending key bound (`key_bound`), and its choice equals scoring every
pattern.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_matching_equivalence import exhaustive_select, key_bound, reach, shares_a_word

from perfquant import ClassLabel, MatcherConfig, Pattern, matching, select
from perfquant.patterns import PLACEHOLDER, PatternKB
from perfquant.text import tokenize

WORDS = ("at", "least", "respond", "within", "the", "than", "less", "7")
# words no pattern holds; numbers match only the placeholder
FOREIGN = ("x", "seconds", "quickly", "5", "1,000", "2e3")
LABELS = tuple(ClassLabel.from_codes(*codes) for codes in ("ES", "GE", "SE", "EE"))
WEIGHTS = (0.0, 0.3, 0.7, 1.0)


@st.composite
def patterns(draw):
    found = []
    for _ in range(draw(st.integers(1, 10))):
        # repeated words are drawn freely, as in "at least <N> at"
        tokens = draw(st.lists(st.sampled_from(WORDS), min_size=1, max_size=6))
        if draw(st.booleans()):
            tokens.insert(draw(st.integers(0, len(tokens))), PLACEHOLDER)
        found.append(Pattern(tuple(tokens), draw(st.sampled_from(LABELS))))
    return found


@st.composite
def base_and_part(draw):
    kb = PatternKB.build(draw(patterns()))
    words = draw(st.lists(st.sampled_from(WORDS + FOREIGN[:3]), min_size=1, max_size=12))
    if draw(st.booleans()):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(FOREIGN[3:])))
    return kb, tokenize(" ".join(words))


AT_LEAST_AT = PatternKB.build(
    [Pattern(("at", "least", PLACEHOLDER, "at"), LABELS[1]), Pattern(("at", "least"), LABELS[0])]
)


def visit_order(kb, store, part, cfg):
    """The pattern indices select passes to lcs, in order."""
    visited = []
    original = matching.lcs

    def recording_lcs(pattern, req):
        visited.append(kb.patterns.index(pattern))
        return original(pattern, req)

    matching.lcs = recording_lcs
    try:
        select(kb, store, part, cfg)
    finally:
        matching.lcs = original
    return visited


@settings(max_examples=300, deadline=None)
@given(base_and_part(), st.sampled_from(WEIGHTS))
@example((AT_LEAST_AT, tokenize("at least 5 at")), 0.7)
@example((AT_LEAST_AT, tokenize("at least at")), 0.3)
def test_counted_bounds_equal_the_reference(mini_store, case, w):
    kb, part = case
    cfg = MatcherConfig(w)
    counted = matching._reach(kb, part)
    assert sorted(counted) == [i for i, p in enumerate(kb.patterns) if shares_a_word(p, part)]
    for index, value in counted.items():
        assert value == reach(kb.patterns[index], part)
    visited = visit_order(kb, mini_store, part, cfg)
    keys = [key_bound(kb, i, part, cfg) for i in visited]
    assert keys == sorted(keys, reverse=True)


@settings(max_examples=300, deadline=None)
@given(base_and_part())
@example((AT_LEAST_AT, tokenize("at least 5 at")))
def test_select_equals_exhaustive_for_every_weight(mini_store, case):
    kb, part = case
    for w in WEIGHTS:
        cfg = MatcherConfig(w)
        assert select(kb, mini_store, part, cfg) == exhaustive_select(kb, mini_store, part, cfg)


@settings(max_examples=100, deadline=None)
@given(patterns(), st.lists(st.sampled_from(FOREIGN), min_size=1, max_size=8))
def test_a_part_sharing_no_word_matches_nothing(mini_store, found, words):
    kb = PatternKB.build(found)
    part = tokenize(" ".join(words))
    assert matching._reach(kb, part) == {}
    for w in WEIGHTS:
        assert select(kb, mini_store, part, MatcherConfig(w)) is None
