"""select's first pass: the patterns whose rarest word the part holds.

A pattern whose rarest word is not in the part misses a position, so its
bound is at most the cap, fuse((longest - 1) / longest, _SEM_CEILING).
The first pass ranks only the bounds above the cap; the full `_bounds`
runs only when the best fused score so far does not exceed it.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_matching_equivalence import (  # noqa: F401  (fixtures)
    big_patterns,
    exhaustive_select,
    request_parts,
    small_base_and_part,
)
from test_ranking import visit_order

from perfquant import ClassLabel, MatcherConfig, Pattern, matching, select
from perfquant.patterns import PLACEHOLDER, PatternKB
from perfquant.text import tokenize

WEIGHTS = (0.0, 0.3, 0.7, 1.0)
ES, GE = ClassLabel.from_codes("E", "S"), ClassLabel.from_codes("G", "E")


def rarest_held(kb, part):
    """The patterns whose rarest word occurs in the part."""
    return {i for t in part.tokens for i in kb.rarest.get(t.normalized, ())}


@settings(max_examples=300, deadline=None)
@given(small_base_and_part(), st.sampled_from(WEIGHTS))
@example((PatternKB.build([Pattern(("under", PLACEHOLDER), ES)]), tokenize("under 5")), 0.7)
@example((PatternKB.build([Pattern(("under", PLACEHOLDER), ES)]), tokenize("under x")), 0.7)
def test_every_bound_above_the_cap_is_in_the_first_pass(case, w):
    kb, part = case
    cfg = MatcherConfig(w)
    first, cap = matching._prefix_bounds(kb, part, cfg)
    bound = matching._bounds(kb, part, cfg)
    assert first == {i: b for i, b in bound.items() if b > cap}
    assert all(b <= cap for i, b in bound.items() if i not in rarest_held(kb, part))


@settings(max_examples=200, deadline=None)
@given(small_base_and_part())
def test_rarest_word_has_the_fewest_postings(case):
    kb, _ = case
    owners = {i: word for word, indices in kb.rarest.items() for i in indices}
    for i, pattern in enumerate(kb.patterns):
        words = [t for t in pattern.tokens if t != PLACEHOLDER]
        assert owners.get(i) == min(words, key=lambda t: (len(kb.postings[t]), t), default=None)
    assert all(list(indices) == sorted(indices) for indices in kb.rarest.values())
    assert kb.longest == max(len(p) for p in kb.patterns)


def test_a_pattern_outside_the_first_pass_can_win(mini_store, monkeypatch):
    """The first pass holds only "the respond", whose span penalty keeps it
    at or below the cap; the fallback pass then visits "respond within <N>
    milliseconds", whose rarest word the part lacks, and it wins on a
    partial match."""
    kb = PatternKB.build([
        Pattern(("respond", "within", PLACEHOLDER, "milliseconds"), ES),
        Pattern(("the", "respond"), GE),
    ])
    part = tokenize("the system shall respond within 5 seconds")
    cfg = MatcherConfig()
    first, cap = matching._prefix_bounds(kb, part, cfg)
    assert list(first) == [1]
    full_passes = []
    original = matching._bounds

    def counting_bounds(*args):
        full_passes.append(args)
        return original(*args)

    monkeypatch.setattr(matching, "_bounds", counting_bounds)
    got = select(kb, mini_store, part, cfg)
    assert got.pattern_index == 0 and got.lcs.length == 3
    assert got.fused <= cap
    assert got == exhaustive_select(kb, mini_store, part, cfg)
    assert len(full_passes) == 1
    assert visit_order(kb, mini_store, part, cfg) == [1, 0]


def test_the_full_bounds_run_for_few_parts_of_a_large_base(
    big_patterns, request_parts, mini_store, monkeypatch
):
    """On a base of about 1,000 patterns most parts are settled by the
    first pass, and the selections stay those of scoring every pattern."""
    kb = PatternKB.build(big_patterns)
    original = matching._bounds
    full_passes = []

    def counting_bounds(base, req, cfg):
        full_passes.append(req)
        return original(base, req, cfg)

    monkeypatch.setattr(matching, "_bounds", counting_bounds)
    for part in request_parts:
        assert select(kb, mini_store, part) == exhaustive_select(kb, mini_store, part)
    # a part no pattern matches always takes the full pass
    assert any(req.raw == "nothing here matches any pattern word" for req in full_passes)
    assert len(full_passes) <= len(request_parts) // 10, (len(full_passes), len(request_parts))
