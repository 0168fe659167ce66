import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfquant import (
    ClassLabel,
    MatcherConfig,
    Pattern,
    apply_negation,
    cosine,
    lcs,
    select,
    semantic_score,
    sentence_vector,
    syntactic_score,
)
from perfquant.errors import EmptyKB
from perfquant.matching import NEGATIONS
from perfquant.patterns import PLACEHOLDER, PatternKB
from perfquant.satisfaction import ALL_LABELS, FragmentKind
from perfquant.text import tokenize


def label(codes):
    return ClassLabel.from_codes(codes[0], codes[1])


def pattern(text, codes="ES"):
    tokens = tuple(t if t == PLACEHOLDER else t.lower() for t in text.split())
    return Pattern(tokens, label(codes))


def brute_force_lcs(p_tokens, r_tokens):
    """Independent oracle: enumerate pattern subsequences and all their
    embeddings, preferring max length, then min first-to-last distance,
    then min first index.  Returns (length, first, last)."""

    def matches(pt, rt):
        if pt == PLACEHOLDER:
            return rt.replace(".", "").replace(",", "").isdigit()
        return pt == rt

    n = len(r_tokens)
    for size in range(len(p_tokens), 0, -1):
        best = None
        for subset in itertools.combinations(range(len(p_tokens)), size):
            toks = [p_tokens[i] for i in subset]
            for pos in itertools.combinations(range(n), size):
                if all(matches(t, r_tokens[j]) for t, j in zip(toks, pos)):
                    key = (-(pos[-1] - pos[0]), -pos[0])
                    if best is None or key > best[0]:
                        best = (key, (size, pos[0], pos[-1]))
        if best is not None:
            return best[1]
    return (0, -1, -1)


def span_summary(result):
    """(length, first, last) of an LCS's requirement positions, as
    `brute_force_lcs` reports them."""
    positions = result.matched_positions
    return (len(positions), positions[0], positions[-1]) if positions else (0, -1, -1)


class TestLcs:
    def test_capacity_requirement_worked_example(self):
        req = tokenize("the product shall be capable of handling the existing 1000 users")
        result = lcs(pattern("be capable of supporting <N>", "GE"), req)
        assert [req.normalized[j] for j in result.matched_positions] == [
            "be", "capable", "of", "1000"
        ]
        assert len(result.matched_positions) == 4
        assert result.v_beta == 1000.0

    def test_identical_sequences(self):
        req = tokenize("more than 100")
        result = lcs(pattern("more than <N>", "GE"), req)
        assert result.matched_positions == (0, 1, 2)
        assert result.pattern_positions == (0, 1, 2)

    def test_empty_when_nothing_shared(self):
        result = lcs(pattern("be fast", "SS"), tokenize("throughput exceeds expectations"))
        assert result.matched_positions == ()
        assert result.pattern_positions == ()

    def test_placeholder_matches_any_number(self):
        req = tokenize("respond within 2.5 seconds")
        result = lcs(pattern("within <N>"), req)
        assert result.v_beta == 2.5

    def test_placeholder_requires_a_number(self):
        req = tokenize("respond within moments")
        result = lcs(pattern("within <N>"), req)
        assert len(result.matched_positions) == 1
        assert result.v_beta is None

    def test_minimal_span_preferred_over_early_start(self):
        # "a ... b" appears spread first and compact later
        req = tokenize("a x x x b y a b")
        result = lcs(pattern("a b"), req)
        assert result.matched_positions == (6, 7)

    def test_earliest_start_breaks_span_ties(self):
        req = tokenize("a b y a b")
        result = lcs(pattern("a b"), req)
        assert result.matched_positions == (0, 1)

    def test_matches_oracle_on_random_pairs(self):
        rng = random.Random(11)
        alphabet = ["a", "b", "c", "7"]
        for _ in range(400):
            p_any = [rng.choice(alphabet + [PLACEHOLDER]) for _ in range(rng.randint(1, 4))]
            while sum(1 for t in p_any if t == PLACEHOLDER) > 1:
                p_any = [rng.choice(alphabet + [PLACEHOLDER]) for _ in range(rng.randint(1, 4))]
            r_toks = [rng.choice(alphabet) for _ in range(rng.randint(1, 8))]
            result = lcs(Pattern(tuple(p_any), label("ES")), tokenize(" ".join(r_toks)))
            expected = brute_force_lcs(p_any, r_toks)
            assert span_summary(result) == expected

    def test_length_bounds(self):
        rng = random.Random(12)
        for _ in range(100):
            p_toks = [rng.choice("ab7") for _ in range(rng.randint(1, 5))]
            r_toks = [rng.choice("ab7") for _ in range(rng.randint(1, 9))]
            result = lcs(Pattern(tuple(p_toks), label("ES")), tokenize(" ".join(r_toks)))
            assert len(result.matched_positions) <= min(len(p_toks), len(r_toks))
        same = tokenize("x y z")
        assert len(lcs(pattern("x y z"), same).matched_positions) == 3


# words of the mini store and literal numerals, some written differently in
# requirements ("15ms" is two tokens; "٣" is a non-ASCII digit)
ALIGN_PATTERN_WORDS = ("less", "than", "ms", "load", "1,000", "2.5", "15", "1e3", "٣")
ALIGN_REQUEST_WORDS = ALIGN_PATTERN_WORDS + ("15ms", "7", "x", "the")


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.sampled_from(ALIGN_PATTERN_WORDS + (PLACEHOLDER,)), min_size=1, max_size=8)
    .filter(lambda tokens: tokens.count(PLACEHOLDER) <= 1),
    st.lists(st.sampled_from(ALIGN_REQUEST_WORDS), min_size=1, max_size=12),
)
def test_alignment_pairs_equal_tokens_or_the_placeholder_with_a_number(
    mini_store, p_tokens, r_words
):
    """Both sides of the LCS rise strictly, each pair joins equal strings
    or the placeholder with a numeric token, and the semantic score read
    from the pattern's side is, bit for bit, the one the requirement's
    matched tokens give."""
    p = Pattern(tuple(p_tokens), label("ES"))
    req = tokenize(" ".join(r_words))
    result = lcs(p, req)
    req_side, pattern_side = result.matched_positions, result.pattern_positions
    assert len(req_side) == len(pattern_side)
    for side in (req_side, pattern_side):
        assert all(a < b for a, b in zip(side, side[1:]))
    for j, i in zip(req_side, pattern_side):
        assert p.tokens[i] == req.normalized[j] or (
            p.tokens[i] == PLACEHOLDER and j in req.numeric_positions
        )
    paired = [j for j, i in zip(req_side, pattern_side) if p.tokens[i] == PLACEHOLDER]
    assert result.v_beta == (req.tokens[paired[0]].numeric_value if paired else None)
    if req_side:
        want = cosine(
            sentence_vector(mini_store, list(p.tokens)),
            sentence_vector(mini_store, [req.normalized[j] for j in req_side]),
        )
        assert semantic_score(mini_store, p, result).hex() == want.hex()


class TestSyntacticScore:
    def test_generic_pattern_penalized_by_span(self):
        req = tokenize("the product shall be capable of handling the existing 1000 users")
        raw, penalized = syntactic_score(pattern("shall be <N>", "GS"), lcs(pattern("shall be <N>", "GS"), req))
        assert raw == pytest.approx(1.0, abs=1e-9)
        assert penalized == pytest.approx(3 / 7, abs=1e-9)

    def test_specific_pattern_scores_higher(self):
        req = tokenize("the product shall be capable of handling the existing 1000 users")
        p = pattern("be capable of supporting <N>", "GE")
        raw, penalized = syntactic_score(p, lcs(p, req))
        assert raw == pytest.approx(4 / 5, abs=1e-9)
        assert penalized == pytest.approx(4 / 5 * 4 / 6, abs=1e-9)

    def test_contiguous_match_is_penalty_free(self):
        req = tokenize("respond in 3 seconds")
        p = pattern("in <N>")
        raw, penalized = syntactic_score(p, lcs(p, req))
        assert raw == penalized == 1.0

    def test_empty_lcs_scores_zero(self):
        p = pattern("be fast", "SS")
        result = lcs(p, tokenize("throughput only"))
        assert syntactic_score(p, result) == (0.0, 0.0)

    def test_penalized_never_exceeds_raw(self):
        rng = random.Random(13)
        for _ in range(200):
            p_toks = tuple(rng.choice("abc7") for _ in range(rng.randint(1, 4)))
            r = tokenize(" ".join(rng.choice("abc7") for _ in range(rng.randint(1, 8))))
            p = Pattern(p_toks, label("ES"))
            raw, penalized = syntactic_score(p, lcs(p, r))
            assert 0.0 <= penalized <= raw <= 1.0


class TestSemanticScore:
    def test_identical_tokens_score_one(self, mini_store):
        req = tokenize("response in 2 seconds")
        p = pattern("in <N>")
        assert semantic_score(mini_store, p, lcs(p, req)) == pytest.approx(1.0, abs=1e-9)

    def test_every_in_vocabulary_position_matched_scores_exactly_one(self, mini_store, bundled_kb):
        """Both sides average the same vectors, so the cosine is 1.0 with no
        rounding; a pattern word without a vector need not be matched."""
        for p in bundled_kb.patterns:
            req = tokenize(" ".join("5" if t == PLACEHOLDER else t for t in p.tokens))
            assert semantic_score(mini_store, p, lcs(p, req)) == 1.0, p.text
        p = Pattern(("respond", "zzqq", "within", PLACEHOLDER), label("ES"))
        assert "zzqq" not in mini_store.entries
        assert semantic_score(mini_store, p, lcs(p, tokenize("respond quickly within 5 s"))) == 1.0

    def test_close_pattern_beats_unrelated_one(self, mini_store):
        req = tokenize("The system response time for all operations should be under 3 seconds")
        near = pattern("in under <N>")
        far = pattern("all must be", "SS")
        sem_near = semantic_score(mini_store, near, lcs(near, req))
        sem_far = semantic_score(mini_store, far, lcs(far, req))
        assert sem_near > sem_far

    def test_hand_computed_cosine(self, make_store):
        store = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        p = Pattern(("a", "b"), label("ES"))
        result = lcs(p, tokenize("a q"))
        # pattern vector (0.5, 0.5) vs matched vector (1, 0)
        assert semantic_score(store, p, result) == pytest.approx(1 / 2**0.5, abs=1e-9)

    def test_empty_lcs_scores_zero(self, mini_store):
        p = pattern("be fast", "SS")
        assert semantic_score(mini_store, p, lcs(p, tokenize("zero overlap"))) == 0.0


class TestSelect:
    def test_prefers_syntactically_fitted_pattern(self, mini_store):
        kb = PatternKB.build(
            [pattern("shall be <N>", "GS"), pattern("be capable of supporting <N>", "GE")],
        )
        req = tokenize("the product shall be capable of handling the existing 1000 users")
        match = select(kb, mini_store, req)
        assert match.pattern.text == "be capable of supporting <N>"
        assert match.v_beta == 1000.0

    def test_singleton_kb_always_wins(self, mini_store):
        kb = PatternKB.build([pattern("be fast", "SS")])
        match = select(kb, mini_store, tokenize("the service shall be fast"))
        assert match.pattern.text == "be fast"

    def test_degenerate_weights_follow_each_score(self, make_store):
        store = make_store(
            {
                "u": [1.0, 0.0],
                "x": [-0.8, 0.6],
                "y": [0.6, 0.8],
                "z": [0.6, -0.8],
                "q": [0.0, 1.0],
            }
        )
        # u-x matches compactly but is semantically diluted; u-y-z matches
        # fully but scattered; y-q sits between on both axes
        kb = PatternKB.build(
            [pattern("u x", "SS"), pattern("u y z", "GG"), pattern("y q x", "EE")]
        )
        req = tokenize("u y q q q q q z")
        scored = []
        for p in kb.patterns:
            result = lcs(p, req)
            scored.append(
                (syntactic_score(p, result)[1], semantic_score(store, p, result), p.text)
            )
        by_syn = max(scored)[2]
        by_sem = max(scored, key=lambda t: (t[1], t[0]))[2]
        assert select(kb, store, req, MatcherConfig(w=1.0)).pattern.text == by_syn
        assert select(kb, store, req, MatcherConfig(w=0.0)).pattern.text == by_sem
        assert by_syn != by_sem

    def test_winner_flips_exactly_once_as_w_sweeps(self, make_store):
        store = make_store(
            {
                "u": [1.0, 0.0],
                "x": [-0.8, 0.6],
                "y": [0.6, 0.8],
                "z": [0.6, -0.8],
                "q": [0.0, 1.0],
            }
        )
        kb = PatternKB.build([pattern("u x", "SS"), pattern("u y z", "GG")])
        req = tokenize("u y q q q q q z")
        winners = [
            select(kb, store, req, MatcherConfig(w=i / 100)).pattern.text
            for i in range(101)
        ]
        flips = sum(1 for a, b in zip(winners, winners[1:]) if a != b)
        assert flips == 1

    def test_no_match_returns_none(self, mini_store):
        kb = PatternKB.build([pattern("more than <N>", "GE")])
        assert select(kb, mini_store, tokenize("completely unrelated words")) is None

    def test_bare_number_match_does_not_count(self, mini_store):
        kb = PatternKB.build([pattern("exactly <N>", "EE")])
        assert select(kb, mini_store, tokenize("respond within 30 seconds")) is None

    def test_function_word_only_match_does_not_count(self, mini_store):
        kb = PatternKB.build([pattern("in <N>")])
        # "in" alone, with no bound number, is noise ...
        assert select(kb, mini_store, tokenize("reports in an acceptable time")) is None
        # ... but "in" plus a bound number is the real thing
        match = select(kb, mini_store, tokenize("respond in 3 seconds"))
        assert match is not None and match.v_beta == 3.0

    def test_empty_kb_raises(self, mini_store):
        with pytest.raises(EmptyKB):
            select(PatternKB.build([]), mini_store, tokenize("anything"))

    def test_deterministic(self, mini_store, bundled_kb):
        req = tokenize("The system shall support at least 500 transactions per second")
        first = select(bundled_kb, mini_store, req)
        second = select(bundled_kb, mini_store, req)
        assert first == second


class TestApplyNegation:
    def test_negator_outside_lcs_reverses(self, mini_store):
        kb = PatternKB.build([pattern("more than <N>", "GE")])
        req = tokenize("the response time shall be no more than 100 milliseconds")
        match = select(kb, mini_store, req)
        assert match.label == label("SE")
        assert match.v_beta == 100.0

    def test_without_negator_label_unchanged(self, mini_store):
        kb = PatternKB.build([pattern("more than <N>", "GE")])
        match = select(kb, mini_store, tokenize("the throughput shall be more than 200 users"))
        assert match.label == label("GE")

    def test_equal_components_are_fixed_points(self):
        kb = PatternKB.build([pattern("every <N>", "EE")])
        req = tokenize("logs shall never rotate every 5 minutes")
        result = lcs(kb.patterns[0], req)
        assert apply_negation(req, result, kb.patterns[0]) == label("EE")

    def test_negator_inside_lcs_does_not_reverse(self, mini_store):
        kb = PatternKB.build([pattern("no more than <N>", "SE")])
        req = tokenize("latency shall be no more than 5 ms")
        match = select(kb, mini_store, req)
        assert match.label == label("SE")

    def test_matching_negations_cancel(self, mini_store):
        # the pattern already encodes the negated reading; a different
        # negator in the requirement must not flip it back
        kb = PatternKB.build([pattern("never exceed <N>", "SE")])
        match = select(kb, mini_store, tokenize("usage shall not exceed 80 percent"))
        assert match.label == label("SE")

    def test_negative_pattern_on_positive_requirement_flips(self, mini_store):
        kb = PatternKB.build([pattern("never exceed <N>", "SE")])
        match = select(kb, mini_store, tokenize("throughput shall exceed 300 requests"))
        assert match.label == label("GE")

    def test_unmatched_copy_of_a_matched_negator_does_not_flip(self, mini_store):
        # the pattern's second "not" is left out of the LCS, but the word is
        # matched, so the pattern does not count as negated
        kb = PatternKB.build([pattern("not more than not <N>", "GE")])
        match = select(kb, mini_store, tokenize("not more than 5"))
        assert match.lcs.pattern_positions == (0, 1, 2, 4)
        assert match.label == label("GE")

    def test_double_swap_is_identity(self):
        for codes in ("GE", "SE", "ES", "EG", "GG", "SS", "GS", "SG", "EE"):
            lab = label(codes)
            assert lab.swap_preferences().swap_preferences() == lab


NEGATION_WORDS = ("not", "never", "no", "exceed", "more", "than", "respond", "in", "5", "x")
FLIPPED = {
    FragmentKind.SMALLER: FragmentKind.GREATER,
    FragmentKind.GREATER: FragmentKind.SMALLER,
    FragmentKind.EQUAL: FragmentKind.EQUAL,
}


@settings(max_examples=400, deadline=None)
@given(
    st.lists(st.sampled_from(NEGATION_WORDS[:-1] + (PLACEHOLDER,)), min_size=1, max_size=6)
    .filter(lambda tokens: tokens.count(PLACEHOLDER) <= 1),
    st.lists(st.sampled_from(NEGATION_WORDS), min_size=1, max_size=8),
    st.sampled_from(ALL_LABELS),
)
def test_negation_flips_only_smaller_and_greater(p_tokens, r_words, lab):
    """The label comes back as is or with S and G swapped on both sides;
    an E stays an E."""
    p = Pattern(tuple(p_tokens), lab)
    req = tokenize(" ".join(r_words))
    got = apply_negation(req, lcs(p, req), p)
    assert got in (lab, ClassLabel(FLIPPED[lab.left], FLIPPED[lab.right]))
    assert got in (lab, lab.swap_preferences())
    for before, after in ((lab.left, got.left), (lab.right, got.right)):
        assert (before is FragmentKind.EQUAL) == (after is FragmentKind.EQUAL)
    if not NEGATIONS.intersection(r_words + p_tokens):
        assert got == lab  # no negator anywhere: nothing to flip
