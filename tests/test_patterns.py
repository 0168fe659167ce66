import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfquant import ALL_LABELS, ClassLabel, FragmentKind, Pattern, extract_pattern, load_patterns
from perfquant.data import path as data_path
from perfquant.errors import (
    EmptyKB,
    InvalidArgument,
    NoExtractableSpan,
    PatternParseError,
    UnknownLabelCode,
)
from perfquant.matching import NEGATIONS
from perfquant.patterns import PLACEHOLDER, PatternKB, format_patterns
from perfquant.text import tokenize


def label(codes):
    return ClassLabel.from_codes(codes[0], codes[1])


class TestPatternType:
    def test_placeholder_limit(self):
        with pytest.raises(ValueError):
            Pattern(("<N>", "to", "<N>"), label("ES"))

    def test_rejects_empty_and_uppercase(self):
        with pytest.raises(ValueError):
            Pattern((), label("ES"))
        with pytest.raises(ValueError):
            Pattern(("More", "than"), label("GE"))

    def test_dedup_keeps_first(self):
        a = Pattern(("more", "than", "<N>"), label("GE"))
        b = Pattern(("more", "than", "<N>"), label("GE"))
        c = Pattern(("more", "than", "<N>"), label("SE"))
        kb = PatternKB.build([a, b, c])
        assert len(kb.patterns) == 2
        assert kb.patterns[0] is a

    def test_equality_and_hash_follow_tokens_and_label(self):
        a = Pattern(("more", "than", "<N>"), label("GE"))
        b = Pattern(("more", "than", "<N>"), label("GE"))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != Pattern(("more", "than", "<N>"), label("SE"))
        assert a != Pattern(("less", "than", "<N>"), label("GE"))

    def test_a_pattern_is_only_its_tokens_and_label(self):
        with pytest.raises(TypeError):
            Pattern(("more", "than", "<N>"), label("GE"), "r1")
        req = tokenize("it shall respond within 2 seconds")
        with pytest.raises(TypeError):
            extract_pattern(req, label("ES"), source_id="r1")


# few distinct (tokens, label) pairs, so that most lists repeat some
PATTERNS = st.builds(
    Pattern,
    st.sampled_from([("within", PLACEHOLDER), ("at", "most", PLACEHOLDER), ("fast",)]),
    st.sampled_from(ALL_LABELS[:3]),
)


@given(st.lists(PATTERNS, max_size=12))
def test_build_keeps_the_first_of_each_tokens_and_label(patterns):
    if not patterns:
        with pytest.raises(EmptyKB):
            PatternKB.build(patterns)
        return
    unique = {}
    for p in patterns:
        unique.setdefault((p.tokens, p.label), p)
    kept = PatternKB.build(patterns).patterns
    assert len(kept) == len(unique)
    assert all(a is b for a, b in zip(kept, unique.values()))


class TestLoadSave:
    def test_load_basic_lines(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text(
            "# comment\nmore than <N>\tG\tE\n\nat most <N>\tS\tE\n", encoding="utf-8"
        )
        kb = load_patterns(f)
        assert [p.tokens for p in kb.patterns] == [
            ("more", "than", PLACEHOLDER),
            ("at", "most", PLACEHOLDER),
        ]
        assert kb.patterns[0].label == label("GE")
        assert kb.patterns[1].label == label("SE")

    @pytest.mark.parametrize("token", ["seconds.", "<n>", "<N>,", "(ms)"])
    def test_token_with_punctuation_around_a_word_reports_line(self, tmp_path, token):
        f = tmp_path / "p.tsv"
        f.write_text(f"more than <N>\tG\tE\nrespond within {token}\tE\tS\n", encoding="utf-8")
        with pytest.raises(PatternParseError, match=f":2: token {re.escape(repr(token.lower()))}"):
            load_patterns(f)

    def test_inner_and_bare_punctuation_tokens_load(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("can't exceed <N>\tS\tE\n, within <N>\tE\tS\n", encoding="utf-8")
        assert [p.tokens for p in load_patterns(f).patterns] == [
            ("can't", "exceed", PLACEHOLDER),
            (",", "within", PLACEHOLDER),
        ]

    def test_empty_file_is_empty_kb(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("", encoding="utf-8")
        with pytest.raises(EmptyKB):
            load_patterns(f)

    def test_unknown_label_code_reports_line(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("more than <N>\tG\tE\nat most <N>\tX\tE\n", encoding="utf-8")
        with pytest.raises(UnknownLabelCode, match=":2"):
            load_patterns(f)

    def test_empty_pattern_text_reports_line(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("more than <N>\tG\tE\n\tE\tS\n", encoding="utf-8")
        with pytest.raises(PatternParseError, match=":2: pattern must have at least one token$"):
            load_patterns(f)

    def test_wrong_field_count_reports_line(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("just text without tabs\n", encoding="utf-8")
        with pytest.raises(PatternParseError, match=":1"):
            load_patterns(f)

    def test_byte_order_mark_is_not_read_as_pattern_text(self, tmp_path):
        f = tmp_path / "p.tsv"
        f.write_text("within <N>\tE\tS\n", encoding="utf-8-sig")
        assert [p.tokens for p in load_patterns(f).patterns] == [("within", PLACEHOLDER)]

    def test_save_load_roundtrip_is_byte_stable(self, tmp_path):
        kb = load_patterns(data_path("patterns.tsv"))
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        first.write_text(format_patterns(kb), encoding="utf-8")
        second.write_text(format_patterns(load_patterns(first)), encoding="utf-8")
        assert first.read_bytes() == second.read_bytes()

    def test_bundled_patterns_parse_with_valid_labels(self, bundled_kb):
        assert len(bundled_kb.patterns) > 0
        for p in bundled_kb.patterns:
            assert p.label.codes[0] in "GSE" and p.label.codes[1] in "GSE"
            assert sum(1 for t in p.tokens if t == PLACEHOLDER) <= 1

    def test_bundled_negations_non_empty(self):
        assert NEGATIONS
        assert "no" in NEGATIONS and "not" in NEGATIONS


class TestExtractPattern:
    def test_complement_window_before_number(self):
        req = tokenize("system shall let customers register on the website in under 5 minutes")
        p = extract_pattern(req, label("ES"))
        assert p.tokens == ("in", "under", PLACEHOLDER)

    def test_worked_throughput_pair(self):
        req = tokenize("the throughput should support more than 100 requests")
        p = extract_pattern(req, label("GE"))
        assert p.tokens == ("more", "than", PLACEHOLDER)
        assert p.label == label("GE")

    def test_no_number_uses_verb_anchor(self):
        req = tokenize("The system shall be fast")
        p = extract_pattern(req, label("SS"))
        assert p.tokens == ("be", "fast")

    def test_negator_stays_inside_pattern(self):
        req = tokenize("the response time shall be no more than 100 milliseconds")
        p = extract_pattern(req, label("SE"))
        assert p.tokens == ("be", "no", "more", "than", PLACEHOLDER)
        assert "no" in p.tokens

    def test_unreachable_number_falls_back_to_anchor_span(self):
        # "process" is not a complement word, so the number is unreachable and
        # the verb-anchor branch takes over, dropping the numeric literal
        req = tokenize("The workers shall process 500 parcels quickly")
        p = extract_pattern(req, label("GE"))
        assert p.tokens == ("shall", "process", "parcels", "quickly")
        assert PLACEHOLDER not in p.tokens

    def test_no_anchor_raises(self):
        req = tokenize("fast and cheap")
        with pytest.raises(NoExtractableSpan):
            extract_pattern(req, label("SS"))

    def test_nothing_after_the_anchor_raises(self):
        with pytest.raises(NoExtractableSpan, match="no span after anchor"):
            extract_pattern(tokenize("it shall be"), label("ES"))

    def test_placeholder_iff_reachable_number(self):
        reachable = extract_pattern(tokenize("respond shall be in 3 seconds"), label("ES"))
        assert PLACEHOLDER in reachable.tokens
        unreachable = extract_pattern(
            tokenize("The system shall stay responsive"), label("SS")
        )
        assert PLACEHOLDER not in unreachable.tokens


# the checks as they read before `Pattern` tested `t.split() != [t]` and
# `FragmentKind.from_code` looked its code up in a table: the reference the
# faster checks must agree with on every input


def reference_pattern_error(tokens):
    """The message the earlier `Pattern` check raised for `tokens`, or None."""
    if not tokens:
        return "pattern must have at least one token"
    if sum(1 for t in tokens if t == PLACEHOLDER) > 1:
        return f"pattern has multiple {PLACEHOLDER} placeholders"
    try:
        for t in tokens:
            if t == PLACEHOLDER:
                continue
            if not t or t != t.lower() or any(ch.isspace() for ch in t):
                return f"bad pattern token {t!r}"
    except AttributeError:  # a token that is not a string
        return f"bad pattern token {t!r}"
    return None


def reference_fragment_kind(code):
    """The kind the earlier `FragmentKind.from_code` returned, or None where it raised."""
    try:
        return FragmentKind(code.strip().upper())
    except (AttributeError, ValueError):
        return None


WHITESPACE = "".join(ch for ch in map(chr, range(sys.maxunicode + 1)) if ch.isspace())
# every whitespace character, the ones whose case changes, and any other
CHARS = st.one_of(st.sampled_from(WHITESPACE), st.sampled_from("aAbBnN<>İΣσß"), st.characters())
TOKENS = st.one_of(
    st.text(CHARS, max_size=6),
    st.just(PLACEHOLDER),
    st.integers(),
    st.binary(max_size=3),
    st.none(),
)


class TestChecksAgreeWithReference:
    def test_split_finds_whitespace_as_isspace_does(self):
        for ch in map(chr, range(sys.maxunicode + 1)):
            token = f"a{ch}b"
            assert (token.split() != [token]) == ch.isspace(), hex(ord(ch))

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(TOKENS, max_size=4).map(tuple))
    def test_pattern_accepts_and_rejects_as_the_reference(self, tokens):
        want = reference_pattern_error(tokens)
        if want is None:
            assert Pattern(tokens, label("ES")).tokens == tokens
        else:
            with pytest.raises(InvalidArgument) as caught:
                Pattern(tokens, label("ES"))
            assert str(caught.value) == want

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.text(st.one_of(st.sampled_from(WHITESPACE + "gseGSEx"), st.characters()),
                             max_size=4),
                     st.integers(), st.binary(max_size=2), st.none()))
    def test_from_code_accepts_and_rejects_as_the_reference(self, code):
        want = reference_fragment_kind(code)
        if want is None:
            with pytest.raises(InvalidArgument, match="fragment code must be G, S or E"):
                FragmentKind.from_code(code)
        else:
            assert FragmentKind.from_code(code) is want
