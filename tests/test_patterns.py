import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perfquant import ALL_LABELS, ClassLabel, Pattern, extract_pattern, load_patterns
from perfquant.data import path as data_path
from perfquant.errors import EmptyKB, NoExtractableSpan, PatternParseError, UnknownLabelCode
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
