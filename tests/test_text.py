import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perfquant.pipeline
import perfquant.text
from perfquant import classify
from perfquant.data import HOLDOUT_FILE, MINI_CORPUS_FILE, path as data_path
from perfquant.errors import EmptyInput
from perfquant.evaluation import load_dataset
from perfquant.text import (
    DEFAULT_CONNECTIVES,
    DEFAULT_PREFIX_VERBS,
    split_expectations,
    tokenize,
)

# words that exercise the split: numbers (signed, grouped, unit-suffixed),
# standalone and attached connectives, and the modal verbs of the prefix
SPLIT_WORDS = (
    "the", "system", "shall", "must", "respond", "in", "under", "ideally", "seconds",
    "seconds,", "users;", "5", "-2.5", "1,000", "15ms", "1e3", "(3)", "and", "or",
    "while", ";", ",", "2nd",
)
CHUNKS = st.one_of(
    st.sampled_from(SPLIT_WORDS),
    st.text(string.ascii_letters + string.digits + string.punctuation, min_size=1, max_size=6),
)


class TestTokenize:
    def test_sentence_with_number(self):
        req = tokenize("The search shall take no longer than 15 seconds.")
        assert len(req.tokens) == 9
        fifteen = req.tokens[7]
        assert fifteen.numeric_value == 15
        assert req.tokens[-1].normalized == "seconds"

    def test_single_word(self):
        req = tokenize("fast")
        assert len(req.tokens) == 1
        assert req.tokens[0].numeric_value is None

    def test_thousands_separator(self):
        req = tokenize("supporting 1,000 users")
        assert req.tokens[1].numeric_value == 1000.0

    def test_decimal(self):
        assert tokenize("uptime of 99.9 percent").tokens[2].numeric_value == 99.9

    @pytest.mark.parametrize(
        "chunk, value",
        [("-5", -5.0), ("+5", 5.0), ("(-2.5)", -2.5), ("-1,000", -1000.0), ("5-", 5.0)],
    )
    def test_sign_before_digits_sets_value_only(self, chunk, value):
        token = tokenize(f"stay above {chunk} degrees").tokens[2]
        assert token.numeric_value == value
        assert token.numeric_value is not None
        assert token.normalized == chunk.strip("()+-")

    @pytest.mark.parametrize(
        "chunk, value, unit",
        [("15ms", 15.0, "ms"), ("2S", 2.0, "s"), ("(-2.5sec),", -2.5, "sec"),
         ("1,000rps", 1000.0, "rps"), ("1e3ms", 1000.0, "ms")],
    )
    def test_unit_suffixed_number_becomes_two_tokens(self, chunk, value, unit):
        req = tokenize(f"under {chunk} always")
        number, suffix = req.tokens[1:3]
        assert number.numeric_value == value
        assert (suffix.normalized, suffix.numeric_value) == (unit, None)
        assert number.surface + suffix.surface == chunk
        assert tokenize(" ".join(t.surface for t in req.tokens)).tokens == req.tokens

    @pytest.mark.parametrize(
        "chunk, value",
        [("1e3", 1000.0), ("2.5E-3", 0.0025), ("1,000e+2", 100000.0), ("-1e3", -1000.0)],
    )
    def test_exponent_notation_is_a_number(self, chunk, value):
        token = tokenize(f"respond within {chunk} ms").tokens[2]
        assert token.numeric_value == value
        assert token.normalized == chunk.lstrip("-").lower()

    @pytest.mark.parametrize("chunk", ["1st", "22nd", "3RD", "4th", "1e3.5", "15.ms", "a15ms"])
    def test_ordinals_and_other_forms_stay_one_non_number(self, chunk):
        req = tokenize(f"the {chunk} run")
        assert len(req.tokens) == 3
        assert req.tokens[1].numeric_value is None

    def test_punctuation_stripped(self):
        req = tokenize("(Response) time, shall be 2s!")
        assert req.tokens[0].normalized == "response"
        assert req.tokens[1].normalized == "time"

    def test_all_punctuation_token_keeps_surface(self):
        req = tokenize("in 5 seconds ; ideally 2")
        assert req.tokens[3].normalized == ";"

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            tokenize("   ")


class TestSplitExpectations:
    def test_two_expectations_share_subject_prefix(self):
        req = tokenize("The system shall react in 5 seconds and ideally less than 2 seconds.")
        parts = split_expectations(req)
        assert [p.raw for p in parts] == [
            "The system shall react in 5 seconds",
            "The system shall react ideally less than 2 seconds.",
        ]

    def test_no_number_is_singleton(self):
        req = tokenize("The system shall be fast.")
        assert split_expectations(req) == [req]

    def test_one_number_is_singleton(self):
        req = tokenize("The system shall respond in 5 seconds.")
        assert split_expectations(req) == [req]

    def test_split_without_modal_copies_capped_prefix(self):
        req = tokenize("supports 100 users and 2 GB storage")
        parts = split_expectations(req)
        assert [p.raw for p in parts] == ["supports 100 users", "supports 2 GB storage"]
        assert all(len(p.numeric_positions) == 1 for p in parts)

    @pytest.mark.parametrize(
        "raw, second",
        [
            (
                "The system must be fast for 3 users and be reliable for 5 users",
                "The system must be reliable for 5 users",
            ),
            ("The job shall run in 5 s, run in 2 s", "The job shall run in 2 s"),
            # the prefix's last word, whether or not it follows a modal
            (
                "The service supports 100 users and supports 2 GB storage",
                "The service supports 2 GB storage",
            ),
            ("The job shall 5 s and shall 2 s", "The job shall 2 s"),
        ],
    )
    def test_clause_with_its_own_verb_gets_no_copy_of_it(self, raw, second):
        assert split_expectations(tokenize(raw))[1].raw == second

    def test_attached_comma_acts_as_connective(self):
        req = tokenize("The job shall finish in 10 minutes, ideally in 5 minutes")
        parts = split_expectations(req)
        assert len(parts) == 2
        assert parts[0].raw == "The job shall finish in 10 minutes,"
        assert parts[1].raw == "The job shall finish ideally in 5 minutes"

    def test_parts_cover_all_non_connective_tokens(self):
        req = tokenize("The system shall react in 5 seconds and ideally less than 2 seconds.")
        parts = split_expectations(req)
        kept = []
        for p in parts:
            kept.extend(p.normalized)
        for tok in req.tokens:
            if tok.normalized == "and":
                continue
            assert tok.normalized in kept


@settings(max_examples=400, deadline=None)
@given(st.lists(CHUNKS, min_size=1, max_size=14))
def test_split_keeps_every_token_but_the_connective_in_order(chunks):
    """Part one is a head of the requirement; part two is a copied subject
    prefix (no number in it) followed by the rest, less one standalone
    connective where the split fell on one."""
    req = tokenize(" ".join(chunks))
    parts = split_expectations(req)
    if len(parts) == 1:
        assert parts == [req]
        return
    surfaces = [t.surface for t in req.tokens]
    first, second = ([t.surface for t in part.tokens] for part in parts)
    assert len(parts) == 2 and surfaces[: len(first)] == first
    tail = surfaces[len(first):]
    copied = len(second) - len(tail)
    if copied < 0 or second[copied:] != tail:
        assert req.tokens[len(first)].normalized in DEFAULT_CONNECTIVES
        copied += 1
        assert second[copied:] == tail[1:]
    assert second[:copied] == surfaces[:copied]
    assert not any(t.numeric_value is not None for t in req.tokens[:copied])


def _retokenizing_split(req):
    """Reference split that builds each part as text and tokenizes it again:
    the part's surfaces joined by single spaces."""
    tokens = req.tokens
    nums = [i for i, t in enumerate(tokens) if t.numeric_value is not None]
    for a, b in zip(nums, nums[1:]):
        for c in range(a + 1, b):
            standalone = tokens[c].normalized in DEFAULT_CONNECTIVES
            if not standalone and tokens[c].surface[-1] not in ",;":
                continue
            first_end = c if standalone else c + 1
            end = 3
            for i, t in enumerate(tokens[:first_end]):
                if t.normalized in DEFAULT_PREFIX_VERBS:
                    end = i + 2
                    break
            prefix = []
            for t in tokens[: min(end, first_end)]:
                if t.numeric_value is not None:
                    break
                prefix.append(t)
            # the last word stays out when the clause brings it
            if prefix and prefix[-1].normalized == tokens[c + 1].normalized:
                prefix.pop()
            prefix = [t.surface for t in prefix]
            part1 = [t.surface for t in tokens[:first_end]]
            part2 = prefix + [t.surface for t in tokens[c + 1 :]]
            return [tokenize(" ".join(part1)), tokenize(" ".join(part2))]
    return [req]


def _fields(parts):
    return [
        (p.raw, [(t.surface, t.normalized, t.numeric_value) for t in p.tokens])
        for p in parts
    ]


@settings(max_examples=400, deadline=None)
@given(st.lists(CHUNKS, min_size=1, max_size=14))
def test_split_parts_equal_the_retokenized_parts(chunks):
    req = tokenize(" ".join(chunks))
    assert _fields(split_expectations(req)) == _fields(_retokenizing_split(req))


@pytest.mark.parametrize("name", [MINI_CORPUS_FILE, HOLDOUT_FILE])
def test_split_parts_equal_the_retokenized_parts_on_bundled_corpora(name):
    for row in load_dataset(data_path(name)):
        assert _fields(split_expectations(row.tokens)) == _fields(_retokenizing_split(row.tokens))


def test_classify_tokenizes_a_two_point_requirement_once(monkeypatch, bundled_kb, mini_store):
    calls = []

    def counting(text):
        calls.append(text)
        return tokenize(text)

    monkeypatch.setattr(perfquant.text, "tokenize", counting)
    monkeypatch.setattr(perfquant.pipeline, "tokenize", counting)
    text = "The system shall react in 5 seconds and ideally less than 2 seconds."
    assert len(classify(text, bundled_kb, mini_store)) == 2
    assert calls == [text]
