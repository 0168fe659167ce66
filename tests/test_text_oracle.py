"""`perfquant.text` against the tokenizer it replaced, and its regex-free
word path."""

import re
import string
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perfquant.text as text
from perfquant.data import HOLDOUT_FILE, MINI_CORPUS_FILE, path as data_path
from perfquant.errors import EmptyInput
from perfquant.evaluation import load_dataset

# --- the former tokenizer and split, verbatim but for the split's
# --- doubled-word rule: a frozen-dataclass Token, list views, and every
# --- chunk through the number regex

NUMBER_RE = re.compile(r"^(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?(?:[eE][+-]?\d+)?$")

_UNIT_SUFFIXED_RE = re.compile(r"(\d[\d,.]*(?:[eE][+-]?\d+)?)([^\W\d_]+)")
_ORDINAL_SUFFIXES = frozenset({"st", "nd", "rd", "th"})

DEFAULT_CONNECTIVES = ("and", "or", "while", ";", ",")
DEFAULT_PREFIX_VERBS = ("shall", "should", "must", "will", "can")


@dataclass(frozen=True)
class Token:
    surface: str
    normalized: str
    is_number: bool
    numeric_value: float | None


@dataclass(frozen=True)
class TokenizedRequirement:
    raw: str
    tokens: tuple[Token, ...]

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def normalized(self) -> list[str]:
        return [t.normalized for t in self.tokens]

    @property
    def numeric_positions(self) -> list[int]:
        return [i for i, t in enumerate(self.tokens) if t.is_number]


def _parse_number(chunk: str, stripped: str) -> float | None:
    if not NUMBER_RE.match(stripped):
        return None
    value = float(stripped.replace(",", ""))
    lead = chunk[: len(chunk) - len(chunk.lstrip(string.punctuation))]
    return -value if lead.endswith("-") else value


def _token(surface: str, word: str) -> Token:
    value = _parse_number(surface, word) if word else None
    return Token(
        surface=surface,
        normalized=word.lower() if word else surface.lower(),
        is_number=value is not None,
        numeric_value=value,
    )


def tokenize(text: str) -> TokenizedRequirement:
    if not text.strip():
        raise EmptyInput("requirement text is empty")
    tokens: list[Token] = []
    for chunk in text.split():
        stripped = chunk.strip(string.punctuation)
        unit = stripped[:1].isdigit() and _UNIT_SUFFIXED_RE.fullmatch(stripped)
        if unit and NUMBER_RE.match(unit[1]) and unit[2].lower() not in _ORDINAL_SUFFIXES:
            cut = chunk.index(stripped) + len(unit[1])
            tokens.append(_token(chunk[:cut], unit[1]))
            chunk, stripped = chunk[cut:], unit[2]
        tokens.append(_token(chunk, stripped))
    return TokenizedRequirement(raw=text, tokens=tuple(tokens))


def _subject_prefix(tokens: tuple[Token, ...], limit: int, clause: Token) -> list[Token]:
    end = 3
    for i, tok in enumerate(tokens[:limit]):
        if tok.normalized in DEFAULT_PREFIX_VERBS:
            end = i + 2
            break
    prefix = []
    for tok in tokens[:end]:
        if tok.is_number:
            break
        prefix.append(tok)
    # the clause's first word is not copied onto it a second time
    if prefix and prefix[-1].normalized == clause.normalized:
        prefix.pop()
    return prefix


def _part(tokens: tuple[Token, ...]) -> TokenizedRequirement:
    return TokenizedRequirement(" ".join(t.surface for t in tokens), tokens)


def split_expectations(req: TokenizedRequirement) -> list[TokenizedRequirement]:
    nums = req.numeric_positions
    if len(nums) < 2:
        return [req]

    for a, b in zip(nums, nums[1:]):
        for c in range(a + 1, b):
            tok = req.tokens[c]
            standalone = tok.normalized in DEFAULT_CONNECTIVES
            attached = not standalone and tok.surface[-1] in ",;"
            if not (standalone or attached):
                continue
            first_end = c if standalone else c + 1
            prefix = _subject_prefix(req.tokens, first_end, req.tokens[c + 1])
            return [_part(req.tokens[:first_end]), _part((*prefix, *req.tokens[c + 1 :]))]

    return [req]


# --- the comparison


def _fields(req):
    # repr tells -0.0 from 0.0 and names inf and nan
    return req.raw, [(t.surface, t.normalized, repr(t.numeric_value)) for t in req.tokens]


def _assert_views(req):
    assert type(req.normalized) is tuple and type(req.numeric_positions) is tuple
    assert req.normalized == tuple(t.normalized for t in req.tokens)
    assert req.numeric_positions == tuple(
        i for i, t in enumerate(req.tokens) if t.numeric_value is not None
    )


def _assert_matches_oracle(raw):
    if not raw.strip():
        for fn in (tokenize, text.tokenize):
            with pytest.raises(EmptyInput):
                fn(raw)
        return
    old, new = tokenize(raw), text.tokenize(raw)
    assert _fields(new) == _fields(old)
    _assert_views(new)
    old_parts, new_parts = split_expectations(old), text.split_expectations(new)
    assert [_fields(p) for p in new_parts] == [_fields(p) for p in old_parts]
    for part in new_parts:
        _assert_views(part)


# digits outside ASCII: '٣' (Arabic-Indic three) and '１' (fullwidth one)
# are decimal digits to both `\d` and `str.isdigit`; '²' is a digit to
# `str.isdigit` only
ALPHABET = string.ascii_letters + string.digits + string.punctuation + "٣²１"
PIECES = (
    "+", "-", "ms", "s", "sec", "st", "nd", "rd", "th", "e3", "E-2", "e+10", "e309",
    "e-400", "1,000", ".5", "-0", "0.0", "٣", "²", "１", "(", ")", ",", ";",
)
CHUNKS = st.lists(
    st.one_of(st.sampled_from(PIECES), st.text(ALPHABET, min_size=1, max_size=4)),
    min_size=1,
    max_size=4,
).map("".join)
# "\u00a0", a no-break space, is whitespace to str.split
SPACES = st.sampled_from([" ", "  ", "\t", "\n", "\u00a0"])
TEXTS = st.lists(st.tuples(CHUNKS, SPACES), max_size=16).map(
    lambda pairs: "".join(chunk + space for chunk, space in pairs)
)


@settings(max_examples=600, deadline=None)
@given(TEXTS)
def test_tokenize_and_split_equal_the_former_tokenizer(raw):
    _assert_matches_oracle(raw)


@pytest.mark.parametrize(
    "raw",
    [
        "respond in -0 s and -0.0 s",
        "٣ users and ²5 users, １0ms",
        "1e309 users or 1e-400 users; -1e309 users",
        "the 1st run, 22ND run and 15.ms, 1e3.5 and a15ms",
        "   ",
    ],
)
def test_edge_texts_equal_the_former_tokenizer(raw):
    _assert_matches_oracle(raw)


@pytest.mark.parametrize("name", [MINI_CORPUS_FILE, HOLDOUT_FILE])
def test_bundled_corpora_equal_the_former_tokenizer(name):
    for row in load_dataset(data_path(name)):
        _assert_matches_oracle(row.text)


def test_token_is_a_three_field_tuple_repr_and_hash():
    new = text.tokenize("within -2.5 s").tokens[1]
    old = tokenize("within -2.5 s").tokens[1]
    assert text.Token._fields == ("surface", "normalized", "numeric_value")
    assert new == (old.surface, old.normalized, old.numeric_value) == ("-2.5", "2.5", -2.5)
    assert new[2] == -2.5
    assert repr(new) == "Token(surface='-2.5', normalized='2.5', numeric_value=-2.5)"
    assert hash(new) == hash(("-2.5", "2.5", -2.5))
    with pytest.raises(AttributeError):
        new.surface = "x"


# --- the word path makes no regex call


class _Counting:
    """A compiled pattern that counts its calls."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, 0

    def match(self, s):
        self.calls += 1
        return self.pattern.match(s)

    def fullmatch(self, s):
        self.calls += 1
        return self.pattern.fullmatch(s)


@pytest.fixture
def regex_calls(monkeypatch):
    number = _Counting(text.NUMBER_RE)
    unit = _Counting(text._UNIT_SUFFIXED_RE)
    monkeypatch.setattr(text, "NUMBER_RE", number)
    monkeypatch.setattr(text, "_UNIT_SUFFIXED_RE", unit)
    return lambda: (number.calls, unit.calls)


def test_digit_free_requirement_makes_no_regex_call(regex_calls):
    words = (
        "The (search) service shall, under peak load; return its first page of results"
        " to every signed-in user within a few seconds, and it should never drop a"
        " request: not even during the nightly full re-index of the whole product catalogue!"
    ).split()
    assert len(words) == 40
    req = text.tokenize(" ".join(words))
    assert len(req.tokens) == 40 and not req.numeric_positions
    assert regex_calls() == (0, 0)


@pytest.mark.parametrize(
    "chunk, calls",
    [
        # a number: one NUMBER_RE match
        ("5", (1, 0)),
        ("-1,000.5", (1, 0)),
        ("1e3", (1, 0)),
        ("٣", (1, 0)),
        # a number run together with letters: the whole chunk, the unit
        # split, then the numeric head
        ("15ms", (2, 1)),
        ("1st", (2, 1)),
        ("15.ms", (2, 1)),
        # no numeric head at all
        ("5a5", (1, 1)),
        ("²", (1, 1)),
    ],
)
def test_each_numeric_chunk_makes_its_regex_calls(regex_calls, chunk, calls):
    text.tokenize(f"respond within {chunk} always")
    assert regex_calls() == calls
