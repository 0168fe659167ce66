"""Tokenization and splitting of requirements with two expectation points."""

from __future__ import annotations

import re
import string
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

from .errors import EmptyInput

NUMBER_RE = re.compile(r"^(?:\d{1,3}(?:,\d{3})+|\d+)(?:\.\d+)?(?:[eE][+-]?\d+)?$")

# a number run together with a unit ("15ms", "2s", "1e3ms"): a numeric head
# and a tail of letters; ordinal suffixes ("1st", "4th") are not units
_UNIT_SUFFIXED_RE = re.compile(r"(\d[\d,.]*(?:[eE][+-]?\d+)?)([^\W\d_]+)")
_ORDINAL_SUFFIXES = frozenset({"st", "nd", "rd", "th"})

# connectives that may join two expectation clauses, and the modal verbs
# that delimit the shared subject prefix
DEFAULT_CONNECTIVES = ("and", "or", "while", ";", ",")
DEFAULT_PREFIX_VERBS = ("shall", "should", "must", "will", "can")


class Token(NamedTuple):
    surface: str
    normalized: str
    # a number's value; None for every other token
    numeric_value: float | None


# Token(*fields) without NamedTuple's Python-level __new__, at about half
# the cost: tokenize builds one per word
_make_token = partial(tuple.__new__, Token)


@dataclass(frozen=True)
class TokenizedRequirement:
    """A requirement's text and its tokens; a token's position is its
    index in `tokens`.

    Two tuple views are computed once, on construction: `normalized`, each
    token's normalized form, and `numeric_positions`, the positions of the
    numeric tokens.
    """

    raw: str
    tokens: tuple[Token, ...]
    normalized: tuple[str, ...] = field(init=False, repr=False, compare=False)
    numeric_positions: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tokens = self.tokens
        object.__setattr__(self, "normalized", tuple([t.normalized for t in tokens]))
        numeric = [i for i, t in enumerate(tokens) if t.numeric_value is not None]
        object.__setattr__(self, "numeric_positions", tuple(numeric))


def _number(surface: str, digits: str) -> Token:
    """The number token of `digits`, which `NUMBER_RE` matches, negated when
    a '-' directly precedes the digits in `surface`."""
    value = float(digits.replace(",", ""))
    lead = surface[: len(surface) - len(surface.lstrip(string.punctuation))]
    return _make_token((surface, digits.lower(), -value if lead.endswith("-") else value))


def tokenize(text: str) -> TokenizedRequirement:
    """Split on whitespace, strip surrounding punctuation, recognize numbers.

    Thousands separators, decimals and an exponent are parsed ("1,000" ->
    1000.0, "1e3" -> 1000.0), and a sign directly before the digits sets
    the value's sign ("-5" -> -5.0) while the normalized form stays
    unsigned ("5").  A number directly
    followed by letters becomes two tokens, the number and the lowercased
    letters ("15ms" -> "15", "ms"), unless the letters are an ordinal
    suffix.  A token consisting only of punctuation (a lone ";" or ",")
    keeps its surface as the normalized form so connectives stay
    matchable.

    Only a chunk whose stripped form starts with a digit (`str.isdigit`,
    which accepts every character the pattern's `\\d` does) is tested
    against `NUMBER_RE`; any other chunk is a word.

    A numeral beyond the float range parses to an infinity ("1e309", a
    400-digit integer -> inf, "-1e309" -> -inf), and one too small for it
    underflows to 0.0 ("1e-400").
    """
    if not text.strip():
        raise EmptyInput("requirement text is empty")
    tokens: list[Token] = []
    for chunk in text.split():
        stripped = chunk.strip(string.punctuation)
        if stripped[:1].isdigit():
            if NUMBER_RE.match(stripped):
                tokens.append(_number(chunk, stripped))
                continue
            unit = _UNIT_SUFFIXED_RE.fullmatch(stripped)
            if unit and NUMBER_RE.match(unit[1]) and unit[2].lower() not in _ORDINAL_SUFFIXES:
                # the number, then its unit, which holds no digit, as a word
                cut = chunk.index(stripped) + len(unit[1])
                tokens.append(_number(chunk[:cut], unit[1]))
                chunk, stripped = chunk[cut:], unit[2]
        tokens.append(_make_token((chunk, (stripped or chunk).lower(), None)))
    return TokenizedRequirement(text, tuple(tokens))


def _subject_prefix(req: TokenizedRequirement, start: int) -> tuple[Token, ...]:
    """Shared subject prefix copied onto the second clause, which begins at `start`.

    Extends through the first modal verb before `start` plus the token after
    it (the governed main verb), else over the first three tokens; always
    cut before the first number, which `req` must hold, so no expectation
    leaks.  The prefix's last word is left out when the clause begins with
    it ("must be fast for 3 users and be reliable" copies "must", not "must
    be"; "supports 100 users and supports 2 GB" copies no "supports").
    """
    words = req.normalized
    modal = next((i for i, word in enumerate(words[:start]) if word in DEFAULT_PREFIX_VERBS), None)
    end = min(3 if modal is None else modal + 2, req.numeric_positions[0])
    if end and words[end - 1] == words[start]:
        end -= 1
    return req.tokens[:end]


def _part(tokens: tuple[Token, ...]) -> TokenizedRequirement:
    return TokenizedRequirement(" ".join([t.surface for t in tokens]), tokens)


def split_expectations(req: TokenizedRequirement) -> list[TokenizedRequirement]:
    """Split a requirement holding two expectation points into one each.

    Looks for a coordinating connective strictly between two numeric
    tokens (a standalone connective token, or a one-character one, ','
    or ';', ending a word) and splits there, copying the subject prefix of
    the first clause onto the second.  Each part holds the requirement's
    own tokens, and its `raw` is their surfaces joined by single spaces.
    Requirements with fewer than two numeric tokens come back unchanged as
    a singleton list.
    """
    nums = req.numeric_positions
    for a, b in zip(nums, nums[1:]):
        for c in range(a + 1, b):
            standalone = req.normalized[c] in DEFAULT_CONNECTIVES
            attached = not standalone and req.tokens[c].surface[-1] in DEFAULT_CONNECTIVES
            if not (standalone or attached):
                continue
            first_end = c if standalone else c + 1
            prefix = _subject_prefix(req, c + 1)
            return [_part(req.tokens[:first_end]), _part((*prefix, *req.tokens[c + 1 :]))]

    return [req]
