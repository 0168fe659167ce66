"""Tokenization and splitting of requirements with two expectation points."""

from __future__ import annotations

import re
import string
from dataclasses import dataclass

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


@dataclass(frozen=True)
class Token:
    surface: str
    normalized: str
    is_number: bool
    numeric_value: float | None


@dataclass(frozen=True)
class TokenizedRequirement:
    """A requirement's text and its tokens; a token's position is its
    index in `tokens`."""

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
    """The number `stripped` spells, negated when a '-' directly precedes it
    in `chunk`."""
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
    """
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


def _subject_prefix(tokens: tuple[Token, ...], limit: int) -> list[Token]:
    """Shared subject prefix copied onto the second split part.

    Extends through the first modal verb plus the token after it (the
    governed main verb), or the first three tokens when no modal is found;
    always cut before any numeric token so no expectation leaks across.
    """
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
    return prefix


def _part(tokens: tuple[Token, ...]) -> TokenizedRequirement:
    return TokenizedRequirement(" ".join(t.surface for t in tokens), tokens)


def split_expectations(req: TokenizedRequirement) -> list[TokenizedRequirement]:
    """Split a requirement holding two expectation points into one each.

    Looks for a coordinating connective strictly between two numeric
    tokens (either a standalone connective token, or trailing ','/';'
    punctuation on a word) and splits there, copying the subject prefix of
    the first clause onto the second.  Each part holds the requirement's
    own tokens, and its `raw` is their surfaces joined by single spaces.
    Requirements with fewer than two numeric tokens come back unchanged as
    a singleton list.
    """
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
            prefix = _subject_prefix(req.tokens, first_end)
            return [_part(req.tokens[:first_end]), _part((*prefix, *req.tokens[c + 1 :]))]

    return [req]
