"""Pattern knowledge base: pattern-label pairs, lexicons, extraction heuristic."""

from __future__ import annotations

import os
import string
from dataclasses import dataclass
from functools import cached_property

from .errors import (
    EmptyKB,
    InvalidArgument,
    NoExtractableSpan,
    PatternParseError,
    UnknownLabelCode,
    reads_utf8,
)
from .satisfaction import ClassLabel
from .text import TokenizedRequirement

PLACEHOLDER = "<N>"

# seed lexicon of complement words that introduce an expectation point;
# negators are included so strict forms like "no more than" extract as
# whole patterns with the negation inside
DEFAULT_COMPLEMENTS = frozenset({
    "in", "under", "at", "least", "most", "more", "less", "than", "within",
    "every", "no", "up", "to", "be", "capable", "of", "supporting",
    "not", "never", "exceed", "exceeds", "exceeding", "beyond", "above",
    "below", "over", "once", "exactly", "away", "from", "hard", "limit",
    "maximum", "minimum", "handling", "handle",
})

# modal/verb anchors for requirements without a numeric expectation
EXTRACT_VERBS = frozenset({"shall", "should", "must", "be"})

STOPWORDS = frozenset(
    """a an the of to in on at for by with and or is are was were it its this
    that these those as from per any each via be been being will would there
    their his her they them he she we you i do does did done has have had
    who whose which when where while what's what so such if then than""".split()
)


@dataclass(frozen=True)
class Pattern:
    """Normalized token sequence, at most one expectation placeholder, a label."""

    tokens: tuple[str, ...]
    label: ClassLabel

    def __post_init__(self) -> None:
        tokens = self.tokens
        if not isinstance(tokens, tuple):
            raise InvalidArgument(f"pattern tokens must be a tuple, got {tokens!r}")
        if not tokens:
            raise InvalidArgument("pattern must have at least one token")
        if tokens.count(PLACEHOLDER) > 1:
            raise InvalidArgument(f"pattern has multiple {PLACEHOLDER} placeholders")
        for t in tokens:
            # `t.split() == [t]`: t is not empty and holds no character that
            # `str.isspace` accepts, as `str.split` splits on exactly those
            if t != PLACEHOLDER and (not isinstance(t, str) or t != t.lower() or t.split() != [t]):
                raise InvalidArgument(f"bad pattern token {t!r}")

    @property
    def text(self) -> str:
        return " ".join(self.tokens)

    @cached_property
    def bitmasks(self) -> dict[str, int]:
        """Token -> mask with bit i set where position i holds that token."""
        table: dict[str, int] = {}
        for i, token in enumerate(self.tokens):
            table[token] = table.get(token, 0) | 1 << i
        return table

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class PatternKB:
    """Immutable pattern list; a base holds at least one pattern."""

    patterns: tuple[Pattern, ...]

    def __post_init__(self) -> None:
        if not self.patterns:
            raise EmptyKB("pattern knowledge base is empty")

    @classmethod
    def build(cls, patterns) -> "PatternKB":
        """Deduplicate on (tokens, label), keeping the first occurrence."""
        unique: dict = {}
        for p in patterns:
            unique.setdefault((p.tokens, p.label), p)
        return cls(tuple(unique.values()))

    @cached_property
    def postings(self) -> dict[str, tuple[int, ...]]:
        """Word token -> the indices of the patterns holding it, ascending,
        one entry per position: a pattern repeating a word is listed twice.

        The placeholder is left out: it is the only token a pattern may
        match without sharing a word with the requirement.
        """
        index: dict[str, list[int]] = {}
        for i, pattern in enumerate(self.patterns):
            for token in pattern.tokens:
                if token != PLACEHOLDER:
                    index.setdefault(token, []).append(i)
        return {token: tuple(indices) for token, indices in index.items()}

    @cached_property
    def word_trie(self) -> tuple[list[int], dict]:
        """A prefix tree over the patterns' token sets (PRETTI: Jampani &
        Pudi, "Using prefix-trees for efficiently computing set joins",
        DASFAA 2005).  A node is (the ascending indices of the patterns
        listed there, token -> child node).

        A pattern's path is its distinct tokens: the placeholder first, then
        the words by ascending `len(postings[t])`, ties to the lower token;
        the pattern is listed at the node where its path ends.  A pattern of
        the placeholder alone has no word and is left out.
        """
        postings = self.postings
        rank = dict(zip(postings, zip(map(len, postings.values()), postings)))
        rank[PLACEHOLDER] = (-1, PLACEHOLDER)
        root: tuple[list[int], dict] = ([], {})
        for i, pattern in enumerate(self.patterns):
            # `set`, not `Pattern.bitmasks`: that would build every pattern's masks up front
            path = sorted(set(pattern.tokens), key=rank.__getitem__)
            if path == [PLACEHOLDER]:
                continue
            node = root
            for token in path:
                child = node[1].get(token)
                if child is None:
                    child = node[1][token] = ([], {})
                node = child
            node[0].append(i)
        return root

    @cached_property
    def longest(self) -> int:
        return max(len(p.tokens) for p in self.patterns)


def _parse_pattern_line(line: str, where: str) -> Pattern:
    fields = line.split("\t")
    if len(fields) != 3:
        raise PatternParseError(
            f"{where}: expected 'pattern<TAB>L<TAB>R', got {len(fields)} field(s)"
        )
    text, left, right = (f.strip() for f in fields)
    try:
        label = ClassLabel.from_codes(left, right)
    except ValueError as exc:
        raise UnknownLabelCode(
            f"{where}: label codes must be G, S or E, got {left!r}/{right!r}"
        ) from exc
    tokens = tuple(t if t == PLACEHOLDER else t.lower() for t in text.split())
    for t in tokens:
        # tokenize strips the punctuation around a word, so such a token never matches
        if t != PLACEHOLDER and t.strip(string.punctuation) not in (t, ""):
            raise PatternParseError(f"{where}: token {t!r} has punctuation around a word")
    try:
        return Pattern(tokens, label)
    except ValueError as exc:
        raise PatternParseError(f"{where}: {exc}") from exc


@reads_utf8(PatternParseError)
def load_patterns(path: str | os.PathLike) -> PatternKB:
    """Load a pattern TSV."""
    patterns = []
    with open(path, encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            entry = line.rstrip("\n")
            if not entry.strip() or entry.lstrip().startswith("#"):
                continue
            patterns.append(_parse_pattern_line(entry, f"{path}:{lineno}"))
    try:
        return PatternKB.build(patterns)
    except EmptyKB as exc:
        raise EmptyKB(f"{path}: {exc}") from None


def format_patterns(kb: PatternKB) -> str:
    """The pattern TSV that `load_patterns` reads, one line per pattern."""
    return "".join("\t".join((p.text, *p.label.codes)) + "\n" for p in kb.patterns)


def extract_pattern(req: TokenizedRequirement, label: ClassLabel) -> Pattern:
    """Heuristic pattern extraction from a labeled requirement.

    For the earliest numeric token preceded by a contiguous run of
    `DEFAULT_COMPLEMENTS` words, the run plus the number (as the
    placeholder) becomes the pattern.  Without a reachable number, the span from the last
    modal/verb anchor to the last non-stopword is used instead.
    """
    words, numbers = req.normalized, req.numeric_positions

    for number in numbers:
        start = number
        while start - 1 >= 0 and words[start - 1] in DEFAULT_COMPLEMENTS:
            start -= 1
        if start < number:
            return Pattern((*words[start:number], PLACEHOLDER), label)

    anchors = [i for i, word in enumerate(words) if word in EXTRACT_VERBS]
    if not anchors:
        raise NoExtractableSpan(f"no anchor found in {req.raw!r}")
    start = anchors[-1]
    content = [i for i, word in enumerate(words) if word not in STOPWORDS and i not in numbers]
    end = content[-1] if content else -1
    if end <= start:
        raise NoExtractableSpan(f"no span after anchor in {req.raw!r}")
    span = [words[i] for i in range(start, end + 1) if i not in numbers]
    return Pattern(tuple(span), label)
