"""LCS structure commonality, dual syntactic/semantic scoring, pattern selection."""

from __future__ import annotations

from dataclasses import dataclass

from .embeddings import VectorStore, cosine, sentence_vector
from .errors import EmptyKB
from .patterns import PLACEHOLDER, STOPWORDS, Pattern, PatternKB
from .satisfaction import ClassLabel
from .text import DEFAULT_PREFIX_VERBS, TokenizedRequirement

# tokens that never carry preference content on their own; a match made
# only of these (and no bound number) is noise
_FUNCTION_WORDS = frozenset(STOPWORDS | {*DEFAULT_PREFIX_VERBS, "may"})


@dataclass(frozen=True)
class LcsResult:
    """Longest common subsequence between a pattern and a requirement.

    `matched_tokens` holds the requirement-side normalized tokens,
    `matched_positions` their indices in the requirement.  `v_beta` is set
    when the pattern's placeholder matched a numeric token.
    """

    matched_tokens: tuple[str, ...]
    matched_positions: tuple[int, ...]
    length: int
    first_index: int
    last_index: int
    v_beta: float | None

    @classmethod
    def empty(cls) -> "LcsResult":
        return cls((), (), 0, -1, -1, None)


@dataclass(frozen=True)
class MatcherConfig:
    """w weighs syntax against semantics in the fused score."""

    w: float = 0.7

    def __post_init__(self) -> None:
        if not 0.0 <= self.w <= 1.0:
            raise ValueError(f"weight w must lie in [0, 1], got {self.w}")


@dataclass(frozen=True)
class MatchResult:
    pattern_index: int
    pattern: Pattern
    lcs: LcsResult
    syn_raw: float
    syn: float
    sem: float
    fused: float
    label: ClassLabel

    @property
    def v_beta(self) -> float | None:
        return self.lcs.v_beta


def _match_matrix(pattern: Pattern, req: TokenizedRequirement) -> list[list[bool]]:
    # the placeholder matches any numeric token, regardless of value
    rows = []
    for p_tok in pattern.tokens:
        if p_tok == PLACEHOLDER:
            rows.append([t.is_number for t in req.tokens])
        else:
            rows.append([t.normalized == p_tok for t in req.tokens])
    return rows


def _lcs_length(match: list[list[bool]], a: int, b: int) -> int:
    """DP length of the LCS of the whole pattern vs requirement[a..b]."""
    m = len(match)
    width = b - a + 1
    prev = [0] * (width + 1)
    for i in range(1, m + 1):
        row = match[i - 1]
        cur = [0] * (width + 1)
        for j in range(1, width + 1):
            if row[a + j - 1]:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[width]


def _reconstruct(match: list[list[bool]], a: int, b: int) -> list[tuple[int, int]]:
    """Pairs (pattern_index, requirement_index) of one LCS inside [a, b]."""
    m = len(match)
    width = b - a + 1
    dp = [[0] * (width + 1) for _ in range(m + 1)]
    for i in range(1, m + 1):
        row = match[i - 1]
        for j in range(1, width + 1):
            if row[a + j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    pairs = []
    i, j = m, width
    while i > 0 and j > 0:
        if match[i - 1][a + j - 1] and dp[i][j] == dp[i - 1][j - 1] + 1:
            pairs.append((i - 1, a + j - 1))
            i -= 1
            j -= 1
        elif dp[i - 1][j] >= dp[i][j - 1]:
            i -= 1
        else:
            j -= 1
    pairs.reverse()
    return pairs


def lcs(pattern: Pattern, req: TokenizedRequirement) -> LcsResult:
    """LCS over normalized tokens; ties resolved toward the most compact match.

    Among equal-length subsequences the one spanning the fewest requirement
    positions wins, then the earliest start.  Found by scanning windows in
    increasing width: the first window whose internal LCS reaches the global
    length is exactly the minimal span.
    """
    if not req.tokens:
        return LcsResult.empty()
    match = _match_matrix(pattern, req)
    n = len(req.tokens)
    total = _lcs_length(match, 0, n - 1)
    if total == 0:
        return LcsResult.empty()

    usable = [any(match[i][j] for i in range(len(match))) for j in range(n)]
    best: tuple[int, int] | None = None
    for width in range(total, n + 1):
        for a in range(0, n - width + 1):
            b = a + width - 1
            if not (usable[a] and usable[b]):
                continue
            if _lcs_length(match, a, b) == total:
                best = (a, b)
                break
        if best is not None:
            break
    assert best is not None
    pairs = _reconstruct(match, best[0], best[1])

    positions = tuple(req_j for _, req_j in pairs)
    tokens = tuple(req.tokens[j].normalized for j in positions)
    v_beta = None
    for pat_i, req_j in pairs:
        if pattern.tokens[pat_i] == PLACEHOLDER:
            v_beta = req.tokens[req_j].numeric_value
    return LcsResult(
        matched_tokens=tokens,
        matched_positions=positions,
        length=len(pairs),
        first_index=positions[0],
        last_index=positions[-1],
        v_beta=v_beta,
    )


def syntactic_score(pattern: Pattern, result: LcsResult) -> tuple[float, float]:
    """Raw pattern coverage and its span-penalized form.

    The raw score is LCS length over pattern length.  The penalty divides
    by the distance between the first and last matched requirement
    positions when that distance exceeds the LCS length, punishing matches
    scattered across the requirement.
    """
    if result.length == 0:
        return 0.0, 0.0
    syn_raw = result.length / len(pattern)
    span = result.last_index - result.first_index
    syn = syn_raw * (result.length / max(result.length, span))
    return syn_raw, syn


def semantic_score(store: VectorStore, pattern: Pattern, result: LcsResult) -> float:
    """Cosine of the averaged word vectors of pattern and matched tokens."""
    if result.length == 0:
        return 0.0
    return cosine(
        sentence_vector(store, list(pattern.tokens)),
        sentence_vector(store, list(result.matched_tokens)),
    )


def fuse(syn: float, sem: float, cfg: MatcherConfig) -> float:
    return cfg.w * syn + (1.0 - cfg.w) * (sem + 1.0) / 2.0


def apply_negation(
    kb: PatternKB,
    req: TokenizedRequirement,
    result: LcsResult,
    label: ClassLabel,
    pattern: Pattern | None = None,
) -> ClassLabel:
    """Reverse Smaller/Greater on a polarity mismatch around the LCS.

    A negation word in the requirement outside the matched subsequence
    flips the label.  When the winning pattern itself carries an unmatched
    negator (its label already encodes the negated reading), the two
    negations cancel; a negative pattern matched against an un-negated
    requirement flips back.
    """
    matched_positions = set(result.matched_positions)
    req_negated = any(
        tok.normalized in kb.negations and tok.position not in matched_positions
        for tok in req.tokens
    )
    pattern_negated = False
    if pattern is not None:
        matched_words = set(result.matched_tokens)
        pattern_negated = any(
            t in kb.negations and t not in matched_words for t in pattern.tokens
        )
    if req_negated != pattern_negated:
        return label.swap_preferences()
    return label


def select(
    kb: PatternKB,
    store: VectorStore,
    req: TokenizedRequirement,
    cfg: MatcherConfig | None = None,
) -> MatchResult | None:
    """Pick the best-matching pattern by the fused score; None when nothing matches.

    Only patterns whose LCS covers at least one word token compete (the
    placeholder binding alone does not make a match).  Ties break toward
    the higher syntactic score, then the shorter pattern, then the lower
    pattern index, making selection deterministic.
    """
    if not kb.patterns:
        raise EmptyKB("pattern knowledge base is empty")
    cfg = cfg or MatcherConfig()

    best = None
    best_key = None
    for index, pattern in enumerate(kb.patterns):
        result = lcs(pattern, req)
        if result.length == 0:
            continue
        if result.length == 1 and result.v_beta is not None:
            # the placeholder alone matched: a bare number shared with any
            # numeric requirement carries no structural signal
            continue
        if result.v_beta is None and all(
            t in _FUNCTION_WORDS for t in result.matched_tokens
        ):
            continue
        syn_raw, syn = syntactic_score(pattern, result)
        sem = semantic_score(store, pattern, result)
        fused = fuse(syn, sem, cfg)
        key = (fused, syn, -len(pattern), -index)
        if best_key is None or key > best_key:
            best_key = key
            best = (index, pattern, result, syn_raw, syn, sem, fused)
    if best is None:
        return None

    index, pattern, result, syn_raw, syn, sem, fused = best
    label = apply_negation(kb, req, result, pattern.label, pattern)
    return MatchResult(
        pattern_index=index,
        pattern=pattern,
        lcs=result,
        syn_raw=syn_raw,
        syn=syn,
        sem=sem,
        fused=fused,
        label=label,
    )
