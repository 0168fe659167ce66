"""LCS structure commonality, dual syntactic/semantic scoring, pattern selection."""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import chain

from .embeddings import VectorStore, cosine, sentence_vector
from .errors import InvalidArgument, shown
from .patterns import PLACEHOLDER, STOPWORDS, Pattern, PatternKB
from .satisfaction import ClassLabel
from .text import DEFAULT_PREFIX_VERBS, TokenizedRequirement

# tokens that never carry preference content on their own; a match made
# only of these (and no bound number) is noise
_FUNCTION_WORDS = frozenset(STOPWORDS | {*DEFAULT_PREFIX_VERBS, "may"})

# words that reverse a requirement's preference when they fall outside the
# LCS (`apply_negation`)
NEGATIONS = frozenset({
    "not", "no", "neither", "nor", "never", "without", "cannot", "can't",
    "don't", "doesn't", "won't", "isn't", "aren't", "shouldn't", "mustn't",
    "nothing", "none",
})

# `cosine` clamps to 1.0, and `select` bounds the semantic score by this
_SEM_CEILING = 1.0


@dataclass(frozen=True)
class LcsResult:
    """Longest common subsequence between a pattern and a requirement.

    Pair k joins requirement position `matched_positions[k]` with pattern
    position `pattern_positions[k]`; both rise strictly.  `v_beta` is the
    value of the numeric token paired with the pattern's placeholder, None
    when the placeholder is unpaired.
    """

    matched_positions: tuple[int, ...]
    pattern_positions: tuple[int, ...]
    v_beta: float | None

    @classmethod
    def empty(cls) -> "LcsResult":
        return cls((), (), None)


@dataclass(frozen=True)
class MatcherConfig:
    """w weighs syntax against semantics in the fused score."""

    w: float = 0.7

    def __post_init__(self) -> None:
        try:
            inside = 0.0 <= self.w <= 1.0
        except TypeError:
            raise InvalidArgument(f"weight w must be a number, got {self.w!r}") from None
        if not inside:
            raise InvalidArgument(f"weight w must lie in [0, 1], got {shown(self.w, str)}")


# MatcherConfig is frozen, so calls that pass no config share this one
_DEFAULT_CONFIG = MatcherConfig()


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


def _reconstruct(
    masks: list[int], m: int, a: int, b: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Requirement indices and pattern indices, each ascending, of one
    nonempty LCS inside [a, b].

    The scan of `lcs` is replayed over the window, keeping V after each
    token: the DP cell for pattern prefix i and window prefix j is
    i - popcount(V_j & (2**i - 1)).  The walk back is the table walk's: a
    match goes diagonally, otherwise up when the cell above is at least the
    cell to the left, which is when bit i-1 of V_j is set: the cell above
    is cell(i, j) - 1 + that bit, and without a match cell(i, j) is the
    larger of the two.
    """
    v = (1 << m) - 1
    states = [v]
    for j in range(a, b + 1):
        u = v & masks[j]
        if u:
            v = (v + u) | (v - u)
        states.append(v)
    pairs = []
    i, j = m, b - a + 1
    while i > 0 and j > 0:
        bit = 1 << (i - 1)
        if masks[a + j - 1] & bit:
            i -= 1
            j -= 1
            pairs.append((a + j, i))
        elif states[j] & bit:
            i -= 1
        else:
            j -= 1
    req_indices, pattern_indices = zip(*reversed(pairs))
    return req_indices, pattern_indices


def lcs(pattern: Pattern, req: TokenizedRequirement) -> LcsResult:
    """LCS over normalized tokens; ties resolved toward the most compact match.

    Among equal-length subsequences the one spanning the fewest requirement
    positions wins, then the earliest start.

    The search is a bit-parallel scan (Allison & Dix, "A bit-string
    longest-common-subsequence algorithm", IPL 23, 1986; Hyyro,
    "Bit-parallel LCS-length computation revisited", AWOCA 2004).  Bit i of
    the state V stands for pattern position i; each requirement token's
    row mask M (its bits in `Pattern.bitmasks`, plus the placeholder's bit
    when the token is numeric) updates U = V & M, V = (V + U) | (V - U),
    and the LCS so far is m - popcount(V & full).  Python ints have no
    fixed width, so patterns of any length take the same path.

    A start or an end token that matches no pattern position never bounds
    a minimal window, and a token with a zero mask leaves V unchanged, so
    every pass steps over `starts`, the positions with a nonzero mask,
    only.  One pass over them gives the whole LCS length and the first end
    reaching it; each later start scans forward only while a strictly
    narrower window is possible, and the search stops once the width
    equals the length.  The pairs are then reconstructed inside the chosen
    window only.
    """
    table = pattern.bitmasks
    masks = [table.get(word, 0) for word in req.normalized]
    # the placeholder matches any numeric token, regardless of value
    number_bit = table.get(PLACEHOLDER, 0)
    if number_bit:
        for j in req.numeric_positions:
            masks[j] |= number_bit
    starts = [j for j, mask in enumerate(masks) if mask]
    if not starts:
        return LcsResult.empty()
    m = len(pattern.tokens)
    full = (1 << m) - 1

    v, total, a, b = full, 0, starts[0], starts[0]
    for j in starts:
        u = v & masks[j]
        if u:
            v = (v + u) | (v - u)
            length = m - (v & full).bit_count()
            if length > total:
                total, b = length, j

    for k in range(1, len(starts)):
        if b - a + 1 == total:
            break
        start = starts[k]
        end = start + b - a
        v = full
        for j in starts[k:]:
            if j >= end:
                break
            u = v & masks[j]
            if u:
                v = (v + u) | (v - u)
                if m - (v & full).bit_count() == total:
                    a, b = start, j
                    break

    positions, pattern_positions = _reconstruct(masks, m, a, b)
    # -1, no pattern position, when the pattern has no placeholder
    placeholder = number_bit.bit_length() - 1
    v_beta = None
    if placeholder in pattern_positions:
        v_beta = req.tokens[positions[pattern_positions.index(placeholder)]].numeric_value
    return LcsResult(positions, pattern_positions, v_beta)


def syntactic_score(pattern: Pattern, result: LcsResult) -> tuple[float, float]:
    """Raw pattern coverage and its span-penalized form.

    The raw score is LCS length over pattern length.  The penalty divides
    by the distance between the first and last matched requirement
    positions when that distance exceeds the LCS length, punishing matches
    scattered across the requirement.
    """
    positions = result.matched_positions
    if not positions:
        return 0.0, 0.0
    syn_raw = len(positions) / len(pattern)
    span = positions[-1] - positions[0]
    syn = syn_raw * (len(positions) / max(len(positions), span))
    return syn_raw, syn


def semantic_score(store: VectorStore, pattern: Pattern, result: LcsResult) -> float:
    """Cosine of the averaged word vectors of the pattern and of its
    matched positions.

    The pattern's vector is computed once per store and kept in
    `store.pattern_vectors`; the matched one is computed afresh, so the
    cache holds one vector per pattern.  The matched tokens give the vector
    the requirement's would: a word pair joins equal strings, and
    `sentence_vector` maps both sides of the placeholder pair to "number".
    A match of every in-vocabulary pattern position averages the same
    vectors as the pattern, so `cosine` gets equal vectors and the score
    is exactly 1.0.
    """
    if not result.pattern_positions:
        return 0.0
    pattern_vector = store.pattern_vectors.get(pattern.tokens)
    if pattern_vector is None:
        pattern_vector = sentence_vector(store, pattern.tokens)
        store.pattern_vectors[pattern.tokens] = pattern_vector
    matched = [pattern.tokens[i] for i in result.pattern_positions]
    return cosine(pattern_vector, sentence_vector(store, matched))


def fuse(syn: float, sem: float, cfg: MatcherConfig) -> float:
    return cfg.w * syn + (1.0 - cfg.w) * (sem + 1.0) / 2.0


def apply_negation(
    req: TokenizedRequirement, result: LcsResult, pattern: Pattern
) -> ClassLabel:
    """`pattern.label`, with Smaller/Greater reversed on a polarity mismatch.

    A word of `NEGATIONS` in the requirement outside the LCS flips the
    label.  When the winning pattern itself carries an unmatched negator
    (its label already encodes the negated reading), the two negations
    cancel; a negative pattern matched against an un-negated requirement
    flips back.  The pattern's matched words are the requirement's, bar
    the placeholder pair, which holds no negator.
    """
    # most requirements hold no negator, and `isdisjoint` tells in C
    positions = result.matched_positions
    req_negated = not NEGATIONS.isdisjoint(req.normalized) and any(
        word in NEGATIONS and i not in positions for i, word in enumerate(req.normalized)
    )
    matched_words = {pattern.tokens[i] for i in result.pattern_positions}
    pattern_negated = any(t in NEGATIONS and t not in matched_words for t in pattern.tokens)
    if req_negated != pattern_negated:
        return pattern.label.swap_preferences()
    return pattern.label


def _reach(kb: PatternKB, req: TokenizedRequirement) -> Counter:
    """Each candidate's reach, by pattern index.

    Reach is counted term at a time over `PatternKB.postings` (Turtle &
    Flood, "Query evaluation: strategies and optimizations", IPM 31, 1995),
    one count per pattern position, plus the pattern's placeholder when the
    requirement holds a number.
    """
    reach = Counter(chain.from_iterable(kb.postings.get(t, ()) for t in set(req.normalized)))
    if req.numeric_positions:
        patterns = kb.patterns
        reach.update([i for i in reach if PLACEHOLDER in patterns[i].bitmasks])
    return reach


def _ranked(
    kb: PatternKB, req: TokenizedRequirement, cfg: MatcherConfig
) -> Iterator[tuple[tuple, int | None]]:
    """The candidates as (key bound, pattern index), by descending key
    bound, with one sentinel (cap key, None) for the bounds not yet counted.

    A candidate shares a word token with the requirement
    (`PatternKB.postings`): a pattern holds at most one placeholder, so any
    other pattern's LCS is empty or the placeholder alone.  Its reach is the
    number of its positions whose token occurs in the requirement, the
    placeholder counting when the requirement holds a number; each LCS pair
    uses a distinct such position, so syn is at most s = reach / len, as the
    span penalty is a factor of at most 1 and rounding is monotone.  sem is
    at most _SEM_CEILING = 1.0, where `cosine` clamps it, and fuse is
    monotone in both, so at any w the key (fused, syn, -len, -index) is at
    most the key bound (fuse(s, 1.0), s, -len, -index): when fused reaches
    fuse(s, 1.0), syn is still at most s.  A contiguous match of every
    position reaches its key bound when a pattern word has a vector.

    Most bounds are never needed (prefix filtering: Chaudhuri, Ganti &
    Kaushik, "A primitive operator for similarity joins in data cleaning",
    ICDE 2006; Bayardo, Ma & Srikant, "Scaling up all pairs similarity
    search", WWW 2007).  Let the word set be the requirement's words, with
    the placeholder when it holds a number.  A pattern with a distinct
    token outside the word set misses a position, so its s is at most near
    = (longest - 1) / longest, longest being the base's longest pattern
    ((len - 1) / len grows with len, and rounding is monotone), and its key
    bound is below the cap key (fuse(near, 1.0), near, inf).  Every other
    candidate has s = 1.0 and a key bound above the cap key.  Those patterns
    are a set-containment query: a pattern's path in `PatternKB.word_trie`
    is its distinct tokens, so the walk that descends only into children
    whose token is in the word set reaches exactly the nodes where they are
    listed.  They come first, by ascending (len, index), then the cap key;
    only a visit that goes on past it has `_reach` count every candidate,
    and the rest follow by descending (s, -len, -index), the order of their
    key bounds, as fuse(s, 1.0) does not fall as s grows.
    """
    words = set(req.normalized)
    # the placeholder's position is reached by a number, never by a word
    words.discard(PLACEHOLDER)
    if req.numeric_positions:
        words.add(PLACEHOLDER)
    patterns = kb.patterns
    full, nodes = [], [kb.word_trie]
    # the loop also visits the children appended to `nodes` as it runs
    for listed, children in nodes:
        full += listed
        if children:
            for t in children.keys() & words:
                nodes.append(children[t])
    top = fuse(1.0, _SEM_CEILING, cfg)
    for n, i in sorted([(len(patterns[i].tokens), i) for i in full]):
        yield (top, 1.0, -n, -i), i
    near = (kb.longest - 1) / kb.longest
    yield (fuse(near, _SEM_CEILING, cfg), near, math.inf), None
    rest = [
        (r / n, -n, -i) for i, r in _reach(kb, req).items() if r < (n := len(patterns[i].tokens))
    ]
    rest.sort(reverse=True)
    for s, neg_len, neg_index in rest:
        yield (fuse(s, _SEM_CEILING, cfg), s, neg_len, neg_index), -neg_index


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

    Candidates are scored best first, in the order of `_ranked`, by an
    upper bound on their whole key (fused, syn, -len, -index), and the
    visit stops at the first key bound below the best key so far
    (threshold pruning over an inverted index: Fagin, Lotem & Naor,
    "Optimal aggregation algorithms for middleware", PODS 2001; Broder et
    al., "Efficient query evaluation using a two-level retrieval process",
    CIKM 2003): no later candidate's key can pass it, so the winner is the
    one scoring every candidate picks, at any w.  A contiguous match of
    every position reaches its key bound, so the visit ends at the first
    such match of the top tier.
    """
    cfg = cfg or _DEFAULT_CONFIG

    best = None
    for bound, index in _ranked(kb, req, cfg):
        if best is not None and bound < best[0]:
            break
        if index is None:
            continue
        pattern = kb.patterns[index]
        result = lcs(pattern, req)
        # the placeholder alone (a bare number shared with any numeric
        # requirement), or function words alone, carry no structural signal
        if (
            len(result.pattern_positions) == 1
            if result.v_beta is not None
            else all(pattern.tokens[i] in _FUNCTION_WORDS for i in result.pattern_positions)
        ):
            continue
        syn_raw, syn = syntactic_score(pattern, result)
        sem = semantic_score(store, pattern, result)
        key = (fuse(syn, sem, cfg), syn, -len(pattern), -index)
        if best is None or key > best[0]:
            best = (key, index, result, syn_raw, sem)
    if best is None:
        return None

    (fused, syn, _, _), index, result, syn_raw, sem = best
    pattern = kb.patterns[index]
    label = apply_negation(req, result, pattern)
    return MatchResult(index, pattern, result, syn_raw, syn, sem, fused, label)
