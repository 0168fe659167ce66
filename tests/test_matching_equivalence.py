"""The bit-parallel `lcs` and the best-first `select` against references.

`reference_lcs` is the windowed dynamic-programming LCS the bit-parallel
scan replaced; `exhaustive_select` scores every pattern of the base.  Both
must agree exactly with the library, down to the last float.
"""

import dataclasses
import itertools
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from perfquant import (
    ClassLabel,
    LcsResult,
    MatcherConfig,
    MatchResult,
    Pattern,
    apply_negation,
    bootstrap_eval,
    cosine,
    lcs,
    select,
    sentence_vector,
    syntactic_score,
)
from perfquant import evaluation, matching
from perfquant.data import HOLDOUT_FILE, MINI_CORPUS_FILE, default_store
from perfquant.data import path as data_path
from perfquant.evaluation import load_dataset
from perfquant.matching import _FUNCTION_WORDS, _SEM_CEILING, fuse
from perfquant.patterns import PLACEHOLDER, PatternKB
from perfquant.text import TokenizedRequirement, split_expectations, tokenize

ES = ClassLabel.from_codes("E", "S")


# --- the windowed-DP LCS, kept as the reference ---------------------------


def _match_matrix(pattern, req):
    rows = []
    for p_tok in pattern.tokens:
        if p_tok == PLACEHOLDER:
            rows.append([t.numeric_value is not None for t in req.tokens])
        else:
            rows.append([t.normalized == p_tok for t in req.tokens])
    return rows


def _lcs_length(match, a, b):
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


def _reconstruct(match, a, b):
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


def reference_lcs(pattern, req):
    """Windows in increasing width; the first reaching the whole LCS wins."""
    if not req.tokens:
        return LcsResult.empty()
    match = _match_matrix(pattern, req)
    n = len(req.tokens)
    total = _lcs_length(match, 0, n - 1)
    if total == 0:
        return LcsResult.empty()

    usable = [any(match[i][j] for i in range(len(match))) for j in range(n)]
    best = None
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
    pairs = _reconstruct(match, best[0], best[1])

    positions = tuple(req_j for _, req_j in pairs)
    pattern_positions = tuple(pat_i for pat_i, _ in pairs)
    v_beta = None
    for pat_i, req_j in pairs:
        if pattern.tokens[pat_i] == PLACEHOLDER:
            v_beta = req.tokens[req_j].numeric_value
    return LcsResult(positions, pattern_positions, v_beta)


# --- LCS equivalence ------------------------------------------------------

# numeric literals match the placeholder, and "7" also matches itself
PATTERN_WORDS = ("a", "b", "c", "7", "1,000")
# requirement-only forms: filler, a case variant, a signed number, and a
# word wrapped in punctuation
EXTRA_WORDS = ("x", "A", "-7", "(b)", "2.5")


def requirement(words):
    return tokenize(" ".join(words)) if words else TokenizedRequirement("", ())


@st.composite
def pattern_and_requirement(draw):
    # two or three distinct words per example, so both sides repeat them
    # and equal-length, equal-width matches compete
    words = draw(st.lists(st.sampled_from(PATTERN_WORDS), min_size=1, max_size=3, unique=True))
    tokens = draw(st.lists(st.sampled_from(words), max_size=69))
    if not tokens or draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), PLACEHOLDER)
    extras = draw(st.lists(st.sampled_from(EXTRA_WORDS), max_size=2, unique=True))
    req_words = draw(st.lists(st.sampled_from(words + extras), max_size=60))
    return Pattern(tuple(tokens), ES), requirement(req_words)


@settings(max_examples=500, deadline=None)
@given(pattern_and_requirement())
@example((Pattern(("a", "b"), ES), requirement("a x b a y b".split())))
@example((Pattern(("a", "b") * 35, ES), requirement(["b", "a", "x"] * 20)))
@example((Pattern(("a",) * 65 + (PLACEHOLDER, "b"), ES), requirement(["a", "7", "x", "b"] * 15)))
@example((Pattern((PLACEHOLDER,), ES), requirement([])))
def test_lcs_equals_windowed_dp_reference(case):
    pattern, req = case
    assert lcs(pattern, req) == reference_lcs(pattern, req)


def test_lcs_walk_back_equals_the_reference_on_short_dense_pairs():
    # four words on short sides make up-or-left ties inside the chosen
    # window common: about one pair in seventy aligns differently when the
    # walk-back reads the wrong column's bit
    rng = random.Random(2024)
    words = ("a", "b", "c", "7")
    for _ in range(4000):
        pattern = Pattern(tuple(rng.choice(words) for _ in range(rng.randint(1, 8))), ES)
        req = requirement([rng.choice(words + ("x",)) for _ in range(rng.randint(1, 14))])
        assert lcs(pattern, req) == reference_lcs(pattern, req)


def test_lcs_equals_the_reference_on_long_sparse_pairs():
    # 30-40 token parts with 2-6 matching positions: the scan steps over the
    # matching positions only, so the filler and numbers between them must
    # not move the chosen window; repeated pattern tokens make windows of
    # equal width compete
    rng = random.Random(31)
    for _ in range(1500):
        words = rng.sample(("a", "b", "c", "d"), rng.randint(1, 3))
        tokens = [rng.choice(words) for _ in range(rng.randint(1, 6))]
        placeholder = rng.random() < 0.5
        if placeholder:
            tokens.insert(rng.randint(0, len(tokens)), PLACEHOLDER)
        n = rng.randint(30, 40)
        # a number matches the placeholder, so it is filler only without one
        filler = ("x", "y", "the") if placeholder else ("x", "y", "the", "5", "1,000")
        req = [rng.choice(filler) for _ in range(n)]
        hits = words + ["7"] if placeholder else words
        for j in rng.sample(range(n), rng.randint(2, 6)):
            req[j] = rng.choice(hits)
        pattern = Pattern(tuple(tokens), ES)
        assert lcs(pattern, requirement(req)) == reference_lcs(pattern, requirement(req))


# --- pruning through the inverted index -----------------------------------

FAMILIES = (
    ("within", "ES"), ("in under", "ES"), ("less than", "ES"), ("faster than", "ES"),
    ("under", "ES"), ("at most", "SE"), ("at least", "GE"), ("more than", "GE"),
    ("exceed", "GE"), ("every", "GS"), ("once every", "GS"), ("exactly", "EE"),
    ("hard limit of", "EE"), ("beyond", "EG"), ("away from", "SG"), ("no more than", "SE"),
)
VERBS = ("respond", "return", "complete", "deliver", "process")
UNITS = ("seconds", "milliseconds", "minutes", "hours", "ms", "users", "requests",
         "transactions", "sessions", "connections", "events", "records")
SUBJECTS = ("the checkout", "search", "the billing service", "reporting", "the gateway")
FILLER = "during peak load for existing customers across all regions on the client side".split()


def generated_patterns():
    """Verb + complement + placeholder + unit, one per combination."""
    return [
        Pattern((verb, *phrase.split(), PLACEHOLDER, unit), ClassLabel.from_codes(*codes))
        for verb, (phrase, codes), unit in itertools.product(VERBS, FAMILIES, UNITS)
    ]


@pytest.fixture(scope="module")
def big_patterns(bundled_kb):
    return [*bundled_kb.patterns, *generated_patterns()]


@pytest.fixture(scope="module")
def request_parts():
    rng = random.Random(17)
    texts = [row.text for name in (MINI_CORPUS_FILE, HOLDOUT_FILE)
             for row in load_dataset(data_path(name))]
    for _ in range(16):
        clauses = [
            f"{rng.choice(VERBS)} {rng.choice(FAMILIES)[0]} {rng.randint(1, 900)} "
            f"{rng.choice(UNITS)}"
            for _ in range(rng.randint(1, 2))
        ]
        filler = " ".join(rng.sample(FILLER, rng.randint(0, 8)))
        texts.append(f"{rng.choice(SUBJECTS)} shall {' and '.join(clauses)} {filler}")
    texts.append("nothing here matches any pattern word")
    return [part for text in texts for part in split_expectations(tokenize(text))]


def scored_patterns(kb, store, req, cfg=MatcherConfig()):
    """Every competing pattern of the base as an unlabelled MatchResult,
    the pattern vector computed afresh each time, and the matched vector and
    the function-word rule read from the requirement's side of the LCS."""
    for index, pattern in enumerate(kb.patterns):
        result = lcs(pattern, req)
        matched = [req.normalized[j] for j in result.matched_positions]
        if not matched:
            continue
        if len(matched) == 1 and result.v_beta is not None:
            continue
        if result.v_beta is None and all(t in _FUNCTION_WORDS for t in matched):
            continue
        syn_raw, syn = syntactic_score(pattern, result)
        sem = cosine(
            sentence_vector(store, list(pattern.tokens)),
            sentence_vector(store, matched),
        )
        fused = fuse(syn, sem, cfg)
        yield MatchResult(index, pattern, result, syn_raw, syn, sem, fused, pattern.label)


def exhaustive_select(kb, store, req, cfg=MatcherConfig()):
    """Every pattern scored, the best by (fused, syn, -len, -index)."""
    best = max(
        scored_patterns(kb, store, req, cfg),
        key=lambda m: (m.fused, m.syn, -len(m.pattern), -m.pattern_index),
        default=None,
    )
    if best is None:
        return None
    label = apply_negation(req, best.lcs, best.pattern)
    return dataclasses.replace(best, label=label)


def reach(pattern, req):
    """Pattern positions whose token occurs in the requirement; the
    placeholder counts when the requirement holds a number."""
    words = {t.normalized for t in req.tokens}
    has_number = any(t.numeric_value is not None for t in req.tokens)
    return sum(t in words or (t == PLACEHOLDER and has_number) for t in pattern.tokens)


def key_bound(kb, index, req, cfg=MatcherConfig()):
    """The bound on a candidate's selection key (fused, syn, -len, -index)."""
    pattern = kb.patterns[index]
    syn = reach(pattern, req) / len(pattern)
    return (fuse(syn, _SEM_CEILING, cfg), syn, -len(pattern), -index)


def selection_key(match):
    return (match.fused, match.syn, -len(match.pattern), -match.pattern_index)


def shares_a_word(pattern, req):
    return bool({t.normalized for t in req.tokens} & (set(pattern.tokens) - {PLACEHOLDER}))


def test_pruned_select_equals_exhaustive_on_a_large_base(
    big_patterns, request_parts, mini_store, monkeypatch
):
    """select scores only patterns sharing a word with the part, in
    descending key bound, skips only those that cannot win, and picks what
    scoring every pattern picks."""
    kb = PatternKB.build(big_patterns)
    assert len(kb.patterns) > 950
    visited = []

    def recording_lcs(pattern, req):
        visited.append(pattern)
        return lcs(pattern, req)

    monkeypatch.setattr(matching, "lcs", recording_lcs)
    matched = 0
    for part in request_parts:
        visited.clear()
        got = select(kb, mini_store, part)
        assert all(shares_a_word(p, part) for p in visited)
        # descending key bound
        order = [key_bound(kb, kb.patterns.index(p), part) for p in visited]
        assert order == sorted(order, reverse=True)
        skipped = [
            i for i, p in enumerate(kb.patterns) if shares_a_word(p, part) and p not in visited
        ]
        if got is not None:
            assert all(key_bound(kb, i, part) < selection_key(got) for i in skipped)
        assert got == exhaustive_select(kb, mini_store, part), part.raw
        matched += got is not None
    assert matched > len(request_parts) // 2


def test_every_score_is_within_its_bound(big_patterns, request_parts, mini_store):
    """On the large base, for several weights, no competing pattern's LCS
    outruns its reach, its cosine the semantic ceiling, or its selection
    key its key bound.  Matches of every in-vocabulary position reach the
    ceiling exactly, and contiguous full matches reach their key bound."""
    kb = PatternKB.build(big_patterns)
    configs = [MatcherConfig(w) for w in (0.0, 0.3, 0.7, 1.0)]
    checked, at_ceiling, at_bound = 0, 0, 0
    for part in request_parts:
        for m in scored_patterns(kb, mini_store, part):
            assert len(m.lcs.matched_positions) <= reach(m.pattern, part)
            assert m.sem <= _SEM_CEILING == 1.0
            for cfg in configs:
                key = (fuse(m.syn, m.sem, cfg), *selection_key(m)[1:])
                bound = key_bound(kb, m.pattern_index, part, cfg)
                assert key <= bound, (m.pattern, part.raw, cfg)
                at_bound += key == bound
            at_ceiling += m.sem == 1.0
            checked += 1
    assert checked > 10_000
    assert at_ceiling > 100 and at_bound > 100


BASE_WORDS = ("respond", "within", "under", "less", "than", "at", "most", "the", "shall", "7")
REQUEST_WORDS = BASE_WORDS + ("seconds", "x", "5", "1,000")
LABELS = tuple(ClassLabel.from_codes(*codes) for codes in ("ES", "GE", "SE", "EE", "SG"))


@st.composite
def small_base_and_part(draw):
    patterns = []
    for _ in range(draw(st.integers(1, 12))):
        # repeated tokens are drawn freely
        tokens = draw(st.lists(st.sampled_from(BASE_WORDS), min_size=1, max_size=6))
        if draw(st.booleans()):
            tokens.insert(draw(st.integers(0, len(tokens))), PLACEHOLDER)
        # PatternKB.build keeps same-token patterns with different labels;
        # they tie on everything but the index
        for label in draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3)):
            patterns.append(Pattern(tuple(tokens), label))
    words = draw(st.lists(st.sampled_from(REQUEST_WORDS), min_size=1, max_size=14))
    return PatternKB.build(patterns), tokenize(" ".join(words))


@settings(max_examples=300, deadline=None)
@given(small_base_and_part(), st.sampled_from((0.0, 0.3, 0.7, 1.0)))
@example(
    (PatternKB.build([Pattern(("under", PLACEHOLDER), lab) for lab in LABELS]), tokenize("under 5")),
    0.7,
)
@example((PatternKB.build([Pattern(("the", "respond"), LABELS[0])]), tokenize("respond x")), 0.0)
def test_select_equals_exhaustive_on_small_bases(mini_store, case, w):
    kb, part = case
    cfg = MatcherConfig(w)
    assert select(kb, mini_store, part, cfg) == exhaustive_select(kb, mini_store, part, cfg)


def assert_order_independent(patterns, parts, store, seeds=(1, 2, 3)):
    """The winner's (fused, syn, len) does not depend on the order of the
    base, nor do its tokens and label when no other pattern shares that key."""
    kb = PatternKB.build(patterns)
    shuffled = []
    for seed in seeds:
        order = list(patterns)
        random.Random(seed).shuffle(order)
        shuffled.append(PatternKB.build(order))
    matched = 0
    for part in parts:
        want = select(kb, store, part)
        if want is None:
            assert all(select(other, store, part) is None for other in shuffled)
            continue
        matched += 1
        key = (want.fused, want.syn, len(want.pattern))
        unique = [
            (m.fused, m.syn, len(m.pattern)) for m in scored_patterns(kb, store, part)
        ].count(key) == 1
        for other in shuffled:
            got = select(other, store, part)
            assert (got.fused, got.syn, len(got.pattern)) == key, part.raw
            if unique:
                assert (got.pattern.tokens, got.label) == (want.pattern.tokens, want.label)
    return matched


def test_bundled_base_selection_is_order_independent(bundled_kb, mini_store):
    texts = [row.text for name in (MINI_CORPUS_FILE, HOLDOUT_FILE)
             for row in load_dataset(data_path(name))]
    parts = [part for text in texts for part in split_expectations(tokenize(text))]
    assert assert_order_independent(bundled_kb.patterns, parts, mini_store) == len(parts)


def test_large_base_selection_is_order_independent(big_patterns, request_parts, mini_store):
    matched = assert_order_independent(big_patterns, request_parts, mini_store)
    assert matched > len(request_parts) // 2


def test_dropped_bases_leave_no_stale_state(big_patterns, request_parts, mini_store, monkeypatch):
    """Many bases of varied sizes, each built, used and dropped in turn (a
    new base now and then takes the id of a dropped one), and the bases
    bootstrap_eval builds per run: every selection stays exact."""
    kb_sizes = []

    def checked_select(kb, store, req, cfg=None):
        got = select(kb, store, req, cfg)
        assert got is None or got.pattern_index < len(kb.patterns)
        assert got == exhaustive_select(kb, store, req)
        kb_sizes.append(len(kb.patterns))
        return got

    monkeypatch.setattr(evaluation, "select", checked_select)
    rng = random.Random(3)
    for _ in range(200):
        kb = PatternKB.build(rng.sample(big_patterns, rng.choice((1, 4, 20, 80))))
        for part in request_parts[::40]:
            checked_select(kb, mini_store, part)
        del kb
    rows = load_dataset(data_path(MINI_CORPUS_FILE))
    for size in (0, 40, 250):
        base = tuple(rng.sample(big_patterns, size))
        bootstrap_eval(rows, 4, 0.667, size, mini_store, base_patterns=base)
    assert len(set(kb_sizes)) > 6


def test_dropped_bases_free_their_caches(big_patterns, request_parts):
    """Per-base and per-pattern caches go with their objects: once the
    store holds every pattern vector, building and dropping bases of fresh
    patterns leaves no memory behind.

    The store is the test's own, and every vector it will hold is in it
    before the measured window, so no earlier test or draw decides what
    the window adds to it."""
    store = default_store()
    store.pattern_vectors.update(
        (p.tokens, sentence_vector(store, list(p.tokens))) for p in big_patterns
    )
    rng = random.Random(5)
    parts = request_parts[::20]

    def churn(rounds):
        for _ in range(rounds):
            fresh = [Pattern(p.tokens, p.label) for p in rng.sample(big_patterns, 80)]
            kb = PatternKB.build(fresh)
            for part in parts:
                select(kb, store, part)

    def held():
        snapshot = tracemalloc.take_snapshot()
        traces = snapshot.filter_traces([tracemalloc.Filter(True, "*perfquant*")])
        return sum(stat.size for stat in traces.statistics("filename"))

    tracemalloc.start()
    try:
        churn(20)  # fills the interpreter's free lists
        before = held()
        churn(40)
        growth = held() - before
    finally:
        tracemalloc.stop()
    assert growth < 40_000, f"{growth} bytes held after dropping 40 bases"
