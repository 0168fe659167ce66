"""The bit-parallel `lcs` and the index-pruned `select` against references.

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
from perfquant.data import HOLDOUT_FILE, MINI_CORPUS_FILE, default_negations
from perfquant.data import path as data_path
from perfquant.evaluation import load_dataset
from perfquant.matching import _FUNCTION_WORDS, fuse
from perfquant.patterns import PLACEHOLDER, PatternKB
from perfquant.text import TokenizedRequirement, split_expectations, tokenize

ES = ClassLabel.from_codes("E", "S")


# --- the windowed-DP LCS, kept as the reference ---------------------------


def _match_matrix(pattern, req):
    rows = []
    for p_tok in pattern.tokens:
        if p_tok == PLACEHOLDER:
            rows.append([t.is_number for t in req.tokens])
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
    tokens = tuple(req.tokens[j].normalized for j in positions)
    v_beta = None
    for pat_i, req_j in pairs:
        if pattern.tokens[pat_i] == PLACEHOLDER:
            v_beta = req.tokens[req_j].numeric_value
    return LcsResult(tokens, positions, len(pairs), positions[0], positions[-1], v_beta)


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


def exhaustive_select(kb, store, req, cfg=MatcherConfig()):
    """Every pattern scored, the pattern vector computed afresh each time."""
    best = best_key = None
    for index, pattern in enumerate(kb.patterns):
        result = lcs(pattern, req)
        if result.length == 0:
            continue
        if result.length == 1 and result.v_beta is not None:
            continue
        if result.v_beta is None and all(t in _FUNCTION_WORDS for t in result.matched_tokens):
            continue
        syn_raw, syn = syntactic_score(pattern, result)
        sem = cosine(
            sentence_vector(store, list(pattern.tokens)),
            sentence_vector(store, list(result.matched_tokens)),
        )
        fused = fuse(syn, sem, cfg)
        key = (fused, syn, -len(pattern), -index)
        if best_key is None or key > best_key:
            best_key = key
            best = MatchResult(index, pattern, result, syn_raw, syn, sem, fused, pattern.label)
    if best is None:
        return None
    label = apply_negation(kb, req, best.lcs, best.pattern.label, best.pattern)
    return dataclasses.replace(best, label=label)


def test_pruned_select_equals_exhaustive_on_a_large_base(
    big_patterns, request_parts, mini_store, monkeypatch
):
    """select scores, in base order, exactly the patterns sharing a word
    with the part, and picks what scoring every pattern picks."""
    kb = PatternKB.build(big_patterns, default_negations())
    assert len(kb) > 950
    visited = []

    def recording_lcs(pattern, req):
        visited.append(pattern)
        return lcs(pattern, req)

    monkeypatch.setattr(matching, "lcs", recording_lcs)
    matched = 0
    for part in request_parts:
        visited.clear()
        got = select(kb, mini_store, part)
        words = {t.normalized for t in part.tokens}
        assert visited == [p for p in kb.patterns if words & (set(p.tokens) - {PLACEHOLDER})]
        assert got == exhaustive_select(kb, mini_store, part), part.raw
        matched += got is not None
    assert matched > len(request_parts) // 2


def test_dropped_bases_leave_no_stale_state(big_patterns, request_parts, mini_store, monkeypatch):
    """Many bases of varied sizes, each built, used and dropped in turn (a
    new base now and then takes the id of a dropped one), and the bases
    bootstrap_eval builds per run: every selection stays exact."""
    kb_sizes = []

    def checked_select(kb, store, req, cfg=None):
        got = select(kb, store, req, cfg)
        assert got is None or got.pattern_index < len(kb)
        assert got == exhaustive_select(kb, store, req)
        kb_sizes.append(len(kb))
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


def test_dropped_bases_free_their_caches(big_patterns, request_parts, mini_store):
    """Per-base and per-pattern caches go with their objects: once the
    store holds every pattern vector, building and dropping bases of fresh
    patterns leaves no memory behind."""
    rng = random.Random(5)
    parts = request_parts[::20]

    def churn(rounds):
        for _ in range(rounds):
            fresh = [Pattern(p.tokens, p.label) for p in rng.sample(big_patterns, 80)]
            kb = PatternKB.build(fresh, default_negations())
            for part in parts:
                select(kb, mini_store, part)

    def held():
        snapshot = tracemalloc.take_snapshot()
        traces = snapshot.filter_traces([tracemalloc.Filter(True, "*perfquant*")])
        return sum(stat.size for stat in traces.statistics("filename"))

    whole = PatternKB.build(big_patterns)
    for part in parts:
        select(whole, mini_store, part)
    tracemalloc.start()
    try:
        churn(20)  # fills the interpreter's free lists
        before = held()
        churn(40)
        growth = held() - before
    finally:
        tracemalloc.stop()
    assert growth < 40_000, f"{growth} bytes held after dropping 40 bases"
