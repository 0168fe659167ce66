"""Acceptance suite: one test per release criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.
"""

import functools
import itertools
import random
import time

import pytest

from perfquant import (
    ClassLabel,
    MatcherConfig,
    MetricDirection,
    Pattern,
    classify,
    combine,
    compile_single,
    cosine,
    lcs,
    select,
    syntactic_score,
    weighted_metrics,
)
from perfquant.data import MINI_CORPUS_FILE, path as data_path
from perfquant.evaluation import (
    LabeledRequirement,
    bootstrap_eval,
    build_kb,
    load_dataset,
    predict_label,
    report_lines,
)
from perfquant.patterns import PLACEHOLDER, PatternKB
from perfquant.text import tokenize

MIN = MetricDirection.MINIMIZE
MAX = MetricDirection.MAXIMIZE
TOL = 1e-9


def label(codes):
    return ClassLabel.from_codes(codes[0], codes[1])


def pattern(text, codes="ES"):
    tokens = tuple(t if t == PLACEHOLDER else t.lower() for t in text.split())
    return Pattern(tokens, label(codes))


def value_at(seg, v):
    """The affine score of segment `seg` at v: s_lo when it has zero width,
    else s_lo + t * (s_hi - s_lo) with t = (v - v_lo) / (v_hi - v_lo)."""
    if seg.v_hi == seg.v_lo:
        return seg.s_lo
    t = (v - seg.v_lo) / (seg.v_hi - seg.v_lo)
    return seg.s_lo + t * (seg.s_hi - seg.s_lo)


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number:>2}: FAIL - {description}")
                raise
            print(f"criterion {number:>2}: PASS - {description}")

        return wrapper

    return decorate


CAPACITY_REQ = "the product shall be capable of handling the existing 1000 users"


@criterion(1, "worked syntactic scores reproduce exactly")
def test_worked_score_reproduction():
    req = tokenize(CAPACITY_REQ)
    generic = pattern("shall be <N>", "GS")
    raw, penalized = syntactic_score(generic, lcs(generic, req))
    assert raw == pytest.approx(1.0, abs=TOL)
    assert penalized == pytest.approx(3 / 7, abs=TOL)

    specific = pattern("be capable of supporting <N>", "GE")
    raw, penalized = syntactic_score(specific, lcs(specific, req))
    assert raw == pytest.approx(0.8, abs=TOL)
    assert penalized == pytest.approx(4 / 5 * 4 / 6, abs=TOL)


@criterion(2, "capacity-requirement LCS is ('be','capable','of','1000'), v_beta=1000")
def test_lcs_reproduction():
    req = tokenize(CAPACITY_REQ)
    result = lcs(pattern("be capable of supporting <N>", "GE"), req)
    assert tuple(req.normalized[j] for j in result.matched_positions) == (
        "be", "capable", "of", "1000"
    )
    assert result.pattern_positions == (0, 1, 2, 4)
    assert result.v_beta == 1000.0


@criterion(3, "compiled functions hit the documented knot values")
def test_quantification_reproduction():
    fa = compile_single(label("SS"), None, (0, 10), MIN)
    for v, s in ((0, 1.0), (5, 0.5), (10, 0.0)):
        assert fa(v) == pytest.approx(s, abs=TOL)

    fb = compile_single(label("ES"), 2, (0, 10), MIN)
    for v, s in ((1, 1.0), (2, 1.0), (6, 0.5), (10, 0.0)):
        assert fb(v) == pytest.approx(s, abs=TOL)

    fc = combine([(label("ES"), 2), (label("ES"), 5)], (0, 10), MIN)
    for v, s in ((2, 1.0), (3.5, 0.5), (4, 0.5), (7.5, 0.25), (10, 0.0)):
        assert fc(v) == pytest.approx(s, abs=TOL)


@criterion(4, "negation outside the LCS reverses the label")
def test_negation_reversal(mini_store):
    kb = PatternKB.build([pattern("more than <N>", "GE")])
    negated = select(kb, mini_store, tokenize("the response time shall be no more than 100 milliseconds"))
    assert negated.label == label("SE")
    plain = select(kb, mini_store, tokenize("the throughput shall be more than 200 users"))
    assert plain.label == label("GE")


@criterion(5, "the three classification examples come out right")
def test_classification_reproduction(mini_store):
    kb = PatternKB.build(
        [pattern("in <N>", "ES"), pattern("ideally less than <N>", "ES"), pattern("be fast", "SS")],
    )
    single = classify("The system should response in 2 seconds", kb, mini_store)
    assert [(p.label, p.v_beta) for p in single] == [(label("ES"), 2.0)]

    unbounded = classify("the system should be fast", kb, mini_store)
    assert [(p.label, p.v_beta) for p in unbounded] == [(label("SS"), None)]

    double = classify(
        "The system should response in 5 seconds and ideally less than 2 seconds",
        kb,
        mini_store,
    )
    assert [p.label for p in double] == [label("ES"), label("ES")]
    assert sorted(p.v_beta for p in double) == [2.0, 5.0]


def _position_sets(n, size):
    """Every `size`-subset of range(n): narrowest span first, then earliest start."""
    if size == 1:
        for j in range(n):
            yield (j,)
        return
    for width in range(size - 1, n):
        for first in range(n - width):
            last = first + width
            for inner in itertools.combinations(range(first + 1, last), size - 2):
                yield (first, *inner, last)


def _oracle_lcs(p_tokens, r_tokens):
    """Brute-force enumerator: max length, then min distance, then min first.

    Every set of requirement positions is tried, largest sets first and
    each size in tie-break order, so the first set whose tokens match a
    subsequence of the pattern is the answer.  Whether they do is decided
    by matching each token to the leftmost pattern position still free,
    which finds a subsequence whenever one exists.
    """
    m = len(p_tokens)
    matches = [
        [rt.isdigit() if pt == PLACEHOLDER else pt == rt for pt in p_tokens]
        for rt in r_tokens
    ]
    for size in range(min(m, len(r_tokens)), 0, -1):
        for pos in _position_sets(len(r_tokens), size):
            i = 0
            for j in pos:
                row = matches[j]
                while i < m and not row[i]:
                    i += 1
                if i == m:
                    break
                i += 1
            else:
                return (size, pos[0], pos[-1])
    return (0, -1, -1)


def _span_summary(result):
    """(length, first, last) of an LCS's requirement positions, as
    `_oracle_lcs` reports them."""
    positions = result.matched_positions
    return (len(positions), positions[0], positions[-1]) if positions else (0, -1, -1)


def _all_patterns(alphabet, max_len):
    for length in range(1, max_len + 1):
        for combo in itertools.product(alphabet, repeat=length):
            if sum(1 for t in combo if t == PLACEHOLDER) <= 1:
                yield combo


def _check_pairs(pattern_tokens_iter, req_token_lists):
    reqs = [(toks, tokenize(" ".join(toks))) for toks in req_token_lists]
    checked = 0
    for p_tokens in pattern_tokens_iter:
        pat = Pattern(p_tokens, label("ES"))
        for r_tokens, req in reqs:
            got = lcs(pat, req)
            assert _span_summary(got) == _oracle_lcs(p_tokens, r_tokens), (p_tokens, r_tokens)
            checked += 1
    return checked


@criterion(6, "LCS agrees with the brute-force oracle on exhaustive boxes")
def test_lcs_oracle_equivalence():
    started = time.perf_counter()

    # box A: every pattern up to length 4, every requirement up to length 5
    box_a = _check_pairs(
        _all_patterns(("a", "b", "7", PLACEHOLDER), 4),
        [
            list(toks)
            for length in range(1, 6)
            for toks in itertools.product(("a", "b", "7"), repeat=length)
        ],
    )

    # box B: short patterns over the full 5-symbol alphabet against long
    # (length 6..8) requirements
    box_b = _check_pairs(
        _all_patterns(("a", "b", "c", "7", PLACEHOLDER), 2),
        [
            list(toks)
            for length in range(6, 9)
            for toks in itertools.product(("a", "7"), repeat=length)
        ],
    )

    # box C: seeded random sample at the full 4/8 sizes
    rng = random.Random(2024)
    sample = []
    for _ in range(1500):
        while True:
            p = tuple(
                rng.choice(("a", "b", "c", "7", PLACEHOLDER))
                for _ in range(rng.randint(1, 4))
            )
            if sum(1 for t in p if t == PLACEHOLDER) <= 1:
                break
        r = [rng.choice(("a", "b", "c", "7")) for _ in range(rng.randint(1, 8))]
        sample.append((p, r))
    box_c = 0
    for p_tokens, r_tokens in sample:
        got = lcs(Pattern(p_tokens, label("ES")), tokenize(" ".join(r_tokens)))
        assert _span_summary(got) == _oracle_lcs(p_tokens, r_tokens)
        box_c += 1

    elapsed = time.perf_counter() - started
    assert box_a > 90_000 and box_b > 10_000 and box_c == 1500
    assert elapsed < 10.0, f"oracle sweep took {elapsed:.1f}s"


@criterion(7, "weighted metrics match the hand-computed fixture")
def test_metrics_oracle():
    a, b = label("ES"), label("GE")
    report = weighted_metrics([a, a, b], [a, b, b])
    assert report.wp == pytest.approx(5 / 6, abs=TOL)
    assert report.wr == pytest.approx(2 / 3, abs=TOL)
    assert report.wf1 == pytest.approx(2 / 3, abs=TOL)

    perfect = weighted_metrics([a, b, a], [a, b, a])
    assert perfect.wp == perfect.wr == perfect.wf1 == pytest.approx(1.0, abs=TOL)


@criterion(8, "invariant and property checks hold")
def test_property_suite(mini_store, bundled_kb):
    # compiled scores stay in [0, 1] and segments slope with their kind
    for left in "GSE":
        for right in "GSE":
            for direction in (MIN, MAX):
                fn = compile_single(label(left + right), 4, (0, 10), direction)
                kinds = (left, right)
                for kind, seg in zip(kinds, fn.segments):
                    values = [
                        value_at(seg, seg.v_lo + (seg.v_hi - seg.v_lo) * i / 99)
                        for i in range(100)
                    ]
                    assert all(0.0 <= v <= 1.0 for v in values)
                    deltas = [b - a for a, b in zip(values, values[1:])]
                    if kind == "E":
                        assert all(d == 0 for d in deltas)
                    elif kind == "S":
                        assert all(d <= 1e-12 for d in deltas)
                    else:
                        assert all(d >= -1e-12 for d in deltas)

    # cosine identities on seeded random vectors
    rng = random.Random(99)
    for _ in range(50):
        u = [rng.uniform(-3, 3) for _ in range(12)]
        v = [rng.uniform(-3, 3) for _ in range(12)]
        assert cosine(u, u) == pytest.approx(1.0, abs=TOL)
        assert cosine(u, v) == pytest.approx(cosine(v, u), abs=TOL)
        assert cosine([2.5 * x for x in u], v) == pytest.approx(cosine(u, v), abs=TOL)

    # negation swap is an involution
    for l in "GSE":
        for r in "GSE":
            assert label(l + r).swap_preferences().swap_preferences() == label(l + r)

    # selection and resampling are deterministic under fixed inputs
    req = tokenize("The platform shall be capable of supporting 2000 sessions")
    assert select(bundled_kb, mini_store, req) == select(bundled_kb, mini_store, req)
    rows = load_dataset(data_path(MINI_CORPUS_FILE))
    first = bootstrap_eval(rows, runs=2, train_fraction=2 / 3, seed=11, store=mini_store)
    second = bootstrap_eval(rows, runs=2, train_fraction=2 / 3, seed=11, store=mini_store)
    assert report_lines(first) == report_lines(second)

    # fused scores stay in [0, 1] across weights
    for w in (0.0, 0.3, 0.7, 1.0):
        match = select(bundled_kb, mini_store, req, MatcherConfig(w=w))
        assert 0.0 <= match.fused <= 1.0


@criterion(9, "bundled corpus classifies with wF1 >= 0.80 in under 5 seconds")
def test_desk_scale_end_to_end(mini_store, bundled_kb):
    started = time.perf_counter()
    rows = load_dataset(data_path(MINI_CORPUS_FILE))
    golds = [row.gold for row in rows]
    preds = [predict_label(bundled_kb, mini_store, tokenize(row.text))[0] for row in rows]
    report = weighted_metrics(golds, preds)
    elapsed = time.perf_counter() - started
    assert report.wf1 >= 0.80, f"wF1 {report.wf1:.3f}"
    assert elapsed < 5.0


@criterion(10, "extraction of 170 plus classification of 100 stays under a second")
def test_efficiency_sanity(mini_store):
    subjects = ("system", "server", "gateway", "service", "platform",
                "scheduler", "interface", "pipeline", "cluster", "node")
    shapes = (
        ("The {s} shall respond in {n} seconds", "ES"),
        ("The {s} shall complete requests within {n} seconds", "ES"),
        ("Latency of the {s} shall be no more than {n} milliseconds", "SE"),
        ("The {s} shall recover in under {n} minutes", "ES"),
        ("Downtime of the {s} shall be at most {n} minutes", "SE"),
        ("The {s} shall support at least {n} users", "GE"),
        ("The {s} shall handle more than {n} requests per second", "GE"),
        ("The {s} shall be capable of supporting {n} sessions", "GE"),
    )
    rows = []
    i = 0
    while len(rows) < 170:
        template, codes = shapes[i % len(shapes)]
        text = template.format(s=subjects[i % len(subjects)], n=10 + (i % 37) * 5)
        rows.append(LabeledRequirement(f"s{i}", text, label(codes)))
        i += 1

    started = time.perf_counter()
    kb = build_kb(rows)
    preds = [predict_label(kb, mini_store, tokenize(row.text))[0] for row in rows[:100]]
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    correct = sum(1 for row, pred in zip(rows[:100], preds) if pred == row.gold)
    assert correct >= 90
