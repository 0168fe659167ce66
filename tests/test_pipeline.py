import builtins
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import perfquant.data
from perfquant import (
    ALL_LABELS,
    ClassLabel,
    MatcherConfig,
    MetricDirection,
    Pattern,
    QuantificationRequest,
    classify,
    compile_single,
    quantify,
)
from perfquant.data import default_directions
from perfquant.errors import (
    ExpectationOutOfBounds,
    InconsistentDirections,
    NoMatch,
    PerfQuantError,
)
from perfquant.patterns import PLACEHOLDER, PatternKB
from perfquant.text import tokenize


def label(codes):
    return ClassLabel.from_codes(codes[0], codes[1])


def pattern(text, codes):
    tokens = tuple(t if t == PLACEHOLDER else t.lower() for t in text.split())
    return Pattern(tokens, label(codes))


@pytest.fixture(scope="module")
def example_kb():
    return PatternKB.build(
        [
            pattern("in <N>", "ES"),
            pattern("ideally less than <N>", "ES"),
            pattern("be fast", "SS"),
        ],
    )


class TestClassify:
    def test_single_expectation(self, example_kb, mini_store):
        parts = classify("The system should response in 2 seconds", example_kb, mini_store)
        assert len(parts) == 1
        assert parts[0].label == label("ES")
        assert parts[0].v_beta == 2.0

    def test_no_expectation(self, example_kb, mini_store):
        parts = classify("the system should be fast", example_kb, mini_store)
        assert parts[0].label == label("SS")
        assert parts[0].v_beta is None

    def test_two_expectations_split_and_classified(self, example_kb, mini_store):
        parts = classify(
            "The system should response in 5 seconds and ideally less than 2 seconds",
            example_kb,
            mini_store,
        )
        assert [p.label for p in parts] == [label("ES"), label("ES")]
        assert sorted(p.v_beta for p in parts) == [2.0, 5.0]

    def test_unmatched_part_has_none_label(self, example_kb, mini_store):
        parts = classify("totally unrelated text", example_kb, mini_store)
        assert parts[0].label is None
        assert parts[0].match is None


class TestQuantify:
    def test_single_expectation_function(self, example_kb, mini_store):
        request = QuantificationRequest(
            text="The system should response in 2 seconds", bounds=(0, 10)
        )
        result = quantify(request, example_kb, mini_store)
        fn = result.function
        assert fn(2) == 1.0
        assert fn(10) == 0.0
        assert fn.direction is MetricDirection.MINIMIZE

    def test_two_expectation_function(self, example_kb, mini_store):
        request = QuantificationRequest(
            text="The system should response in 5 seconds and ideally less than 2 seconds",
            bounds=(0, 10),
        )
        result = quantify(request, example_kb, mini_store)
        fn = result.function
        assert fn(1) == 1.0
        assert fn(3.5) == 0.5
        assert fn(7.5) == 0.25
        assert fn(10) == 0.0
        assert len(result.parts) == 2

    def test_deterministic_serialization(self, example_kb, mini_store):
        request = QuantificationRequest(
            text="The system should response in 2 seconds", bounds=(0, 10)
        )
        first = quantify(request, example_kb, mini_store).function.to_json()
        second = quantify(request, example_kb, mini_store).function.to_json()
        assert first == second

    def test_parts_match_classify_output(self, example_kb, mini_store):
        text = "The system should response in 5 seconds and ideally less than 2 seconds"
        result = quantify(QuantificationRequest(text=text, bounds=(0, 10)), example_kb, mini_store)
        classified = classify(text, example_kb, mini_store)
        assert [(p[1], p[2]) for p in result.parts] == [
            (p.label, p.v_beta) for p in classified
        ]

    def test_explicit_direction_wins(self, example_kb, mini_store):
        request = QuantificationRequest(
            text="The system should response in 2 seconds",
            bounds=(0, 10),
            direction=MetricDirection.MAXIMIZE,
        )
        result = quantify(request, example_kb, mini_store)
        assert result.function.direction is MetricDirection.MAXIMIZE

    def test_direction_inferred_from_keywords(self, mini_store, bundled_kb):
        result = quantify(
            QuantificationRequest(text="The system shall support at least 500 transactions per second"),
            bundled_kb,
            mini_store,
        )
        assert result.function.direction is MetricDirection.MAXIMIZE

    def test_unknown_metric_defaults_to_minimize_with_warning(self, mini_store, bundled_kb):
        result = quantify(
            QuantificationRequest(text="The gizmo shall stay under 7 florps"),
            bundled_kb,
            mini_store,
        )
        assert result.function.direction is MetricDirection.MINIMIZE
        assert any("direction" in w for w in result.warnings)

    def test_conflicting_part_directions_raise(self, mini_store, bundled_kb):
        with pytest.raises(InconsistentDirections):
            quantify(
                QuantificationRequest(
                    text="The service shall respond in 2 seconds and support at least 100 users"
                ),
                bundled_kb,
                mini_store,
            )

    def test_default_bounds_double_the_largest_expectation(self, example_kb, mini_store):
        result = quantify(
            QuantificationRequest(text="The system should response in 5 seconds"),
            example_kb,
            mini_store,
        )
        assert result.function.bounds == (0.0, 10.0)

    def test_no_expectation_bounds_fall_back(self, example_kb, mini_store):
        result = quantify(
            QuantificationRequest(text="the system should be fast"),
            example_kb,
            mini_store,
        )
        assert result.function.bounds == (0.0, 1.0)
        assert any("bounds" in w for w in result.warnings)

    def test_second_part_without_expectation_is_dropped_with_warning(
        self, example_kb, mini_store
    ):
        # the split yields two parts but the second one's winning pattern
        # carries no placeholder, so only the first is quantified
        result = quantify(
            QuantificationRequest(
                text="The api shall respond in 5 seconds and be fast like 2",
                bounds=(0, 10),
            ),
            example_kb,
            mini_store,
        )
        assert len(result.parts) == 1
        assert result.parts[0][1] == label("ES") and result.parts[0][2] == 5.0
        assert any("expectation" in w for w in result.warnings)
        assert result.function(10) == 0.0

    def test_first_part_without_expectation_is_dropped_for_the_second(
        self, mini_store, bundled_kb
    ):
        # both parts match, but only the second holds an expectation point,
        # so it alone is compiled and the first is named in a warning
        result = quantify(
            QuantificationRequest(
                text="The system must be fast for 3 users and be reliable for 5 users"
            ),
            bundled_kb,
            mini_store,
        )
        assert result.parts == [
            ("The system must be reliable for 5 users", label("GS"), 5.0, 0.6023856010741659)
        ]
        assert result.warnings == [
            "part 'The system must be fast for 3 users' lacks an expectation point; "
            "quantified without it"
        ]
        assert result.function == compile_single(
            label("GS"), 5.0, (0.0, 10.0), MetricDirection.MAXIMIZE
        )

    def test_nothing_matched_raises(self, example_kb, mini_store):
        with pytest.raises(NoMatch):
            quantify(
                QuantificationRequest(text="completely unrelated text"),
                example_kb,
                mini_store,
            )


def _is_constant(fn):
    """Whether g takes one value at every segment's ends and midpoint."""
    points = [v for seg in fn.segments for v in (seg.v_lo, (seg.v_lo + seg.v_hi) / 2, seg.v_hi)]
    return len({fn(v) for v in points}) == 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(1, 1000), min_size=1, max_size=2, unique=True))
def test_constant_function_warning_fires_exactly_when_g_is_constant(mini_store, points):
    """Every label, or pair of labels, under both directions: the warning
    is there, naming the labels, the direction and the constant, exactly
    when the compiled g is constant."""
    words = ("within", "under")[: len(points)]
    text = "the job shall be " + " and ".join(f"{w} {v}" for w, v in zip(words, points))
    constant = 0
    for labels in itertools.product(ALL_LABELS, repeat=len(points)):
        kb = PatternKB.build([Pattern((w, PLACEHOLDER), lab) for w, lab in zip(words, labels)])
        for direction in MetricDirection:
            result = quantify(QuantificationRequest(text, direction=direction), kb, mini_store)
            assert [lab for _, lab, _, _ in result.parts] == list(labels)
            warned = [w for w in result.warnings if "cannot discriminate" in w]
            assert len(warned) == _is_constant(result.function), (labels, direction)
            if warned:
                constant += 1
                assert all(str(lab) in warned[0] for lab in labels)
                assert f"under {direction.value}:" in warned[0]
                assert f"constant {result.function(points[0])};" in warned[0]
    assert 0 < constant < 2 * len(ALL_LABELS) ** len(points)


SIGNED_REQ = "The temperature shall stay above -5 degrees"


def test_negative_expectation_outside_default_bounds_raises(mini_store, bundled_kb):
    with pytest.raises(ExpectationOutOfBounds):
        quantify(QuantificationRequest(text=SIGNED_REQ), bundled_kb, mini_store)


def test_negative_expectation_keeps_its_sign(mini_store, bundled_kb):
    result = quantify(
        QuantificationRequest(text=SIGNED_REQ, bounds=(-10, 10)), bundled_kb, mini_store
    )
    assert [v_beta for _, _, v_beta, _ in result.parts] == [-5.0]
    assert result.function.bounds == (-10.0, 10.0)


@pytest.mark.parametrize(
    "suffixed, spaced",
    [
        ("The response time shall be under 15ms", "The response time shall be under 15 ms"),
        ("The job shall finish within 2s", "The job shall finish within 2 s"),
    ],
)
def test_unit_suffixed_number_quantifies_like_a_spaced_one(suffixed, spaced, mini_store, bundled_kb):
    got, want = (
        quantify(QuantificationRequest(text=t), bundled_kb, mini_store) for t in (suffixed, spaced)
    )
    assert got.function.to_json() == want.function.to_json()
    assert [p[1:] for p in got.parts] == [p[1:] for p in want.parts]


def test_exponent_notation_sets_the_expectation_and_default_bounds(mini_store, bundled_kb):
    result = quantify(
        QuantificationRequest(text="The system shall respond within 1e3 ms"), bundled_kb, mini_store
    )
    assert [v_beta for _, _, v_beta, _ in result.parts] == [1000.0]
    assert result.function.bounds == (0.0, 2000.0)


@pytest.mark.parametrize("number", ["1e308", "1e400"])
def test_expectation_too_large_for_default_bounds_raises(number, mini_store, bundled_kb):
    with pytest.raises(ExpectationOutOfBounds):
        quantify(
            QuantificationRequest(text=f"The system shall respond within {number} ms"),
            bundled_kb,
            mini_store,
        )


# a numeral past the float range parses to an infinity: classify reports
# it, quantify cannot bound it
@pytest.mark.parametrize(
    "numeral, value",
    [("1e309", math.inf), ("1" * 400, math.inf), ("-1e309", -math.inf)],
    ids=["1e309", "400-digits", "-1e309"],
)
def test_numeral_past_the_float_range_is_an_infinite_expectation(
    numeral, value, mini_store, bundled_kb
):
    text = f"The system shall respond within {numeral} seconds"
    assert tokenize(text).tokens[5].numeric_value == value
    [part] = classify(text, bundled_kb, mini_store)
    assert part.label == label("ES") and part.v_beta == value
    with pytest.raises(ExpectationOutOfBounds):
        quantify(QuantificationRequest(text=text), bundled_kb, mini_store)


def test_numeral_below_the_float_range_underflows_to_zero(mini_store, bundled_kb):
    text = "The system shall respond within 1e-400 seconds"
    token = tokenize(text).tokens[5]
    assert repr(token.numeric_value) == "0.0"
    result = quantify(QuantificationRequest(text=text), bundled_kb, mini_store)
    assert [v_beta for _, _, v_beta, _ in result.parts] == [0.0]
    assert result.function.bounds == (0.0, 1.0)
    assert result.warnings == ["no usable expectation point; defaulting bounds to (0, 1)"]


@pytest.mark.parametrize("bounds", [(0, float("inf")), (float("-inf"), 1), (0, float("nan"))])
def test_request_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        QuantificationRequest(text="The system should response in 5 seconds", bounds=bounds)


def test_direction_lexicon_contains_spec_defaults():
    lexicon = default_directions()
    for word in ("time", "latency", "response", "seconds", "ms"):
        assert lexicon[word] is MetricDirection.MINIMIZE
    for word in ("users", "throughput", "requests", "transactions"):
        assert lexicon[word] is MetricDirection.MAXIMIZE


# the 30 entries of the former direction_words.tsv, written out as the oracle
PARENT_DIRECTION_WORDS = {
    **{
        w: MetricDirection.MINIMIZE
        for w in (
            "time", "latency", "response", "respond", "seconds", "second", "ms",
            "milliseconds", "millisecond", "minutes", "minute", "hours", "hour",
            "delay", "downtime", "overhead", "watts",
        )
    },
    **{
        w: MetricDirection.MAXIMIZE
        for w in (
            "users", "user", "throughput", "requests", "request", "transactions",
            "transaction", "sessions", "connections", "capacity", "records", "events",
            "samples",
        )
    },
}


def test_direction_lexicon_equals_the_former_word_table():
    assert len(PARENT_DIRECTION_WORDS) == 30
    assert dict(default_directions()) == PARENT_DIRECTION_WORDS


def test_direction_lexicon_is_one_shared_read_only_mapping():
    lexicon = default_directions()
    assert lexicon is default_directions()
    with pytest.raises(TypeError):
        lexicon["florps"] = MetricDirection.MAXIMIZE
    assert "florps" not in default_directions()


def test_quantify_opens_no_file(monkeypatch, mini_store, bundled_kb):
    request = QuantificationRequest(text="The system shall support at least 500 transactions per second")
    want = quantify(request, bundled_kb, mini_store).function.to_json()

    def refuse(*args, **kwargs):
        raise AssertionError(f"file opened on the request path: {args[0]!r}")

    monkeypatch.setattr(builtins, "open", refuse)
    assert quantify(request, bundled_kb, mini_store).function.to_json() == want


@pytest.mark.parametrize(
    "make",
    [
        lambda: QuantificationRequest("x", bounds=(1.0, 0.0)),
        lambda: QuantificationRequest("x", bounds=(0.0, float("nan"))),
        lambda: QuantificationRequest("x", bounds=(-1e308, 1e308)),
        lambda: MatcherConfig(2.0),
        lambda: MatcherConfig(-0.1),
    ],
    ids=["reversed-bounds", "nan-bound", "overflowing-width", "w-above-1", "w-below-0"],
)
def test_bad_caller_arguments_raise_the_package_error(make):
    with pytest.raises(PerfQuantError):
        make()


# (text, function JSON, parts as (text, codes, v_beta, repr(fused)), warnings)
TWO_PART_CASES = [
    (
        "The system should respond in 5 seconds and ideally less than 2 seconds",
        '{"direction": "min", "segments": ['
        '{"v_lo": 0.0, "v_hi": 2.0, "s_lo": 1.0, "s_hi": 1.0}, '
        '{"v_lo": 2.0, "v_hi": 3.5, "s_lo": 1.0, "s_hi": 0.5}, '
        '{"v_lo": 3.5, "v_hi": 5.0, "s_lo": 0.5, "s_hi": 0.5}, '
        '{"v_lo": 5.0, "v_hi": 10.0, "s_lo": 0.5, "s_hi": 0.0}]}',
        [
            ("The system should respond in 5 seconds", "ES", 5.0, "1.0"),
            ("The system should respond ideally less than 2 seconds", "ES", 2.0, "1.0"),
        ],
        [],
    ),
    (
        "The system must be fast for 3 users and be reliable for 5 users",
        '{"direction": "max", "segments": ['
        '{"v_lo": 0.0, "v_hi": 5.0, "s_lo": 0.0, "s_hi": 1.0}, '
        '{"v_lo": 5.0, "v_hi": 10.0, "s_lo": 1.0, "s_hi": 0.0}]}',
        [("The system must be reliable for 5 users", "GS", 5.0, "0.6023856010741659")],
        ["part 'The system must be fast for 3 users' lacks an expectation point; "
         "quantified without it"],
    ),
    (
        "The system shall be fast on 3 nodes and be quick on 5 nodes",
        '{"direction": "min", "segments": ['
        '{"v_lo": 0.0, "v_hi": 1.0, "s_lo": 1.0, "s_hi": 0.0}]}',
        [("The system shall be fast on 3 nodes", "SS", None, "1.0")],
        [
            "no direction keyword found; assuming a minimized metric",
            "no usable expectation point; defaulting bounds to (0, 1)",
            "part 'The system shall be quick on 5 nodes' lacks an expectation point; "
            "quantified without it",
        ],
    ),
]


@pytest.mark.parametrize("text, function, parts, warnings", TWO_PART_CASES)
def test_two_part_requirements_quantify_by_their_expectation_points(
    text, function, parts, warnings, mini_store, bundled_kb
):
    """Two, one and no parts with an expectation point: the parts with one
    are compiled together, and without any the first part is kept."""
    result = quantify(QuantificationRequest(text), bundled_kb, mini_store)
    assert result.function.to_json() == function
    got = [(t, "".join(lab.codes), v_beta, repr(fused)) for t, lab, v_beta, fused in result.parts]
    assert got == parts
    assert result.warnings == warnings


def test_quantify_reads_the_direction_lexicon_once_per_request(
    monkeypatch, mini_store, bundled_kb
):
    """Through `perfquant.data`, so a wrapper put on the module sees every call."""
    calls = []
    lookup = perfquant.data.default_directions

    def counting():
        calls.append(1)
        return lookup()

    monkeypatch.setattr(perfquant.data, "default_directions", counting)
    for text, *_ in TWO_PART_CASES:
        quantify(QuantificationRequest(text), bundled_kb, mini_store)
    assert len(calls) == len(TWO_PART_CASES)
