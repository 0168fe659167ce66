import itertools
import json
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from perfquant import (
    ALL_LABELS,
    ClassLabel,
    Fragment,
    FragmentKind,
    MetricDirection,
    SatisfactionFunction,
    combine,
    compile_single,
    evaluate,
    resolve_intervals,
    set_scores,
)
from perfquant.errors import ExpectationOutOfBounds, InvalidArgument, MissingExpectation
from perfquant.pipeline import QuantificationRequest, quantify
from perfquant.satisfaction import _compile, check_bounds

MIN = MetricDirection.MINIMIZE
MAX = MetricDirection.MAXIMIZE
G, S, E = FragmentKind.GREATER, FragmentKind.SMALLER, FragmentKind.EQUAL


def label(codes: str) -> ClassLabel:
    return ClassLabel.from_codes(codes[0], codes[1])


def value_at(seg, v):
    """The score of segment `seg` at v, computed apart from `evaluate`'s
    table: a zero-width segment scores s_lo; otherwise t = (v - v_lo) /
    (v_hi - v_lo), then s_lo + t * (s_hi - s_lo)."""
    if seg.v_hi == seg.v_lo:
        return seg.s_lo
    t = (v - seg.v_lo) / (seg.v_hi - seg.v_lo)
    return seg.s_lo + t * (seg.s_hi - seg.s_lo)


class TestSetScores:
    def test_smaller_equal_smaller_series(self):
        # one monotonic series with an interleaved flat fragment
        assert set_scores([S, E, S], MIN) == [(1.0, 0.5), (0.5, 0.5), (0.5, 0.0)]

    def test_single_indistinguishable(self):
        assert set_scores([E], MIN) == [(1.0, 1.0)]
        assert set_scores([E], MAX) == [(0.0, 0.0)]

    def test_consecutive_indistinguishable_alternate(self):
        assert set_scores([E, E, E], MIN) == [(1.0, 1.0), (0.0, 0.0), (1.0, 1.0)]

    def test_two_expectation_latency_shape(self):
        assert set_scores([E, S, E, S], MIN) == [
            (1.0, 1.0),
            (1.0, 0.5),
            (0.5, 0.5),
            (0.5, 0.0),
        ]

    def test_rising_series_with_plateaus(self):
        assert set_scores([G, E, G, E], MAX) == [
            (0.0, 0.5),
            (0.5, 0.5),
            (0.5, 1.0),
            (1.0, 1.0),
        ]

    def test_initial_scores(self):
        assert set_scores([G], MIN)[0][0] == 0.0
        assert set_scores([G], MAX)[0][0] == 0.0
        assert set_scores([S], MIN)[0][0] == 1.0
        assert set_scores([S], MAX)[0][0] == 1.0

    def test_scores_stay_in_unit_interval(self):
        rng = random.Random(7)
        kinds = [G, S, E]
        for _ in range(300):
            seq = [rng.choice(kinds) for _ in range(rng.randint(1, 6))]
            for direction in (MIN, MAX):
                for lo, hi in set_scores(seq, direction):
                    assert 0.0 <= lo <= 1.0
                    assert 0.0 <= hi <= 1.0

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            set_scores([], MIN)

    def test_matches_series_scan_oracle(self):
        # bit-identical to the reference series scan on every short sequence
        for n in range(1, 8):
            for seq in itertools.product((G, S, E), repeat=n):
                for direction in (MIN, MAX):
                    got = [(a.hex(), b.hex()) for a, b in set_scores(list(seq), direction)]
                    want = [(a.hex(), b.hex()) for a, b in series_scan_scores(seq, direction)]
                    assert got == want, (seq, direction)


def series_scan_scores(kinds, direction):
    """Reference score setting: find each maximal series, then step through it.

    A run of two or more indifferent fragments is a series whose scores
    alternate; otherwise a series collects sloped fragments of one kind and
    single indifferent fragments, and steps by 1/d over its d sloped ones.
    """
    if kinds[0] is E:
        current = 1.0 if direction is MIN else 0.0
    else:
        current = 0.0 if kinds[0] is G else 1.0
    scores = []
    n = len(kinds)
    i = 0
    while i < n:
        if kinds[i] is E:
            j = i
            while j < n and kinds[j] is E:
                j += 1
            run = j - i
            if run >= 2:
                scores.append((current, current))
                for _ in range(run - 1):
                    current = 1.0 - current
                    scores.append((current, current))
                i = j
                continue
            scores.append((current, current))
            i += 1
            continue

        series_kind = kinds[i]
        members = []
        j = i
        while j < n:
            k = kinds[j]
            if k is E:
                run_end = j
                while run_end < n and kinds[run_end] is E:
                    run_end += 1
                if run_end - j >= 2:
                    break
                members.append(k)
                j += 1
                continue
            if k is not series_kind:
                break
            members.append(k)
            j += 1
        d = sum(1 for k in members if k is not E)
        step = (1.0 / d) * (1.0 if series_kind is G else -1.0)
        for k in members:
            if k is not E:
                nxt = min(1.0, max(0.0, current + step))
                scores.append((current, nxt))
                current = nxt
            else:
                scores.append((current, current))
        i = j
    return scores


class TestCompileSingle:
    def test_unbounded_smaller_preference(self):
        fn = compile_single(label("SS"), None, (0, 10), MIN)
        assert len(fn.segments) == 1
        assert fn(0) == 1.0
        assert fn(5) == 0.5
        assert fn(10) == 0.0

    def test_single_expectation_latency(self):
        fn = compile_single(label("ES"), 2, (0, 10), MIN)
        assert fn(1) == 1.0
        assert fn(2) == 1.0
        assert fn(10) == 0.0
        assert fn(6) == 0.5

    def test_equal_equal_steps_down(self):
        fn = compile_single(label("EE"), 5, (0, 10), MIN)
        assert fn(2) == 1.0
        assert fn(4.999) == 1.0
        # right segment wins at the shared knot
        assert fn(5) == 0.0
        assert fn(7) == 0.0

    def test_asymmetric_label_requires_expectation(self):
        with pytest.raises(MissingExpectation):
            compile_single(label("ES"), None, (0, 10), MIN)

    def test_expectation_outside_bounds(self):
        with pytest.raises(ExpectationOutOfBounds):
            compile_single(label("ES"), 12, (0, 10), MIN)

    def test_expectation_too_long_to_print_is_out_of_bounds(self):
        # str() of an int past 4,300 digits raises ValueError; the message notes it instead
        with pytest.raises(ExpectationOutOfBounds, match="^expectation <int too long to print> "):
            compile_single(label("ES"), 10**5000, (0, 10), MIN)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            compile_single(label("SS"), None, (10, 10), MIN)

    @pytest.mark.parametrize(
        "bounds",
        [(0, math.inf), (-math.inf, 10), (0, math.nan), (math.nan, 10), (-1e308, 1e308)],
    )
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(ValueError, match="finite"):
            compile_single(label("ES"), 5, bounds, MIN)
        with pytest.raises(ValueError, match="finite"):
            compile_single(label("SS"), None, bounds, MIN)
        with pytest.raises(ValueError, match="finite"):
            combine([(label("ES"), 2), (label("GE"), 5)], bounds, MIN)

    def test_segment_counts_over_all_labels(self):
        for lab in ALL_LABELS:
            if lab.symmetric:
                fn = compile_single(lab, None, (0, 10), MIN)
                assert len(fn.segments) == 1
            fn = compile_single(lab, 4, (0, 10), MIN)
            assert len(fn.segments) >= 2


class TestResolveIntervals:
    def test_conflicting_claims_split_at_midpoint(self):
        a = Fragment(S, 2, 5, 1.0, 0.5)
        b = Fragment(E, 2, 5, 0.5, 0.5)
        ra, rb = resolve_intervals(a, b)
        assert (ra.v_lo, ra.v_hi) == (2, 3.5)
        assert (rb.v_lo, rb.v_hi) == (3.5, 5)
        assert ra.kind is S and rb.kind is E

    def test_disjoint_intervals_untouched(self):
        a = Fragment(E, 0, 2, 1.0, 1.0)
        b = Fragment(S, 2, 10, 1.0, 0.0)
        assert resolve_intervals(a, b) == (a, b)

    def test_identical_quantification_untouched(self):
        a = Fragment(E, 1, 3, 1.0, 1.0)
        b = Fragment(E, 1, 3, 1.0, 1.0)
        assert resolve_intervals(a, b) == (a, b)

    def test_idempotent(self):
        a = Fragment(S, 2, 5, 1.0, 0.5)
        b = Fragment(E, 2, 5, 0.5, 0.5)
        once = resolve_intervals(a, b)
        assert resolve_intervals(*once) == once

    def test_midpoint_near_the_float_maximum(self):
        # (lo + hi) / 2 overflows to inf here
        a = Fragment(S, 1.2e308, 1.5e308, 1.0, 0.5)
        b = Fragment(E, 1.2e308, 1.5e308, 0.5, 0.5)
        ra, rb = resolve_intervals(a, b)
        assert ra.v_hi == rb.v_lo == 1.35e308
        fn = combine([(label("ES"), 1.2e308), (label("ES"), 1.5e308)], (1e308, 1.7e308), MIN)
        assert [seg.v_hi for seg in fn.segments] == [1.2e308, 1.35e308, 1.5e308, 1.7e308]


class TestCombine:
    def test_two_expectation_latency_reproduction(self):
        fn = combine([(label("ES"), 2), (label("ES"), 5)], (0, 10), MIN)
        assert fn(1) == 1.0
        assert fn(3.5) == 0.5
        assert fn(4) == 0.5
        assert fn(7.5) == 0.25
        assert fn(10) == 0.0

    def test_single_part_reduces_to_compile_single(self):
        for lab in ALL_LABELS:
            joint = combine([(lab, 3)], (0, 10), MIN)
            single = compile_single(lab, 3, (0, 10), MIN)
            assert joint == single

    def test_two_rising_expectations(self):
        # hand-applied score setting and midpoint split:
        # G [0,100] 0->0.5, E plateau 0.5 on [100,150], G 0.5->1 on
        # [150,200], E plateau 1 on [200,400]
        fn = combine([(label("GE"), 100), (label("GE"), 200)], (0, 400), MAX)
        expected = {
            0: 0.0,
            50: 0.25,
            100: 0.5,
            125: 0.5,
            150: 0.5,
            175: 0.75,
            200: 1.0,
            300: 1.0,
            400: 1.0,
        }
        for v, s in expected.items():
            assert fn(v) == pytest.approx(s, abs=1e-12)
        samples = [fn(v / 10) for v in range(0, 4001)]
        assert all(b >= a - 1e-12 for a, b in zip(samples, samples[1:]))

    def test_duplicate_parts_collapse(self):
        joint = combine([(label("ES"), 2), (label("ES"), 2)], (0, 10), MIN)
        assert joint == compile_single(label("ES"), 2, (0, 10), MIN)

    def test_out_of_bounds_part(self):
        with pytest.raises(ExpectationOutOfBounds):
            combine([(label("ES"), 2), (label("ES"), 50)], (0, 10), MIN)

    def test_out_of_bounds_part_too_long_to_print(self):
        with pytest.raises(ExpectationOutOfBounds, match="^expectation <int too long to print> "):
            combine([(label("ES"), 10**5000)], (0, 10), MIN)

    def test_part_count_limits(self):
        with pytest.raises(ValueError):
            combine([], (0, 10), MIN)
        with pytest.raises(ValueError):
            combine([(label("ES"), v) for v in (1, 2, 3)], (0, 10), MIN)


# --- the former layouts: one interval pair per point in `compile_single`,
# --- four intervals for two points in `combine`, which sent one to the other


def former_compile_single(label, v_beta, bounds, direction):
    lo, hi = check_bounds(bounds)
    if v_beta is None:
        if not label.symmetric:
            raise MissingExpectation(
                f"label {label} needs an expectation point to split the range"
            )
        return _compile([label.left], [(lo, hi)], direction)
    if not lo <= v_beta <= hi:
        raise ExpectationOutOfBounds(f"expectation {v_beta} outside bounds ({lo}, {hi})")
    return _compile([label.left, label.right], [(lo, v_beta), (v_beta, hi)], direction)


def former_combine(parts, bounds, direction):
    lo, hi = check_bounds(bounds)
    for _, v in parts:
        if not lo <= v <= hi:
            raise ExpectationOutOfBounds(f"expectation {v} outside bounds ({lo}, {hi})")
    unique = sorted(dict.fromkeys(parts), key=lambda p: p[1])
    if len(unique) == 1:
        label, v = unique[0]
        return former_compile_single(label, v, bounds, direction)
    (label_a, x_a), (label_b, x_b) = unique
    return _compile(
        [label_a.left, label_a.right, label_b.left, label_b.right],
        [(lo, x_a), (x_a, x_b), (x_a, x_b), (x_b, hi)],
        direction,
    )


def _outcome(compile_fn, *args):
    """The function's JSON and repr, or the error's type and message."""
    try:
        fn = compile_fn(*args)
    except (ValueError, MissingExpectation, ExpectationOutOfBounds) as exc:
        return type(exc), str(exc)
    return fn.to_json(), repr(fn)


# points at lo, inside, at hi and outside, as ints and floats
BOUNDS_AND_POINTS = [
    ((0, 10), (0, 2, 2.5, 5, 10, 12)),
    ((0.0, 1.0), (0.0, 0.25, 1.0, -0.5)),
    ((-10, 10), (-10, -5.0, 0, 10.0)),
    ((1e308, 1.7e308), (1e308, 1.2e308, 1.5e308, 1.7e308)),
]


class TestAgainstTheFormerLayouts:
    @pytest.mark.parametrize("direction", [MIN, MAX])
    def test_one_point_or_none(self, direction):
        for lab, (bounds, points) in itertools.product(ALL_LABELS, BOUNDS_AND_POINTS):
            for v in (None, *points):
                args = (lab, v, bounds, direction)
                assert _outcome(compile_single, *args) == _outcome(former_compile_single, *args)
                if v is not None:
                    args = ([(lab, v)], bounds, direction)
                    assert _outcome(combine, *args) == _outcome(former_combine, *args)

    @pytest.mark.parametrize("direction", [MIN, MAX])
    def test_two_points(self, direction):
        for bounds, points in BOUNDS_AND_POINTS:
            for a, b in itertools.product(ALL_LABELS, repeat=2):
                for x, y in itertools.product(points, repeat=2):
                    args = ([(a, x), (b, y)], bounds, direction)
                    assert _outcome(combine, *args) == _outcome(former_combine, *args)


class TestDirectionType:
    """A direction that is not a `MetricDirection` is refused, not read as
    neither minimized nor maximized."""

    @pytest.mark.parametrize("direction", ["min", "max", None, 1])
    def test_compile_single_and_combine(self, direction):
        with pytest.raises(InvalidArgument, match="MetricDirection"):
            compile_single(label("ES"), 2, (0, 10), direction)
        with pytest.raises(InvalidArgument, match="MetricDirection"):
            compile_single(label("SS"), None, (0, 10), direction)
        with pytest.raises(InvalidArgument, match="MetricDirection"):
            combine([(label("ES"), 2), (label("GE"), 5)], (0, 10), direction)
        with pytest.raises(InvalidArgument, match="MetricDirection"):
            set_scores([S], direction)

    def test_quantify(self, bundled_kb, mini_store):
        request = QuantificationRequest(
            "The system should respond in 2 seconds", bounds=(0, 10), direction="min"
        )
        with pytest.raises(InvalidArgument, match="got 'min'"):
            quantify(request, bundled_kb, mini_store)


class TestEvaluate:
    def test_out_of_bounds_clamps(self):
        fn = compile_single(label("ES"), 2, (0, 10), MIN)
        assert evaluate(fn, -5) == 1.0
        assert evaluate(fn, 99) == 0.0

    def test_nan_raises(self):
        fn = compile_single(label("ES"), 15, (0, 30), MIN)
        with pytest.raises(ValueError, match="nan"):
            evaluate(fn, math.nan)

    def test_scores_bounded_and_shaped(self):
        # per-segment: flat for E, non-increasing for S, non-decreasing for G
        directions = (MIN, MAX)
        for lab, direction in itertools.product(ALL_LABELS, directions):
            fn = compile_single(lab, 4, (0, 10), direction)
            kinds = [lab.left, lab.right]
            for kind, seg in zip(kinds, fn.segments):
                values = [
                    value_at(seg, seg.v_lo + (seg.v_hi - seg.v_lo) * i / 99)
                    for i in range(100)
                ]
                assert all(0.0 <= v <= 1.0 for v in values)
                pairs = zip(values, values[1:])
                if kind is E:
                    assert all(a == b for a, b in pairs)
                elif kind is S:
                    assert all(b <= a + 1e-12 for a, b in pairs)
                else:
                    assert all(b >= a - 1e-12 for a, b in pairs)


# the whole finite range, weighted toward the largest magnitudes, where a
# width hi - lo can overflow
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e307, allow_infinity=False),
    st.floats(max_value=-1e307, allow_infinity=False),
)


def former_evaluate(fn, v):
    """The former `evaluate`: a scan for the first segment with v < v_hi."""
    lo, hi = fn.bounds
    if v <= lo:
        return fn.segments[0].s_lo
    if v >= hi:
        return fn.segments[-1].s_hi
    for seg in fn.segments:
        if v < seg.v_hi:
            return value_at(seg, v)
    raise InvalidArgument(f"cannot score {v!r}: not a number")


def _bits(x):
    """A score's type and exact bits: a clamp returns a score as it was built."""
    return type(x), float(x).hex()


def probe_points(fn):
    """Every knot, the floats either side of it, and points beyond the bounds."""
    knots = [fn.segments[0].v_lo, *(seg.v_hi for seg in fn.segments)]
    lo, hi = fn.bounds
    near = [math.nextafter(k, d) for k in knots for d in (-math.inf, math.inf)]
    return [*knots, *near, lo - 1, hi + 1, -math.inf, math.inf]


@st.composite
def tilings(draw):
    """A function built directly from its segments: int or float knots, some
    repeated so that their segment has zero width, and any scores."""
    numbers = draw(st.sampled_from([st.integers(-10**6, 10**6), FINITE]))
    values = draw(st.lists(numbers, min_size=1, max_size=6))
    knots = sorted(values + draw(st.lists(st.sampled_from(values), max_size=3)))
    if len(knots) == 1:
        knots *= 2
    segments = []
    for v_lo, v_hi in zip(knots, knots[1:]):
        kind = draw(st.sampled_from(list(FragmentKind)))
        s_lo = draw(st.floats(0, 1))
        s_hi = s_lo if kind is E else draw(st.floats(0, 1))
        segments.append(Fragment(kind, v_lo, v_hi, s_lo, s_hi))
    return SatisfactionFunction(tuple(segments), draw(st.sampled_from(list(MetricDirection))))


@st.composite
def compile_inputs(draw):
    """Label, expectation point, bounds and direction for `compile_single`.

    The bounds come from the whole finite range, so their width can
    overflow; the expectation point lies inside them, and is left out of
    a symmetric label half the time.
    """
    lab = draw(st.sampled_from(ALL_LABELS))
    lo, hi = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
    v_beta = None
    if not lab.symmetric or draw(st.booleans()):
        v_beta = draw(st.floats(min_value=lo, max_value=hi))
    return lab, v_beta, (lo, hi), draw(st.sampled_from(list(MetricDirection)))


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(compile_inputs(), st.data())
    def test_score_in_unit_interval(self, inputs, data):
        lab, v_beta, (lo, hi), direction = inputs
        if not math.isfinite(hi - lo):
            with pytest.raises(ValueError, match="width"):
                compile_single(lab, v_beta, (lo, hi), direction)
            return
        fn = compile_single(lab, v_beta, (lo, hi), direction)
        inside = data.draw(st.floats(min_value=lo, max_value=hi))
        for v in (data.draw(FINITE), inside, lo, hi, *(seg.v_lo for seg in fn.segments)):
            assert 0.0 <= fn(v) <= 1.0

    @settings(max_examples=300, deadline=None)
    @given(compile_inputs())
    def test_segments_tile_the_bounds(self, inputs):
        lab, v_beta, (lo, hi), direction = inputs
        assume(math.isfinite(hi - lo))
        segments = compile_single(lab, v_beta, (lo, hi), direction).segments
        assert segments[0].v_lo == lo and segments[-1].v_hi == hi
        assert all(a.v_hi == b.v_lo for a, b in zip(segments, segments[1:]))
        assert all(seg.v_lo < seg.v_hi for seg in segments)

    @settings(max_examples=300, deadline=None)
    @given(compile_inputs())
    def test_combine_of_one_part_is_compile_single(self, inputs):
        lab, v_beta, bounds, direction = inputs
        assume(v_beta is not None and math.isfinite(bounds[1] - bounds[0]))
        assert combine([(lab, v_beta)], bounds, direction) == compile_single(
            lab, v_beta, bounds, direction
        )

    @settings(max_examples=300, deadline=None)
    @given(compile_inputs(), st.booleans(), st.data())
    def test_segments_shaped_as_their_kind(self, inputs, two_parts, data):
        # from compile_single, or from combine with a second part whose
        # expectation point also lies inside the bounds; two points near
        # the float maximum have a midpoint whose sum overflows
        lab, v_beta, (lo, hi), direction = inputs
        assume(math.isfinite(hi - lo))
        if two_parts:
            second = (data.draw(st.sampled_from(ALL_LABELS)), data.draw(st.floats(lo, hi)))
            # combine needs an expectation point for each part
            v_beta = lo if v_beta is None else v_beta
            fn = combine([(lab, v_beta), second], (lo, hi), direction)
        else:
            fn = compile_single(lab, v_beta, (lo, hi), direction)
        segments = fn.segments
        assert segments[0].v_lo == lo and segments[-1].v_hi == hi
        assert all(a.v_hi == b.v_lo for a, b in zip(segments, segments[1:]))
        for seg in segments:
            assert seg.v_lo < seg.v_hi
            if seg.kind is G:
                assert seg.s_lo <= seg.s_hi
            elif seg.kind is S:
                assert seg.s_lo >= seg.s_hi
            else:
                assert seg.s_lo == seg.s_hi


class TestEvaluateAgainstTheScan:
    """`evaluate` bisects a table compiled once; the former scan is its oracle."""

    @settings(max_examples=500, deadline=None)
    @given(tilings(), st.lists(FINITE, max_size=5))
    def test_direct_tilings(self, fn, extra):
        for v in (*probe_points(fn), *extra):
            assert _bits(evaluate(fn, v)) == _bits(former_evaluate(fn, v)), v
            assert _bits(fn(v)) == _bits(former_evaluate(fn, v)), v

    @settings(max_examples=300, deadline=None)
    @given(compile_inputs(), st.data())
    def test_compiled_functions(self, inputs, data):
        lab, v_beta, bounds, direction = inputs
        assume(math.isfinite(bounds[1] - bounds[0]))
        fn = compile_single(lab, v_beta, bounds, direction)
        inside = data.draw(st.lists(st.floats(*bounds), max_size=5))
        for v in (*probe_points(fn), *inside):
            assert _bits(evaluate(fn, v)) == _bits(former_evaluate(fn, v)), v

    def test_the_right_segment_wins_at_a_knot_and_zero_width_is_skipped(self):
        fn = SatisfactionFunction(
            (
                Fragment(G, 0, 5, 0.0, 0.5),
                Fragment(E, 5, 5, 0.25, 0.25),
                Fragment(S, 5, 10, 1.0, 0.0),
            ),
            MIN,
        )
        assert evaluate(fn, 5) == 1.0
        below = math.nextafter(5, 0)
        assert evaluate(fn, below) == value_at(fn.segments[0], below) < 0.5

    @pytest.mark.parametrize("v", [math.nan, None, "3", [1.0]])
    def test_not_a_number_raises(self, v):
        fn = compile_single(label("ES"), 5, (0, 10), MIN)
        with pytest.raises(InvalidArgument, match="not a number"):
            evaluate(fn, v)
        with pytest.raises(InvalidArgument, match="not a number"):
            fn(v)

    def test_the_table_is_built_on_first_evaluation(self):
        fn = compile_single(label("ES"), 5, (0, 10), MIN)
        assert "_table" not in vars(fn)
        fn(3)
        table = vars(fn)["_table"]
        fn(7)
        assert vars(fn)["_table"] is table
        assert fn == compile_single(label("ES"), 5, (0, 10), MIN)


def _fields(seg):
    return seg.v_lo, seg.v_hi, seg.s_lo, seg.s_hi


def _kind_shown(seg):
    if seg.s_lo == seg.s_hi:
        return E
    return G if seg.s_lo < seg.s_hi else S


class TestSerialization:
    def test_json_shape_and_field_order(self):
        fn = compile_single(label("ES"), 2, (0, 10), MIN)
        payload = json.loads(fn.to_json())
        assert payload["direction"] == "min"
        assert [list(seg.keys()) for seg in payload["segments"]] == [
            ["v_lo", "v_hi", "s_lo", "s_hi"]
        ] * len(payload["segments"])
        assert payload["segments"][0] == {"v_lo": 0, "v_hi": 2, "s_lo": 1.0, "s_hi": 1.0}

    def test_serialization_deterministic(self):
        parts = [(label("ES"), 2), (label("ES"), 5)]
        assert (
            combine(parts, (0, 10), MIN).to_json()
            == combine(parts, (0, 10), MIN).to_json()
        )

    @pytest.mark.parametrize("direction", [MIN, MAX])
    def test_from_json_round_trip(self, direction):
        # every label alone, and with each label's second part; the JSON
        # holds no kinds, so a sloped fragment clamped flat reads back as Equal
        for a, b in itertools.product(ALL_LABELS, (None, *ALL_LABELS)):
            parts = [(a, 10 / 3)] if b is None else [(a, 10 / 3), (b, 7)]
            fn = combine(parts, (0, 10), direction)
            text = fn.to_json()
            rebuilt = SatisfactionFunction.from_json(text)
            assert rebuilt.to_json() == text
            assert [type(x) for seg in rebuilt.segments for x in _fields(seg)] == [
                type(x) for seg in fn.segments for x in _fields(seg)
            ]
            shown = all(seg.kind is _kind_shown(seg) for seg in fn.segments)
            assert (rebuilt == fn) is shown
            assert rebuilt.segments == tuple(
                Fragment(_kind_shown(seg), *_fields(seg)) for seg in fn.segments
            )
            grid = [10 * k / 20 for k in range(21)]
            assert [_bits(rebuilt(v)) for v in grid] == [_bits(fn(v)) for v in grid]

    def test_full_float_precision(self):
        fn = compile_single(label("ES"), 1 / 3, (0, 1), MIN)
        payload = json.loads(fn.to_json())
        assert payload["segments"][0]["v_hi"] == 1 / 3
