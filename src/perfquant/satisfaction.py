"""Preference fragments and piecewise-linear satisfaction functions.

A performance requirement is modeled as an ordered conjunction of
preference fragments over intervals of the metric value.  Each fragment
either prefers greater values, prefers smaller values, or is indifferent
over its interval.  Compiling a classified requirement yields a
satisfaction function g(v) mapping a measured value to a score in [0, 1],
affine within each segment.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from .errors import ExpectationOutOfBounds, InvalidArgument, MissingExpectation, shown


class MetricDirection(Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"

    @classmethod
    def from_code(cls, code: str) -> "MetricDirection":
        try:
            return cls(code.strip().lower())
        except (AttributeError, ValueError):
            raise InvalidArgument(f"direction must be min or max, got {code!r}") from None


class FragmentKind(Enum):
    GREATER = "G"
    SMALLER = "S"
    EQUAL = "E"

    @classmethod
    def from_code(cls, code: str) -> "FragmentKind":
        try:
            return _FRAGMENT_KINDS[code.strip().upper()]
        except (AttributeError, KeyError, TypeError):
            raise InvalidArgument(f"fragment code must be G, S or E, got {code!r}") from None


# `from_code` looks a code up here: a dict read, where `FragmentKind(code)`
# pays for a call through the Enum constructor
_FRAGMENT_KINDS = {kind.value: kind for kind in FragmentKind}


@dataclass(frozen=True)
class ClassLabel:
    """Ordered pair of fragment kinds left and right of the expectation point."""

    left: FragmentKind
    right: FragmentKind

    @classmethod
    def from_codes(cls, left: str, right: str) -> "ClassLabel":
        return cls(FragmentKind.from_code(left), FragmentKind.from_code(right))

    @property
    def codes(self) -> tuple[str, str]:
        return self.left.value, self.right.value

    @property
    def symmetric(self) -> bool:
        return self.left == self.right

    def swap_preferences(self) -> "ClassLabel":
        """Swap Smaller and Greater in both components; Equal is a fixed point."""
        swap = {
            FragmentKind.SMALLER: FragmentKind.GREATER,
            FragmentKind.GREATER: FragmentKind.SMALLER,
            FragmentKind.EQUAL: FragmentKind.EQUAL,
        }
        return ClassLabel(swap[self.left], swap[self.right])

    def __str__(self) -> str:
        return "".join(self.codes)


ALL_LABELS: tuple[ClassLabel, ...] = tuple(
    ClassLabel(left, right) for left in FragmentKind for right in FragmentKind
)


@dataclass(frozen=True)
class Fragment:
    """One preference interval with its endpoint satisfaction scores."""

    kind: FragmentKind
    v_lo: float
    v_hi: float
    s_lo: float
    s_hi: float

    def __post_init__(self) -> None:
        try:
            if not (math.isfinite(self.v_lo) and math.isfinite(self.v_hi)):
                raise InvalidArgument(
                    f"fragment interval must be finite, got [{self.v_lo}, {self.v_hi}]"
                )
            if self.v_lo > self.v_hi:
                raise InvalidArgument(f"fragment interval reversed: [{self.v_lo}, {self.v_hi}]")
            for s in (self.s_lo, self.s_hi):
                if not 0.0 <= s <= 1.0:
                    raise InvalidArgument(f"satisfaction score {shown(s, str)} outside [0, 1]")
        except OverflowError:  # an int past the float range
            raise InvalidArgument(
                "fragment interval must be finite, got a bound past the float range"
            ) from None
        except TypeError:
            raise InvalidArgument(
                "fragment interval and scores must be numbers, got "
                f"({', '.join(map(shown, (self.v_lo, self.v_hi, self.s_lo, self.s_hi)))})"
            ) from None
        if self.kind is FragmentKind.EQUAL and self.s_lo != self.s_hi:
            raise InvalidArgument("indifferent fragment must have a constant score")


@dataclass(frozen=True)
class SatisfactionFunction:
    """Piecewise-linear satisfaction over [segments[0].v_lo, segments[-1].v_hi].

    Segments tile the range without gaps; at a shared knot the right-hand
    segment's value wins.  Values outside the range clamp to the nearest
    endpoint score.
    """

    segments: tuple[Fragment, ...]
    direction: MetricDirection

    def __post_init__(self) -> None:
        if not self.segments:
            raise InvalidArgument("satisfaction function needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.v_hi != b.v_lo:
                raise InvalidArgument("segments must tile the range without gaps")

    @property
    def bounds(self) -> tuple[float, float]:
        return self.segments[0].v_lo, self.segments[-1].v_hi

    @cached_property
    def _table(self) -> tuple:
        """What `evaluate` reads, built on its first call: lo, hi, g(lo),
        g(hi), the segments' v_hi knots, and per segment (v_lo, v_hi - v_lo,
        s_lo, s_hi - s_lo)."""
        segs = self.segments
        return (
            segs[0].v_lo, segs[-1].v_hi, segs[0].s_lo, segs[-1].s_hi,
            tuple(seg.v_hi for seg in segs),
            tuple((seg.v_lo, seg.v_hi - seg.v_lo, seg.s_lo, seg.s_hi - seg.s_lo) for seg in segs),
        )

    def __call__(self, v: float) -> float:
        return evaluate(self, v)

    def to_dict(self) -> dict:
        return {
            "direction": self.direction.value,
            "segments": [
                {"v_lo": s.v_lo, "v_hi": s.v_hi, "s_lo": s.s_lo, "s_hi": s.s_hi}
                for s in self.segments
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "SatisfactionFunction":
        """The function `to_json` wrote, built through the constructors, so
        malformed input raises `InvalidArgument`.  The JSON holds no fragment
        kinds: a segment reads back as Greater, Smaller or Equal by its
        scores, so a sloped fragment clamped flat returns as Equal."""
        try:
            payload = json.loads(text)
        except ValueError as exc:  # not JSON, or an int of more digits than `int` reads
            raise InvalidArgument(f"malformed satisfaction function JSON: {exc!r}") from None
        try:
            direction = MetricDirection.from_code(payload["direction"])
            rows = [(s["v_lo"], s["v_hi"], s["s_lo"], s["s_hi"]) for s in payload["segments"]]
            kinds = [
                FragmentKind.EQUAL if s_lo == s_hi
                else FragmentKind.GREATER if s_lo < s_hi
                else FragmentKind.SMALLER
                for _, _, s_lo, s_hi in rows
            ]
        except (KeyError, TypeError) as exc:
            raise InvalidArgument(f"malformed satisfaction function JSON: {exc!r}") from None
        return cls(tuple(Fragment(k, *row) for k, row in zip(kinds, rows)), direction)


def _clamp01(s: float) -> float:
    return min(1.0, max(0.0, s))


def _initial_score(kind: FragmentKind, direction: MetricDirection) -> float:
    # An indifferent opener starts fully satisfied when minimizing and fully
    # unsatisfied when maximizing; sloped openers start at their worst end.
    if kind is FragmentKind.EQUAL:
        return 1.0 if direction is MetricDirection.MINIMIZE else 0.0
    return 0.0 if kind is FragmentKind.GREATER else 1.0


def set_scores(
    kinds: list[FragmentKind], direction: MetricDirection
) -> list[tuple[float, float]]:
    """Assign endpoint scores to an ordered fragment-kind sequence.

    The first pass splits the sequence into series and counts the sloped
    (Greater or Smaller) fragments of each.  A series ends where the slope
    changes or where two indifferent fragments follow each other.  The
    second pass walks the sequence once: a sloped fragment moves the score
    by 1/d, where d is its series' count, upward for Greater and downward
    for Smaller, clamped to [0, 1]; an indifferent fragment holds the
    score, except that one directly after another indifferent fragment
    flips it to 1 - score.  A direction that is not a `MetricDirection`
    raises `InvalidArgument`.
    """
    if not kinds:
        raise InvalidArgument("empty fragment sequence")
    if not isinstance(direction, MetricDirection):
        raise InvalidArgument(f"direction must be a MetricDirection, got {direction!r}")
    equal, greater = FragmentKind.EQUAL, FragmentKind.GREATER

    counts: list[int] = []
    slope = previous = None
    for kind in kinds:
        if kind is equal:
            if previous is equal:
                slope = None
        else:
            if kind is not slope:
                slope = kind
                counts.append(0)
            counts[-1] += 1
        previous = kind

    series_counts = iter([d for d in counts for _ in range(d)])
    current = _initial_score(kinds[0], direction)
    scores: list[tuple[float, float]] = []
    previous = None
    for kind in kinds:
        if kind is equal:
            if previous is equal:
                current = 1.0 - current
            scores.append((current, current))
        else:
            start = current
            d = next(series_counts)
            current = _clamp01(current + (1.0 / d) * (1.0 if kind is greater else -1.0))
            scores.append((start, current))
        previous = kind
    return scores


def resolve_intervals(a: Fragment, b: Fragment) -> tuple[Fragment, Fragment]:
    """Split two adjacent fragments that claim the identical interval.

    A conflict exists when the intervals coincide and either the kinds or
    the scores differ; the interval is then halved, the first fragment
    keeping the left half.  Non-conflicting pairs pass through unchanged,
    so the operation is idempotent.
    """
    if a.v_lo != b.v_lo or a.v_hi != b.v_hi or a == b:
        return a, b
    mid = (a.v_lo + a.v_hi) / 2.0
    if not math.isfinite(mid):
        # lo + hi overflowed near the float maximum; the sum of the halves cannot
        mid = a.v_lo / 2.0 + a.v_hi / 2.0
    left = Fragment(a.kind, a.v_lo, mid, a.s_lo, a.s_hi)
    right = Fragment(b.kind, mid, b.v_hi, b.s_lo, b.s_hi)
    return left, right


def check_bounds(bounds: tuple[float, float]) -> tuple[float, float]:
    """The metric bounds (lo, hi), checked to be a finite pair with lo < hi and hi - lo finite."""
    try:
        lo, hi = bounds
    except (TypeError, ValueError):
        raise InvalidArgument(f"bounds must be a pair (lo, hi), got {bounds!r}") from None
    try:
        finite = math.isfinite(lo) and math.isfinite(hi)
    except TypeError:
        raise InvalidArgument(f"bounds must be numbers, got ({shown(lo)}, {shown(hi)})") from None
    except OverflowError:  # an int past the float range
        raise InvalidArgument("bounds must be finite, got a bound past the float range") from None
    if not finite:
        raise InvalidArgument(f"bounds must be finite, got ({lo}, {hi})")
    if not lo < hi:
        raise InvalidArgument(f"bounds must satisfy lo < hi, got ({lo}, {hi})")
    try:
        finite = math.isfinite(hi - lo)
    except OverflowError:  # two int bounds farther apart than the float range
        finite = False
    if not finite:
        raise InvalidArgument(f"bounds width hi - lo must be finite, got ({lo}, {hi})")
    return lo, hi


def _compile(
    kinds: list[FragmentKind],
    intervals: list[tuple[float, float]],
    direction: MetricDirection,
) -> SatisfactionFunction:
    """Score the fragments, split conflicting neighbours, drop empty and repeated ones."""
    frags = [
        Fragment(kind, v_lo, v_hi, s_lo, s_hi)
        for kind, (v_lo, v_hi), (s_lo, s_hi) in zip(kinds, intervals, set_scores(kinds, direction))
    ]
    for i in range(len(frags) - 1):
        frags[i], frags[i + 1] = resolve_intervals(frags[i], frags[i + 1])
    return SatisfactionFunction(
        tuple(dict.fromkeys(f for f in frags if f.v_lo < f.v_hi)), direction
    )


def compile_single(
    label: ClassLabel,
    v_beta: float | None,
    bounds: tuple[float, float],
    direction: MetricDirection,
) -> SatisfactionFunction:
    """Compile a single classified requirement into its satisfaction function:
    `combine` of its one part, or without a point its symmetric kind over [lo, hi]."""
    if v_beta is not None:
        return combine([(label, v_beta)], bounds, direction)
    lo, hi = check_bounds(bounds)
    if not label.symmetric:
        raise MissingExpectation(f"label {label} needs an expectation point to split the range")
    return _compile([label.left], [(lo, hi)], direction)


def combine(
    parts: list[tuple[ClassLabel, float]],
    bounds: tuple[float, float],
    direction: MetricDirection,
) -> SatisfactionFunction:
    """Compile one or two classified parts of a requirement jointly.

    The distinct parts, in expectation-point order, cut the range at the
    edges [lo, *points, hi]; part i covers the two intervals after edge i:
    one part [lo, x] and [x, hi]; of two, the first [lo, x1] and [x1, x2],
    the second [x1, x2] and [x2, hi], the shared one conflict-split at its midpoint.
    """
    if not 1 <= len(parts) <= 2:
        raise InvalidArgument(f"combine takes 1 or 2 parts, got {len(parts)}")
    lo, hi = check_bounds(bounds)
    for _, v in parts:
        if v is None:
            raise InvalidArgument("combine requires an expectation point per part")
        try:
            inside = lo <= v <= hi
        except TypeError:
            raise InvalidArgument(f"expectation point must be a number, got {v!r}") from None
        if not inside:
            raise ExpectationOutOfBounds(
                f"expectation {shown(v, str)} outside bounds ({lo}, {hi})"
            )

    unique = sorted(dict.fromkeys(parts), key=lambda p: p[1])
    edges = [lo, *[v for _, v in unique], hi]
    kinds, intervals = [], []
    for i, (label, _) in enumerate(unique):
        kinds += label.left, label.right
        intervals += (edges[i], edges[i + 1]), (edges[i + 1], edges[i + 2])
    return _compile(kinds, intervals, direction)


def evaluate(fn: SatisfactionFunction, v: float) -> float:
    """Score a measured value; clamps outside the bounds, right segment wins at knots.

    The segment is the first whose v_hi exceeds v, found by bisection over
    the knots; one of zero width is never it.  Its score is s_lo + t *
    (s_hi - s_lo) with t = (v - v_lo) / (v_hi - v_lo), in that order.  NaN
    and a value that does not compare with the bounds raise `InvalidArgument`.
    """
    lo, hi, s_first, s_last, knots, rows = fn._table
    try:
        if v <= lo:
            return s_first
        if v >= hi:
            return s_last
        # NaN fails every comparison, so it bisects past the last knot
        v_lo, width, s_lo, rise = rows[bisect_right(knots, v)]
    except (TypeError, IndexError):
        raise InvalidArgument(f"cannot score {v!r}: not a number") from None
    return s_lo + (v - v_lo) / width * rise
