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
from dataclasses import dataclass
from enum import Enum

from .errors import ExpectationOutOfBounds, MissingExpectation


class MetricDirection(Enum):
    MINIMIZE = "min"
    MAXIMIZE = "max"

    @classmethod
    def from_code(cls, code: str) -> "MetricDirection":
        return cls(code.strip().lower())


class FragmentKind(Enum):
    GREATER = "G"
    SMALLER = "S"
    EQUAL = "E"

    @property
    def distinguishable(self) -> bool:
        """Greater/Smaller carry a slope; Equal is flat."""
        return self is not FragmentKind.EQUAL

    @classmethod
    def from_code(cls, code: str) -> "FragmentKind":
        return cls(code.strip().upper())


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
        if self.v_lo > self.v_hi:
            raise ValueError(f"fragment interval reversed: [{self.v_lo}, {self.v_hi}]")
        for s in (self.s_lo, self.s_hi):
            if not 0.0 <= s <= 1.0:
                raise ValueError(f"satisfaction score {s} outside [0, 1]")
        if self.kind is FragmentKind.EQUAL and self.s_lo != self.s_hi:
            raise ValueError("indifferent fragment must have a constant score")

    @property
    def width(self) -> float:
        return self.v_hi - self.v_lo

    def same_interval(self, other: "Fragment") -> bool:
        return self.v_lo == other.v_lo and self.v_hi == other.v_hi

    def value_at(self, v: float) -> float:
        if self.v_hi == self.v_lo:
            return self.s_lo
        t = (v - self.v_lo) / (self.v_hi - self.v_lo)
        return self.s_lo + t * (self.s_hi - self.s_lo)


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
            raise ValueError("satisfaction function needs at least one segment")
        for a, b in zip(self.segments, self.segments[1:]):
            if a.v_hi != b.v_lo:
                raise ValueError("segments must tile the range without gaps")

    @property
    def bounds(self) -> tuple[float, float]:
        return self.segments[0].v_lo, self.segments[-1].v_hi

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

    The sequence is partitioned into maximal series.  A run of two or more
    consecutive indifferent fragments forms its own series where each score
    alternates as 1 - previous.  Everything else groups into monotonic
    series (sloped fragments of one kind, with single indifferent fragments
    interleaved holding the current score); within such a series the score
    points step by 1/d where d is the number of sloped fragments, downward
    for Smaller and upward for Greater.  Steps are clamped to [0, 1].
    """
    if not kinds:
        raise ValueError("empty fragment sequence")

    current = _initial_score(kinds[0], direction)
    scores: list[tuple[float, float]] = []
    n = len(kinds)
    i = 0
    while i < n:
        if kinds[i] is FragmentKind.EQUAL:
            j = i
            while j < n and kinds[j] is FragmentKind.EQUAL:
                j += 1
            run = j - i
            if run >= 2:
                # pure indifferent series: first holds, the rest alternate
                scores.append((current, current))
                for _ in range(run - 1):
                    current = 1.0 - current
                    scores.append((current, current))
                i = j
                continue
            # single indifferent fragment: holds the current score point
            scores.append((current, current))
            i += 1
            continue

        # monotonic series: collect sloped fragments of one kind plus any
        # single interleaved indifferent fragments
        series_kind = kinds[i]
        members: list[FragmentKind] = []
        j = i
        while j < n:
            k = kinds[j]
            if k is FragmentKind.EQUAL:
                # a run of >= 2 indifferent fragments ends the series
                run_end = j
                while run_end < n and kinds[run_end] is FragmentKind.EQUAL:
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
        d = sum(1 for k in members if k.distinguishable)
        step = (1.0 / d) * (1.0 if series_kind is FragmentKind.GREATER else -1.0)
        for k in members:
            if k.distinguishable:
                nxt = _clamp01(current + step)
                scores.append((current, nxt))
                current = nxt
            else:
                scores.append((current, current))
        i = j

    return scores


def resolve_intervals(a: Fragment, b: Fragment) -> tuple[Fragment, Fragment]:
    """Split two adjacent fragments that claim the identical interval.

    A conflict exists when the intervals coincide and either the kinds or
    the scores differ; the interval is then halved, the first fragment
    keeping the left half.  Non-conflicting pairs pass through unchanged,
    so the operation is idempotent.
    """
    if not a.same_interval(b):
        return a, b
    if a.kind == b.kind and a.s_lo == b.s_lo and a.s_hi == b.s_hi:
        return a, b
    mid = (a.v_lo + a.v_hi) / 2.0
    left = Fragment(a.kind, a.v_lo, mid, a.s_lo, a.s_hi)
    right = Fragment(b.kind, mid, b.v_hi, b.s_lo, b.s_hi)
    return left, right


def check_bounds(bounds: tuple[float, float]) -> tuple[float, float]:
    """The metric bounds (lo, hi), checked to be finite with lo < hi and hi - lo finite."""
    lo, hi = bounds
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bounds must be finite, got ({lo}, {hi})")
    if not lo < hi:
        raise ValueError(f"bounds must satisfy lo < hi, got ({lo}, {hi})")
    if not math.isfinite(hi - lo):
        raise ValueError(f"bounds width hi - lo must be finite, got ({lo}, {hi})")
    return lo, hi


def _compile(fragments: list[Fragment], direction: MetricDirection) -> SatisfactionFunction:
    frags = list(fragments)
    for i in range(len(frags) - 1):
        frags[i], frags[i + 1] = resolve_intervals(frags[i], frags[i + 1])
    frags = [f for f in frags if f.width > 0.0]
    deduped: list[Fragment] = []
    for f in frags:
        if deduped and f == deduped[-1]:
            continue
        deduped.append(f)
    return SatisfactionFunction(tuple(deduped), direction)


def compile_single(
    label: ClassLabel,
    v_beta: float | None,
    bounds: tuple[float, float],
    direction: MetricDirection,
) -> SatisfactionFunction:
    """Compile a single classified requirement into its satisfaction function."""
    lo, hi = check_bounds(bounds)
    if v_beta is None:
        if not label.symmetric:
            raise MissingExpectation(
                f"label {label} needs an expectation point to split the range"
            )
        kinds = [label.left]
        cuts = [lo, hi]
    else:
        if not lo <= v_beta <= hi:
            raise ExpectationOutOfBounds(
                f"expectation {v_beta} outside bounds ({lo}, {hi})"
            )
        kinds = [label.left, label.right]
        cuts = [lo, v_beta, hi]
    scores = set_scores(kinds, direction)
    frags = [
        Fragment(kind, cuts[i], cuts[i + 1], s_lo, s_hi)
        for i, (kind, (s_lo, s_hi)) in enumerate(zip(kinds, scores))
    ]
    return _compile(frags, direction)


def combine(
    parts: list[tuple[ClassLabel, float]],
    bounds: tuple[float, float],
    direction: MetricDirection,
) -> SatisfactionFunction:
    """Compile one or two classified parts of a requirement jointly.

    Two parts are interleaved in expectation-point order: the first part
    covers [lo, x1] and [x1, x2], the second [x1, x2] and [x2, hi].  The
    shared middle interval is then conflict-split at its midpoint.
    """
    if not 1 <= len(parts) <= 2:
        raise ValueError(f"combine takes 1 or 2 parts, got {len(parts)}")
    lo, hi = check_bounds(bounds)
    for _, v in parts:
        if v is None:
            raise ValueError("combine requires an expectation point per part")
        if not lo <= v <= hi:
            raise ExpectationOutOfBounds(f"expectation {v} outside bounds ({lo}, {hi})")

    unique: list[tuple[ClassLabel, float]] = []
    for part in parts:
        if part not in unique:
            unique.append(part)
    unique.sort(key=lambda p: p[1])

    if len(unique) == 1:
        label, v = unique[0]
        return compile_single(label, v, bounds, direction)

    (label_a, x_a), (label_b, x_b) = unique
    kinds = [label_a.left, label_a.right, label_b.left, label_b.right]
    cuts = [lo, x_a, x_a, x_b, hi]
    intervals = [(lo, x_a), (x_a, x_b), (x_a, x_b), (x_b, hi)]
    scores = set_scores(kinds, direction)
    frags = [
        Fragment(kind, v0, v1, s_lo, s_hi)
        for kind, (v0, v1), (s_lo, s_hi) in zip(kinds, intervals, scores)
    ]
    return _compile(frags, direction)


def evaluate(fn: SatisfactionFunction, v: float) -> float:
    """Score a measured value; clamps outside the bounds, right segment wins at knots.

    NaN raises ValueError.
    """
    lo, hi = fn.bounds
    if v <= lo:
        return fn.segments[0].s_lo
    if v >= hi:
        return fn.segments[-1].s_hi
    for seg in fn.segments:
        if v < seg.v_hi:
            return seg.value_at(v)
    # the last segment ends at hi, so only NaN, which fails every
    # comparison, gets here
    raise ValueError(f"cannot score {v!r}: not a number")
