"""End-to-end orchestration: text -> split -> match -> classify -> quantify."""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from . import data
from .embeddings import VectorStore
from .errors import ExpectationOutOfBounds, InconsistentDirections, NoMatch
from .matching import MatcherConfig, MatchResult, select
from .patterns import PatternKB
from .satisfaction import (
    ClassLabel,
    MetricDirection,
    SatisfactionFunction,
    check_bounds,
    combine,
    compile_single,
)
from .text import TokenizedRequirement, split_expectations, tokenize


@dataclass(frozen=True)
class QuantificationRequest:
    text: str
    bounds: tuple[float, float] | None = None
    direction: MetricDirection | None = None

    def __post_init__(self) -> None:
        if self.bounds is not None:
            check_bounds(self.bounds)


@dataclass(frozen=True)
class PartClassification:
    """Classification outcome for one (possibly split) part of a requirement."""

    tokens: TokenizedRequirement
    match: MatchResult | None

    @property
    def text(self) -> str:
        return self.tokens.raw

    @property
    def label(self) -> ClassLabel | None:
        return self.match.label if self.match else None

    @property
    def v_beta(self) -> float | None:
        return self.match.v_beta if self.match else None


@dataclass
class QuantificationResult:
    parts: list[tuple[str, ClassLabel, float | None, float]]
    function: SatisfactionFunction
    warnings: list[str] = field(default_factory=list)


def classify(
    req_text: str,
    kb: PatternKB,
    store: VectorStore,
    cfg: MatcherConfig | None = None,
) -> list[PartClassification]:
    """Tokenize, split multi-expectation requirements, and match each part."""
    req = tokenize(req_text)
    return [
        PartClassification(part, select(kb, store, part, cfg))
        for part in split_expectations(req)
    ]


# metric words and the direction each one favours (`infer_direction`)
DIRECTION_WORDS: Mapping[str, MetricDirection] = MappingProxyType({
    **dict.fromkeys((
        "time latency response respond seconds second ms milliseconds millisecond"
        " minutes minute hours hour delay downtime overhead watts"
    ).split(), MetricDirection.MINIMIZE),
    **dict.fromkeys((
        "users user throughput requests request transactions transaction sessions"
        " connections capacity records events samples"
    ).split(), MetricDirection.MAXIMIZE),
})


def infer_direction(
    tokens: TokenizedRequirement, lexicon: Mapping[str, MetricDirection]
) -> MetricDirection | None:
    """Keyword-based direction guess: the first hit in token order decides.

    The metric noun usually follows the quantity ("100 users", "2
    seconds"), so tokens after the first number are scanned first; without
    a hit there the whole part is scanned in order.
    """
    words, nums = tokens.normalized, tokens.numeric_positions
    for word in (words[nums[0] + 1 :] if nums else ()) + words:
        hit = lexicon.get(word)
        if hit is not None:
            return hit
    return None


def _resolve_direction(
    request: QuantificationRequest,
    matched: list[PartClassification],
    lexicon: Mapping[str, MetricDirection],
    warnings: list[str],
) -> MetricDirection:
    if request.direction is not None:
        return request.direction
    inferred = {
        d for d in (infer_direction(p.tokens, lexicon) for p in matched) if d is not None
    }
    if len(inferred) > 1:
        raise InconsistentDirections(
            f"split parts imply both directions for {request.text!r}"
        )
    if not inferred:
        warnings.append("no direction keyword found; assuming a minimized metric")
        return MetricDirection.MINIMIZE
    return inferred.pop()


def _resolve_bounds(
    request: QuantificationRequest,
    with_beta: list[PartClassification],
    warnings: list[str],
) -> tuple[float, float]:
    if request.bounds is not None:
        return request.bounds
    top = max((p.v_beta for p in with_beta), default=0.0)
    if top > 0:
        hi = 2.0 * top
        if not math.isfinite(hi):
            raise ExpectationOutOfBounds(f"expectation {top} is too large to derive bounds")
        return (0.0, hi)
    warnings.append("no usable expectation point; defaulting bounds to (0, 1)")
    return (0.0, 1.0)


def quantify(
    request: QuantificationRequest,
    kb: PatternKB,
    store: VectorStore,
    cfg: MatcherConfig | None = None,
) -> QuantificationResult:
    """Classify a requirement and compile its satisfaction function; a
    constant one gets a warning, as it cannot discriminate."""
    # looked up on `perfquant.data` per call, so a wrapper put there (the
    # benchmark tracer's) still sees one call per request
    direction_words = data.default_directions()

    warnings: list[str] = []
    parts = classify(request.text, kb, store, cfg)
    matched = [p for p in parts if p.label is not None]
    for p in parts:
        if p.label is None:
            warnings.append(f"no pattern matched part {p.text!r}")
    if not matched:
        raise NoMatch(f"no pattern matched {request.text!r}")

    with_beta = [p for p in matched if p.v_beta is not None]
    direction = _resolve_direction(request, matched, direction_words, warnings)
    bounds = _resolve_bounds(request, with_beta, warnings)

    kept = with_beta or matched[:1]
    for p in matched:
        if p.v_beta is None and p is not kept[0]:
            warnings.append(
                f"part {p.text!r} lacks an expectation point; quantified without it"
            )
    if with_beta:
        function = combine([(p.label, p.v_beta) for p in kept], bounds, direction)
    else:
        function = compile_single(kept[0].label, None, bounds, direction)
    scores = {s for seg in function.segments for s in (seg.s_lo, seg.s_hi)}
    if len(scores) == 1:
        labels = " and ".join(str(p.label) for p in kept)
        warnings.append(
            f"{'labels' if len(kept) > 1 else 'label'} {labels} under {direction.value}: "
            f"g is the constant {scores.pop()}; it cannot discriminate"
        )

    outcome = [(p.text, p.label, p.v_beta, p.match.fused) for p in kept]
    return QuantificationResult(parts=outcome, function=function, warnings=warnings)
