"""End-to-end orchestration: text -> split -> match -> classify -> quantify."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

from .embeddings import VectorStore
from .errors import ExpectationOutOfBounds, InconsistentDirections, NoMatch, PatternParseError
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


def load_direction_words(path: str | os.PathLike) -> dict[str, MetricDirection]:
    """word<TAB>min|max, one per line; '#' comments allowed."""
    lexicon: dict[str, MetricDirection] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            entry = line.strip()
            if not entry or entry.startswith("#"):
                continue
            fields = entry.split("\t")
            if len(fields) != 2 or fields[1] not in ("min", "max"):
                raise PatternParseError(
                    f"{path}:{lineno}: expected 'word<TAB>min|max', got {entry!r}"
                )
            lexicon[fields[0].lower()] = MetricDirection(fields[1])
    return lexicon


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


def infer_direction(
    tokens: TokenizedRequirement, lexicon: dict[str, MetricDirection]
) -> MetricDirection | None:
    """Keyword-based direction guess.

    The metric noun usually follows the quantity ("100 users", "2
    seconds"), so tokens after the first number are scanned first; without
    a hit there the whole part is scanned in order.
    """
    nums = tokens.numeric_positions
    if nums:
        for tok in tokens.tokens[nums[0] + 1 :]:
            hit = lexicon.get(tok.normalized)
            if hit is not None:
                return hit
    for tok in tokens.tokens:
        hit = lexicon.get(tok.normalized)
        if hit is not None:
            return hit
    return None


def _resolve_direction(
    request: QuantificationRequest,
    matched: list[PartClassification],
    lexicon: dict[str, MetricDirection],
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
    matched: list[PartClassification],
    warnings: list[str],
) -> tuple[float, float]:
    if request.bounds is not None:
        return request.bounds
    betas = [p.v_beta for p in matched if p.v_beta is not None]
    if betas and max(betas) > 0:
        hi = 2.0 * max(betas)
        if not math.isfinite(hi):
            raise ExpectationOutOfBounds(f"expectation {max(betas)} is too large to derive bounds")
        return (0.0, hi)
    warnings.append("no usable expectation point; defaulting bounds to (0, 1)")
    return (0.0, 1.0)


def quantify(
    request: QuantificationRequest,
    kb: PatternKB,
    store: VectorStore,
    cfg: MatcherConfig | None = None,
) -> QuantificationResult:
    """Classify a requirement and compile its satisfaction function."""
    from .data import default_directions

    direction_words = default_directions()

    warnings: list[str] = []
    parts = classify(request.text, kb, store, cfg)
    matched = [p for p in parts if p.label is not None]
    for p in parts:
        if p.label is None:
            warnings.append(f"no pattern matched part {p.text!r}")
    if not matched:
        raise NoMatch(f"no pattern matched {request.text!r}")

    direction = _resolve_direction(request, matched, direction_words, warnings)
    bounds = _resolve_bounds(request, matched, warnings)

    with_beta = [p for p in matched if p.v_beta is not None]
    if len(with_beta) == 2:
        function = combine([(p.label, p.v_beta) for p in with_beta], bounds, direction)
    else:
        kept = with_beta[0] if with_beta else matched[0]
        for p in matched:
            if p is not kept:
                warnings.append(
                    f"part {p.text!r} lacks an expectation point; quantified without it"
                )
        function = compile_single(kept.label, kept.v_beta, bounds, direction)
        matched = [kept]

    outcome = [
        (p.text, p.label, p.v_beta, p.match.fused if p.match else 0.0) for p in matched
    ]
    return QuantificationResult(parts=outcome, function=function, warnings=warnings)
