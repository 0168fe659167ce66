"""Quantify natural-language performance requirements.

Requirements are classified into a nine-class preference scheme (an
ordered pair of fragment kinds around an optional expectation point) by
matching against a pattern knowledge base with dual syntactic/semantic
scoring, then compiled into piecewise-linear satisfaction functions.
"""

from .embeddings import VectorStore, cosine, load_vectors, sentence_vector
from .matching import (
    LcsResult,
    MatchResult,
    MatcherConfig,
    apply_negation,
    lcs,
    select,
    semantic_score,
    syntactic_score,
)
from .patterns import (
    PLACEHOLDER,
    Pattern,
    PatternKB,
    extract_pattern,
    load_patterns,
)
from .pipeline import (
    QuantificationRequest,
    QuantificationResult,
    classify,
    quantify,
)
from .satisfaction import (
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

__version__ = "0.1.0"

# the evaluation stack (csv, statistics and with it fractions and decimal) is
# imported on first use of one of its names: `classify` and `quantify` never
# pay for it (PEP 562)
_EVALUATION_NAMES = frozenset({
    "BootstrapResult",
    "LabeledRequirement",
    "MetricsReport",
    "bootstrap_eval",
    "cross_eval",
    "load_dataset",
    "weighted_metrics",
})


def __getattr__(name: str):
    if name not in _EVALUATION_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import evaluation

    value = globals()[name] = getattr(evaluation, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EVALUATION_NAMES})

__all__ = [
    "ALL_LABELS",
    "BootstrapResult",
    "ClassLabel",
    "Fragment",
    "FragmentKind",
    "LabeledRequirement",
    "LcsResult",
    "MatchResult",
    "MatcherConfig",
    "MetricDirection",
    "MetricsReport",
    "PLACEHOLDER",
    "Pattern",
    "PatternKB",
    "QuantificationRequest",
    "QuantificationResult",
    "SatisfactionFunction",
    "VectorStore",
    "apply_negation",
    "bootstrap_eval",
    "classify",
    "combine",
    "compile_single",
    "cosine",
    "cross_eval",
    "evaluate",
    "extract_pattern",
    "lcs",
    "load_dataset",
    "load_patterns",
    "load_vectors",
    "quantify",
    "resolve_intervals",
    "select",
    "semantic_score",
    "sentence_vector",
    "set_scores",
    "syntactic_score",
    "weighted_metrics",
]
