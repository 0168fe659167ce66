"""Dataset I/O, weighted multi-class metrics, and the resampling protocol."""

from __future__ import annotations

import csv
import math
import numbers
import os
import random
import statistics
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .embeddings import VectorStore
from .errors import (
    DatasetParseError,
    DatasetTooSmall,
    DuplicateId,
    EmptyInput,
    EmptyKB,
    InvalidArgument,
    LengthMismatch,
    NoExtractableSpan,
    reads_utf8,
    shown,
)
from .matching import MatcherConfig, select
from .patterns import Pattern, PatternKB, extract_pattern
from .satisfaction import ClassLabel, MetricDirection
from .text import TokenizedRequirement, tokenize

DATASET_COLUMNS = ("id", "text", "left", "right", "v_beta", "direction")


@dataclass(frozen=True)
class LabeledRequirement:
    """One dataset row; its tokens and pattern are computed once, on first use."""

    id: str
    text: str
    gold: ClassLabel
    gold_v_beta: float | None = None
    direction: MetricDirection | None = None

    @cached_property
    def tokens(self) -> TokenizedRequirement:
        return tokenize(self.text)

    @cached_property
    def pattern(self) -> Pattern | None:
        """None where the extraction heuristic finds no span."""
        try:
            return extract_pattern(self.tokens, self.gold)
        except (NoExtractableSpan, EmptyInput):
            return None


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    undefined: bool = False


@dataclass(frozen=True)
class MetricsReport:
    wp: float
    wr: float
    wf1: float
    per_class: dict[ClassLabel, ClassMetrics]
    n_eval: int
    n_nomatch: int


@dataclass
class BootstrapResult:
    reports: list[MetricsReport]
    mean: tuple[float, float, float] = field(init=False)
    sd: tuple[float, float, float] = field(init=False)
    train_size: int = 0

    def __post_init__(self) -> None:
        columns = list(zip(*((r.wp, r.wr, r.wf1) for r in self.reports)))
        self.mean = tuple(map(statistics.mean, columns))
        self.sd = (0.0, 0.0, 0.0)
        if len(self.reports) > 1:
            self.sd = tuple(map(statistics.stdev, columns))


@reads_utf8(DatasetParseError)
def load_dataset(path: str | os.PathLike) -> list[LabeledRequirement]:
    """CSV with header id,text,left,right,v_beta,direction; v_beta and
    direction may be empty."""
    rows: list[LabeledRequirement] = []
    seen_ids: set[str] = set()
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.DictReader(fh)
        header = tuple(reader.fieldnames or ())
        if header != DATASET_COLUMNS:
            raise DatasetParseError(
                f"{path}: header must be {','.join(DATASET_COLUMNS)}, got {','.join(header)}"
            )
        for number, row in enumerate(reader, start=2):
            where = f"{path}: row {number}"
            rid = (row["id"] or "").strip()
            text = (row["text"] or "").strip()
            if not rid or not text:
                raise DatasetParseError(f"{where}: empty id or text")
            if rid in seen_ids:
                raise DuplicateId(f"{where}: duplicate id {rid!r}")
            seen_ids.add(rid)
            left, right = (row["left"] or "").strip(), (row["right"] or "").strip()
            try:
                gold = ClassLabel.from_codes(left, right)
            except ValueError as exc:
                raise DatasetParseError(
                    f"{where}: bad label codes {left!r}/{right!r}"
                ) from exc
            raw_beta = (row["v_beta"] or "").strip()
            try:
                v_beta = float(raw_beta) if raw_beta else None
            except ValueError as exc:
                raise DatasetParseError(f"{where}: bad v_beta {raw_beta!r}") from exc
            if v_beta is not None and not math.isfinite(v_beta):
                raise DatasetParseError(f"{where}: v_beta {raw_beta!r} is not finite")
            raw_dir = (row["direction"] or "").strip()
            try:
                direction = MetricDirection.from_code(raw_dir) if raw_dir else None
            except ValueError as exc:
                raise DatasetParseError(f"{where}: bad direction {raw_dir!r}") from exc
            rows.append(LabeledRequirement(rid, text, gold, v_beta, direction))
    return rows


def weighted_metrics(
    golds: list[ClassLabel], preds: list[ClassLabel | None]
) -> MetricsReport:
    """Per-class precision/recall/F1 weighted by gold-class proportion.

    A None prediction (no pattern matched) counts against its gold class
    and is tallied separately; zero-division cases score 0 and carry the
    per-class `undefined` flag.
    """
    if len(golds) != len(preds):
        raise LengthMismatch(f"{len(golds)} golds vs {len(preds)} predictions")
    if not golds:
        raise EmptyInput("no labels to score")

    n = len(golds)
    supports, predicted = Counter(golds), Counter(preds)
    hits = Counter(g for g, p in zip(golds, preds) if g == p)
    per_class: dict[ClassLabel, ClassMetrics] = {}
    wp = wr = wf1 = 0.0
    for cls in sorted(supports, key=lambda c: c.codes):
        tp, support, n_pred = hits[cls], supports[cls], predicted[cls]
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / support
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[cls] = ClassMetrics(precision, recall, f1, support, n_pred == 0)
        weight = support / n
        wp += weight * precision
        wr += weight * recall
        wf1 += weight * f1

    return MetricsReport(wp, wr, wf1, per_class, n, predicted[None])


def extract_patterns(rows: list[LabeledRequirement]) -> list[Pattern]:
    """One pattern per labeled row, in row order; rows the heuristic cannot
    handle are skipped."""
    return [row.pattern for row in rows if row.pattern is not None]


def build_kb(
    rows: list[LabeledRequirement], base_patterns: tuple[Pattern, ...] = ()
) -> PatternKB:
    """The base patterns plus those extracted from the rows."""
    return PatternKB.build([*base_patterns, *extract_patterns(rows)])


def predict_label(
    kb: PatternKB,
    store: VectorStore,
    req: TokenizedRequirement,
    cfg: MatcherConfig | None = None,
) -> tuple[ClassLabel | None, float | None]:
    """Single-label prediction for a dataset row (rows are pre-split)."""
    match = select(kb, store, req, cfg)
    if match is None:
        return None, None
    return match.label, match.v_beta


def evaluate_split(
    train: list[LabeledRequirement],
    test: list[LabeledRequirement],
    store: VectorStore,
    base_patterns: tuple[Pattern, ...] = (),
    cfg: MatcherConfig | None = None,
) -> MetricsReport:
    kb = build_kb(train, base_patterns)
    preds = [predict_label(kb, store, row.tokens, cfg)[0] for row in test]
    return weighted_metrics([row.gold for row in test], preds)


def sample_split(
    n: int, train_size: int, seed: int, run_index: int
) -> tuple[list[int], list[int]]:
    """Seeded sample without replacement; train and test partition [0, n)."""
    rng = random.Random(seed * 1_000_003 + run_index)
    train_idx = sorted(rng.sample(range(n), train_size))
    test_idx = sorted(set(range(n)).difference(train_idx))
    return train_idx, test_idx


def _is_integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def bootstrap_eval(
    dataset: list[LabeledRequirement],
    runs: int,
    train_fraction: float,
    seed: int,
    store: VectorStore,
    base_patterns: tuple[Pattern, ...] = (),
    cfg: MatcherConfig | None = None,
    train_size: int | None = None,
) -> BootstrapResult:
    """Repeated extract-on-a-sample / test-on-the-rest evaluation.

    Each run draws floor(train_fraction * n) rows (or exactly train_size
    when given) without replacement under a per-run derived seed, builds a
    pattern base from them, and scores classification on the remainder.
    `runs` below 1, a `runs`, `seed` or `train_size` that is not an
    integer (a `bool` is not one), or, when `train_size` is None, a
    `train_fraction` that is not a real number raises `InvalidArgument`.
    """
    if not _is_integer(runs) or runs < 1:
        raise InvalidArgument(f"runs must be an integer >= 1, got {shown(runs)}")
    if not _is_integer(seed):
        raise InvalidArgument(f"seed must be an integer, got {seed!r}")
    if train_size is not None and not _is_integer(train_size):
        raise InvalidArgument(f"train_size must be an integer, got {train_size!r}")
    n = len(dataset)
    if train_size is None:
        try:
            finite = math.isfinite(train_fraction)
        except OverflowError:  # an int past the float range
            finite = False
        except TypeError:
            raise InvalidArgument(
                f"train_fraction must be a real number, got {train_fraction!r}"
            ) from None
        if not finite:
            raise DatasetTooSmall(f"train fraction {shown(train_fraction, str)} is not finite")
    k = train_size if train_size is not None else math.floor(train_fraction * n)
    if k < 1 or k >= n:
        raise DatasetTooSmall(f"train size {shown(k, str)} of {n} leaves an empty partition")

    reports = []
    for run_index in range(runs):
        train_idx, test_idx = sample_split(n, k, seed, run_index)
        train = [dataset[i] for i in train_idx]
        test = [dataset[i] for i in test_idx]
        try:
            reports.append(evaluate_split(train, test, store, base_patterns, cfg))
        except EmptyKB as exc:
            raise EmptyKB(
                f"run {run_index + 1}: none of its {k} training rows yields a pattern: {exc}"
            ) from None
    return BootstrapResult(reports=reports, train_size=k)


def cross_eval(
    train_dataset: list[LabeledRequirement],
    test_dataset: list[LabeledRequirement],
    store: VectorStore,
    base_patterns: tuple[Pattern, ...] = (),
    cfg: MatcherConfig | None = None,
) -> MetricsReport:
    """Extract from one whole dataset, test on all of another."""
    if not train_dataset or not test_dataset:
        raise DatasetTooSmall("cross-dataset evaluation needs non-empty datasets")
    return evaluate_split(train_dataset, test_dataset, store, base_patterns, cfg)


def report_lines(result: BootstrapResult) -> list[str]:
    """TSV rows (run, wP, wR, wF1, n_nomatch) plus the mean±sd summary."""
    lines = ["run\twP\twR\twF1\tn_nomatch"]
    for i, report in enumerate(result.reports, start=1):
        lines.append(
            f"{i}\t{report.wp:.4f}\t{report.wr:.4f}\t{report.wf1:.4f}\t{report.n_nomatch}"
        )
    mean, sd = result.mean, result.sd
    lines.append(
        "mean±sd\t"
        + "\t".join(f"{m:.4f}±{s:.4f}" for m, s in zip(mean, sd))
        + "\t-"
    )
    return lines


def report_json(result: BootstrapResult) -> dict:
    return {
        "runs": [
            {
                "run": i + 1,
                "wP": r.wp,
                "wR": r.wr,
                "wF1": r.wf1,
                "n_nomatch": r.n_nomatch,
            }
            for i, r in enumerate(result.reports)
        ],
        "mean": dict(zip(("wP", "wR", "wF1"), result.mean)),
        "sd": dict(zip(("wP", "wR", "wF1"), result.sd)),
        "train_size": result.train_size,
    }
