"""Span recording around the calls between perfquant's layers.

The tracer replaces module attributes through which one layer calls
another (``perfquant.pipeline.select``, ``perfquant.matching.lcs`` ...) with
timing wrappers, so the library's source is untouched.  Spans stay in
memory as tuples and are written once, when the run ends.
"""

from __future__ import annotations

import gzip
import statistics
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, span name): the attribute is looked up by its caller
# at call time, so replacing it puts a span around every such call
TARGETS = (
    ("perfquant.pipeline", "classify", "pipeline.classify"),
    ("perfquant.pipeline", "quantify", "pipeline.quantify"),
    ("perfquant.pipeline", "tokenize", "text.tokenize"),
    ("perfquant.pipeline", "split_expectations", "text.split"),
    ("perfquant.pipeline", "select", "matching.select"),
    ("perfquant.pipeline", "infer_direction", "pipeline.infer_direction"),
    ("perfquant.pipeline", "compile_single", "satisfaction.compile"),
    ("perfquant.pipeline", "combine", "satisfaction.compile"),
    ("perfquant.text", "tokenize", "text.tokenize"),
    ("perfquant.matching", "lcs", "matching.lcs"),
    ("perfquant.matching", "syntactic_score", "matching.syntactic"),
    ("perfquant.matching", "semantic_score", "matching.semantic"),
    ("perfquant.matching", "apply_negation", "matching.negation"),
    ("perfquant.matching", "sentence_vector", "embeddings.sentence_vector"),
    ("perfquant.matching", "cosine", "embeddings.cosine"),
    ("perfquant.data", "default_directions", "data.default_directions"),
    ("perfquant.satisfaction", "evaluate", "satisfaction.evaluate"),
    ("perfquant.embeddings", "load_vectors", "embeddings.load_vectors"),
    ("perfquant.patterns", "load_patterns", "patterns.load_patterns"),
    ("perfquant.evaluation", "bootstrap_eval", "evaluation.bootstrap_eval"),
    ("perfquant.evaluation", "build_kb", "evaluation.build_kb"),
    ("perfquant.evaluation", "extract_pattern", "patterns.extract"),
    ("perfquant.evaluation", "predict_label", "evaluation.predict"),
    ("perfquant.evaluation", "weighted_metrics", "evaluation.weighted_metrics"),
    ("perfquant.evaluation", "select", "matching.select"),
    ("perfquant.evaluation", "tokenize", "text.tokenize"),
)

# phases whose requests go through classify(); per-request ratios and the
# matching timings are taken from these only
REQUEST_PHASES = ("classify", "quantify")


class Tracer:
    """Records (name, phase, request id, parent span, start ns, end ns)."""

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.request = 0
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, self.phase, self.request, parent, start, end)

        return traced

    def install(self) -> None:
        import importlib

        from perfquant.patterns import PatternKB

        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original))
        build = PatternKB.__dict__["build"]
        self._saved.append((PatternKB, "build", build))
        PatternKB.build = classmethod(self._wrap("patterns.kb_build", build.__func__))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index,name,phase,request,parent,start_ns,end_ns\n")
            for i, span in enumerate(self.spans):
                if span is not None:
                    fh.write(f"{i},{','.join(map(str, span))}\n")


def _p50(values: list[float]) -> float:
    return statistics.median(values) if values else float("nan")


def layer_metrics(
    spans: list[tuple | None], words_loaded: int
) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Per-layer figures, their sample counts, and the base of lcs_share.

    Timings are medians per call of self time (the span's duration minus
    the time its child spans cover).  Four cover the whole call instead:
    ``matching.select_us``, ``patterns.load_patterns_ms``,
    ``evaluation.build_kb_ms`` and ``evaluation.predict_us``;
    ``pipeline.quantify_overhead_us`` is quantify minus its classify child.
    Matching and text figures come from the classify and quantify steps
    only, so eval's own bases do not mix in.
    """
    child_ns: dict[int, int] = defaultdict(int)
    child_classify_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        if span is None:
            continue
        name, _, _, parent, start, end = span
        if parent >= 0:
            child_ns[parent] += end - start
            if name == "pipeline.classify":
                child_classify_ns[parent] += end - start

    self_us: dict[str, list[float]] = defaultdict(list)
    total_us: dict[str, list[float]] = defaultdict(list)
    request_self_us: dict[str, list[float]] = defaultdict(list)
    request_total_us: dict[str, list[float]] = defaultdict(list)
    overhead_us: list[float] = []
    for index, span in enumerate(spans):
        if span is None:
            continue
        name, phase, _, _, start, end = span
        total = (end - start) / 1e3
        own = total - child_ns[index] / 1e3
        self_us[name].append(own)
        total_us[name].append(total)
        if phase in REQUEST_PHASES:
            request_self_us[name].append(own)
            request_total_us[name].append(total)
        if name == "pipeline.quantify":
            overhead_us.append(total - child_classify_ns[index] / 1e3)

    def calls(name: str) -> int:
        return len(request_self_us[name])

    def ratio(num: str, den: str) -> tuple[float, int]:
        return (calls(num) / calls(den) if calls(den) else float("nan")), calls(den)

    def p50(span: str, whole: bool = False, every_step: bool = False, scale: float = 1.0):
        if every_step:
            values = (total_us if whole else self_us)[span]
        else:
            values = (request_total_us if whole else request_self_us)[span]
        return _p50(values) * scale, len(values)

    select_total = sum(request_total_us["matching.select"])
    lcs_self = sum(request_self_us["matching.lcs"])
    load_s = total_us["embeddings.load_vectors"][0] / 1e6
    # name -> (value, number of calls it is drawn from)
    figures = {
        "text.tokenize_us": p50("text.tokenize"),
        "text.tokenize_calls_per_req": ratio("text.tokenize", "pipeline.classify"),
        "text.split_us": p50("text.split"),
        "text.parts_per_req": ratio("matching.select", "pipeline.classify"),
        "matching.select_us": p50("matching.select", whole=True),
        "matching.lcs_us": p50("matching.lcs"),
        "matching.lcs_calls_per_part": ratio("matching.lcs", "matching.select"),
        "matching.lcs_share": (lcs_self / select_total, calls("matching.select")),
        "matching.candidate_ratio": ratio("matching.syntactic", "matching.lcs"),
        "matching.syntactic_us": p50("matching.syntactic"),
        "matching.semantic_us": p50("matching.semantic"),
        "matching.negation_us": p50("matching.negation"),
        "embeddings.sentence_vector_calls_per_part": ratio(
            "embeddings.sentence_vector", "matching.select"
        ),
        "embeddings.sentence_vector_us": p50("embeddings.sentence_vector"),
        "embeddings.cosine_us": p50("embeddings.cosine"),
        "data.default_directions_calls_per_quantify": ratio(
            "data.default_directions", "pipeline.quantify"
        ),
        "data.default_directions_us": p50("data.default_directions", every_step=True),
        "pipeline.infer_direction_us": p50("pipeline.infer_direction", every_step=True),
        "pipeline.quantify_overhead_us": (_p50(overhead_us), len(overhead_us)),
        "satisfaction.compile_us": p50("satisfaction.compile", every_step=True),
        "satisfaction.evaluate_us": p50("satisfaction.evaluate", every_step=True),
        "embeddings.load_vectors_s": (load_s, 1),
        "embeddings.load_vectors_words_per_s": (words_loaded / load_s, 1),
        "patterns.load_patterns_ms": p50("patterns.load_patterns", whole=True,
                                         every_step=True, scale=1e-3),
        "patterns.extract_us": p50("patterns.extract", every_step=True),
        "patterns.kb_build_ms": p50("patterns.kb_build", every_step=True, scale=1e-3),
        "evaluation.build_kb_ms": p50("evaluation.build_kb", whole=True, every_step=True,
                                      scale=1e-3),
        "evaluation.predict_us": p50("evaluation.predict", whole=True, every_step=True),
        "evaluation.weighted_metrics_us": p50("evaluation.weighted_metrics", every_step=True),
    }
    base = {"lcs_self_ms": lcs_self / 1e3, "select_total_ms": select_total / 1e3,
            "select_calls": calls("matching.select")}
    return ({k: v for k, (v, _) in figures.items()},
            {k: n for k, (_, n) in figures.items()}, base)
