"""The measured part of one benchmark run, in a fresh interpreter.

Usage: python3 perfbench/child.py WORKDIR SECONDS TRACE

Reads WORKDIR/spec.json (written by run.py), loads the workload's pattern
base, vectors and dataset, then for SECONDS drives the library as one
closed-loop client with no threads.  Its steps are:

* a request: ``classify`` then ``quantify`` (library defaults) of the next
  request, in list order;
* a score sweep: ``g(v)`` of every function compiled so far on its grid;
* an eval run: ``bootstrap_eval`` with one run and its own seed;
* a set-up probe: a fresh process timed from before ``import perfquant``
  to the end of its first request (perfbench/probe.py);
* a CLI run: one ``perfquant quantify --samples 10`` process over the
  batch file, timed by wall clock.

Thirteen set-up probes and thirteen CLI runs, alternating, are spread
evenly over the window; the in-process steps share the rest of it in the
proportions the spec gives, interleaved so that each metric sees the same
stretch of machine time.  The run goes on past the window until the spec's
``min_requests`` requests have been made.  Every output is checked and
counted.

The process and the ones it starts run on one CPU, and every time is
scaled to reference-machine seconds by the calibration blocks run on that
CPU just before and just after it (perfbench/calibration.py), so that the
host's speed drift does not move the figures.  Each figure is a median,
so that short stalls (a second in which another process holds the CPU) do
not move it: a rate is taken over one pass of the requests made with each
request at its median latency, set-up and CLI times are the medians of
their processes, and eval and score rates are per run and per sweep
medians; latency percentiles are rank-band means (see ``percentile``).
With TRACE=1 there are no subprocess steps: a short untraced request loop
gives the tracing overhead, then the steps run with span wrappers
installed and the spans go to the file named in the spec.

Writes WORKDIR/child.json.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import perfquant.embeddings as embeddings
import perfquant.evaluation as evaluation
import perfquant.patterns as patterns
import perfquant.pipeline as pipeline
from perfquant.pipeline import QuantificationRequest

from calibration import Calibrator, Timings
from tracing import Tracer, layer_metrics

UNTRACED_SHARE = 0.15
GRID_POINTS = 21
PROCESS_RUNS = 13  # set-up probes, and CLI runs
CLI_SAMPLES = 10
PROCESS_TIMEOUT = 60
NAN = float("nan")
# half-width of the rank band a percentile averages over
PERCENTILE_BAND = 0.01


def percentile(sorted_values: list[float], q: float) -> float:
    """Mean of the values ranked within PERCENTILE_BAND of ``q``.

    A workload that replays a few requests many times has a latency
    distribution made of one narrow peak per request, and a percentile can
    fall on the edge between two of them (p95 of 40 requests lies between
    the 38th and the 39th); a single order statistic then reads one peak
    in one run and the other in the next.  The band mean weighs both
    peaks by their share of the band, which is the same in every run."""
    if not sorted_values:
        return NAN
    last = len(sorted_values) - 1
    lo = max(0, math.floor((q - PERCENTILE_BAND) * last))
    hi = min(last, math.ceil((q + PERCENTILE_BAND) * last))
    return statistics.fmean(sorted_values[lo: hi + 1])


def median(values: list[float]) -> float:
    return statistics.median(values) if values else NAN


def pass_rate(latencies: list[list[float]], first: int | None = None) -> float:
    """Calls per second over one pass of the requests made (of the first
    ``first`` in the list), each request timed at the median of its calls."""
    medians = [statistics.median(times) for times in latencies[:first] if times]
    return len(medians) / sum(medians)


def grid(fn) -> list[float]:
    lo, hi = fn.bounds
    return [lo + (hi - lo) * k / (GRID_POINTS - 1) for k in range(GRID_POINTS)]


def in_unit_range(values: list[float]) -> bool:
    return all(math.isfinite(g) and 0.0 <= g <= 1.0 for g in values)


def codes(label) -> str:
    return "".join(label.codes) if label is not None else "NA"


def check_cli_output(stdout: str, expected: list[str]) -> bool:
    """One JSON function per input line, equal to the library's, each
    followed by CLI_SAMPLES + 1 'v,g' rows with g in [0, 1]."""
    lines = stdout.splitlines()
    functions = [line for line in lines if line.startswith("{")]
    for line in lines:
        if line.startswith("{"):
            continue
        try:
            g = float(line.split(",")[1])
        except (IndexError, ValueError):
            return False
        if not 0.0 <= g <= 1.0:
            return False
    return functions == expected and len(lines) == len(expected) * (CLI_SAMPLES + 2)


class Run:
    """Inputs, results and failure counts of one measured run."""

    def __init__(self, spec: dict, work: Path, tracer: Tracer | None) -> None:
        self.spec, self.work, self.tracer = spec, work, tracer
        self.requests = spec["requests"]
        self.limit = spec["digest_requests"]
        self.kb = patterns.load_patterns(work / "patterns.tsv")
        self.store = embeddings.load_vectors(spec["vectors"])
        self.dataset = evaluation.load_dataset(work / "dataset.csv")
        self.cal = Calibrator()
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.reset()

    def reset(self) -> None:
        """Drop timings and outputs, keep the failure counts."""
        self.next_request = 0
        # seconds of every call, one Timings per request
        self.classify_lat = [Timings(self.cal) for _ in self.requests]
        self.quantify_lat = [Timings(self.cal) for _ in self.requests]
        self.functions: list = []
        self.outputs: dict = {"classify": [], "quantify": [], "quantify_parts": []}
        self.score_times = Timings(self.cal)  # seconds of each sweep
        self.score_counts = array("q")  # and its evaluations
        self.eval_times = Timings(self.cal)
        self.setup_times = Timings(self.cal)
        self.cli_times = Timings(self.cal)
        self.cli_checks: list[tuple[str, int]] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(what)

    def timed(self, times, call, *args):
        """Add the seconds of one call to ``times``; return its result and
        exception (any exception is a failure)."""
        self.cal.tick()
        start = time.perf_counter()
        try:
            result, exc = call(*args), None
        except Exception as error:  # an unexpected exception is a failed operation
            result, exc = None, error
        times.add(time.perf_counter() - start)
        return result, exc

    def _enter(self, phase: str) -> None:
        if self.tracer:
            self.tracer.phase = phase
            self.tracer.request += 1

    def request(self) -> None:
        i = self.next_request
        self.next_request += 1
        index = i % len(self.requests)
        req = self.requests[index]
        gold = tuple(req["gold"])

        self._enter("classify")
        parts, exc = self.timed(self.classify_lat[index], pipeline.classify, req["text"],
                                self.kb, self.store)
        labels = tuple(codes(p.label) for p in parts) if exc is None else repr(exc)
        self.record(labels == gold, f"classify {req['text']!r}: {labels}")
        if exc is None and i < self.limit:
            self.outputs["classify"].append([
                [codes(p.label), p.v_beta, p.match and p.match.fused,
                 p.match and p.match.pattern.text]
                for p in parts
            ])

        self._enter("quantify")
        request = QuantificationRequest(req["text"])
        result, exc = self.timed(self.quantify_lat[index], pipeline.quantify, request,
                                 self.kb, self.store)
        labels = repr(exc)
        if exc is None:
            labels = tuple(codes(label) for _, label, _, _ in result.parts)
            if i < len(self.requests):
                self.functions.append(result.function)
            if i < self.limit:
                self.outputs["quantify"].append(result.function.to_json())
                self.outputs["quantify_parts"].append(
                    [[codes(label), v, fused] for _, label, v, fused in result.parts]
                )
        self.record(labels == gold, f"quantify {req['text']!r}: {labels}")

    def score(self) -> None:
        if not self.functions:  # nothing compiled yet: make progress instead
            self.request()
            return
        self._enter("score")
        functions = list(self.functions)
        grids = [grid(fn) for fn in functions]
        evaluations = sum(len(g) for g in grids)
        self.cal.tick()
        start = time.perf_counter()
        sweep = [[fn(v) for v in g] for fn, g in zip(functions, grids)]
        self.score_times.add(time.perf_counter() - start)
        self.score_counts.append(evaluations)
        for values in sweep:
            self.record(in_unit_range(values), f"g(v) outside [0, 1]: {values}")

    def eval(self) -> None:
        self._enter("eval")
        seed = self.spec["seed"] * 1000 + len(self.eval_times)
        result, exc = self.timed(self.eval_times, evaluation.bootstrap_eval, self.dataset, 1,
                                 self.spec["eval_train_fraction"], seed, self.store)
        self.record(exc is None, f"bootstrap_eval raised {exc!r}")
        if exc is None and "eval" not in self.outputs:
            report = result.reports[0]
            self.outputs["eval"] = [report.wp, report.wr, report.wf1, report.n_nomatch,
                                    result.train_size]

    def _process(self, argv: list[str]) -> tuple[float, int, subprocess.CompletedProcess]:
        """Wall time, calibration mark and outcome of one process; a
        timeout is exit code -1."""
        self.cal.tick()
        start = time.perf_counter()
        try:
            done = subprocess.run(argv, cwd=self.spec["root"], capture_output=True,
                                  text=True, timeout=PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            done = subprocess.CompletedProcess(argv, -1, "", "timed out")
        elapsed = time.perf_counter() - start
        self.cal.refresh()
        return elapsed, done

    def setup_probe(self) -> None:
        _, done = self._process([sys.executable, str(Path(__file__).with_name("probe.py")),
                                 str(self.work)])
        ok = done.returncode == 0
        if ok:
            probe = json.loads(done.stdout.splitlines()[-1])
            self.setup_times.add(probe["setup_s"])
            ok = probe["ok"]
        self.record(ok, f"set-up probe exit {done.returncode}: {done.stdout[-200:]} "
                        f"{done.stderr[-300:]}")

    def cli(self) -> None:
        elapsed, done = self._process([
            sys.executable, "-m", "perfquant.cli", "quantify",
            "--patterns", str(self.work / "patterns.tsv"), "--vectors", self.spec["vectors"],
            "--input", str(self.work / "batch.txt"), "--samples", str(CLI_SAMPLES),
        ])
        ok = done.returncode == 0
        if ok:
            self.cli_times.add(elapsed)
            self.cli_checks.append((done.stdout, self.spec["cli_lines"]))
        self.record(ok, f"CLI exit {done.returncode}: {done.stderr[-300:]}")

    def below_minimum(self, requests: int) -> list[str]:
        """In-process steps still short of ``requests`` requests, a sweep
        and an eval run.  With no compiled function there
        is nothing to sweep; the failed quantify calls are already counted."""
        short = []
        if self.next_request < requests:
            short.append("request")
        if self.functions and not self.score_times:
            short.append("score")
        if not self.eval_times:
            short.append("eval")
        return short


def schedule(run: Run, seconds: float, shares: dict, processes: tuple = (),
             min_requests: int = 1) -> None:
    """Run in-process steps until ``seconds`` have passed since the start,
    each kind getting time in proportion to ``shares``, and until the
    steps ``Run.below_minimum(min_requests)`` names have run.  The
    ``processes`` steps are due at evenly spaced times in the window, the
    first at its start."""
    steps = {"request": run.request, "score": run.score, "eval": run.eval,
             "setup": run.setup_probe, "cli": run.cli}
    start = time.perf_counter()
    due = [start + seconds * k / len(processes) for k in range(len(processes))]
    pending = list(processes)
    spent = dict.fromkeys(shares, 0.0)
    while True:
        now = time.perf_counter()
        if pending and now >= due[len(processes) - len(pending)]:
            steps[pending.pop(0)]()
            continue
        if now - start < seconds:
            kind = min(shares, key=lambda k: spent[k] / shares[k])
        else:
            short = [k for k in run.below_minimum(min_requests) if k in shares]
            if not short:
                run.cal.refresh()
                return
            kind = short[0]
        begin = time.perf_counter()
        steps[kind]()
        spent[kind] += time.perf_counter() - begin


def end_to_end(run: Run) -> tuple[dict, dict]:
    """Every end-to-end figure and its sample count; NaN where a step never
    succeeded (its failures are counted)."""
    metrics, samples = {}, {}
    for name, timings in (("classify", run.classify_lat), ("quantify", run.quantify_lat)):
        latencies = [t.scaled() for t in timings]
        ordered = sorted(itertools.chain.from_iterable(latencies))
        metrics[f"{name}_rps"] = pass_rate(latencies)
        metrics[f"{name}_p50_ms"] = percentile(ordered, 0.50) * 1e3
        metrics[f"{name}_p95_ms"] = percentile(ordered, 0.95) * 1e3
        for suffix in ("rps", "p50_ms", "p95_ms"):
            samples[f"{name}_{suffix}"] = len(ordered)
    metrics["score_rps"] = median([n / t for n, t in zip(run.score_counts,
                                                        run.score_times.scaled())])
    samples["score_rps"] = sum(run.score_counts)
    metrics["eval_runs_per_s"] = 1 / median(run.eval_times.scaled())
    samples["eval_runs_per_s"] = len(run.eval_times)
    metrics["setup_s"] = median(run.setup_times.scaled())
    samples["setup_s"] = len(run.setup_times)
    metrics["cli_batch_s"] = median(run.cli_times.scaled())
    samples["cli_batch_s"] = len(run.cli_times)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    samples["peak_rss_mb"] = 1
    return metrics, samples


def main(argv: list[str]) -> int:
    work, seconds, trace = Path(argv[1]), float(argv[2]), argv[3] == "1"
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    # one CPU for this process and the ones it starts, so that the
    # calibration blocks see the speed of the CPU the measured work runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()  # loading is traced too
    run = Run(spec, work, tracer)
    result: dict = {}
    if tracer:
        tracer.uninstall()
        run.tracer = None
        schedule(run, seconds * UNTRACED_SHARE, {"request": 1.0})
        made = min(run.next_request, len(run.requests))
        untraced_rps = pass_rate([t.scaled() for t in run.classify_lat])
        run.reset()
        run.tracer = tracer
        tracer.install()
        schedule(run, seconds * (1 - UNTRACED_SHARE), spec["shares"],
                 min_requests=spec["min_requests"])
        tracer.uninstall()
        layers, samples, base = layer_metrics(tracer.spans, len(run.store))
        traced_rps = pass_rate([t.scaled() for t in run.classify_lat], made)
        layers["trace.overhead_ratio"] = traced_rps / untraced_rps
        samples["trace.overhead_ratio"] = sum(map(len, run.classify_lat))
        result.update(layers=layers, samples=samples, lcs_share_base=base,
                      spans=len(tracer.spans))
        tracer.write(spec["trace_file"])
    else:
        schedule(run, seconds, spec["shares"], ("setup", "cli") * PROCESS_RUNS,
                 spec["min_requests"])
        if not run.score_times:
            run.record(False, "no g(v) was scored: no request compiled a function")
        expected = run.outputs["quantify"]
        for stdout, lines in run.cli_checks:
            run.record(check_cli_output(stdout, expected[:lines]),
                       "CLI output differs from the library's")
        result["metrics"], result["samples"] = end_to_end(run)
        result["process_s"] = {"setup": run.setup_times.scaled(),
                               "cli": run.cli_times.scaled()}
    result["calibration"] = run.cal.summary()

    run.outputs["score"] = [[fn(v) for v in grid(fn)] for fn in run.functions[: run.limit]]
    result.update(
        attempted=run.attempted,
        failed=run.failed,
        failures=run.failures,
        digest=hashlib.sha256(
            json.dumps(run.outputs, sort_keys=True).encode("utf-8")
        ).hexdigest(),
    )
    (work / "child.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
