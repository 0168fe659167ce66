"""perfquant benchmark: one workload per run, or every workload with --all.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all --repeat 3 [--vary-seeds]

Run it from the root of a checkout: the library is imported from ./src.
Scratch files go to ./.perfbench_work (removed after each run); results and
span files go to ./.perfbench_out.

One run generates the workload's inputs from --seed (perfbench/workloads.py)
and measures them in one fresh child process (perfbench/child.py) for
--seconds: a single closed-loop client with no threads interleaves classify,
quantify, g(v) scoring and bootstrap evaluation, and thirteen set-up
probes and thirteen CLI runs are spread over the window.  Every output is checked: labels
against the generator's gold labels, g(v) inside [0, 1], bootstrap runs and
CLI processes for errors, CLI output against the library's.  Times are
scaled by a calibration against fixed reference work run between the
measured steps (perfbench/calibration.py), so they read in seconds of a
reference machine and do not follow the shared host's speed drift; the
result's metadata holds the calibration blocks' own times.  With --trace 1
the child runs with span wrappers instead (perfbench/tracing.py) and the run
reports the per-layer metrics.

The last line of standard output is the JSON result.  The lines before it
print every metric with its unit and sample count, the error rate (failed
/ attempted operations), a digest of the outputs and the run's metadata.
--all runs each workload --repeat times untraced and --repeat times traced,
each run in its own process, and prints each metric's quartiles over runs.
The repeats share --seed, so their spread is the machine's alone; with
--vary-seeds they take seeds --seed, --seed + 1, ... and the spread adds
that of the inputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import GENERATORS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "perfquant" / "data"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"

TIMEOUT = 150
DATASET_COLUMNS = ("id", "text", "left", "right", "v_beta", "direction")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_config() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} not found")
    return json.loads(path.read_text(encoding="utf-8"))


def check_checkout() -> None:
    if not (SRC / "perfquant" / "__init__.py").is_file():
        raise BenchError(f"no perfquant sources under {SRC}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # same set iteration order in every run
    return env


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "perfquant").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def prepare(name: str, seed: int, work: Path, trace: bool) -> dict:
    """Generate the workload from the seed and write its input files."""
    workload = GENERATORS[name](random.Random(seed), DATA)
    with open(work / "dataset.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=DATASET_COLUMNS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(workload.dataset)
    (work / "patterns.tsv").write_text(
        "".join(line + "\n" for line in workload.patterns), encoding="utf-8"
    )
    texts = [r.text for r in workload.requests]
    (work / "batch.txt").write_text("\n".join(texts[: workload.cli_lines]) + "\n", encoding="utf-8")
    spec = {
        "workload": name,
        "seed": seed,
        "root": str(ROOT),
        "vectors": str(DATA / "mini_vectors.txt"),
        "eval_train_fraction": workload.eval_train_fraction,
        "digest_requests": workload.digest_requests,
        "cli_lines": workload.cli_lines,
        "min_requests": workload.min_requests or len(workload.requests),
        "shares": workload.shares,
        "requests": [{"text": r.text, "gold": list(r.gold)} for r in workload.requests],
        "trace_file": str(OUT_ROOT / f"spans-{name}.csv.gz") if trace else None,
    }
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    return spec


def measure(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    spec = prepare(name, seed, work, trace)
    started = time.perf_counter()
    # its own process group, so that a timeout also stops the CLI and probe
    # processes it has started
    child = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), str(work), repr(seconds), str(int(trace))],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = child.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchError(f"child process did not end within {TIMEOUT} s") from exc
    if child.returncode != 0 or not (work / "child.json").is_file():
        raise BenchError(f"child process failed ({child.returncode}): {stderr[-2000:]}")
    result = json.loads((work / "child.json").read_text(encoding="utf-8"))
    result["elapsed_s"] = time.perf_counter() - started
    return result


def run_one(args, config: dict) -> int:
    import numpy

    load_start = os.getloadavg()
    WORK_ROOT.mkdir(exist_ok=True)
    OUT_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace == 1, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_sha256": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "digest": result["digest"], "samples": result.get("samples", {}),
        "error_rate": result["failed"] / result["attempted"],
        "failures": result["failures"], "elapsed_s": result["elapsed_s"],
        "calibration": result["calibration"],
    }
    if args.trace:
        meta.update(spans=result["spans"], lcs_share_base=result["lcs_share_base"])
        names, values = config["per_layer"], result["layers"]
    else:
        meta["process_s"] = result["process_s"]
        names, values = config["end_to_end"], result["metrics"]
    report = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in names},
    }
    out = OUT_ROOT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, "report": report}, indent=1), encoding="utf-8")

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    for m in names:
        n = meta["samples"].get(m["name"], "-")
        print(f"# {m['name']:<44} {values[m['name']]:>14.6g} {m['unit']:<10} n={n}")
    print(f"# {'error_rate':<44} {meta['error_rate']:>14.6g} {'ratio':<10} "
          f"n={result['attempted']}")
    if args.trace:
        print(f"# lcs_share base: {result['lcs_share_base']}")
    print(f"# digest {result['digest']}")
    print("meta " + json.dumps(meta))
    print(json.dumps(report))
    return 0


def run_all(args, config: dict) -> int:
    """Every workload, --repeat untraced and --repeat traced runs each, in
    fresh processes; prints each metric's quartiles over the runs."""
    step = 1 if args.vary_seeds else 0
    rows = []
    for workload in (w["name"] for w in config["workloads"]):
        for trace, names in ((0, config["end_to_end"]), (1, config["per_layer"])):
            reports, metas = [], []
            for r in range(args.repeat):
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(args.seed + step * r), "--seconds", str(args.seconds),
                     "--trace", str(trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT + 60,
                )
                if done.returncode != 0:
                    print(done.stderr, file=sys.stderr)
                    return done.returncode
                lines = done.stdout.splitlines()
                reports.append(json.loads(lines[-1]))
                metas.append(json.loads(next(x for x in lines if x.startswith("meta "))[5:]))
            for m in names:
                values = [rep["metrics"][m["name"]]["value"] for rep in reports]
                n = statistics.median(meta["samples"].get(m["name"], 0) for meta in metas)
                rows.append((workload, m["name"], m["unit"], *quartiles(values), n))
            attempted = sum(rep["attempted"] for rep in reports)
            rate = sum(rep["failed"] for rep in reports) / attempted
            rows.append((workload, f"error_rate (trace {trace})", "ratio", rate, rate, rate,
                         attempted / args.repeat))
    print(f"{'workload':<13} {'metric':<44} {'unit':<8} {'q1':>12} {'median':>12} "
          f"{'q3':>12} {'n/run':>9}   ({args.repeat} runs each, seed {args.seed}"
          f"{' upward' if step else ''})")
    for workload, metric, unit, q1, med, q3, n in rows:
        print(f"{workload:<13} {metric:<44} {unit:<8} {q1:>12.5g} {med:>12.5g} {q3:>12.5g} "
              f"{n:>9g}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="workload name (see BENCHMARK.json)")
    parser.add_argument("--all", action="store_true", help="run every workload --repeat times")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--vary-seeds", action="store_true",
                        help="with --all, give each repeat the next seed")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        check_checkout()
        config = load_config()
        if args.seconds is None:
            args.seconds = config["run_seconds"]
        if args.all:
            return run_all(args, config)
        names = [w["name"] for w in config["workloads"]]
        if args.workload not in names:
            raise BenchError(f"--workload must be one of {names}")
        return run_one(args, config)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
