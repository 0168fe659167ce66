"""Command-line surface: extract, classify, quantify, eval."""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .errors import EmptyKB, InvalidArgument, PerfQuantError
from .matching import MatcherConfig
from .patterns import PatternKB, format_patterns, load_patterns
from .pipeline import QuantificationRequest, classify, quantify
from .satisfaction import MetricDirection, check_bounds
from .embeddings import load_vectors


def _write_atomic(path: str, content: str) -> None:
    # no partial output on failure: write to a sibling temp file, then rename
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".perfquant-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_beta(v_beta: float | None) -> str:
    if v_beta is None:
        return "NA"
    if float(v_beta).is_integer():
        return str(int(v_beta))
    return repr(float(v_beta))


def run_extract(args: argparse.Namespace) -> int:
    # imported here, as in run_eval, so that classify and quantify do not load it
    from .evaluation import extract_patterns, load_dataset

    rows = load_dataset(args.labeled)
    extracted = extract_patterns(rows)
    try:
        kb = PatternKB.build(extracted)
    except EmptyKB as exc:
        raise EmptyKB(f"{args.labeled}: none of {len(rows)} rows yields a pattern: {exc}") from None
    _write_atomic(args.out, format_patterns(kb))
    failed = len(rows) - len(extracted)
    print(f"extracted {len(extracted)} patterns ({failed} failed) from {len(rows)} rows")
    return 0


def _read_lines(path: str) -> list[tuple[int, str]]:
    """The non-blank lines of `path`, each with its line number in the file."""
    with open(path, encoding="utf-8-sig") as fh:
        return [(n, line.rstrip("\n")) for n, line in enumerate(fh, start=1) if line.strip()]


def run_classify(args: argparse.Namespace) -> int:
    kb = load_patterns(args.patterns)
    store = load_vectors(args.vectors)
    cfg = MatcherConfig(w=args.w)
    print("line_no\tpart\tleft\tright\tv_beta\tfused\tpattern")
    for line_no, line in _read_lines(args.input):
        # one row per split part, so a second expectation point is kept
        for part_no, part in enumerate(classify(line, kb, store, cfg), start=1):
            match = part.match
            if match is None:
                print(f"{line_no}\t{part_no}\tNA\tNA\tNA\t0.0\t-")
                continue
            left, right = match.label.codes
            print(
                f"{line_no}\t{part_no}\t{left}\t{right}\t{_format_beta(match.v_beta)}"
                f"\t{match.fused:.4f}\t{match.pattern.text}"
            )
    return 0


def _parse_bounds(raw: str) -> tuple[float, float]:
    try:
        lo, hi = map(float, raw.split(","))
    except ValueError as exc:
        raise InvalidArgument(f"--bounds expects two numbers 'lo,hi', got {raw!r}") from exc
    return check_bounds((lo, hi))


def run_quantify(args: argparse.Namespace) -> int:
    if args.samples < 0:
        raise InvalidArgument(f"--samples must be >= 0, got {args.samples}")
    bounds = _parse_bounds(args.bounds) if args.bounds else None
    kb = load_patterns(args.patterns)
    store = load_vectors(args.vectors)
    cfg = MatcherConfig(w=args.w)
    direction = MetricDirection(args.direction) if args.direction else None
    for line_no, line in _read_lines(args.input):
        request = QuantificationRequest(text=line, bounds=bounds, direction=direction)
        try:
            result = quantify(request, kb, store, cfg)
        except PerfQuantError as exc:
            # one bad line does not abort the batch: a null record in its place
            print("null")
            print(f"line {line_no}: {exc}", file=sys.stderr)
            continue
        for warning in result.warnings:
            print(f"line {line_no}: {warning}", file=sys.stderr)
        print(result.function.to_json())
        if args.samples > 0:
            lo, hi = result.function.bounds
            for k in range(args.samples):
                # k / K first, as (hi - lo) * k can overflow; the sum can round past hi
                v = min(lo + (hi - lo) * (k / args.samples), hi)
                print(f"{v},{result.function(v)}")
            print(f"{hi},{result.function(hi)}")
    return 0


def run_eval(args: argparse.Namespace) -> int:
    from .evaluation import (
        BootstrapResult,
        bootstrap_eval,
        cross_eval,
        load_dataset,
        report_json,
        report_lines,
    )

    dataset = load_dataset(args.dataset)
    store = load_vectors(args.vectors)
    base = ()
    if args.base_patterns:
        base = load_patterns(args.base_patterns).patterns
    cfg = MatcherConfig(w=args.w)

    if args.test_dataset:
        test = load_dataset(args.test_dataset)
        try:
            report = cross_eval(dataset, test, store, base, cfg)
        except EmptyKB as exc:
            raise EmptyKB(
                f"{args.dataset}: none of {len(dataset)} rows yields a pattern: {exc}"
            ) from None
        result = BootstrapResult([report])
        # a single cross-dataset run reports its row without a mean±sd summary
        lines = report_lines(result)[:-1]
        payload = {"runs": report_json(result)["runs"]}
    else:
        try:
            result = bootstrap_eval(
                dataset,
                runs=args.runs,
                train_fraction=args.train_fraction,
                seed=args.seed,
                store=store,
                base_patterns=base,
                cfg=cfg,
                train_size=args.train_size,
            )
        except EmptyKB as exc:
            raise EmptyKB(f"{args.dataset}: {exc}") from None
        lines = report_lines(result)
        payload = report_json(result)

    for line in lines:
        print(line)
    if args.json:
        _write_atomic(args.json, json.dumps(payload, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfquant",
        description="Classify performance requirements and compile satisfaction functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_extract = sub.add_parser("extract", help="build a pattern file from labeled requirements")
    p_extract.add_argument("--labeled", required=True, help="labeled requirements CSV")
    p_extract.add_argument("--out", required=True, help="pattern TSV to write")
    p_extract.set_defaults(func=run_extract)

    def add_match_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--patterns", required=True, help="pattern TSV")
        p.add_argument("--vectors", required=True, help="word2vec text file")
        p.add_argument("--input", required=True, help="one requirement per line")
        p.add_argument("--w", type=float, default=MatcherConfig.w, help="syntax weight in [0,1]")

    p_classify = sub.add_parser("classify", help="classify requirements to label codes")
    add_match_args(p_classify)
    p_classify.set_defaults(func=run_classify)

    p_quantify = sub.add_parser("quantify", help="emit satisfaction functions as JSON")
    add_match_args(p_quantify)
    p_quantify.add_argument("--bounds", default=None, help="metric bounds 'lo,hi'")
    p_quantify.add_argument("--direction", choices=("min", "max"), default=None)
    p_quantify.add_argument(
        "--samples", type=int, default=0, help="emit K+1 sampled (v,g) CSV pairs per function"
    )
    p_quantify.set_defaults(func=run_quantify)

    p_eval = sub.add_parser("eval", help="resampling or cross-dataset evaluation")
    p_eval.add_argument("--dataset", required=True, help="labeled CSV for extraction")
    p_eval.add_argument("--vectors", required=True, help="word2vec text file")
    p_eval.add_argument("--base-patterns", default=None, help="pattern TSV merged into every run")
    p_eval.add_argument("--runs", type=int, default=30)
    p_eval.add_argument("--train-fraction", type=float, default=0.667)
    p_eval.add_argument("--train-size", type=int, default=None, help="override the sampled train size")
    p_eval.add_argument("--seed", type=int, default=1)
    p_eval.add_argument("--test-dataset", default=None, help="evaluate on this CSV instead of the held-out remainder")
    p_eval.add_argument("--json", default=None, help="also write the report as JSON")
    p_eval.add_argument("--w", type=float, default=MatcherConfig.w)
    p_eval.set_defaults(func=run_eval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PerfQuantError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
