import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from perfquant.cli import _parse_bounds, main
from perfquant.data import (
    HOLDOUT_FILE,
    MINI_CORPUS_FILE,
    PATTERNS_FILE,
    VECTORS_FILE,
    path as data_path,
)
from perfquant.errors import PerfQuantError
from perfquant.satisfaction import SatisfactionFunction

CORPUS = str(data_path(MINI_CORPUS_FILE))
HOLDOUT = str(data_path(HOLDOUT_FILE))
PATTERNS = str(data_path(PATTERNS_FILE))
VECTORS = str(data_path(VECTORS_FILE))


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExtract:
    def test_extracts_most_corpus_rows(self, capsys, tmp_path):
        out = tmp_path / "patterns.tsv"
        code, stdout, _ = run(capsys, ["extract", "--labeled", CORPUS, "--out", str(out)])
        assert code == 0
        extracted = int(stdout.split()[1])
        assert extracted >= 25
        assert out.exists()
        assert len(out.read_text().strip().splitlines()) >= 15

    def test_header_only_csv_exits_2_and_writes_no_file(self, capsys, tmp_path):
        # no row yields a pattern, and a pattern base is never empty
        src = tmp_path / "empty.csv"
        src.write_text("id,text,left,right,v_beta,direction\n", encoding="utf-8")
        out = tmp_path / "patterns.tsv"
        code, stdout, stderr = run(capsys, ["extract", "--labeled", str(src), "--out", str(out)])
        assert code == 2
        assert stdout == ""
        assert stderr == (
            f"error: {src}: none of 0 rows yields a pattern: pattern knowledge base is empty\n"
        )
        assert not out.exists()

    def test_rows_without_a_pattern_exit_2_naming_the_file(self, capsys, tmp_path):
        src = tmp_path / "spanless.csv"
        src.write_text(
            "id,text,left,right,v_beta,direction\nr1,it shall be,S,S,,\nr2,fast and cheap,S,S,,\n",
            encoding="utf-8",
        )
        out = tmp_path / "patterns.tsv"
        code, stdout, stderr = run(capsys, ["extract", "--labeled", str(src), "--out", str(out)])
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {src}: none of 2 rows yields a pattern")
        assert not out.exists()

    def test_missing_input_exits_2_with_path(self, capsys, tmp_path):
        missing = tmp_path / "nope.csv"
        out = tmp_path / "patterns.tsv"
        code, _, stderr = run(capsys, ["extract", "--labeled", str(missing), "--out", str(out)])
        assert code == 2
        assert "nope.csv" in stderr
        assert not out.exists()

    def test_parse_failure_leaves_no_partial_output(self, capsys, tmp_path):
        src = tmp_path / "bad.csv"
        src.write_text(
            "id,text,left,right,v_beta,direction\nr1,respond fast,X,S,,\n",
            encoding="utf-8",
        )
        out = tmp_path / "patterns.tsv"
        code, _, _ = run(capsys, ["extract", "--labeled", str(src), "--out", str(out)])
        assert code == 2
        assert not out.exists()


class TestClassify:
    def _kb(self, tmp_path):
        f = tmp_path / "kb.tsv"
        f.write_text("more than <N>\tG\tE\n", encoding="utf-8")
        return str(f)

    def test_classifies_and_reverses(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text(
            "the throughput shall be more than 200 users\n"
            "the response time shall be no more than 100 milliseconds\n",
            encoding="utf-8",
        )
        code, stdout, _ = run(
            capsys,
            ["classify", "--patterns", self._kb(tmp_path), "--vectors", VECTORS, "--input", str(inp)],
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "line_no\tpart\tleft\tright\tv_beta\tfused\tpattern"
        assert lines[1].startswith("1\t1\tG\tE\t200\t")
        assert lines[2].startswith("2\t1\tS\tE\t100\t")
        assert lines[1].endswith("more than <N>")

    def test_nomatch_row_format(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("completely unrelated words\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys,
            ["classify", "--patterns", self._kb(tmp_path), "--vectors", VECTORS, "--input", str(inp)],
        )
        assert code == 0
        assert stdout.strip().splitlines()[1] == "1\t1\tNA\tNA\tNA\t0.0\t-"

    def test_two_expectation_points_give_one_row_per_part(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text(
            "The system should respond in 5 seconds and ideally less than 2 seconds\n"
            "The page shall load quickly\n",
            encoding="utf-8",
        )
        code, stdout, _ = run(
            capsys, ["classify", "--patterns", PATTERNS, "--vectors", VECTORS, "--input", str(inp)]
        )
        assert code == 0
        rows = [line.split("\t") for line in stdout.strip().splitlines()[1:]]
        assert [row[:5] for row in rows] == [
            ["1", "1", "E", "S", "5"],
            ["1", "2", "E", "S", "2"],
            ["2", "1", "NA", "NA", "NA"],
        ]

    def test_line_no_counts_skipped_blank_lines(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("The system should respond in 5 seconds\n\nzzz qqq\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys, ["classify", "--patterns", PATTERNS, "--vectors", VECTORS, "--input", str(inp)]
        )
        assert code == 0
        rows = [line.split("\t") for line in stdout.strip().splitlines()[1:]]
        assert [row[:3] for row in rows] == [["1", "1", "E"], ["3", "1", "NA"]]

    def test_byte_order_mark_line_classifies_like_the_plain_line(self, capsys, tmp_path):
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            inp = tmp_path / f"{encoding}.txt"
            inp.write_text("within 5 seconds\nwithin 5 seconds\n", encoding=encoding)
            code, stdout, _ = run(
                capsys, ["classify", "--patterns", PATTERNS, "--vectors", VECTORS, "--input", str(inp)]
            )
            assert code == 0
            outputs.append(stdout)
        rows = [line.split("\t") for line in outputs[1].strip().splitlines()[1:]]
        assert [row[:5] for row in rows] == [["1", "1", "E", "S", "5"], ["2", "1", "E", "S", "5"]]
        assert outputs[1] == outputs[0]

    def test_numeral_past_the_float_range_prints_an_infinite_v_beta(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("within 1e309 seconds\nwithin -1e309 seconds\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys, ["classify", "--patterns", PATTERNS, "--vectors", VECTORS, "--input", str(inp)]
        )
        assert code == 0
        rows = [line.split("\t") for line in stdout.strip().splitlines()[1:]]
        assert [row[:5] for row in rows] == [["1", "1", "E", "S", "inf"], ["2", "1", "E", "S", "-inf"]]

    def test_match_without_a_number_prints_na_beta(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("The system shall be fast\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys, ["classify", "--patterns", PATTERNS, "--vectors", VECTORS, "--input", str(inp)]
        )
        assert code == 0
        assert stdout.splitlines()[1] == "1\t1\tS\tS\tNA\t1.0000\tbe fast"

    def test_empty_input_header_only(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("", encoding="utf-8")
        code, stdout, _ = run(
            capsys,
            ["classify", "--patterns", self._kb(tmp_path), "--vectors", VECTORS, "--input", str(inp)],
        )
        assert code == 0
        assert stdout.strip() == "line_no\tpart\tleft\tright\tv_beta\tfused\tpattern"

    def test_load_failure_exits_2(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("anything\n", encoding="utf-8")
        code, _, stderr = run(
            capsys,
            ["classify", "--patterns", str(tmp_path / "missing.tsv"), "--vectors", VECTORS, "--input", str(inp)],
        )
        assert code == 2
        assert "missing.tsv" in stderr


@pytest.mark.parametrize("command", ["classify", "quantify"])
def test_comment_only_pattern_file_exits_2_before_any_output(capsys, tmp_path, command):
    patterns = tmp_path / "kb.tsv"
    patterns.write_text("# no pattern yet\n\n", encoding="utf-8")
    inp = tmp_path / "reqs.txt"
    inp.write_text("The system should respond in 2 seconds\n", encoding="utf-8")
    code, stdout, stderr = run(
        capsys,
        [command, "--patterns", str(patterns), "--vectors", VECTORS, "--input", str(inp)],
    )
    assert code == 2
    assert stdout == ""
    assert stderr == f"error: {patterns}: pattern knowledge base is empty\n"


class TestQuantify:
    def test_sampled_pairs_hit_knots(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("The system should response in 2 seconds\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys,
            [
                "quantify", "--patterns", PATTERNS, "--vectors", VECTORS,
                "--input", str(inp), "--bounds", "0,10", "--samples", "10",
            ],
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        payload = json.loads(lines[0])
        assert payload["direction"] == "min"
        samples = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert len(samples) == 11
        assert (2.0, 1.0) in samples
        assert (10.0, 0.0) in samples

    def test_samples_zero_emits_json_only(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("The system should response in 2 seconds\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys,
            [
                "quantify", "--patterns", PATTERNS, "--vectors", VECTORS,
                "--input", str(inp), "--bounds", "0,10", "--samples", "0",
            ],
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 1
        json.loads(lines[0])

    def test_negative_samples_exits_2_before_any_output(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("The system should response in 2 seconds\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys,
            [
                "quantify", "--patterns", PATTERNS, "--vectors", VECTORS,
                "--input", str(inp), "--bounds", "0,10", "--samples", "-2",
            ],
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: ") and "--samples" in stderr

    @pytest.mark.parametrize(
        "bounds, samples, points",
        [
            # lo + (hi - lo) * k / K rounds the last point to 1.0000000000000002
            ("0.2,1", "3", [0.2, 0.4666666666666667, 0.7333333333333334, 1.0]),
            # (hi - lo) * k overflows to inf at k = 2
            ("0,1e308", "2", [0.0, 5e307, 1e308]),
        ],
    )
    def test_sample_points_lie_within_the_bounds(self, capsys, tmp_path, bounds, samples, points):
        inp = tmp_path / "reqs.txt"
        inp.write_text("The system should respond in 0.5 seconds\n", encoding="utf-8")
        code, stdout, _ = run(
            capsys,
            [
                "quantify", "--patterns", PATTERNS, "--vectors", VECTORS,
                "--input", str(inp), "--bounds", bounds, "--samples", samples,
            ],
        )
        assert code == 0
        head, *rows = stdout.splitlines()
        fn = SatisfactionFunction.from_json(head)
        lo, hi = fn.bounds
        values = [tuple(map(float, row.split(","))) for row in rows]
        assert [v for v, _ in values] == points
        assert values[0][0] == lo and values[-1][0] == hi
        assert all(lo <= v <= hi and g == fn(v) for v, g in values)

    def test_bad_bounds_exit_2_on_an_empty_input(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("", encoding="utf-8")
        code, stdout, stderr = run(
            capsys,
            [
                "quantify", "--patterns", PATTERNS, "--vectors", VECTORS,
                "--input", str(inp), "--bounds", "5,1",
            ],
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "error: bounds must satisfy lo < hi, got (5.0, 1.0)\n"

    def test_warnings_go_to_stderr_by_line(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("The system shall be fast\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys, ["quantify", "--patterns", PATTERNS, "--vectors", VECTORS, "--input", str(inp)]
        )
        assert code == 0
        assert len(stdout.splitlines()) == 1
        assert stderr.splitlines() == [
            "line 1: no direction keyword found; assuming a minimized metric",
            "line 1: no usable expectation point; defaulting bounds to (0, 1)",
        ]

    def test_two_point_requirement_interpolates(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text(
            "The system should response in 5 seconds and ideally less than 2 seconds\n",
            encoding="utf-8",
        )
        code, stdout, _ = run(
            capsys,
            [
                "quantify", "--patterns", PATTERNS, "--vectors", VECTORS,
                "--input", str(inp), "--bounds", "0,10", "--samples", "4",
            ],
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        samples = [tuple(map(float, line.split(","))) for line in lines[1:]]
        assert (7.5, 0.25) in samples

    def test_nomatch_emits_null_and_warning(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("ftagn ftagn ftagn\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys,
            ["quantify", "--patterns", PATTERNS, "--vectors", VECTORS, "--input", str(inp)],
        )
        assert code == 0
        assert stdout.strip() == "null"
        assert "no pattern matched" in stderr

    def test_byte_order_mark_line_quantifies_like_the_plain_line(self, capsys, tmp_path):
        outputs = []
        for encoding in ("utf-8", "utf-8-sig"):
            inp = tmp_path / f"{encoding}.txt"
            inp.write_text("within 5 seconds\n", encoding=encoding)
            outputs.append(run(
                capsys, ["quantify", "--patterns", PATTERNS, "--vectors", VECTORS, "--input", str(inp)]
            ))
        assert outputs[1] == outputs[0]
        code, stdout, _ = outputs[1]
        assert code == 0 and json.loads(stdout)["segments"][0]["v_hi"] == 5.0

    def test_numeral_past_the_float_range_prints_null_and_batch_continues(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("within 1e309 seconds\nwithin 5 seconds\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys, ["quantify", "--patterns", PATTERNS, "--vectors", VECTORS, "--input", str(inp)]
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert lines[0] == "null" and json.loads(lines[1])["segments"][0]["v_hi"] == 5.0
        assert stderr.strip() == "line 1: expectation inf is too large to derive bounds"

    def test_line_numbers_count_skipped_blank_lines(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("The system should response in 2 seconds\n\nzzz qqq\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys,
            ["quantify", "--patterns", PATTERNS, "--vectors", VECTORS, "--input", str(inp)],
        )
        assert code == 0
        assert stdout.strip().splitlines()[1] == "null"
        assert "line 3: no pattern matched 'zzz qqq'" in stderr
        assert "line 2" not in stderr

    def test_bad_line_emits_error_record_and_batch_continues(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text(
            "The system should response in 2 seconds\n"
            "The system should response in 50 seconds\n"
            "The system should response in 3 seconds\n",
            encoding="utf-8",
        )
        code, stdout, stderr = run(
            capsys,
            [
                "quantify", "--patterns", PATTERNS, "--vectors", VECTORS,
                "--input", str(inp), "--bounds", "0,10",
            ],
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 3
        assert json.loads(lines[0])["segments"][0]["v_hi"] == 2.0
        assert lines[1] == "null"
        assert json.loads(lines[2])["segments"][0]["v_hi"] == 3.0
        assert stderr.strip() == "line 2: expectation 50.0 outside bounds (0.0, 10.0)"

    def test_non_finite_bounds_exit_2_before_output(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("The system should response in 2 seconds\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys,
            [
                "quantify", "--patterns", PATTERNS, "--vectors", VECTORS,
                "--input", str(inp), "--bounds", "0,inf",
            ],
        )
        assert code == 2
        assert stdout == ""
        assert "finite" in stderr

    @pytest.mark.parametrize("bounds", ["a,b", "0,ten", "1", "0,1,2"])
    def test_malformed_bounds_exit_2_naming_the_option(self, capsys, tmp_path, bounds):
        inp = tmp_path / "reqs.txt"
        inp.write_text("The system should response in 2 seconds\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys,
            [
                "quantify", "--patterns", PATTERNS, "--vectors", VECTORS,
                "--input", str(inp), "--bounds", bounds,
            ],
        )
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: --bounds expects two numbers 'lo,hi', got {bounds!r}\n"

    def test_malformed_bounds_raise_the_package_error(self):
        with pytest.raises(PerfQuantError, match="--bounds"):
            _parse_bounds("a,b")

    def test_overflowing_bounds_width_exit_2_before_output(self, capsys, tmp_path):
        inp = tmp_path / "reqs.txt"
        inp.write_text("The system should response in 2 seconds\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys,
            [
                "quantify", "--patterns", PATTERNS, "--vectors", VECTORS,
                "--input", str(inp), "--bounds=-1e308,1e308", "--samples", "4",
            ],
        )
        assert code == 2
        assert stdout == ""
        assert "width" in stderr

    def test_two_parts_near_the_float_maximum(self, capsys, tmp_path):
        # the midpoint of [1.2e308, 1.5e308] overflows as (lo + hi) / 2
        inp = tmp_path / "reqs.txt"
        inp.write_text(
            "The response shall be in 1.2e308 seconds and ideally less than 1.5e308 seconds\n"
            "The system should response in 2 seconds\n",
            encoding="utf-8",
        )
        code, stdout, stderr = run(
            capsys,
            [
                "quantify", "--patterns", PATTERNS, "--vectors", VECTORS,
                "--input", str(inp), "--bounds=1e308,1.7e308",
            ],
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 2
        knots = [seg["v_hi"] for seg in json.loads(lines[0])["segments"]]
        assert knots == [1.2e308, 1.35e308, 1.5e308, 1.7e308]
        assert lines[1] == "null"
        assert stderr.startswith("line 2: expectation 2.0 outside bounds")


class TestEval:
    def test_bootstrap_smoke_and_determinism(self, capsys):
        argv = [
            "eval", "--dataset", CORPUS, "--vectors", VECTORS,
            "--runs", "5", "--seed", "1",
        ]
        code1, out1, _ = run(capsys, argv)
        code2, out2, _ = run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert len(lines) == 7  # header + 5 runs + summary
        assert lines[-1].startswith("mean±sd")

    def test_cross_dataset_single_row(self, capsys, tmp_path):
        report = tmp_path / "report.json"
        code, stdout, _ = run(
            capsys,
            [
                "eval", "--dataset", CORPUS, "--vectors", VECTORS,
                "--test-dataset", HOLDOUT, "--json", str(report),
            ],
        )
        assert code == 0
        lines = stdout.strip().splitlines()
        assert len(lines) == 2
        payload = json.loads(report.read_text())
        assert payload["runs"][0]["wF1"] >= 0.8

    def test_non_finite_train_fraction_exits_2(self, capsys):
        for raw in ("inf", "nan"):
            code, stdout, stderr = run(
                capsys,
                ["eval", "--dataset", CORPUS, "--vectors", VECTORS, "--train-fraction", raw],
            )
            assert code == 2 and stdout == ""
            assert stderr == f"error: train fraction {raw} is not finite\n"

    def test_base_patterns_merge(self, capsys):
        code, stdout, _ = run(
            capsys,
            [
                "eval", "--dataset", CORPUS, "--vectors", VECTORS,
                "--base-patterns", PATTERNS, "--runs", "2", "--seed", "7",
            ],
        )
        assert code == 0
        assert len(stdout.strip().splitlines()) == 4

    def test_comment_only_base_patterns_exit_2(self, capsys, tmp_path):
        base = tmp_path / "base.tsv"
        base.write_text("# no pattern yet\n", encoding="utf-8")
        code, stdout, stderr = run(
            capsys,
            [
                "eval", "--dataset", CORPUS, "--vectors", VECTORS,
                "--base-patterns", str(base), "--runs", "2",
            ],
        )
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: {base}: pattern knowledge base is empty\n"

    @pytest.mark.parametrize(
        "extra, message",
        [
            (
                ["--runs", "1"],
                "run 1: none of its 2 training rows yields a pattern: "
                "pattern knowledge base is empty",
            ),
            (
                ["--test-dataset", CORPUS],
                "none of 3 rows yields a pattern: pattern knowledge base is empty",
            ),
        ],
        ids=["bootstrap", "cross-dataset"],
    )
    def test_training_rows_without_a_pattern_exit_2_naming_the_file(
        self, capsys, tmp_path, extra, message
    ):
        src = tmp_path / "spanless.csv"
        src.write_text(
            "id,text,left,right,v_beta,direction\n"
            + "".join(f"r{i},it shall be,E,S,,\n" for i in range(3)),
            encoding="utf-8",
        )
        code, stdout, stderr = run(
            capsys, ["eval", "--dataset", str(src), "--vectors", VECTORS, *extra]
        )
        assert code == 2
        assert stdout == ""
        assert stderr == f"error: {src}: {message}\n"

    def test_json_to_a_directory_exits_2_and_leaves_no_temp_file(self, capsys, tmp_path):
        target = tmp_path / "report"
        target.mkdir()
        code, _, stderr = run(
            capsys,
            [
                "eval", "--dataset", CORPUS, "--vectors", VECTORS,
                "--runs", "1", "--json", str(target),
            ],
        )
        assert code == 2
        assert stderr.startswith("error: ")
        assert sorted(os.listdir(tmp_path)) == ["report"]
        assert os.listdir(target) == []


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run `code` in a new interpreter that imports this checkout's package."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)


def test_importing_the_cli_loads_no_numpy():
    """The package is pure Python: start-up pays for no numpy import. Nor
    does it pay for the evaluation stack, which `import perfquant` and the
    `classify` and `quantify` commands never use."""
    unwanted = ("numpy", "perfquant.evaluation", "statistics", "csv")
    for module in ("perfquant", "perfquant.cli"):
        code = f"import sys, {module}; print(*[m for m in {unwanted!r} if m in sys.modules])"
        done = _fresh_python(code)
        assert (done.returncode, done.stdout) == (0, "\n"), f"import {module}: {done}"


def test_every_public_name_resolves():
    """The evaluation names load on first use, yet read, import and list as the others do."""
    code = """
import sys, perfquant
assert "perfquant.evaluation" not in sys.modules
listed = dir(perfquant)
star = {}
exec("from perfquant import *", star)
print(*[n for n in perfquant.__all__ if n not in listed or n not in star or star[n] is None])
print(perfquant.bootstrap_eval is sys.modules["perfquant.evaluation"].bootstrap_eval)
try:
    perfquant.no_such_name
except AttributeError as exc:
    print(exc)
"""
    done = _fresh_python(code)
    assert (done.returncode, done.stdout) == (
        0, "\nTrue\nmodule 'perfquant' has no attribute 'no_such_name'\n"
    ), done
