import json

from perfquant.cli import main
from perfquant.data import (
    HOLDOUT_FILE,
    MINI_CORPUS_FILE,
    PATTERNS_FILE,
    VECTORS_FILE,
    path as data_path,
)

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

    def test_header_only_csv_gives_empty_file(self, capsys, tmp_path):
        src = tmp_path / "empty.csv"
        src.write_text("id,text,left,right,v_beta,direction\n", encoding="utf-8")
        out = tmp_path / "patterns.tsv"
        code, _, _ = run(capsys, ["extract", "--labeled", str(src), "--out", str(out)])
        assert code == 0
        assert out.read_text() == ""

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
