from collections import Counter

import pytest

from perfquant import (
    ClassLabel,
    bootstrap_eval,
    cross_eval,
    evaluation,
    load_dataset,
    weighted_metrics,
)
from perfquant.data import HOLDOUT_FILE, MINI_CORPUS_FILE, path as data_path
from perfquant.errors import (
    DatasetParseError,
    DatasetTooSmall,
    DuplicateId,
    EmptyInput,
    InvalidArgument,
    LengthMismatch,
    PerfQuantError,
)
from perfquant.evaluation import LabeledRequirement, report_lines, sample_split


def label(codes):
    return ClassLabel.from_codes(codes[0], codes[1])


A, B = label("ES"), label("GE")


class TestLoadDataset:
    def test_happy_path(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "id,text,left,right,v_beta,direction\n"
            "r1,respond in 2 seconds,E,S,2,min\n"
            'r2,"handle 1,000 users",G,E,1000,max\n'
            "r3,be fast,S,S,,\n",
            encoding="utf-8",
        )
        rows = load_dataset(f)
        assert len(rows) == 3
        assert rows[1].text == "handle 1,000 users"
        assert rows[2].gold_v_beta is None and rows[2].direction is None

    def test_byte_order_mark_before_the_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "id,text,left,right,v_beta,direction\nr1,respond in 2 seconds,E,S,2,min\n",
            encoding="utf-8-sig",
        )
        assert [(r.id, r.text, r.gold) for r in load_dataset(f)] == [
            ("r1", "respond in 2 seconds", A)
        ]

    def test_bad_label_code_reports_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "id,text,left,right,v_beta,direction\nr1,respond fast,X,S,,\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetParseError, match="row 2"):
            load_dataset(f)

    def test_duplicate_id(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text(
            "id,text,left,right,v_beta,direction\nr1,a b,S,S,,\nr1,c d,S,S,,\n",
            encoding="utf-8",
        )
        with pytest.raises(DuplicateId):
            load_dataset(f)

    @pytest.mark.parametrize("raw", ["nan", "inf", "-Infinity"])
    def test_non_finite_v_beta_reports_row(self, tmp_path, raw):
        f = tmp_path / "d.csv"
        f.write_text(
            "id,text,left,right,v_beta,direction\n"
            f"r1,respond in 2 seconds,E,S,2,min\nr2,respond in 3 seconds,E,S,{raw},\n",
            encoding="utf-8",
        )
        with pytest.raises(DatasetParseError, match=f"row 3: v_beta '{raw}' is not finite"):
            load_dataset(f)

    @pytest.mark.parametrize(
        "row, message",
        [
            (",respond in 2 seconds,E,S,2,min", "empty id or text"),
            ("r1,,E,S,2,min", "empty id or text"),
            ("r1,respond in 2 seconds,E,S,x,min", "bad v_beta 'x'"),
            ("r1,respond in 2 seconds,E,S,2,up", "bad direction 'up'"),
        ],
    )
    def test_bad_field_reports_row(self, tmp_path, row, message):
        f = tmp_path / "d.csv"
        f.write_text(f"id,text,left,right,v_beta,direction\n{row}\n", encoding="utf-8")
        with pytest.raises(DatasetParseError, match=f"row 2: {message}$"):
            load_dataset(f)

    def test_row_without_a_span_has_no_pattern(self):
        assert LabeledRequirement("r1", "it shall be", label("SS")).pattern is None

    def test_bad_header(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("id,text\nr1,a\n", encoding="utf-8")
        with pytest.raises(DatasetParseError):
            load_dataset(f)

    def test_mini_corpus_covers_all_nine_classes(self):
        rows = load_dataset(data_path(MINI_CORPUS_FILE))
        assert len(rows) == 30
        assert {row.gold for row in rows} == {
            label(l + r) for l in "GSE" for r in "GSE"
        }

    def test_holdout_loads(self):
        assert len(load_dataset(data_path(HOLDOUT_FILE))) == 10


class TestWeightedMetrics:
    def test_perfect_predictions(self):
        golds = [A, A, B, B, B]
        report = weighted_metrics(golds, list(golds))
        assert report.wp == report.wr == report.wf1 == 1.0
        assert report.n_nomatch == 0

    def test_hand_computed_confusion(self):
        golds = [A, A, B]
        preds = [A, B, B]
        report = weighted_metrics(golds, preds)
        assert report.wp == pytest.approx(5 / 6, abs=1e-9)
        assert report.wr == pytest.approx(2 / 3, abs=1e-9)
        assert report.wf1 == pytest.approx(2 / 3, abs=1e-9)

    def test_total_miss_scores_zero(self):
        report = weighted_metrics([A, A], [B, B])
        assert report.wp == report.wr == report.wf1 == 0.0
        assert report.per_class[A].undefined

    def test_permutation_invariance(self):
        golds = [A, B, A, B, A]
        preds = [A, B, B, B, A]
        base = weighted_metrics(golds, preds)
        order = [3, 1, 4, 0, 2]
        shuffled = weighted_metrics([golds[i] for i in order], [preds[i] for i in order])
        assert (base.wp, base.wr, base.wf1) == (shuffled.wp, shuffled.wr, shuffled.wf1)

    def test_nomatch_counts_as_wrong(self):
        report = weighted_metrics([A, A, B], [A, None, None])
        assert report.n_nomatch == 2
        assert report.per_class[A].recall == pytest.approx(0.5)
        assert report.per_class[B].recall == 0.0
        # precision of A unaffected by the missing predictions
        assert report.per_class[A].precision == 1.0

    def test_length_mismatch_and_empty(self):
        with pytest.raises(LengthMismatch):
            weighted_metrics([A], [A, B])
        with pytest.raises(EmptyInput):
            weighted_metrics([], [])


class TestBootstrap:
    def test_partitions_are_disjoint_and_cover(self):
        for run in range(5):
            train, test = sample_split(30, 20, seed=9, run_index=run)
            assert sorted(train + test) == list(range(30))
            assert not set(train) & set(test)

    def test_train_size_floor_convention(self):
        import math

        assert math.floor((2 / 3) * 259) == 172

    def test_seeded_determinism(self, mini_store):
        rows = load_dataset(data_path(MINI_CORPUS_FILE))
        first = bootstrap_eval(rows, runs=3, train_fraction=2 / 3, seed=5, store=mini_store)
        second = bootstrap_eval(rows, runs=3, train_fraction=2 / 3, seed=5, store=mini_store)
        assert report_lines(first) == report_lines(second)

    def test_different_seeds_differ(self, mini_store):
        rows = load_dataset(data_path(MINI_CORPUS_FILE))
        first = bootstrap_eval(rows, runs=2, train_fraction=2 / 3, seed=1, store=mini_store)
        second = bootstrap_eval(rows, runs=2, train_fraction=2 / 3, seed=2, store=mini_store)
        splits = [sample_split(30, 20, s, 0)[0] for s in (1, 2)]
        assert splits[0] != splits[1] or report_lines(first) != report_lines(second)

    def test_explicit_train_size(self, mini_store):
        rows = load_dataset(data_path(MINI_CORPUS_FILE))
        result = bootstrap_eval(
            rows, runs=1, train_fraction=2 / 3, seed=1, store=mini_store, train_size=25
        )
        assert result.train_size == 25

    def test_dataset_too_small(self, mini_store):
        rows = load_dataset(data_path(MINI_CORPUS_FILE))[:2]
        with pytest.raises(DatasetTooSmall):
            bootstrap_eval(rows, runs=1, train_fraction=0.1, seed=1, store=mini_store)

    def test_train_size_too_long_to_print(self, mini_store):
        rows = load_dataset(data_path(MINI_CORPUS_FILE))
        with pytest.raises(DatasetTooSmall, match="^train size <int too long to print> of "):
            bootstrap_eval(rows, runs=1, train_fraction=0.5, seed=1, store=mini_store,
                           train_size=10**5000)

    @pytest.mark.parametrize("fraction", [float("inf"), float("-inf"), float("nan")])
    def test_non_finite_train_fraction(self, mini_store, fraction):
        rows = load_dataset(data_path(MINI_CORPUS_FILE))
        with pytest.raises(DatasetTooSmall, match=f"train fraction {fraction} is not finite"):
            bootstrap_eval(rows, runs=1, train_fraction=fraction, seed=1, store=mini_store)

    def test_int_train_fraction_past_the_float_range(self, mini_store):
        rows = load_dataset(data_path(MINI_CORPUS_FILE))
        with pytest.raises(DatasetTooSmall, match=f"^train fraction {10**400} is not finite$"):
            bootstrap_eval(rows, runs=1, train_fraction=10**400, seed=1, store=mini_store)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"runs": 0}, "runs must be an integer >= 1, got 0"),
            ({"runs": 2.0}, "runs must be an integer >= 1, got 2.0"),
            ({"runs": 1, "train_size": 2.5}, "train_size must be an integer, got 2.5"),
            ({"runs": -(10**5000)}, "runs must be an integer >= 1, got <int too long to print>"),
        ],
    )
    def test_bad_runs_and_train_size_are_typed(self, mini_store, kwargs, message):
        rows = load_dataset(data_path(MINI_CORPUS_FILE))
        with pytest.raises(InvalidArgument, match=f"^{message}$") as caught:
            bootstrap_eval(rows, train_fraction=2 / 3, seed=1, store=mini_store, **kwargs)
        # callers catching either the package's errors or ValueError keep working
        assert isinstance(caught.value, PerfQuantError)
        assert isinstance(caught.value, ValueError)

    def test_report_has_summary_line(self, mini_store):
        rows = load_dataset(data_path(MINI_CORPUS_FILE))
        result = bootstrap_eval(rows, runs=2, train_fraction=2 / 3, seed=3, store=mini_store)
        lines = report_lines(result)
        assert lines[0] == "run\twP\twR\twF1\tn_nomatch"
        assert len(lines) == 4
        assert lines[-1].startswith("mean±sd\t")


class TestRowsCompiledOnce:
    def test_runs_reuse_each_rows_tokens_and_pattern(self, mini_store, monkeypatch):
        """Three calls of four runs tokenize and extract each row once, still
        predict every test row of every run, and score as a fresh dataset."""
        calls = Counter()

        def count_calls(name):
            original = getattr(evaluation, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(evaluation, name, counted)

        for name in ("tokenize", "extract_pattern", "predict_label"):
            count_calls(name)

        rows = load_dataset(data_path(MINI_CORPUS_FILE))
        results = [
            bootstrap_eval(rows, runs=4, train_fraction=2 / 3, seed=seed, store=mini_store)
            for seed in (1, 2, 3)
        ]
        k = results[0].train_size
        trained = {i for seed in (1, 2, 3) for run in range(4)
                   for i in sample_split(len(rows), k, seed, run)[0]}
        assert calls["tokenize"] == len(rows)
        assert calls["extract_pattern"] == len(trained)
        assert calls["predict_label"] == 3 * 4 * (len(rows) - k)

        monkeypatch.undo()
        fresh = [
            bootstrap_eval(load_dataset(data_path(MINI_CORPUS_FILE)), runs=4,
                           train_fraction=2 / 3, seed=seed, store=mini_store)
            for seed in (1, 2, 3)
        ]
        assert [r.reports for r in results] == [r.reports for r in fresh]


class TestCrossEval:
    def test_extract_from_corpus_test_on_holdout(self, mini_store):
        train = load_dataset(data_path(MINI_CORPUS_FILE))
        test = load_dataset(data_path(HOLDOUT_FILE))
        report = cross_eval(train, test, mini_store)
        assert report.n_eval == 10
        assert report.wf1 >= 0.8

    def test_empty_side_rejected(self, mini_store):
        rows = load_dataset(data_path(MINI_CORPUS_FILE))
        with pytest.raises(DatasetTooSmall):
            cross_eval(rows, [], mini_store)
