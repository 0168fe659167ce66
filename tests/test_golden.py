"""Golden outputs: classify, quantify and the CLI on the bundled corpora.

The fixture `tests/golden/golden.json` pins, byte for byte, what the
library and the CLI produce on every row of `mini_corpus.csv` and
`holdout.csv` under the bundled pattern base and vectors.  A refactor
must leave it unchanged.  After a deliberate change of behaviour,
regenerate it with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from perfquant import QuantificationRequest, classify, quantify
from perfquant.cli import main
from perfquant.data import (
    HOLDOUT_FILE,
    MINI_CORPUS_FILE,
    VECTORS_FILE,
    default_kb,
    default_store,
    path as data_path,
)
from perfquant.errors import PerfQuantError
from perfquant.evaluation import load_dataset

FIXTURE = Path(__file__).parent / "golden" / "golden.json"
CORPUS = str(data_path(MINI_CORPUS_FILE))
HOLDOUT = str(data_path(HOLDOUT_FILE))
VECTORS = str(data_path(VECTORS_FILE))


def _codes(label):
    return None if label is None else "".join(label.codes)


def _library_outputs() -> dict:
    kb, store = default_kb(), default_store()
    out = {}
    for name in (CORPUS, HOLDOUT):
        for row in load_dataset(name):
            parts = [
                {
                    "label": _codes(p.label),
                    "v_beta": p.v_beta,
                    "fused": repr(p.match.fused) if p.match else None,
                    "pattern": p.match.pattern.text if p.match else None,
                }
                for p in classify(row.text, kb, store)
            ]
            try:
                result = quantify(QuantificationRequest(row.text), kb, store)
            except PerfQuantError as exc:
                quantified = {"error": f"{type(exc).__name__}: {exc}"}
            else:
                quantified = {
                    "function": result.function.to_json(),
                    "parts": [
                        [text, _codes(label), v_beta, repr(fused)]
                        for text, label, v_beta, fused in result.parts
                    ],
                    "warnings": list(result.warnings),
                }
            out[row.id] = {"classify": parts, "quantify": quantified}
    return out


def _cli(argv: list[str], written: str) -> dict:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    return {
        "code": code,
        "stdout": stdout.getvalue(),
        "file": Path(written).read_text(encoding="utf-8"),
    }


def _cli_outputs() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        patterns = str(Path(tmp) / "patterns.tsv")
        report = str(Path(tmp) / "report.json")
        return {
            "extract": _cli(["extract", "--labeled", CORPUS, "--out", patterns], patterns),
            "eval_bootstrap": _cli(
                ["eval", "--dataset", CORPUS, "--vectors", VECTORS,
                 "--runs", "3", "--seed", "1", "--json", report],
                report,
            ),
            "eval_cross": _cli(
                ["eval", "--dataset", CORPUS, "--vectors", VECTORS,
                 "--test-dataset", HOLDOUT, "--json", report],
                report,
            ),
        }


def golden() -> dict:
    return {"library": _library_outputs(), "cli": _cli_outputs()}


def test_library_outputs_match_golden():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))["library"]
    actual = _library_outputs()
    assert actual.keys() == expected.keys()
    for rid in expected:
        assert actual[rid] == expected[rid], rid


def test_cli_outputs_match_golden():
    expected = json.loads(FIXTURE.read_text(encoding="utf-8"))["cli"]
    assert _cli_outputs() == expected


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(golden(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}", file=sys.stderr)
