"""Set-up time of a fresh process: from before ``import perfquant`` to the
end of the first request.

Usage: python3 perfbench/probe.py WORKDIR

Loads what a user of the workload loads (the pattern base, the vectors,
the lexicons the first quantify reads), answers the workload's first request
with the library defaults and prints one JSON line: the elapsed time and
whether the labels match the gold ones.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import perfquant  # noqa: E402


def main(work: Path) -> int:
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    kb = perfquant.load_patterns(work / "patterns.tsv")
    store = perfquant.load_vectors(spec["vectors"])
    first = spec["requests"][0]
    result = perfquant.quantify(perfquant.QuantificationRequest(first["text"]), kb, store)
    elapsed = time.perf_counter() - START
    labels = ["".join(label.codes) for _, label, _, _ in result.parts]
    print(json.dumps({"setup_s": elapsed, "ok": labels == first["gold"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
