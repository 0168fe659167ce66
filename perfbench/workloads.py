"""Seeded input generators for the perfquant benchmark workloads.

Every generator takes a ``random.Random`` built from the run's seed and
returns a :class:`Workload`: plain data (pattern lines, requests with gold
labels, a labeled dataset) that the benchmark writes to files and hands to
the library.  Nothing here imports perfquant, so the inputs do not depend
on the code being measured.

Gold labels are two-letter codes (left, right) in the library's nine-class
scheme, one per split part of a request.  A negated request carries the
label with Smaller and Greater swapped, which is the paper's negation rule.
"""

from __future__ import annotations

import csv
import random
from dataclasses import dataclass, field
from pathlib import Path

SWAP = {"S": "G", "G": "S", "E": "E"}

# Complement phrase -> label.  Every phrase's sub-phrases that also appear
# as patterns (in the bundled base or in these lists) carry the same label,
# so a request built from a family has one correct answer.
NUMERIC_FAMILIES = (
    ("within", "ES"),
    ("in under", "ES"),
    ("less than", "ES"),
    ("ideally less than", "ES"),
    ("faster than", "ES"),
    ("under", "ES"),
    ("at most", "SE"),
    ("at least", "GE"),
    ("more than", "GE"),
    ("exceed", "GE"),
    ("every", "GS"),
    ("once every", "GS"),
    ("exactly", "EE"),
    ("hard limit of", "EE"),
    ("beyond", "EG"),
    ("away from", "SG"),
)
# negated forms: a negator before a Greater family flips it to Smaller
NEGATED_FAMILIES = (
    ("no more than", "more than"),
    ("not more than", "more than"),
    ("not exceed", "exceed"),
    ("never exceed", "exceed"),
)

VERBS = ("respond", "return", "complete", "deliver", "process", "render")
MIN_UNITS = ("seconds", "milliseconds", "minutes", "hours", "ms")
MAX_UNITS = ("users", "requests", "transactions", "sessions", "connections",
             "events", "records")
SUBJECT_WORDS = (
    "checkout", "search", "billing", "reporting", "payment", "inventory",
    "analytics", "gateway", "service", "platform", "cluster", "scheduler",
    "database", "module", "dashboard",
)
# context words: no pattern word, negator, connective, number or trailing
# punctuation, so padding never changes the correct label or the split
FILLER = (
    "during peak load periods for existing customers across all regional "
    "data centres measured on the client side with a rolling window for "
    "normal background traffic on the production cluster"
).split()

SHARES = {"request": 0.7, "score": 0.05, "eval": 0.25}
KB_SIZE = 1000
KB_REQUESTS = 200
KB_LENGTHS = (16, 19, 22, 25, 28, 31, 34, 37, 40, 40)


@dataclass
class Request:
    text: str
    gold: tuple[str, ...]


@dataclass
class Workload:
    """Inputs of one workload.

    ``shares`` splits the in-process time between requests (classify and
    quantify), g(v) scoring and bootstrap evaluation.
    """

    name: str
    requests: list[Request]
    dataset: list[dict]
    patterns: list[str]
    eval_train_fraction: float = 0.667
    cli_lines: int = 40
    # the run goes on past its window until this many requests were made;
    # None is one pass over the list
    min_requests: int | None = None
    # requests whose outputs enter the digest; every run does at least these
    digest_requests: int = 40
    shares: dict = field(default_factory=lambda: dict(SHARES))


def _read_dataset(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _bundled_patterns(data_dir: Path) -> list[str]:
    lines = (data_dir / "patterns.tsv").read_text(encoding="utf-8").splitlines()
    return [ln for ln in lines if ln.strip() and not ln.lstrip().startswith("#")]


def _row_request(row: dict) -> Request:
    return Request(row["text"], (row["left"] + row["right"],))


def desk(rng: random.Random, data_dir: Path) -> Workload:
    """Bundled base, bundled corpus and holdout in a seeded order."""
    corpus = _read_dataset(data_dir / "mini_corpus.csv")
    holdout = _read_dataset(data_dir / "holdout.csv")
    requests = [_row_request(r) for r in corpus + holdout]
    rng.shuffle(requests)
    return Workload("desk", requests, corpus, _bundled_patterns(data_dir))


def _subject(rng: random.Random) -> list[str]:
    return ["The"] + rng.sample(SUBJECT_WORDS, rng.randint(1, 3))


def _filler(rng: random.Random, count: int) -> list[str]:
    start = rng.randrange(len(FILLER))
    return [FILLER[(start + i) % len(FILLER)] for i in range(max(0, count))]


def _number(rng: random.Random) -> int:
    return rng.choice((rng.randint(2, 99), rng.randint(100, 5000)))


def kb1k_long(rng: random.Random, data_dir: Path) -> Workload:
    """~1,000-pattern base and requests of 16-40 tokens.

    Generated patterns are verb + complement phrase + <N> + unit; requests
    pad one or two of them (same verb, same direction of unit) with subject
    and context words.  Half hold two expectation points joined by "and";
    a quarter of the single-point ones carry a negator.
    """
    bundled = _bundled_patterns(data_dir)
    combos = [
        (verb, phrase, label, unit)
        for verb in VERBS
        for phrase, label in NUMERIC_FAMILIES
        for unit in MIN_UNITS + MAX_UNITS
    ]
    chosen = rng.sample(combos, KB_SIZE - len(bundled))
    patterns = bundled + [
        f"{verb} {phrase} <N> {unit}\t{label[0]}\t{label[1]}"
        for verb, phrase, label, unit in chosen
    ]
    family_label = dict(NUMERIC_FAMILIES)
    by_verb_dir: dict[tuple[str, bool], list[tuple]] = {}
    for combo in chosen:
        by_verb_dir.setdefault((combo[0], combo[3] in MIN_UNITS), []).append(combo)
    negatable = [c for c in chosen if c[1] in dict(NEGATED_FAMILIES).values()]

    def single(combo, target: int, negate: bool) -> tuple[str, str, int]:
        verb, phrase, label, unit = combo
        if negate:
            phrase = rng.choice([n for n, base in NEGATED_FAMILIES if base == phrase])
            label = SWAP[label[0]] + SWAP[label[1]]
        number = _number(rng)
        words = _subject(rng) + ["shall", verb] + phrase.split() + [str(number), unit]
        words += _filler(rng, target - len(words))
        return " ".join(words), label, number

    # lengths are stratified, not drawn, so every seed covers 16-40 the
    # same way, and any prefix of the list as well.  The list is longer
    # than a run gets through, so that each call is a request of its own
    # and the latency percentiles average over many different requests
    # rather than over repeats of a few.
    requests: list[Request] = []
    for j in range(KB_REQUESTS // 2):
        target = KB_LENGTHS[j % len(KB_LENGTHS)]
        negate = j % 4 == 3
        text, label, _ = single(rng.choice(negatable if negate else chosen), target, negate)
        requests.append(Request(text, (label,)))

        verb, phrase, label, unit = rng.choice(chosen)
        second = rng.choice(by_verb_dir[(verb, unit in MIN_UNITS)])
        n1 = _number(rng)
        n2 = _number(rng)
        while n2 == n1:
            n2 = _number(rng)
        first = _subject(rng) + ["shall", verb] + phrase.split() + [str(n1), unit]
        tail = second[1].split() + [str(n2), second[3]]
        pad = target - len(first) - len(tail) - 1
        cut = rng.randint(0, max(0, pad))
        words = first + _filler(rng, cut) + ["and"] + tail + _filler(rng, pad - cut)
        requests.append(Request(" ".join(words), (label, family_label[second[1]])))

    # eval rows all have 28 tokens and hold each family twice, so that the
    # patterns a run extracts, and so its cost, are alike for every seed and
    # do not depend much on which rows its split holds out
    dataset = []
    for i in range(2 * len(NUMERIC_FAMILIES)):
        phrase = NUMERIC_FAMILIES[i % len(NUMERIC_FAMILIES)][0]
        combo = rng.choice([c for c in chosen if c[1] == phrase])
        text, label, number = single(combo, 28, False)
        dataset.append({
            "id": f"k{i:03d}", "text": text, "left": label[0], "right": label[1],
            "v_beta": str(number), "direction": "min" if combo[3] in MIN_UNITS else "max",
        })
    return Workload(
        "kb1k-long", requests, dataset, patterns, eval_train_fraction=0.8,
        cli_lines=4, digest_requests=10, min_requests=60,
        shares={"request": 0.84, "score": 0.04, "eval": 0.12},
    )


GENERATORS = {
    "desk": desk,
    "kb1k-long": kb1k_long,
}
