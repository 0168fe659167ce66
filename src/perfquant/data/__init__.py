"""Bundled default lexicons, patterns, word vectors, and corpora."""

from __future__ import annotations

from importlib import resources
from pathlib import Path

PATTERNS_FILE = "patterns.tsv"
VECTORS_FILE = "mini_vectors.txt"
MINI_CORPUS_FILE = "mini_corpus.csv"
HOLDOUT_FILE = "holdout.csv"


def path(name: str) -> Path:
    """Filesystem path of a bundled data file."""
    p = Path(str(resources.files(__package__) / name))
    if not p.exists():
        raise FileNotFoundError(f"bundled data file missing: {name}")
    return p


def default_kb():
    from ..patterns import load_patterns

    return load_patterns(path(PATTERNS_FILE))


def default_store():
    from ..embeddings import load_vectors

    return load_vectors(path(VECTORS_FILE))


def default_directions():
    from ..pipeline import DIRECTION_WORDS

    return DIRECTION_WORDS
