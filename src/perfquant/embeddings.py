"""Word-vector storage and sentence-vector arithmetic for semantic matching."""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, VectorFormatError
from .patterns import PLACEHOLDER
from .text import NUMBER_RE

# expectation placeholders and numeric literals share one embedding
NUMBER_WORD = "number"


def _vector_defect(vec: np.ndarray) -> str | None:
    """Why `vec` cannot serve as a word vector, or None.

    A finite vector whose squared norm overflows would make its cosines
    NaN, and a NaN score compares false with every other.  Callers hold
    np.errstate(over="ignore"), entered once per store, not per vector.
    """
    if math.isfinite(vec @ vec):
        return None
    if not np.isfinite(vec).all():
        return "a non-finite component"
    return "a squared norm that overflows"


@dataclass(frozen=True, eq=False)
class VectorStore:
    """Word vectors by word, each of shape (dimension,), finite, and with a
    finite squared norm.  A store compares and hashes by identity.

    `pattern_vectors` maps a pattern's token sequence to its sentence
    vector; the matcher fills it, so `entries` must not change once the
    store is in use.
    """

    dimension: int
    entries: dict[str, np.ndarray]
    pattern_vectors: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        try:
            positive = self.dimension > 0
        except TypeError:
            raise InvalidArgument(
                f"vector dimension must be a number, got {self.dimension!r}"
            ) from None
        if not positive:
            raise InvalidArgument("vector dimension must be positive")
        with np.errstate(over="ignore"):
            for word, vec in self.entries.items():
                if np.shape(vec) != (self.dimension,):
                    raise DimensionMismatch(
                        f"vector of {word!r} has shape {np.shape(vec)}, expected ({self.dimension},)"
                    )
                if defect := _vector_defect(vec):
                    raise VectorFormatError(f"vector of {word!r} has {defect}")

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, word: str) -> np.ndarray | None:
        return self.entries.get(word)


def load_vectors(path: str | os.PathLike) -> VectorStore:
    """Read a word2vec text file: header "vocab_size dimension", then one
    word plus `dimension` floats per line."""
    with open(path, encoding="utf-8-sig") as fh, np.errstate(over="ignore"):
        header = fh.readline().split()
        if len(header) != 2:
            raise VectorFormatError(f"{path}: header must be 'vocab_size dimension'")
        try:
            vocab_size, dimension = int(header[0]), int(header[1])
        except ValueError as exc:
            raise VectorFormatError(f"{path}: non-integer header fields") from exc
        if vocab_size < 0 or dimension <= 0:
            raise VectorFormatError(f"{path}: bad header values {vocab_size} {dimension}")

        entries: dict[str, np.ndarray] = {}
        for lineno, line in enumerate(fh, start=2):
            fields = line.split()
            if not fields:
                continue
            word, values = fields[0], fields[1:]
            if len(values) != dimension:
                raise DimensionMismatch(
                    f"{path}: line {lineno}: expected {dimension} components, got {len(values)}"
                )
            if word in entries:
                raise VectorFormatError(f"{path}: line {lineno}: duplicate word {word!r}")
            try:
                vec = np.array([float(x) for x in values], dtype=np.float64)
            except ValueError as exc:
                raise VectorFormatError(f"{path}: line {lineno}: non-numeric component") from exc
            if defect := _vector_defect(vec):
                raise VectorFormatError(f"{path}: line {lineno}: {defect}")
            entries[word] = vec

    if len(entries) != vocab_size:
        raise VectorFormatError(
            f"{path}: header promises {vocab_size} entries, file has {len(entries)}"
        )
    return VectorStore(dimension=dimension, entries=entries)


def sentence_vector(store: VectorStore, tokens: list[str]) -> np.ndarray:
    """Mean of the in-vocabulary token vectors.

    Placeholders and numeric literals map to the vector of the literal word
    "number" when present; unknown tokens are skipped; if nothing is known
    the zero vector comes back (a neutral semantic signal).
    """
    if not tokens:
        raise InvalidArgument("sentence_vector needs at least one token")
    vectors = []
    for token in tokens:
        # `NUMBER_RE` starts with \d, and `str.isdigit` accepts every \d character
        numeric = token == PLACEHOLDER or (token[:1].isdigit() and NUMBER_RE.match(token))
        key = NUMBER_WORD if numeric else token
        vec = store.entries.get(key)
        if vec is not None:
            vectors.append(vec)
    if not vectors:
        return np.zeros(store.dimension, dtype=np.float64)
    # np.mean(vectors, axis=0) without its dispatch: the same sum and division
    return np.add.reduce(np.array(vectors), axis=0) / len(vectors)


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity in [-1, 1]; zero-norm inputs score 0."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise DimensionMismatch(f"cosine of shapes {u.shape} and {v.shape}")
    # np.linalg.norm of a 1-D float64 array is sqrt(x.dot(x))
    nu = math.sqrt(u.dot(u))
    nv = math.sqrt(v.dot(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u.dot(v) / (nu * nv))
