"""Word-vector storage and sentence-vector arithmetic for semantic matching.

Sums are `math.fsum`, correctly rounded (Shewchuk, DCG 18, 1997), so no
mean or cosine depends on the order of its terms or on the machine.
"""

from __future__ import annotations

import math
import os
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import mul

from .errors import DimensionMismatch, InvalidArgument, VectorFormatError, reads_utf8, shown
from .patterns import PLACEHOLDER
from .text import NUMBER_RE

# expectation placeholders and numeric literals share one embedding
NUMBER_WORD = "number"


def _vector_defect(vec: array) -> str | None:
    """Why `vec` cannot serve as a word vector, or None.

    A finite vector whose squared norm overflows would make its cosines
    NaN, and a NaN score compares false with every other.
    """
    try:
        if math.isfinite(math.fsum(map(mul, vec, vec))):
            return None
    except OverflowError:  # finite squares whose sum passes the float range
        return "a squared norm that overflows"
    if not all(map(math.isfinite, vec)):
        return "a non-finite component"
    return "a squared norm that overflows"


@dataclass(frozen=True, eq=False)
class VectorStore:
    """Word vectors by word, each an `array('d')` of `dimension` finite
    components with a finite squared norm, made from any 1-D sequence of
    numbers (a numpy array too).  A store compares and hashes by identity.

    `pattern_vectors` maps a pattern's token sequence to its sentence
    vector; the matcher fills it, one entry per pattern it scores, so
    `entries` must not change once the store is in use.
    """

    dimension: int
    entries: dict[str, array]
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
        entries = {}
        for word, vec in self.entries.items():
            try:
                if not (isinstance(vec, array) and vec.typecode == "d"):
                    vec = array("d", vec)
            except TypeError:  # a scalar, or a sequence of sequences
                raise DimensionMismatch(f"vector of {word!r} is not 1-D numbers") from None
            except OverflowError:  # an int past the float range
                raise VectorFormatError(f"vector of {word!r} has a non-finite component") from None
            if len(vec) != self.dimension:
                raise DimensionMismatch(
                    f"vector of {word!r} has {len(vec)} components, "
                    f"expected {shown(self.dimension, str)}"
                )
            if defect := _vector_defect(vec):
                raise VectorFormatError(f"vector of {word!r} has {defect}")
            entries[word] = vec
        object.__setattr__(self, "entries", entries)

    def __len__(self) -> int:
        return len(self.entries)


@reads_utf8(VectorFormatError)
def load_vectors(path: str | os.PathLike) -> VectorStore:
    """Read a word2vec text file: header "vocab_size dimension", then one
    word plus `dimension` floats per line."""
    with open(path, encoding="utf-8-sig") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise VectorFormatError(f"{path}: header must be 'vocab_size dimension'")
        try:
            vocab_size, dimension = int(header[0]), int(header[1])
        except ValueError as exc:
            raise VectorFormatError(f"{path}: non-integer header fields") from exc
        if vocab_size < 0 or dimension <= 0:
            raise VectorFormatError(f"{path}: bad header values {vocab_size} {dimension}")

        entries: dict[str, array] = {}
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
                vec = array("d", map(float, values))
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


def sentence_vector(store: VectorStore, tokens: Sequence[str]) -> tuple[float, ...]:
    """Mean of the in-vocabulary token vectors, each component fsum / n.

    Placeholders and numeric literals map to the vector of the literal word
    "number" when present; unknown tokens are skipped; if nothing is known
    the zero vector comes back (a neutral semantic signal).  Token
    sequences holding the same known vectors, in any order and with any
    unknown tokens, give equal vectors.
    """
    if not tokens:
        raise InvalidArgument("sentence_vector needs at least one token")
    vectors = []
    for token in tokens:
        # `NUMBER_RE` starts with \d, and `str.isdigit` accepts every \d character
        numeric = token == PLACEHOLDER or (token[:1].isdigit() and NUMBER_RE.match(token))
        vec = store.entries.get(NUMBER_WORD if numeric else token)
        if vec is not None:
            vectors.append(vec)
    if not vectors:
        return (0.0,) * store.dimension
    n = len(vectors)
    return tuple([math.fsum(c) / n for c in zip(*vectors)])


def cosine(u: Sequence[float], v: Sequence[float]) -> float:
    """Cosine similarity in [-1, 1]; a zero vector scores 0.

    Equal vectors score exactly 1.0 (0 when zero).  Otherwise the result is
    fsum(u * v) / (sqrt(fsum(u * u)) * sqrt(fsum(v * v))), clamped to
    [-1, 1], within a few ulps of the real cosine.  Anything but two 1-D
    sequences of numbers of one length raises DimensionMismatch; a
    non-finite component, or a squared norm or dot product past the float
    range, raises InvalidArgument.
    """
    try:
        u, v = tuple(u), tuple(v)
        if len(u) != len(v):
            raise DimensionMismatch(f"cosine of lengths {len(u)} and {len(v)}")
        same = u == v
        uu = math.fsum(map(mul, u, u))
        vv = uu if same else math.fsum(map(mul, v, v))
        # finite squared norms bound every product u_i * v_i
        if math.isfinite(uu) and math.isfinite(vv):
            if same:
                return 1.0 if any(u) else 0.0
            if uu == 0.0 or vv == 0.0:
                return 0.0
            c = math.fsum(map(mul, u, v)) / (math.sqrt(uu) * math.sqrt(vv))
            return 1.0 if c > 1.0 else -1.0 if c < -1.0 else c
    except OverflowError:  # finite terms whose sum passes the float range
        pass
    except (TypeError, ValueError):  # a scalar, text, or a vector of vectors
        raise DimensionMismatch("cosine needs two 1-D sequences of numbers") from None
    raise InvalidArgument("cosine needs finite vectors with finite squared norms")
