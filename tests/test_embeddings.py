import math
import os
import random
import sys
import tempfile
from array import array

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import perfquant.embeddings as embeddings_module
from perfquant import (
    ClassLabel,
    Pattern,
    PatternKB,
    VectorStore,
    cosine,
    load_vectors,
    select,
    sentence_vector,
)
from perfquant.data import VECTORS_FILE, path as data_path
from perfquant.errors import DimensionMismatch, InvalidArgument, VectorFormatError
from perfquant.patterns import PLACEHOLDER
from perfquant.text import tokenize


class TestLoadVectors:
    def test_minimal_file(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("3 2\na 1 0\nb 0 1\nc 1 1\n", encoding="utf-8")
        store = load_vectors(f)
        assert store.dimension == 2
        assert len(store) == 3
        assert store.entries["c"] == array("d", [1.0, 1.0])

    def test_byte_order_mark_before_the_header(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("2 2\na 1 0\nb 0 1\n", encoding="utf-8-sig")
        store = load_vectors(f)
        assert (store.dimension, sorted(store.entries)) == (2, ["a", "b"])

    def test_component_count_mismatch(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("2 2\na 1 0\nb 0 1 1\n", encoding="utf-8")
        with pytest.raises(DimensionMismatch, match="line 3"):
            load_vectors(f)

    def test_bad_header(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("two 2\na 1 0\n", encoding="utf-8")
        with pytest.raises(VectorFormatError):
            load_vectors(f)

    def test_one_field_header(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("2\na 1 0\n", encoding="utf-8")
        with pytest.raises(VectorFormatError, match="header must be 'vocab_size dimension'"):
            load_vectors(f)

    @pytest.mark.parametrize("header", ["-1 2", "1 0"])
    def test_bad_header_values(self, tmp_path, header):
        f = tmp_path / "v.txt"
        f.write_text(f"{header}\na 1 0\n", encoding="utf-8")
        with pytest.raises(VectorFormatError, match=f"bad header values {header}$"):
            load_vectors(f)

    def test_blank_lines_are_skipped(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("2 2\n\na 1 0\n  \nb 0 1\n\n", encoding="utf-8")
        assert sorted(load_vectors(f).entries) == ["a", "b"]

    def test_non_numeric_component(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("1 2\nx 1 a\n", encoding="utf-8")
        with pytest.raises(VectorFormatError, match="line 2: non-numeric component$"):
            load_vectors(f)

    def test_entry_count_mismatch(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("3 2\na 1 0\nb 0 1\n", encoding="utf-8")
        with pytest.raises(VectorFormatError):
            load_vectors(f)

    def test_duplicate_word(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("2 1\na 1\na 2\n", encoding="utf-8")
        with pytest.raises(VectorFormatError, match="duplicate"):
            load_vectors(f)

    @pytest.mark.parametrize("component", ["nan", "NaN", "inf", "-inf"])
    def test_non_finite_component(self, tmp_path, component):
        f = tmp_path / "v.txt"
        f.write_text(f"2 2\na 1 0\nb 0 {component}\n", encoding="utf-8")
        with pytest.raises(VectorFormatError, match="line 3"):
            load_vectors(f)

    def test_overflowing_squared_norm(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("2 2\na 1 0\nb 1e200 1e200\n", encoding="utf-8")
        with pytest.raises(VectorFormatError, match="line 3"):
            load_vectors(f)

    def test_bundled_store(self, mini_store):
        assert mini_store.dimension == 50
        assert 250 <= len(mini_store) <= 400
        assert "under" in mini_store.entries
        assert "number" in mini_store.entries
        # matches the on-disk file exactly
        again = load_vectors(data_path(VECTORS_FILE))
        assert len(again) == len(mini_store)


# words of a generated vector file, and of the vocabularies that read it
WORD_POOL = ("number", "fast", "under", "seconds", "users", "can't", ";", "ünï", "absent")


@st.composite
def vector_files(draw):
    """The text of a well-formed vector file, with blank lines and runs of
    spaces and tabs between fields, and its entries by word."""
    dimension = draw(st.integers(1, 4))
    words = draw(st.lists(st.sampled_from(WORD_POOL[:-1]), unique=True))
    floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100)
    entries = {w: draw(st.lists(floats, min_size=dimension, max_size=dimension)) for w in words}
    gap = st.sampled_from([" ", "\t", "  "])
    blanks = st.sampled_from(["", "\n", "  \n"])
    lines = [f"{len(words)} {dimension}\n"]
    for word, vec in entries.items():
        fields = [word, *map(repr, vec)]
        lines.append(draw(blanks) + "".join(f + draw(gap) for f in fields[:-1]) + fields[-1] + "\n")
    return "".join(lines), entries


class TestRestrictedLoad:
    @given(vector_files(), st.lists(st.sampled_from(WORD_POOL)))
    @example(("2 1\nnumber 1.5\nfast 0.25\n", None), [])
    @example(("1 2\nfast 1 2\n", None), ["fast", "absent"])
    def test_holds_the_full_entries_of_the_vocabulary_and_number(self, file, vocabulary):
        content, _ = file
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "v.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(content)
            full = load_vectors(path)
            restricted = load_vectors(path, iter(vocabulary))
        want = {w: full.entries[w] for w in full.entries if w in {*vocabulary, "number"}}
        assert restricted.dimension == full.dimension
        assert list(restricted.entries) == list(want)
        assert all(restricted.entries[w].tobytes() == want[w].tobytes() for w in want)

    @pytest.mark.parametrize("vocabulary", [None, [], ["a"], ["a", "b", "c"]])
    @pytest.mark.parametrize(
        "content, message",
        [
            ("3 2\na 1 0\nb 0 1\n", "header promises 3 entries, file has 2"),
            ("1 2\na 1 0\n\nb 0 1\n", "header promises 1 entries, file has 2"),
        ],
    )
    def test_the_header_count_holds_with_or_without_a_vocabulary(
        self, tmp_path, vocabulary, content, message
    ):
        f = tmp_path / "v.txt"
        f.write_text(content, encoding="utf-8")
        with pytest.raises(VectorFormatError) as caught:
            load_vectors(f, vocabulary)
        assert str(caught.value) == f"{f}: {message}"

    @pytest.mark.parametrize(
        "line, error, message",
        [
            ("b 0 1 1", DimensionMismatch, "line 3: expected 2 components, got 3"),
            ("b", DimensionMismatch, "line 3: expected 2 components, got 0"),
            ("b 1 x", VectorFormatError, "line 3: non-numeric component"),
            ("a 0 1", VectorFormatError, "line 3: duplicate word 'a'"),
            ("b 0 nan", VectorFormatError, "line 3: a non-finite component"),
            ("b 1e200 1e200", VectorFormatError, "line 3: a squared norm that overflows"),
        ],
    )
    def test_a_kept_word_line_raises_as_in_a_full_load(self, tmp_path, line, error, message):
        f = tmp_path / "v.txt"
        f.write_text(f"3 2\na 1 0\n{line}\nc 1 1\n", encoding="utf-8")
        word = line.split()[0]
        for vocabulary in (None, [word], [word, "c", "absent"]):
            with pytest.raises(error) as caught:
                load_vectors(f, vocabulary)
            assert str(caught.value) == f"{f}: {message}"
        # the line of a word outside the vocabulary is counted, not read
        skipped = load_vectors(f, ["c"])
        assert list(skipped.entries) == ["c"]

    def test_number_is_kept_for_any_vocabulary(self, tmp_path):
        f = tmp_path / "v.txt"
        f.write_text("3 2\nfast 1 0\nnumber 0 1\nslow 1 1\n", encoding="utf-8")
        store = load_vectors(f, ["fast"])
        assert list(store.entries) == ["fast", "number"]
        # the placeholder and the numeral read `number`; "slow", which the
        # load skipped, is skipped as any unknown word is
        assert sentence_vector(store, ["fast", PLACEHOLDER, "7", "slow"]) == (1 / 3, 2 / 3)

    def test_the_bundled_base_keeps_a_few_of_the_bundled_words(self, bundled_kb, mini_store):
        tokens = {t for p in bundled_kb.patterns for t in p.tokens}
        store = load_vectors(data_path(VECTORS_FILE), tokens)
        assert store.entries.keys() == mini_store.entries.keys() & {*tokens, "number"}
        assert 20 < len(store.entries) < len(mini_store.entries) // 4


class TestVectorStore:
    @pytest.mark.parametrize("component", [math.nan, math.inf, -math.inf])
    def test_non_finite_component(self, component):
        entries = {"respond": np.zeros(3), "within": np.array([1.0, component, 0.0])}
        with pytest.raises(VectorFormatError, match="within"):
            VectorStore(3, entries)

    def test_int_component_past_the_float_range(self):
        with pytest.raises(VectorFormatError, match="^vector of 'a' has a non-finite component$"):
            VectorStore(3, {"a": [10**400, 0, 0]})

    def test_overflowing_squared_norm(self):
        entries = {"respond": np.ones(3), "within": np.full(3, 1e200)}
        with pytest.raises(VectorFormatError, match="within"):
            VectorStore(3, entries)

    def test_finite_squares_whose_sum_overflows(self):
        # each square is 1e308, their sum passes the float range inside fsum
        overflows = "^vector of 'a' has a squared norm that overflows$"
        with pytest.raises(VectorFormatError, match=overflows):
            VectorStore(2, {"a": [1e154, 1e154]})

    def test_largest_accepted_scale_scores_finitely(self):
        # each squared norm just below the largest float
        scale = math.sqrt(sys.float_info.max / 3) * 0.999
        entries = {
            "respond": np.array([scale, scale, -scale]),
            "within": np.array([scale, -scale, scale]),
            "number": np.array([-scale, scale, scale]),
        }
        store = VectorStore(3, entries)
        label = ClassLabel.from_codes("E", "S")
        kb = PatternKB.build([Pattern(("respond", "quickly", "within", "<N>"), label)])
        match = select(kb, store, tokenize("respond within 5 seconds"))
        assert math.isfinite(match.sem) and -1.0 <= match.sem <= 1.0 + 1e-9
        assert math.isfinite(match.fused)

    @pytest.mark.parametrize("vec", [np.zeros(2), np.zeros(4), np.zeros((3, 1)), np.float64(1.0)])
    def test_wrong_shape(self, vec):
        with pytest.raises(DimensionMismatch, match="respond"):
            VectorStore(3, {"within": np.ones(3), "respond": vec})

    def test_dimension_too_long_to_print(self):
        with pytest.raises(DimensionMismatch, match="expected <int too long to print>$"):
            VectorStore(10**5000, {"a": [1.0]})

    def test_compares_and_hashes_by_identity(self):
        entries = {"respond": np.ones(3)}
        a, b = VectorStore(3, entries), VectorStore(3, dict(entries))
        assert a != b and a == a
        assert {a: "a", b: "b"}[a] == "a"
        assert a.pattern_vectors == {} and a.pattern_vectors is not b.pattern_vectors


class TestSentenceVector:
    def test_singleton(self, make_store):
        store = make_store({"a": [1.0, 0.0]})
        assert np.allclose(sentence_vector(store, ["a"]), [1.0, 0.0])

    def test_mean_of_two(self, make_store):
        store = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        assert np.allclose(sentence_vector(store, ["a", "b"]), [0.5, 0.5])

    def test_oov_skipped(self, make_store):
        store = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        vec = sentence_vector(store, ["a", "zzz", "b"])
        assert np.allclose(vec, [0.5, 0.5])

    def test_all_oov_gives_zero(self, make_store):
        store = make_store({"a": [1.0, 0.0]})
        assert np.allclose(sentence_vector(store, ["x", "y"]), [0.0, 0.0])

    def test_numbers_and_placeholder_map_to_number_word(self, make_store):
        store = make_store({"number": [2.0, 2.0]})
        assert np.allclose(sentence_vector(store, ["<N>"]), [2.0, 2.0])
        assert np.allclose(sentence_vector(store, ["1,000"]), [2.0, 2.0])
        assert np.allclose(sentence_vector(store, ["15"]), [2.0, 2.0])

    def test_only_digit_led_tokens_are_tested_against_the_number_pattern(
        self, make_store, monkeypatch
    ):
        """`NUMBER_RE` starts with a digit, so a token that does not is
        never matched against it; numerals still map to "number"."""
        store = make_store({"number": [2.0, 2.0], "within": [1.0, 0.0]})
        real, calls = embeddings_module.NUMBER_RE, []

        class CountingPattern:
            def match(self, token):
                calls.append(token)
                return real.match(token)

        monkeypatch.setattr(embeddings_module, "NUMBER_RE", CountingPattern())
        vec = sentence_vector(store, ["within", "seconds", "<N>", "x1", "ms"])
        assert np.allclose(vec, [1.5, 1.0])
        assert calls == []
        assert np.allclose(sentence_vector(store, ["15"]), [2.0, 2.0])
        assert np.allclose(sentence_vector(store, ["1,000"]), [2.0, 2.0])
        assert np.allclose(sentence_vector(store, ["5a5"]), [0.0, 0.0])
        assert calls == ["15", "1,000", "5a5"]

    def test_permutation_invariant(self, make_store):
        store = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0], "c": [1.0, 1.0]})
        forward = sentence_vector(store, ["a", "b", "c"])
        backward = sentence_vector(store, ["c", "b", "a"])
        assert np.allclose(forward, backward)


class TestCosine:
    def test_identical(self):
        assert cosine([1.0, 0.0], [1.0, 0.0]) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal(self):
        assert cosine([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0, abs=1e-9)

    def test_known_angle(self):
        assert cosine([1.0, 1.0], [1.0, 0.0]) == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_self_similarity_one(self):
        rng = random.Random(3)
        for _ in range(50):
            u = [rng.uniform(-5, 5) for _ in range(8)]
            if all(x == 0 for x in u):
                continue
            assert cosine(u, u) == pytest.approx(1.0, abs=1e-9)

    def test_symmetry_and_scale_invariance(self):
        rng = random.Random(4)
        for _ in range(50):
            u = [rng.uniform(-5, 5) for _ in range(6)]
            v = [rng.uniform(-5, 5) for _ in range(6)]
            alpha = rng.uniform(0.1, 10)
            assert cosine(u, v) == pytest.approx(cosine(v, u), abs=1e-12)
            scaled = [alpha * x for x in u]
            assert cosine(scaled, v) == pytest.approx(cosine(u, v), abs=1e-9)

    def test_zero_norm_scores_zero(self):
        assert cosine([0.0, 0.0], [1.0, 2.0]) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            cosine([1.0, 0.0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize(
        "u, v",
        [(1.0, 2.0), (np.zeros((2, 2)), np.ones((2, 2))), ([[1.0]], [[2.0]]), (["a"], ["b"])],
        ids=["scalars", "2-D arrays", "nested lists", "text"],
    )
    def test_not_a_vector_of_numbers(self, u, v):
        with pytest.raises(DimensionMismatch, match="1-D sequences of numbers"):
            cosine(u, v)


# components up to 1e153 keep a squared norm, and a product of two norms,
# finite in up to 8 dimensions: 8 * (1e153)**2 = 8e306
COMPONENT = st.one_of(st.just(0.0), st.floats(-1e153, 1e153))


def vectors(min_size, max_size):
    """Lists of vectors of one dimension, 1 to 8."""
    return st.integers(1, 8).flatmap(
        lambda n: st.lists(st.lists(COMPONENT, min_size=n, max_size=n),
                           min_size=min_size, max_size=max_size)
    )


def reference_cosine(u, v):
    """The formula `cosine` had, with np.linalg.norm and np.dot."""
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.dot(u, v) / (nu * nv))


def normal_norm(u):
    """The squared norm neither overflows nor loses bits to underflow."""
    return 1e-290 < math.fsum(x * x for x in u) < math.inf


class TestCosineProperties:
    """`cosine` sums with fsum and tests equality first: a vector against
    itself scores exactly 1.0."""

    @given(vectors(1, 1))
    @example([[5e-324]])
    @example([[1e153] * 8])
    @example([[0.0, -0.0]])
    def test_self_similarity_is_exactly_one(self, single):
        (u,) = single
        assert cosine(u, u) == (1.0 if any(u) else 0.0)
        assert cosine(np.array(u), list(u)) == cosine(u, u)

    @given(vectors(2, 2))
    @example(([0.0, 0.0], [1.0, 2.0]))
    @example(([1e153] * 8, [-1e153] * 8))
    @example(([5e-324, 0.0], [1e153, 1e-300]))
    def test_in_range_and_symmetric(self, pair):
        u, v = pair
        c = cosine(u, v)
        assert -1.0 <= c <= 1.0
        assert c == cosine(v, u) == cosine(np.array(u), np.array(v))

    @pytest.mark.parametrize(
        "u",
        [[math.nan, 0.0], [math.inf, 0.0], [1e200, 0.0], [1e154, 1e154]],
        ids=["nan", "inf", "a square past the float range", "a sum past the float range"],
    )
    def test_non_finite_squared_norm_raises(self, u):
        with pytest.raises(InvalidArgument, match="finite"):
            cosine(u, [1.0, 1.0])
        with pytest.raises(InvalidArgument, match="finite"):
            cosine(u, u)


class TestAgainstNumpyReference:
    """`cosine` and `sentence_vector` stay within a few ulps of the numpy
    formulas they replaced; their own sums are correctly rounded."""

    @given(vectors(2, 2))
    @example(([1.0, 1e-8, 0.0], [1.0, 0.0, 1e-8]))
    @example(([1e153] * 8, [-1e153] * 8))
    @example(([0.1, 0.2, 0.3], [0.1, 0.2, 0.3000000000000001]))
    def test_cosine(self, pair):
        u, v = pair
        if not (normal_norm(u) and normal_norm(v)):
            return
        # numpy's dot is off by up to about n ulps of |u| |v|, fsum's by one,
        # and the norms, division and clamp add a few more
        tolerance = (len(u) + 4) * sys.float_info.epsilon
        assert abs(cosine(u, v) - reference_cosine(u, v)) <= tolerance

    @given(
        vectors(1, 6),
        st.lists(st.sampled_from(("w0", "w1", "w2", "w3", "w4", "w5", "unknown", "7", PLACEHOLDER)),
                 min_size=1, max_size=8),
    )
    @example([[0.0, 0.0], [0.0, 0.0]], ["w0", "w1"])
    @example([[1e153, -1e153], [1e153, 1e153]], ["w0", "w1", "w1"])
    @example([[0.1, 0.7], [0.2, 0.3], [0.3, 0.1]], ["w0", "w1", "w2"])
    def test_sentence_vector(self, vectors, tokens):
        entries = {f"w{i}": np.array(vec, dtype=np.float64) for i, vec in enumerate(vectors)}
        entries["number"] = entries["w0"]
        store = VectorStore(dimension=len(vectors[0]), entries=entries)
        known = [vectors[0] if t in ("7", PLACEHOLDER) else vectors[int(t[1])]
                 for t in tokens if t in entries or t in ("7", PLACEHOLDER)]
        got = sentence_vector(store, tokens)
        assert isinstance(got, tuple) and len(got) == store.dimension
        if not known:
            assert list(got) == [0.0] * store.dimension
            return
        assert list(got) == [math.fsum(c) / len(known) for c in zip(*known)]
        # the same vectors in another order, with an unknown word, average to the same bits
        assert sentence_vector(store, ["unknown", *reversed(tokens)]) == got
        # np.mean rounds once per term
        want = np.mean(known, axis=0)
        tolerance = len(known) * sys.float_info.epsilon * max(abs(x) for vec in known for x in vec)
        assert all(abs(a - b) <= tolerance for a, b in zip(got, want))


class TestPatternVectors:
    def test_sentence_vector_keeps_nothing(self, make_store):
        store = make_store({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        first = sentence_vector(store, ["a", "b"])
        assert sentence_vector(store, ("b", "a")) == first
        assert store.pattern_vectors == {}

    def test_one_entry_per_scored_pattern_however_many_partial_matches(self, bundled_kb):
        """Scoring parts that match many distinct subsequences of the
        patterns adds one vector per pattern scored, none per subsequence."""
        store = load_vectors(data_path(VECTORS_FILE))
        words = sorted({t for p in bundled_kb.patterns for t in p.tokens} - {PLACEHOLDER})
        rng = random.Random(3)
        parts = [tokenize(" ".join(rng.sample(words, 3)) + " 5 s") for _ in range(300)]
        partial = set()
        for part in parts:
            match = select(bundled_kb, store, part)
            if match is not None and len(match.lcs.pattern_positions) < len(match.pattern):
                partial.add((match.pattern_index, match.lcs.pattern_positions))
        assert len(partial) > 20
        patterns = {p.tokens for p in bundled_kb.patterns}
        assert set(store.pattern_vectors) <= patterns
        assert all(
            store.pattern_vectors[t] == sentence_vector(store, t) for t in store.pattern_vectors
        )

    def test_entries_are_kept_as_double_arrays(self, make_store):
        store = make_store({"a": (1, 2), "b": np.array([0.5, 0.25])})
        assert all(type(v) is array and v.typecode == "d" for v in store.entries.values())
        assert store.entries == {"a": array("d", [1.0, 2.0]), "b": array("d", [0.5, 0.25])}
