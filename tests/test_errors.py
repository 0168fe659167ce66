"""Every bad argument to a public name raises `InvalidArgument`: a
`PerfQuantError`, so one `except` catches the package's errors, and a
`ValueError`, so a caller's `except ValueError` keeps working."""

import math

import pytest

from perfquant import (
    ClassLabel,
    Fragment,
    FragmentKind,
    LabeledRequirement,
    MatcherConfig,
    MetricDirection,
    Pattern,
    QuantificationRequest,
    SatisfactionFunction,
    VectorStore,
    bootstrap_eval,
    combine,
    compile_single,
    evaluate,
    load_dataset,
    load_patterns,
    load_vectors,
    sentence_vector,
    set_scores,
)
from perfquant.errors import (
    DatasetParseError,
    InvalidArgument,
    PatternParseError,
    PerfQuantError,
    VectorFormatError,
)
from perfquant.patterns import PLACEHOLDER
from perfquant.satisfaction import check_bounds

MIN = MetricDirection.MINIMIZE
ES = ClassLabel.from_codes("E", "S")
G, E = FragmentKind.GREATER, FragmentKind.EQUAL


def _segment(v_lo, v_hi):
    return Fragment(E, v_lo, v_hi, 1.0, 1.0)


def _bootstrap(**kwargs):
    # three rows, so that a train fraction of 2/3 leaves both partitions non-empty
    rows = [LabeledRequirement(f"r{i}", "respond in 5 seconds", ES) for i in range(3)]
    args = {"runs": 1, "train_fraction": 2 / 3, "seed": 1, **kwargs}
    return bootstrap_eval(rows, store=VectorStore(1, {}), **args)


SITES = {
    "combine, three parts": (
        lambda: combine([(ES, 1.0), (ES, 2.0), (ES, 3.0)], (0, 10), MIN),
        "combine takes 1 or 2 parts, got 3",
    ),
    "combine, a part with no point": (
        lambda: combine([(ES, None)], (0, 10), MIN),
        "combine requires an expectation point per part",
    ),
    "set_scores, no kinds": (lambda: set_scores([], MIN), "empty fragment sequence"),
    "Fragment, reversed interval": (
        lambda: Fragment(G, 2.0, 1.0, 0.0, 1.0),
        "fragment interval reversed: [2.0, 1.0]",
    ),
    "Fragment, score outside [0, 1]": (
        lambda: Fragment(G, 0.0, 1.0, 0.0, 1.5),
        "satisfaction score 1.5 outside [0, 1]",
    ),
    "Fragment, sloped indifferent": (
        lambda: Fragment(E, 0.0, 1.0, 0.0, 1.0),
        "indifferent fragment must have a constant score",
    ),
    "SatisfactionFunction, no segment": (
        lambda: SatisfactionFunction((), MIN),
        "satisfaction function needs at least one segment",
    ),
    "SatisfactionFunction, a gap": (
        lambda: SatisfactionFunction((_segment(0, 1), _segment(2, 3)), MIN),
        "segments must tile the range without gaps",
    ),
    "Pattern, no token": (lambda: Pattern((), ES), "pattern must have at least one token"),
    "Pattern, two placeholders": (
        lambda: Pattern((PLACEHOLDER, "in", PLACEHOLDER), ES),
        f"pattern has multiple {PLACEHOLDER} placeholders",
    ),
    "Pattern, a bad token": (lambda: Pattern(("In",), ES), "bad pattern token 'In'"),
    "VectorStore, no dimension": (
        lambda: VectorStore(0, {}),
        "vector dimension must be positive",
    ),
    "sentence_vector, no token": (
        lambda: sentence_vector(VectorStore(1, {}), []),
        "sentence_vector needs at least one token",
    ),
    "evaluate, NaN": (
        lambda: evaluate(compile_single(ES, 5.0, (0, 10), MIN), math.nan),
        "cannot score nan: not a number",
    ),
    "QuantificationRequest, one bound": (
        lambda: QuantificationRequest("respond within 5 s", bounds=(5,)),
        "bounds must be a pair (lo, hi), got (5,)",
    ),
    "compile_single, three bounds": (
        lambda: compile_single(ES, 5.0, (0, 1, 2), MIN),
        "bounds must be a pair (lo, hi), got (0, 1, 2)",
    ),
    "combine, one bound": (
        lambda: combine([(ES, 1.0)], (5,), MIN),
        "bounds must be a pair (lo, hi), got (5,)",
    ),
    "ClassLabel.from_codes, unknown code": (
        lambda: ClassLabel.from_codes("X", "S"),
        "fragment code must be G, S or E, got 'X'",
    ),
    "FragmentKind.from_code, unknown code": (
        lambda: FragmentKind.from_code("up"),
        "fragment code must be G, S or E, got 'up'",
    ),
    "MetricDirection.from_code, unknown code": (
        lambda: MetricDirection.from_code("up"),
        "direction must be min or max, got 'up'",
    ),
    # a wrong type is a bad argument too
    "QuantificationRequest, a number as bounds": (
        lambda: QuantificationRequest("respond within 5 s", bounds=5),
        "bounds must be a pair (lo, hi), got 5",
    ),
    "QuantificationRequest, text bounds": (
        lambda: QuantificationRequest("respond within 5 s", bounds=("a", "b")),
        "bounds must be numbers, got ('a', 'b')",
    ),
    "QuantificationRequest, a None bound": (
        lambda: QuantificationRequest("respond within 5 s", bounds=(None, 1)),
        "bounds must be numbers, got (None, 1)",
    ),
    "check_bounds, a string": (
        lambda: check_bounds("01"),
        "bounds must be numbers, got ('0', '1')",
    ),
    "ClassLabel.from_codes, None": (
        lambda: ClassLabel.from_codes(None, "S"),
        "fragment code must be G, S or E, got None",
    ),
    "FragmentKind.from_code, an int": (
        lambda: FragmentKind.from_code(1),
        "fragment code must be G, S or E, got 1",
    ),
    "MetricDirection.from_code, an int": (
        lambda: MetricDirection.from_code(3),
        "direction must be min or max, got 3",
    ),
    "MatcherConfig, a text weight": (
        lambda: MatcherConfig(w="a"),
        "weight w must be a number, got 'a'",
    ),
    "MatcherConfig, a None weight": (
        lambda: MatcherConfig(w=None),
        "weight w must be a number, got None",
    ),
    "evaluate, a text value": (
        lambda: evaluate(compile_single(ES, 5.0, (0, 10), MIN), "3"),
        "cannot score '3': not a number",
    ),
    "evaluate, None": (
        lambda: evaluate(compile_single(ES, 5.0, (0, 10), MIN), None),
        "cannot score None: not a number",
    ),
    "Fragment, a text bound": (
        lambda: Fragment(G, "a", 1.0, 0.0, 1.0),
        "fragment interval and scores must be numbers, got ('a', 1.0, 0.0, 1.0)",
    ),
    "Fragment, a NaN bound": (
        lambda: SatisfactionFunction((Fragment(G, math.nan, 1.0, 0.0, 1.0),), MIN),
        "fragment interval must be finite, got [nan, 1.0]",
    ),
    "Fragment, infinite bounds": (
        lambda: SatisfactionFunction((Fragment(G, -math.inf, math.inf, 0.0, 1.0),), MIN),
        "fragment interval must be finite, got [-inf, inf]",
    ),
    "Fragment, an int bound past the float range": (
        lambda: SatisfactionFunction((Fragment(G, 0, 10**400, 0.0, 1.0),), MIN),
        "fragment interval must be finite, got a bound past the float range",
    ),
    "SatisfactionFunction.from_json, an int bound past the float range": (
        lambda: SatisfactionFunction.from_json(
            '{"direction": "min", "segments": [{"v_lo": 0, "v_hi": 1%s, "s_lo": 0, "s_hi": 1}]}'
            % ("0" * 400)
        ),
        "fragment interval must be finite, got a bound past the float range",
    ),
    "Fragment, two text bounds": (
        lambda: Fragment(G, "a", "b", 0.0, 1.0),
        "fragment interval and scores must be numbers, got ('a', 'b', 0.0, 1.0)",
    ),
    "compile_single, a text point": (
        lambda: compile_single(ES, "5", (0, 10), MIN),
        "expectation point must be a number, got '5'",
    ),
    "VectorStore, a text dimension": (
        lambda: VectorStore("3", {}),
        "vector dimension must be a number, got '3'",
    ),
    "Pattern, a list of tokens": (
        lambda: Pattern(["a"], ES),
        "pattern tokens must be a tuple, got ['a']",
    ),
    "Pattern, a token that is not a string": (lambda: Pattern((1,), ES), "bad pattern token 1"),
    "SatisfactionFunction.from_json, not JSON": (
        lambda: SatisfactionFunction.from_json("g(v)"),
        "malformed satisfaction function JSON: "
        "JSONDecodeError('Expecting value: line 1 column 1 (char 0)')",
    ),
    "SatisfactionFunction.from_json, no segments": (
        lambda: SatisfactionFunction.from_json('{"direction": "min"}'),
        "malformed satisfaction function JSON: KeyError('segments')",
    ),
    "SatisfactionFunction.from_json, a text score": (
        lambda: SatisfactionFunction.from_json(
            '{"direction": "min", "segments": [{"v_lo": 0, "v_hi": 1, "s_lo": "1", "s_hi": 0}]}'
        ),
        "malformed satisfaction function JSON: "
        "TypeError(\"'<' not supported between instances of 'str' and 'int'\")",
    ),
    "SatisfactionFunction.from_json, a NaN bound": (
        lambda: SatisfactionFunction.from_json(
            '{"direction": "min", "segments": [{"v_lo": NaN, "v_hi": 1, "s_lo": 0, "s_hi": 1}]}'
        ),
        "fragment interval must be finite, got [nan, 1]",
    ),
    # an int past the float range, or with more digits than str() prints (4,300)
    "check_bounds, an int bound past the float range": (
        lambda: check_bounds((0, 10**400)),
        "bounds must be finite, got a bound past the float range",
    ),
    "QuantificationRequest, an int bound past the float range": (
        lambda: QuantificationRequest("x in 5 s", bounds=(0, 10**400)),
        "bounds must be finite, got a bound past the float range",
    ),
    "combine, an int bound past the float range": (
        lambda: combine([(ES, 1.0)], (0, 10**400), MIN),
        "bounds must be finite, got a bound past the float range",
    ),
    "check_bounds, an int width past the float range": (
        lambda: check_bounds((-(10**308), 10**308)),
        f"bounds width hi - lo must be finite, got ({-(10**308)}, {10**308})",
    ),
    "check_bounds, text and an int too long to print": (
        lambda: check_bounds(("a", 10**5000)),
        "bounds must be numbers, got ('a', <int too long to print>)",
    ),
    "Fragment, a score too long to print": (
        lambda: Fragment(G, 0.0, 1.0, 0.0, 10**5000),
        "satisfaction score <int too long to print> outside [0, 1]",
    ),
    "Fragment, text and a score too long to print": (
        lambda: Fragment(G, "a", 1.0, 0.0, 10**5000),
        "fragment interval and scores must be numbers, "
        "got ('a', 1.0, 0.0, <int too long to print>)",
    ),
    "MatcherConfig, a weight too long to print": (
        lambda: MatcherConfig(w=10**5000),
        "weight w must lie in [0, 1], got <int too long to print>",
    ),
    "SatisfactionFunction.from_json, an int too long to read": (
        lambda: SatisfactionFunction.from_json(
            '{"direction": "min", "segments": [{"v_lo": 0, "v_hi": 1%s, "s_lo": 0, "s_hi": 1}]}'
            % ("0" * 5000)
        ),
        "malformed satisfaction function JSON: ValueError('Exceeds the limit (4300 digits) "
        "for integer string conversion: value has 5001 digits; "
        "use sys.set_int_max_str_digits() to increase the limit')",
    ),
    # the constructors' own message, not the malformed-JSON one
    "SatisfactionFunction.from_json, an unknown direction": (
        lambda: SatisfactionFunction.from_json('{"direction": "up", "segments": []}'),
        "direction must be min or max, got 'up'",
    ),
    "SatisfactionFunction.from_json, a reversed segment": (
        lambda: SatisfactionFunction.from_json(
            '{"direction": "max", "segments": [{"v_lo": 1, "v_hi": 0, "s_lo": 0, "s_hi": 1}]}'
        ),
        "fragment interval reversed: [1, 0]",
    ),
    "bootstrap_eval, a text train fraction": (
        lambda: _bootstrap(train_fraction="a"),
        "train_fraction must be a real number, got 'a'",
    ),
    "bootstrap_eval, no train fraction": (
        lambda: _bootstrap(train_fraction=None),
        "train_fraction must be a real number, got None",
    ),
    "bootstrap_eval, a text seed": (
        lambda: _bootstrap(seed="x"),
        "seed must be an integer, got 'x'",
    ),
    "bootstrap_eval, no seed": (lambda: _bootstrap(seed=None), "seed must be an integer, got None"),
    # a bool is an Integral, but True is no count and no seed
    "bootstrap_eval, a bool run count": (
        lambda: _bootstrap(runs=True),
        "runs must be an integer >= 1, got True",
    ),
    "bootstrap_eval, a bool train size": (
        lambda: _bootstrap(train_size=True),
        "train_size must be an integer, got True",
    ),
    "bootstrap_eval, a bool seed": (lambda: _bootstrap(seed=True), "seed must be an integer, got True"),
}


@pytest.mark.parametrize("site", SITES)
def test_each_bad_argument_raises_the_typed_error(site):
    call, message = SITES[site]
    with pytest.raises(PerfQuantError) as caught:
        call()
    assert type(caught.value) is InvalidArgument
    assert isinstance(caught.value, ValueError)
    assert str(caught.value) == message


# a file that is not UTF-8 raises the loader's own parse error, naming the
# file, the line and the byte, where a bare UnicodeDecodeError named no file
FILE_SITES = {
    "load_patterns, a stray byte": (
        load_patterns,
        b"more than <N>\tG\tE\nin \xff <N>\tE\tS\n",
        PatternParseError,
        "line 2: byte 0xff is not UTF-8 (invalid start byte)",
    ),
    "load_vectors, a stray byte": (
        load_vectors,
        b"2 1\nnumber 1.0\nfast\xff 0.5\n",
        VectorFormatError,
        "line 3: byte 0xff is not UTF-8 (invalid start byte)",
    ),
    "load_dataset, a stray byte": (
        load_dataset,
        b"id,text,left,right,v_beta,direction\nr1,respond in \xff 5 s,E,S,,\n",
        DatasetParseError,
        "line 2: byte 0xff is not UTF-8 (invalid start byte)",
    ),
    # after a byte-order mark, and a sequence cut short at the end of the file
    "load_patterns, a cut sequence after a BOM": (
        load_patterns,
        "\ufeffin <N>\tE\tS\n".encode() + b"under <N>\tE\tS \xe2\x82",
        PatternParseError,
        "line 2: byte 0xe2 is not UTF-8 (unexpected end of data)",
    ),
}


@pytest.mark.parametrize("site", FILE_SITES)
def test_each_file_that_is_not_utf8_raises_the_typed_error(site, tmp_path):
    load, content, error, message = FILE_SITES[site]
    path = tmp_path / "input"
    path.write_bytes(content)
    with pytest.raises(PerfQuantError) as caught:
        load(path)
    assert type(caught.value) is error
    assert str(caught.value) == f"{path}: {message}"
