"""Exception types shared across the package, and how their messages show a value."""

import functools


def shown(value, form=repr) -> str:
    """`form(value)` for an error message; an int with more digits than
    `str` converts (`sys.get_int_max_str_digits()`) shows as a note."""
    try:
        return form(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


def _not_utf8(path) -> str:
    """`path`, the line of its first byte that is not UTF-8, and that byte."""
    # a line never splits a UTF-8 sequence, as none holds the newline byte
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                byte = line[exc.start]
                return f"{path}: line {lineno}: byte {byte:#04x} is not UTF-8 ({exc.reason})"
    return f"{path}: not UTF-8"


def reads_utf8(error: type):
    """Decorate a loader of the file at `path`: a file that is not UTF-8
    raises `error`, naming the file, its line and the byte, where a bare
    `UnicodeDecodeError` that names no file would escape."""

    def decorate(load):
        @functools.wraps(load)
        def loader(path):
            try:
                return load(path)
            except UnicodeDecodeError:
                raise error(_not_utf8(path)) from None

        return loader

    return decorate


class PerfQuantError(Exception):
    """Base class for all errors raised by this package."""


class MissingExpectation(PerfQuantError):
    """An asymmetric label was compiled without an expectation point."""


class ExpectationOutOfBounds(PerfQuantError):
    """An expectation point falls outside the metric bounds."""


class InconsistentDirections(PerfQuantError):
    """Two parts of one requirement imply opposite metric directions."""


class EmptyInput(PerfQuantError):
    """Input text or label list was empty."""


class PatternParseError(PerfQuantError):
    """A pattern file could not be parsed."""


class UnknownLabelCode(PatternParseError):
    """A label code outside {G, S, E} was encountered."""


class NoExtractableSpan(PerfQuantError):
    """The extraction heuristic found no usable token span."""


class VectorFormatError(PerfQuantError):
    """A word-vector file violates the expected text format."""


class DimensionMismatch(PerfQuantError):
    """Vector dimensions disagree."""


class EmptyKB(PerfQuantError):
    """The pattern knowledge base contains no patterns."""


class NoMatch(PerfQuantError):
    """No pattern produced a non-empty match for the requirement."""


class DatasetParseError(PerfQuantError):
    """A labeled-requirement CSV could not be parsed."""


class DuplicateId(DatasetParseError):
    """Two dataset rows share an id."""


class LengthMismatch(PerfQuantError):
    """Gold and predicted label lists differ in length."""


class DatasetTooSmall(PerfQuantError):
    """A resampling split would leave the train or test partition empty."""


class InvalidArgument(PerfQuantError, ValueError):
    """An argument lies outside the domain its function documents."""
