"""Exception types shared across the package, and how their messages show a value."""


def shown(value, form=repr) -> str:
    """`form(value)` for an error message; an int with more digits than
    `str` converts (`sys.get_int_max_str_digits()`) shows as a note."""
    try:
        return form(value)
    except ValueError:
        return f"<{type(value).__name__} too long to print>"


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
