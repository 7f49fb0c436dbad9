"""Exception taxonomy, and the one reader of integers from outside input.

InputError (and subclasses) mark problems with user-supplied data and map to
exit code 2 in the command-line driver; NegativeResult-style outcomes are not
exceptions at all but ordinary return values.
"""

import re

_DECIMAL = re.compile(r"[+-]?[0-9]+")


class TdkError(Exception):
    """Base class for all errors raised by this package."""


class InputError(TdkError):
    """Malformed or invalid user input (bad schema, bad model, bad cocycle)."""

    def __init__(self, message, location=None):
        self.location = location
        super().__init__(message if location is None else f"{location}: {message}")


class SchemaError(InputError):
    """Document does not conform to a supported JSON schema."""


class ModelError(InputError):
    """A differential graded model violates one of its axioms."""


class DimensionError(TdkError):
    """Matrix/vector shapes are incompatible."""


class NotInSubgroupError(TdkError):
    """Membership test failed during a subquotient reduction."""


class SubgroupContainmentError(TdkError):
    """A required subgroup containment does not hold."""


class NotDualizableError(TdkError):
    """Operation requires a dualizable pair and the input is not; ``report`` shows it."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class TripleMismatchError(TdkError):
    """Two triples do not live over the same pair of bundles."""


class UnsupportedElementError(TdkError):
    """Group element outside the implemented generator families."""


def parse_int(x, where):
    """An int from a JSON number or a decimal string; SchemaError at ``where`` otherwise.

    Booleans, floats and strings that are not decimal are refused, and so is a
    decimal string beyond Python's int-string digit limit.

    A plain string of ASCII digits, the common case in documents, takes a
    fast path: ``isascii`` and ``isdigit`` together accept exactly what the
    regex would, with no sign or space, so ``int`` reads it directly.  That
    read can still fail, on the digit limit (``sys.set_int_max_str_digits``),
    so the fast path sits inside the same ``try`` as the general one and
    gives the same located SchemaError.
    """
    try:
        if type(x) is str and x.isascii() and x.isdigit():
            return int(x)
        if isinstance(x, bool):
            raise SchemaError("expected an integer, got a boolean", where)
        if isinstance(x, int):
            return x
        if isinstance(x, str) and _DECIMAL.fullmatch(x.strip()):
            return int(x)
    except ValueError:  # only the digit limit is left to fail
        raise SchemaError(
            f"integer of {len(x.strip())} characters exceeds the digit limit", where
        ) from None
    raise SchemaError(f"expected an integer (decimal string), got {x!r}", where)
