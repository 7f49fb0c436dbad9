"""Exception taxonomy, the one reader of integers from outside input, and
the base of the package's small value classes.

InputError (and subclasses) mark problems with user-supplied data and map to
exit code 2 in the command-line driver; NegativeResult-style outcomes are not
exceptions at all but ordinary return values.
"""

import re

_DECIMAL = re.compile(r"[+-]?[0-9]+")
# each canonical decimal string in -256..256 and its value: nearly every
# integer a document holds (indices, degrees, coefficients) is one of these
_SMALL_INTS = {str(i): i for i in range(-256, 257)}


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

    A string that is the canonical spelling ``str(i)`` of an i in -256..256,
    the common case in documents, is read by one lookup in ``_SMALL_INTS``;
    the general path would read it to the same int.  Every other value
    (``"+1"``, ``"01"``, ``"-0"``, ``" 1"``, a non-ASCII digit, a larger
    number, a JSON number) takes the general path.
    """
    if type(x) is str:
        value = _SMALL_INTS.get(x)
        if value is not None:
            return value
    try:
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


class Record:
    """A value class over the attribute names listed in ``_fields``.

    It is built from its fields in order, positionally or by keyword, and
    then runs ``__post_init__``.  As for a dataclass, the repr reads
    ``Name(f=..., g=...)`` and ``==`` compares the field values of two
    records of one class (``NotImplemented`` otherwise).  A Record is
    unhashable; a FrozenRecord is hashed by its field values and refuses
    assignment.  Both need no ``dataclasses`` import, which costs every
    invocation several milliseconds.
    """

    _fields = ()
    __hash__ = None

    def __init__(self, *args, **kwargs):
        values = dict(zip(self._fields, args), **kwargs)
        if len(args) + len(kwargs) != len(self._fields) or values.keys() != set(self._fields):
            raise TypeError(f"{type(self).__name__} takes the fields {', '.join(self._fields)}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()


class FrozenRecord(Record):
    """A Record whose fields are set once; ``__post_init__`` converts with ``object.__setattr__``."""

    def __hash__(self):
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
