"""Exception types shared across the package.

The CLI maps these onto stable exit codes, so new failure modes should
reuse one of the classes below rather than raising bare ValueErrors.
So do the input rules that every module shares.
"""

from collections.abc import Iterable

SHOWN_LIMIT = 60  # characters of a repr that an error message shows


class ParseError(ValueError):
    """Input file is not valid JSON or is missing/mistyping required keys."""


class ValidationError(ValueError):
    """A value violates a structural invariant (shape, field, range)."""


class ShapeError(ValueError):
    """The quiver (or window) has the wrong shape for the requested operation."""


class GuardError(RuntimeError):
    """An enumeration guard would be exceeded; refuse instead of running forever."""


class InternalCheckError(RuntimeError):
    """A mathematically impossible state was reached; indicates a bug."""


def is_int(value) -> bool:
    """True for an int proper: ``True`` and ``False`` are ints to Python, not counts."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_ints(values: Iterable, what: str) -> None:
    """ValidationError unless every value is an int proper; nothing is truncated."""
    for value in values:
        if type(value) is not int and not is_int(value):  # a plain int skips the call
            raise ValidationError(f"{what}: {shown(value)} is not an int")


def check_counts(values: Iterable, what: str) -> tuple:
    """``values`` as a tuple; ValidationError unless each is an int proper that is not negative."""
    values = tuple(values)
    check_ints(values, what)
    for value in values:
        if value < 0:
            raise ValidationError(f"{what} {value} is negative")
    return values


def check_type(value, kind: type, what: str) -> None:
    """ValidationError unless ``value`` is a ``kind``, naming it as ``what``."""
    if not isinstance(value, kind):
        name = kind.__name__
        article = "an" if name[0] in "AEIOU" else "a"
        raise ValidationError(f"{what} {shown(value)} is not {article} {name}")


def shown(value) -> str:
    """``repr(value)`` for an error message, cut to ``SHOWN_LIMIT`` characters."""
    try:
        text = repr(value)
    except ValueError:  # an int past Python's digit limit for str()
        return f"<{type(value).__name__} too long to show>"
    if len(text) <= SHOWN_LIMIT:
        return text
    return f"{text[:SHOWN_LIMIT]}... ({len(text)} characters)"
