"""Exception types shared across the package, the type check of the
number fields of its config dataclasses, and the one decoder of JSON
documents from outside the program."""

import json
import math
from typing import Optional, get_type_hints


def check_number_fields(obj) -> None:
    """Raise TypeError for a field of dataclass `obj` that does not hold its
    declared number type: an int field takes an integer, a float field any
    finite number, and an Optional[int] field also None. A bool is not a
    number here."""
    for name, kind in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if kind == Optional[int] and value is not None:
            kind = int
        if kind not in (int, float):
            continue
        number = (int, float) if kind is float else int
        if isinstance(value, bool) or not isinstance(value, number) or (
            isinstance(value, float) and not math.isfinite(value)
        ):
            what = "a finite number" if kind is float else "an integer"
            raise TypeError(f"{name} must be {what}, got {value!r}")


def decode_json(text: str):
    """The value of JSON document `text`, as `json.loads` gives it. Any
    document that does not decode raises ValueError: a syntax error, an
    integer of over 4,300 digits, or nesting too deep for the decoder's
    recursion."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


class MetatriageError(Exception):
    """Base class for all data and contract errors raised by this package."""


class ParseError(MetatriageError):
    """Input stream could not be parsed within the configured error budget."""


class DuplicateAppIdError(ParseError):
    """Two records in one corpus share an app_id."""


class CompositionError(MetatriageError):
    """A subset recipe cannot be satisfied by the given corpus."""


class GenerationError(MetatriageError):
    """A synthetic-corpus configuration is infeasible."""


class ContractError(MetatriageError):
    """Caller violated an interface contract (e.g. mismatched columns)."""


class DegenerateLabelsError(MetatriageError):
    """An operation that needs both classes received only one."""
