"""Exception types shared across the package, the type check of the
number fields of its config dataclasses, the one decoder of JSON documents
and the one decoder of their config sections, and the one error of files
from outside the program."""

import dataclasses
import json
import sys
from typing import Optional, get_type_hints


def check_number_fields(obj) -> None:
    """Raise TypeError for a field of dataclass `obj` that does not hold its
    declared number type: an int field takes an integer, a float field any
    finite number within the float range, and an Optional[int] field also
    None. A bool is not a number here."""
    for name, kind in get_type_hints(type(obj)).items():
        value = getattr(obj, name)
        if kind == Optional[int] and value is not None:
            kind = int
        if kind not in (int, float):
            continue
        number = (int, float) if kind is float else int
        if isinstance(value, bool) or not isinstance(value, number) or (
            kind is float and not abs(value) <= sys.float_info.max  # NaN, inf, 10**400
        ):
            what = "a finite number" if kind is float else "an integer"
            raise TypeError(f"{name} must be {what}, got {value!r:.60}")


def decode_json(text: str):
    """The value of JSON document `text`, as `json.loads` gives it. Any
    document that does not decode raises ValueError: a syntax error, an
    integer of over 4,300 digits, or nesting too deep for the decoder's
    recursion."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


class UsageError(Exception):
    """Bad flags, flag combinations, or files they name; exits 1."""


def decode_section(default, section, path: str):
    """Frozen config dataclass `default` with each field that JSON object
    `section` names replaced. A field whose default is itself such a
    dataclass is decoded from its own object by this same rule, and a key
    the section lacks keeps its default. A non-object, an unknown key, or a
    value the dataclass refuses is a UsageError naming its key path, of
    which `path` is the section's own. The empty path, for values from
    flags, whose keys are all known, leaves the dataclass's message as it
    is."""
    if not isinstance(section, dict):
        raise UsageError(f"config key {path!r} must hold a JSON object, got {section!r:.60}")
    fields = {f.name for f in dataclasses.fields(default)}
    changes = {}
    for key, value in section.items():
        if key not in fields:
            raise UsageError(f"unknown config key {f'{path}.{key}'!r}")
        inner = getattr(default, key)
        if dataclasses.is_dataclass(inner):
            value = decode_section(inner, value, path and f"{path}.{key}")
        changes[key] = value
    try:
        return dataclasses.replace(default, **changes)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"config key {path!r}: {exc}" if path else str(exc)) from None


def file_error(action: str, path, exc: Exception) -> UsageError:
    """The usage error of `action` ("read <what>", "write") failing on `path`."""
    return UsageError(f"cannot {action} {path}: {getattr(exc, 'strerror', None) or exc}")


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
