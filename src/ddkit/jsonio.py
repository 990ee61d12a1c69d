"""Checked reading of the JSON documents ddkit writes (schedules, MOOS sets
and pulse shapes) and of CLI config files.

Each loader parses through ``load_object`` and reads every key through
``get_field`` or ``get_list``, so malformed text, a missing key or a value of
the wrong type raises a PreconditionError naming the document and the key,
never a JSONDecodeError, KeyError or TypeError.
"""

import json
import math

from .errors import PreconditionError

__all__ = ["load_object", "get_field", "get_list", "all_of_kind"]


_KIND_NAMES = {
    str: "a string",
    int: "an integer",
    float: "a finite number",
    list: "a list",
    dict: "an object",
}


def all_of_kind(values: list, kind: type) -> bool:
    """Whether every item of ``values`` is of ``kind``, decided over the whole
    list at once.  It tests exact types, which is what json.loads yields, so
    a False here is confirmed (and the bad item named) by a per-item walk."""
    types = set(map(type, values))
    if kind is float:
        try:
            return types <= {int, float} and all(map(math.isfinite, values))
        except OverflowError:  # an integer beyond the float range
            return False
    return types <= {kind}


def load_object(text: str, what: str) -> dict:
    """Parse ``text`` as one JSON object describing a ``what``."""
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError and bad encodings
        raise PreconditionError(f"malformed {what} JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise PreconditionError(
            f"{what} JSON must be an object, got {type(doc).__name__}"
        )
    return doc


def get_field(doc: dict, key: str, kind: type, what: str):
    """``doc[key]``, which must be present and of ``kind``.  A value of
    exactly that type (a finite one, for a float: json.loads reads NaN and
    Infinity) is taken without ``all_of_kind``'s set of types."""
    try:
        value = doc[key]
    except KeyError:
        raise PreconditionError(f"{what} JSON is missing key {key!r}") from None
    if type(value) is kind and (kind is not float or math.isfinite(value)):
        return value
    if not all_of_kind((value,), kind):
        raise PreconditionError(
            f"{what} JSON key {key!r} must be {_KIND_NAMES[kind]}, "
            f"got {type(value).__name__}"
        )
    return value


def get_list(doc: dict, key: str, kind: type, what: str) -> list:
    """``doc[key]``, which must be a list whose every item is of ``kind``."""
    values = get_field(doc, key, list, what)
    if not all_of_kind(values, kind):
        for v in values:
            if not all_of_kind((v,), kind):
                raise PreconditionError(
                    f"{what} JSON key {key!r}: every item must be "
                    f"{_KIND_NAMES[kind]}, got {type(v).__name__}"
                )
    return values
