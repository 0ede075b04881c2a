"""ClassAd value domain: three-valued logic with UNDEFINED and ERROR.

Old ClassAds (the language under Condor and Hawkeye) evaluate every
expression to one of: integer, real, string, boolean, UNDEFINED (an
attribute was missing) or ERROR (a type error occurred).  UNDEFINED and
ERROR propagate through operators with precise rules — e.g.
``FALSE && UNDEFINED`` is ``FALSE`` but ``TRUE && UNDEFINED`` is
``UNDEFINED`` — which is what lets matchmaking work over heterogeneous
ads.  This module defines the two sentinel values and coercion helpers.
"""

from __future__ import annotations

import typing as _t

__all__ = ["Undefined", "Error", "UNDEFINED", "ERROR", "Value", "is_scalar", "value_repr"]


class Undefined:
    """The UNDEFINED sentinel (singleton)."""

    _instance: "Undefined | None" = None

    def __new__(cls) -> "Undefined":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNDEFINED"

    def __bool__(self) -> bool:
        raise TypeError("UNDEFINED has no boolean value; use explicit checks")


class Error:
    """The ERROR sentinel (singleton)."""

    _instance: "Error | None" = None

    def __new__(cls) -> "Error":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ERROR"

    def __bool__(self) -> bool:
        raise TypeError("ERROR has no boolean value; use explicit checks")


UNDEFINED = Undefined()
ERROR = Error()

# The full value domain of the evaluator.
Value = _t.Union[int, float, str, bool, Undefined, Error]


def is_scalar(value: Value) -> bool:
    """True for concrete (non-sentinel) values."""
    return not isinstance(value, (Undefined, Error))


def value_repr(value: Value) -> str:
    """Render a value in ClassAd syntax (strings quoted, bools upper-case)."""
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    return repr(value)
