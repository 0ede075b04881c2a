"""ClassAd expression evaluation with old-ClassAds semantics.

The evaluation rules that matter for matchmaking:

* missing attributes evaluate to UNDEFINED, type mismatches to ERROR;
* ``&&``/``||`` use three-valued logic (``FALSE && UNDEFINED = FALSE``,
  ``TRUE && UNDEFINED = UNDEFINED``, ERROR dominates);
* ``==`` on strings is case-insensitive; ``=?=``/``=!=`` are the strict
  (type- and case-sensitive) identity operators that never yield
  UNDEFINED;
* unscoped references resolve in MY then TARGET; circular references
  evaluate to UNDEFINED (as in Condor).

Expressions run as compiled closures (:mod:`repro.classad.compile`),
which count visited nodes (``Evaluation.ops``) so the simulation can
charge CPU proportional to real evaluation work.  This module holds the
evaluation context and the value-level rules the closures share:
three-valued coercion, arithmetic, comparison, identity and builtins.
"""

from __future__ import annotations

import math
import typing as _t
from dataclasses import dataclass, field

from repro.classad.ast import Expr
from repro.classad.values import ERROR, UNDEFINED, Error, Undefined, Value

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.classad.ads import ClassAd

__all__ = ["evaluate", "Evaluation"]


@dataclass
class Evaluation:
    """Mutable evaluation context: scopes, cycle guard and op counter."""

    my: "ClassAd | None" = None
    target: "ClassAd | None" = None
    ops: int = 0
    _stack: set[tuple[str, str]] = field(default_factory=set)


def evaluate(
    expr: Expr,
    my: "ClassAd | None" = None,
    target: "ClassAd | None" = None,
    ctx: Evaluation | None = None,
) -> Value:
    """Evaluate ``expr`` with the given MY/TARGET ads; returns a Value.

    ``ctx.ops`` counts the nodes visited; it feeds the cost models.
    """
    if ctx is None:
        ctx = Evaluation(my=my, target=target)
    from repro.classad.compile import compile_expr  # compile imports this module

    return compile_expr(expr)(ctx)


def _numeric(value: Value) -> float | int | None:
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, (int, float)):
        return value
    return None


def _to_bool3(value: Value) -> Value:
    """Coerce to the three-valued boolean domain (numbers: nonzero=true)."""
    if isinstance(value, (Undefined, Error, bool)):
        return value
    if isinstance(value, (int, float)):
        return value != 0
    return ERROR  # strings are not booleans


def _eval_arith(op: str, left: Value, right: Value) -> Value:
    a = _numeric(left)
    b = _numeric(right)
    if a is None or b is None:
        if op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right  # string concatenation, a Condor convenience
        return ERROR
    try:
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            if b == 0:
                return ERROR
            if isinstance(a, int) and isinstance(b, int):
                return int(a / b)  # C-style truncation
            return a / b
        if b == 0:
            return ERROR
        return math.fmod(a, b) if isinstance(a, float) or isinstance(b, float) else int(math.fmod(a, b))
    except OverflowError:
        return ERROR


def _eval_compare(op: str, left: Value, right: Value) -> Value:
    a_num = _numeric(left)
    b_num = _numeric(right)
    if a_num is not None and b_num is not None:
        a: _t.Any
        b: _t.Any
        a, b = a_num, b_num
    elif isinstance(left, str) and isinstance(right, str):
        a, b = left.lower(), right.lower()
    else:
        return ERROR
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    return ERROR


def _is_identical(left: Value, right: Value) -> bool:
    """The =?= operator: type-strict, case-sensitive, sentinel-aware."""
    if isinstance(left, Undefined) and isinstance(right, Undefined):
        return True
    if isinstance(left, Error) and isinstance(right, Error):
        return True
    if isinstance(left, (Undefined, Error)) or isinstance(right, (Undefined, Error)):
        return False
    if isinstance(left, bool) != isinstance(right, bool):
        return False
    if isinstance(left, str) != isinstance(right, str):
        return False
    return left == right


# -- builtin functions -------------------------------------------------------


def _apply_builtin(name: str, args: list[Value]) -> Value:
    """Apply an eager builtin to already-evaluated arguments.

    Shared with the compiled closures in :mod:`repro.classad.compile`;
    ``ifthenelse`` stays in the callers because it is lazy.
    """
    if name == "isundefined":
        return len(args) == 1 and isinstance(args[0], Undefined)
    if name == "iserror":
        return len(args) == 1 and isinstance(args[0], Error)
    for arg in args:
        if isinstance(arg, Error):
            return ERROR
    for arg in args:
        if isinstance(arg, Undefined):
            return UNDEFINED
    if name == "strcat":
        return "".join(str(a) if not isinstance(a, bool) else ("TRUE" if a else "FALSE") for a in args)
    if name == "toupper" and len(args) == 1 and isinstance(args[0], str):
        return args[0].upper()
    if name == "tolower" and len(args) == 1 and isinstance(args[0], str):
        return args[0].lower()
    if name == "size" and len(args) == 1 and isinstance(args[0], str):
        return len(args[0])
    if name == "int" and len(args) == 1:
        try:
            return int(float(args[0])) if not isinstance(args[0], bool) else int(args[0])
        except (TypeError, ValueError):
            return ERROR
    if name == "real" and len(args) == 1:
        try:
            return float(args[0]) if not isinstance(args[0], bool) else float(int(args[0]))
        except (TypeError, ValueError):
            return ERROR
    if name == "string" and len(args) == 1:
        value = args[0]
        if isinstance(value, bool):
            return "TRUE" if value else "FALSE"
        return str(value)
    if name == "floor" and len(args) == 1:
        number = _numeric(args[0])
        return ERROR if number is None else int(math.floor(number))
    if name == "ceiling" and len(args) == 1:
        number = _numeric(args[0])
        return ERROR if number is None else int(math.ceil(number))
    if name == "round" and len(args) == 1:
        number = _numeric(args[0])
        return ERROR if number is None else int(math.floor(number + 0.5))
    return ERROR
