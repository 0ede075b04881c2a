"""Filter compilation: closed-over entry predicates.

:func:`compile_filter` turns a parsed :class:`~repro.ldap.filter.Filter`
tree into a **predicate** — a closure over pre-parsed numeric values and
pre-lowered strings that answers ``predicate(entry)`` without re-walking
the tree.  It is the one way the DIT, the GRIS and the GIIS evaluate a
filter.

Both entry points are cached — :func:`compile_filter` memoizes on the
(hashable) filter node, :func:`compile_text` adds an LRU keyed on the
filter text so repeated string queries skip the parser entirely.
"""

from __future__ import annotations

import typing as _t
from functools import lru_cache

from repro.ldap.entry import Entry
from repro.ldap.filter import (
    And,
    Equality,
    Filter,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Presence,
    Substring,
    _as_number,
    parse_filter,
)

__all__ = ["CompiledFilter", "compile_filter", "compile_text", "resolve_filter"]

Predicate = _t.Callable[[Entry], bool]


# -- predicates --------------------------------------------------------------


def _compile_predicate(flt: Filter) -> Predicate:
    if isinstance(flt, And):
        preds = tuple(compile_filter(c).predicate for c in flt.children)

        def run_and(entry: Entry) -> bool:
            for pred in preds:
                if not pred(entry):
                    return False
            return True

        return run_and
    if isinstance(flt, Or):
        preds = tuple(compile_filter(c).predicate for c in flt.children)

        def run_or(entry: Entry) -> bool:
            for pred in preds:
                if pred(entry):
                    return True
            return False

        return run_or
    if isinstance(flt, Not):
        inner = compile_filter(flt.child).predicate
        return lambda entry: not inner(entry)
    if isinstance(flt, Equality):
        attr = flt.attr
        want_num: float | None = flt._num  # type: ignore[attr-defined]
        want_str: str = flt._lower  # type: ignore[attr-defined]

        def run_eq(entry: Entry) -> bool:
            for candidate in entry.get(attr):
                if want_num is not None:
                    got = _as_number(candidate)
                    if got is not None and got == want_num:
                        return True
                if candidate.lower() == want_str:
                    return True
            return False

        return run_eq
    if isinstance(flt, Presence):
        attr = flt.attr
        return lambda entry: entry.has(attr)
    if isinstance(flt, Substring):
        attr = flt.attr
        match_one = flt._match_one

        def run_sub(entry: Entry) -> bool:
            for candidate in entry.get(attr):
                if match_one(candidate.lower()):
                    return True
            return False

        return run_sub
    if isinstance(flt, (GreaterOrEqual, LessOrEqual)):
        attr = flt.attr
        want_num = flt._num
        want_str = flt._lower
        op = type(flt).op
        op_str = type(flt).op_str

        def run_ord(entry: Entry) -> bool:
            for candidate in entry.get(attr):
                if want_num is not None:
                    got = _as_number(candidate)
                    if got is not None:
                        if op(got, want_num):
                            return True
                        continue
                if op_str(candidate.lower(), want_str):
                    return True
            return False

        return run_ord
    raise TypeError(f"not a filter node: {type(flt).__name__}")


# -- public entry points -----------------------------------------------------


class CompiledFilter:
    """A parsed filter with its compiled predicate."""

    __slots__ = ("filter", "predicate")

    def __init__(self, flt: Filter, predicate: Predicate) -> None:
        self.filter = flt
        self.predicate = predicate


@lru_cache(maxsize=512)
def compile_filter(flt: Filter) -> CompiledFilter:
    """Compile a parsed filter tree (memoized on the node)."""
    return CompiledFilter(flt, _compile_predicate(flt))


@lru_cache(maxsize=256)
def compile_text(text: str) -> CompiledFilter:
    """Parse and compile a filter string (LRU keyed on the text)."""
    return compile_filter(parse_filter(text))


def resolve_filter(flt: Filter | str) -> CompiledFilter:
    """The compiled form of a filter given as text or as a parsed tree."""
    return compile_text(flt) if isinstance(flt, str) else compile_filter(flt)
