"""Filter compilation: closed-over predicates and index prune plans.

:func:`compile_filter` turns a parsed :class:`~repro.ldap.filter.Filter`
tree into

* a **predicate** — a closure over pre-parsed numeric values and
  pre-lowered strings that answers ``predicate(entry)`` exactly like
  ``Filter.matches`` but without re-walking the AST, and
* a **prune plan** — a description of the candidate entry sets the
  :class:`~repro.ldap.dit.DIT` equality/presence indexes can supply
  before the predicate runs.  A plan is an *over*-approximation: every
  matching entry is in the candidate set, so the predicate always gets
  the final say, and filters with no indexable structure (orderings,
  substrings, NOT) simply carry no plan and fall back to the scan.

Both are cached — :func:`compile_filter` memoizes on the (hashable)
filter node, :func:`compile_text` adds an LRU keyed on the filter text
so repeated string queries skip the parser entirely.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass
from functools import lru_cache

from repro import queryplane
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

__all__ = [
    "CompiledFilter",
    "compile_filter",
    "compile_text",
    "resolve_filter",
    "index_key",
    "EqTerm",
    "PresTerm",
    "AnyTerm",
    "PickTerm",
]

Predicate = _t.Callable[[Entry], bool]


def index_key(value: str) -> tuple[str, _t.Any]:
    """Normalize an attribute value to its equality-index key.

    Equality filters match numerically when both sides parse as numbers
    and case-insensitively otherwise, so two values that can ever test
    equal must map to the same key: numbers keyed by their float value,
    everything else (including NaN spellings, which never compare equal
    numerically) by its lowercased text.
    """
    number = _as_number(value)
    if number is not None and number == number:  # NaN falls back to text
        return ("num", number)
    return ("str", value.lower())


# -- prune plans -------------------------------------------------------------


@dataclass(frozen=True)
class EqTerm:
    """Candidates = entries holding ``attr`` equal to the keyed value."""

    attr: str
    key: tuple[str, _t.Any]


@dataclass(frozen=True)
class PresTerm:
    """Candidates = entries carrying ``attr`` at all."""

    attr: str


@dataclass(frozen=True)
class AnyTerm:
    """OR: the union of every option's candidates."""

    options: tuple["Plan", ...]


@dataclass(frozen=True)
class PickTerm:
    """AND: any single option is sound — the DIT picks the smallest."""

    options: tuple["Plan", ...]


Plan = _t.Union[EqTerm, PresTerm, AnyTerm, PickTerm]


def _build_plan(flt: Filter) -> Plan | None:
    if isinstance(flt, Equality):
        return EqTerm(flt.attr.lower(), index_key(flt.value))
    if isinstance(flt, Presence):
        return PresTerm(flt.attr.lower())
    if isinstance(flt, And):
        options = tuple(p for p in (_build_plan(c) for c in flt.children) if p is not None)
        return PickTerm(options) if options else None
    if isinstance(flt, Or):
        options = []
        for child in flt.children:
            plan = _build_plan(child)
            if plan is None:  # one unprunable branch poisons the union
                return None
            options.append(plan)
        return AnyTerm(tuple(options))
    return None  # Not / orderings / substrings: evaluate on the scan


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
    return flt.matches  # unknown node type: defer to the interpreter


# -- public entry points -----------------------------------------------------


class CompiledFilter:
    """A parsed filter with its compiled predicate and prune plan."""

    __slots__ = ("filter", "predicate", "plan")

    def __init__(self, flt: Filter, predicate: Predicate, plan: Plan | None) -> None:
        self.filter = flt
        self.predicate = predicate
        self.plan = plan


@lru_cache(maxsize=512)
def compile_filter(flt: Filter) -> CompiledFilter:
    """Compile a parsed filter tree (memoized on the node)."""
    return CompiledFilter(flt, _compile_predicate(flt), _build_plan(flt))


@lru_cache(maxsize=256)
def compile_text(text: str) -> CompiledFilter:
    """Parse and compile a filter string (LRU keyed on the text)."""
    return compile_filter(parse_filter(text))


def resolve_filter(flt: Filter | str, compiled: bool | None = None) -> CompiledFilter:
    """What a search runs for ``flt`` on the mode :func:`repro.queryplane.resolve` picks.

    Compiled: the memoized closure and its prune plan.  Interpreted (the
    oracle): the parsed tree's own ``matches`` and no plan.
    """
    if queryplane.resolve(compiled):
        return compile_text(flt) if isinstance(flt, str) else compile_filter(flt)
    parsed = parse_filter(flt) if isinstance(flt, str) else flt
    return CompiledFilter(parsed, parsed.matches, None)
