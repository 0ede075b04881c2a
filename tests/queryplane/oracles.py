"""The three query dialects' tree-walking interpreters, kept as oracles.

``src/`` answers every query on compiled closures
(:mod:`repro.ldap.compile`, :mod:`repro.relational.compile`,
:mod:`repro.classad.compile`).  These are the interpreters those closures
replaced, with their bodies unchanged, so the differential corpora and
the speed-up test compare each plane against an independent reference:

* LDAP — :func:`matches` walks a filter tree over one entry, and
  :func:`search` is the DIT's scoped full scan with it;
* SQL — :func:`eval_predicate` is the three-valued WHERE walker,
  :func:`select_rowids` the first-bucket-or-scan planner, and
  :func:`execute_select` the executor's SELECT on that planner;
* ClassAd — :func:`evaluate` walks an expression tree, counting the
  same ``Evaluation.ops`` the compiled closures count;
* the collector — :func:`collector_query` answers a whole indexed
  ``Attr == literal`` constraint from the index, and anything else with
  ``match_pool`` over every resident ad.

Value-level semantics (SQL comparison and LIKE, ClassAd arithmetic,
comparison, identity and builtins) are imported from ``src/``: the
compiled closures share them too, so they are not what these oracles
check.
"""

from __future__ import annotations

import typing as _t
from unittest import mock

from repro.classad.ast import AttrRef, BinaryOp, Expr, FuncCall, Literal, UnaryOp
from repro.classad.collector import AdCollector, QueryOutcome, _View
from repro.classad.evaluator import (
    Evaluation,
    _apply_builtin,
    _eval_arith,
    _eval_compare,
    _is_identical,
    _to_bool3,
)
from repro.classad.matchmaker import match_pool
from repro.classad.values import ERROR, UNDEFINED, Error, Undefined, Value
from repro.errors import NoSuchEntryError, SchemaError
from repro.ldap.dit import DIT, SCOPE_BASE, SCOPE_ONE, SCOPE_SUB
from repro.ldap.dn import DN
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
from repro.relational import executor
from repro.relational.compile import compare_values, like_regex
from repro.relational.executor import ResultSet, _index_candidates
from repro.relational.sqlast import (
    ColumnRef,
    Comparison,
    Constant,
    InList,
    IsNull,
    Like,
    LogicalOp,
    NotOp,
    SelectStmt,
    SqlExpr,
)
from repro.relational.table import Table
from repro.relational.types import SqlValue

# -- LDAP: RFC 1960 filters over the DIT ---------------------------------------


def matches(flt: Filter, entry: Entry) -> bool:
    """Evaluate ``flt`` against ``entry`` by walking the filter tree."""
    if isinstance(flt, And):
        return all(matches(child, entry) for child in flt.children)
    if isinstance(flt, Or):
        return any(matches(child, entry) for child in flt.children)
    if isinstance(flt, Not):
        return not matches(flt.child, entry)
    if isinstance(flt, Equality):
        want_num: float | None = flt._num  # type: ignore[attr-defined]
        want_str: str = flt._lower  # type: ignore[attr-defined]
        for candidate in entry.get(flt.attr):
            if want_num is not None:
                got = _as_number(candidate)
                if got is not None and got == want_num:
                    return True
            if candidate.lower() == want_str:
                return True
        return False
    if isinstance(flt, Presence):
        return entry.has(flt.attr)
    if isinstance(flt, Substring):
        for candidate in entry.get(flt.attr):
            if flt._match_one(candidate.lower()):
                return True
        return False
    if isinstance(flt, (GreaterOrEqual, LessOrEqual)):
        want_num = flt._num
        op = type(flt).op
        op_str = type(flt).op_str
        for candidate in entry.get(flt.attr):
            if want_num is not None:
                got = _as_number(candidate)
                if got is not None:
                    if op(got, want_num):
                        return True
                    continue
            if op_str(candidate.lower(), flt._lower):
                return True
        return False
    raise NotImplementedError(type(flt).__name__)


def search(
    dit: DIT,
    base: DN | str,
    scope: str = SCOPE_SUB,
    filter: Filter | str = "(objectclass=*)",
    attributes: _t.Sequence[str] | None = None,
) -> list[Entry]:
    """``DIT.search`` as a full scan that parses the filter every time."""
    if isinstance(base, str):
        base = DN.parse(base)
    flt = parse_filter(filter) if isinstance(filter, str) else filter
    if scope not in (SCOPE_BASE, SCOPE_ONE, SCOPE_SUB):
        raise ValueError(f"unknown scope: {scope!r}")
    node = dit._find(base)
    if node is None:
        raise NoSuchEntryError(f"search base does not exist: {base}")
    if scope == SCOPE_BASE:
        candidates: _t.Iterable = [node] if node.entry else []
    elif scope == SCOPE_ONE:
        candidates = node.children.values()
    else:
        candidates = dit._walk(node)
    hits: list[Entry] = []
    for cand in candidates:
        entry = cand.entry
        if entry is not None and matches(flt, entry):
            hits.append(entry.project(attributes))
    return hits


# -- SQL: three-valued WHERE over a table --------------------------------------

_TRUE, _FALSE, _NULL = True, False, None


def eval_predicate(expr: SqlExpr, table: Table, row: tuple[SqlValue, ...]) -> bool | None:
    """Evaluate a WHERE tree; returns True/False/None (NULL)."""
    if isinstance(expr, LogicalOp):
        left = eval_predicate(expr.left, table, row)
        right = eval_predicate(expr.right, table, row)
        if expr.op == "AND":
            if left is _FALSE or right is _FALSE:
                return _FALSE
            if left is _NULL or right is _NULL:
                return _NULL
            return _TRUE
        if left is _TRUE or right is _TRUE:
            return _TRUE
        if left is _NULL or right is _NULL:
            return _NULL
        return _FALSE
    if isinstance(expr, NotOp):
        inner = eval_predicate(expr.operand, table, row)
        return _NULL if inner is _NULL else (not inner)
    if isinstance(expr, Comparison):
        left = _eval_operand(expr.left, table, row)
        right = _eval_operand(expr.right, table, row)
        if left is None or right is None:
            return _NULL
        return compare_values(expr.op, left, right)
    if isinstance(expr, InList):
        value = _eval_operand(expr.operand, table, row)
        if value is None:
            return _NULL
        hit = any(compare_values("=", value, v) for v in expr.values if v is not None)
        return (not hit) if expr.negated else hit
    if isinstance(expr, Like):
        value = _eval_operand(expr.operand, table, row)
        if value is None:
            return _NULL
        hit = like_regex(expr.pattern).fullmatch(str(value)) is not None
        return (not hit) if expr.negated else hit
    if isinstance(expr, IsNull):
        value = _eval_operand(expr.operand, table, row)
        result = value is None
        return (not result) if expr.negated else result
    raise SchemaError(f"unsupported WHERE node: {type(expr).__name__}")


def _eval_operand(expr: SqlExpr, table: Table, row: tuple[SqlValue, ...]) -> SqlValue:
    if isinstance(expr, Constant):
        return expr.value
    if isinstance(expr, ColumnRef):
        return row[table.column_position(expr.name)]
    raise SchemaError(f"unsupported operand: {type(expr).__name__}")


def select_rowids(table: Table, where: SqlExpr | None) -> tuple[list[int], int, bool]:
    """Rowids matching ``where``: the first usable equality bucket, else a scan."""
    index_used = False
    if where is not None:
        for column, value in _index_candidates(where):
            if not table.has_column(column):
                raise SchemaError(f"no column {column!r} in table {table.name!r}")
            bucket = table.lookup_index(column, value)
            if bucket is not None:
                index_used = True
                examined = 0
                hits = []
                for rowid in sorted(bucket):
                    examined += 1
                    if eval_predicate(where, table, table.get_row(rowid)) is _TRUE:
                        hits.append(rowid)
                table.rows_scanned_total += examined
                return hits, examined, index_used
    hits = []
    examined = 0
    for rowid, row in table.rows():
        examined += 1
        if where is None or eval_predicate(where, table, row) is _TRUE:
            hits.append(rowid)
    table.rows_scanned_total += examined
    return hits, examined, index_used


def execute_select(table: Table, stmt: SelectStmt) -> ResultSet:
    """The executor's SELECT (ORDER BY, LIMIT, projection) on :func:`select_rowids`."""
    with mock.patch.object(executor, "select_rowids", select_rowids):
        return executor.execute_select(table, stmt)


# -- ClassAd: expression trees and the collector scan --------------------------


def evaluate(
    expr: Expr,
    my: _t.Any = None,
    target: _t.Any = None,
    ctx: Evaluation | None = None,
) -> Value:
    """Evaluate ``expr`` by walking the tree; counts ``ctx.ops`` per node."""
    if ctx is None:
        ctx = Evaluation(my=my, target=target)
    return _eval(expr, ctx)


def _eval(expr: Expr, ctx: Evaluation) -> Value:
    ctx.ops += 1
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, AttrRef):
        return _eval_ref(expr, ctx)
    if isinstance(expr, UnaryOp):
        return _eval_unary(expr, ctx)
    if isinstance(expr, BinaryOp):
        return _eval_binary(expr, ctx)
    if isinstance(expr, FuncCall):
        return _eval_func(expr, ctx)
    return ERROR


def _eval_ref(ref: AttrRef, ctx: Evaluation) -> Value:
    key = ref.name.lower()
    scopes: list[tuple[str, _t.Any]]
    if ref.scope == "my":
        scopes = [("my", ctx.my)]
    elif ref.scope == "target":
        scopes = [("target", ctx.target)]
    else:
        scopes = [("my", ctx.my), ("target", ctx.target)]
    for scope_name, ad in scopes:
        if ad is None:
            continue
        sub = ad.lookup(ref.name)
        if sub is None:
            continue
        guard = (scope_name, key)
        if guard in ctx._stack:
            return UNDEFINED  # circular reference
        ctx._stack.add(guard)
        try:
            # The referenced expression evaluates in ITS ad's scope:
            # references found in TARGET flip MY/TARGET.
            if scope_name == "target":
                flipped = Evaluation(my=ctx.target, target=ctx.my, ops=ctx.ops, _stack=ctx._stack)
                value = _eval(sub, flipped)
                ctx.ops = flipped.ops
            else:
                value = _eval(sub, ctx)
            return value
        finally:
            ctx._stack.discard(guard)
    return UNDEFINED


def _eval_unary(node: UnaryOp, ctx: Evaluation) -> Value:
    value = _eval(node.operand, ctx)
    if isinstance(value, Error):
        return ERROR
    if isinstance(value, Undefined):
        return UNDEFINED
    if node.op == "-":
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return ERROR
        return -value
    if node.op == "!":
        if isinstance(value, bool):
            return not value
        return ERROR
    return ERROR


def _eval_binary(node: BinaryOp, ctx: Evaluation) -> Value:
    op = node.op
    if op in ("&&", "||"):
        return _eval_logical(node, ctx)
    left = _eval(node.left, ctx)
    right = _eval(node.right, ctx)
    if op in ("=?=", "=!="):
        same = _is_identical(left, right)
        return same if op == "=?=" else not same
    if isinstance(left, Error) or isinstance(right, Error):
        return ERROR
    if isinstance(left, Undefined) or isinstance(right, Undefined):
        return UNDEFINED
    if op in ("+", "-", "*", "/", "%"):
        return _eval_arith(op, left, right)
    return _eval_compare(op, left, right)


def _eval_logical(node: BinaryOp, ctx: Evaluation) -> Value:
    left = _to_bool3(_eval(node.left, ctx))
    # Short-circuit on decisive left operands.
    if node.op == "&&" and left is False:
        return False
    if node.op == "||" and left is True:
        return True
    right = _to_bool3(_eval(node.right, ctx))
    for side in (left, right):
        if isinstance(side, Error):
            return ERROR
    if node.op == "&&":
        if left is False or right is False:
            return False
        if isinstance(left, Undefined) or isinstance(right, Undefined):
            return UNDEFINED
        return True
    if left is True or right is True:
        return True
    if isinstance(left, Undefined) or isinstance(right, Undefined):
        return UNDEFINED
    return False


def _eval_func(node: FuncCall, ctx: Evaluation) -> Value:
    name = node.name
    if name == "ifthenelse":
        if len(node.args) != 3:
            return ERROR
        cond = _to_bool3(_eval(node.args[0], ctx))
        if isinstance(cond, Error):
            return ERROR
        if isinstance(cond, Undefined):
            return UNDEFINED
        return _eval(node.args[1] if cond else node.args[2], ctx)
    args = [_eval(a, ctx) for a in node.args]
    return _apply_builtin(name, args)


def collector_query(collector: AdCollector, constraint: str) -> QueryOutcome:
    """``AdCollector.query`` with no views and no conjunct pruning: the scan."""
    view = _View(constraint, collector._indexed)
    if view.equal is not None:
        indexed = collector.lookup_equal(*view.equal)
        return QueryOutcome(ads=indexed, scanned=len(indexed), ops=len(indexed), index_hit=True)
    pool = collector.ads()
    matched, ops = match_pool(view.request, pool)
    return QueryOutcome(ads=[ad for _rank, ad in matched], scanned=len(pool), ops=ops, index_hit=False)
