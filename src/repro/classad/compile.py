"""ClassAd expression compilation to closures over the ad environment.

:func:`compile_expr` lowers an :class:`~repro.classad.ast.Expr` tree to
a closure taking an :class:`~repro.classad.evaluator.Evaluation` context
and returning a :class:`~repro.classad.values.Value`.  The closures
carry old-ClassAds semantics, including:

* one ``ctx.ops`` increment per node visited (the op count drives the
  simulation's CPU cost models, so it must not drift);
* the cycle guard and the MY/TARGET flip for references resolved in the
  TARGET scope;
* UNDEFINED/ERROR propagation, short-circuit logical operators and the
  lazy ``ifthenelse``.

Value-level semantics (arithmetic, comparison, identity, builtins) live
in :mod:`repro.classad.evaluator`.  Compilation memoizes per node
*instance* (never by dataclass equality: ``Literal(3) == Literal(3.0)``
and ``Literal(True) == Literal(1)`` under Python's cross-type numeric
equality, yet they must not share a closure).
"""

from __future__ import annotations

import typing as _t

from repro.classad.ast import AttrRef, BinaryOp, Expr, FuncCall, Literal, UnaryOp
from repro.classad.evaluator import (
    Evaluation,
    _apply_builtin,
    _eval_arith,
    _eval_compare,
    _is_identical,
    _to_bool3,
)
from repro.classad.values import ERROR, UNDEFINED, Error, Undefined, Value

__all__ = ["compile_expr"]

Compiled = _t.Callable[[Evaluation], Value]


def _compile_ref(ref: AttrRef) -> Compiled:
    key = ref.name.lower()
    name = ref.name
    scope = ref.scope

    def run(ctx: Evaluation) -> Value:
        ctx.ops += 1
        if scope == "my":
            scopes: tuple = (("my", ctx.my),)
        elif scope == "target":
            scopes = (("target", ctx.target),)
        else:
            scopes = (("my", ctx.my), ("target", ctx.target))
        for scope_name, ad in scopes:
            if ad is None:
                continue
            sub = ad.lookup(name)
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
                    flipped = Evaluation(
                        my=ctx.target, target=ctx.my, ops=ctx.ops, _stack=ctx._stack
                    )
                    value = compile_expr(sub)(flipped)
                    ctx.ops = flipped.ops
                else:
                    value = compile_expr(sub)(ctx)
                return value
            finally:
                ctx._stack.discard(guard)
        return UNDEFINED

    return run


def _compile_unary(node: UnaryOp) -> Compiled:
    operand = compile_expr(node.operand)
    op = node.op

    def run(ctx: Evaluation) -> Value:
        ctx.ops += 1
        value = operand(ctx)
        if isinstance(value, Error):
            return ERROR
        if isinstance(value, Undefined):
            return UNDEFINED
        if op == "-":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                return ERROR
            return -value
        if op == "!":
            if isinstance(value, bool):
                return not value
            return ERROR
        return ERROR

    return run


def _compile_binary(node: BinaryOp) -> Compiled:
    op = node.op
    left = compile_expr(node.left)
    right = compile_expr(node.right)
    if op == "&&":

        def run_and(ctx: Evaluation) -> Value:
            ctx.ops += 1
            a = _to_bool3(left(ctx))
            if a is False:  # short-circuit on the decisive left operand
                return False
            b = _to_bool3(right(ctx))
            if isinstance(a, Error) or isinstance(b, Error):
                return ERROR
            if a is False or b is False:
                return False
            if isinstance(a, Undefined) or isinstance(b, Undefined):
                return UNDEFINED
            return True

        return run_and
    if op == "||":

        def run_or(ctx: Evaluation) -> Value:
            ctx.ops += 1
            a = _to_bool3(left(ctx))
            if a is True:
                return True
            b = _to_bool3(right(ctx))
            if isinstance(a, Error) or isinstance(b, Error):
                return ERROR
            if a is True or b is True:
                return True
            if isinstance(a, Undefined) or isinstance(b, Undefined):
                return UNDEFINED
            return False

        return run_or
    if op in ("=?=", "=!="):
        want_same = op == "=?="

        def run_identity(ctx: Evaluation) -> Value:
            ctx.ops += 1
            same = _is_identical(left(ctx), right(ctx))
            return same if want_same else not same

        return run_identity
    if op in ("+", "-", "*", "/", "%"):

        def run_arith(ctx: Evaluation) -> Value:
            ctx.ops += 1
            a = left(ctx)
            b = right(ctx)
            if isinstance(a, Error) or isinstance(b, Error):
                return ERROR
            if isinstance(a, Undefined) or isinstance(b, Undefined):
                return UNDEFINED
            return _eval_arith(op, a, b)

        return run_arith

    def run_compare(ctx: Evaluation) -> Value:
        ctx.ops += 1
        a = left(ctx)
        b = right(ctx)
        if isinstance(a, Error) or isinstance(b, Error):
            return ERROR
        if isinstance(a, Undefined) or isinstance(b, Undefined):
            return UNDEFINED
        return _eval_compare(op, a, b)

    return run_compare


def _compile_func(node: FuncCall) -> Compiled:
    name = node.name
    if name == "ifthenelse":
        if len(node.args) != 3:

            def run_bad_arity(ctx: Evaluation) -> Value:
                ctx.ops += 1
                return ERROR

            return run_bad_arity
        condition = compile_expr(node.args[0])
        then_branch = compile_expr(node.args[1])
        else_branch = compile_expr(node.args[2])

        def run_ifthenelse(ctx: Evaluation) -> Value:
            ctx.ops += 1
            cond = _to_bool3(condition(ctx))
            if isinstance(cond, Error):
                return ERROR
            if isinstance(cond, Undefined):
                return UNDEFINED
            return then_branch(ctx) if cond else else_branch(ctx)

        return run_ifthenelse
    arg_runs = tuple(compile_expr(a) for a in node.args)

    def run(ctx: Evaluation) -> Value:
        ctx.ops += 1
        args = [run_arg(ctx) for run_arg in arg_runs]
        return _apply_builtin(name, args)

    return run


def compile_expr(expr: Expr) -> Compiled:
    """Compile ``expr`` to a closure (memoized per node instance)."""
    cached = getattr(expr, "_compiled", None)
    if cached is not None:
        return cached
    run = _compile(expr)
    object.__setattr__(expr, "_compiled", run)
    return run


def _compile(expr: Expr) -> Compiled:
    if isinstance(expr, Literal):
        value = expr.value

        def run_literal(ctx: Evaluation) -> Value:
            ctx.ops += 1
            return value

        return run_literal
    if isinstance(expr, AttrRef):
        return _compile_ref(expr)
    if isinstance(expr, UnaryOp):
        return _compile_unary(expr)
    if isinstance(expr, BinaryOp):
        return _compile_binary(expr)
    if isinstance(expr, FuncCall):
        return _compile_func(expr)

    def run_unknown(ctx: Evaluation) -> Value:
        ctx.ops += 1
        return ERROR

    return run_unknown
