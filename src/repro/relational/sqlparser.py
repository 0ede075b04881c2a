"""Lexer and recursive-descent parser for the SQL subset R-GMA needs.

Supported statements::

    CREATE TABLE t (col TYPE, ...)
    INSERT INTO t [(c1, c2)] VALUES (v1, v2) [, (v3, v4) ...]
    SELECT * | c1, c2 | COUNT(*) FROM t
        [WHERE expr] [ORDER BY c [ASC|DESC], ...] [LIMIT n]
    DELETE FROM t [WHERE expr]

WHERE grammar: OR > AND > NOT > predicates, with comparisons
(=, <>, !=, <, <=, >, >=), IN lists, LIKE patterns and IS [NOT] NULL.
"""

from __future__ import annotations

import typing as _t
from functools import lru_cache

from repro.errors import SqlSyntaxError
from repro.relational.sqlast import (
    ColumnRef,
    Comparison,
    Constant,
    CreateTableStmt,
    DeleteStmt,
    InList,
    InsertStmt,
    IsNull,
    Like,
    LogicalOp,
    NotOp,
    OrderItem,
    SelectStmt,
    SqlExpr,
)

__all__ = ["parse_sql", "parse_sql_cached", "Statement"]

Statement = _t.Union[SelectStmt, InsertStmt, CreateTableStmt, DeleteStmt]


class _Token(_t.NamedTuple):
    kind: str  # KEYWORD IDENT NUMBER STRING OP EOF
    text: str
    pos: int


_KEYWORDS = {
    "select", "from", "where", "and", "or", "not", "in", "like", "is",
    "null", "order", "by", "asc", "desc", "limit", "insert", "into",
    "values", "create", "table", "delete", "count",
}

_OPERATORS = ["<>", "!=", "<=", ">=", "=", "<", ">", "(", ")", ",", "*", "."]


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch in " \t\r\n;":
            i += 1
            continue
        if ch == "'":
            j = i + 1
            out: list[str] = []
            while j < n:
                if text[j] == "'":
                    if j + 1 < n and text[j + 1] == "'":  # doubled quote escape
                        out.append("'")
                        j += 2
                        continue
                    break
                out.append(text[j])
                j += 1
            if j >= n:
                raise SqlSyntaxError(f"unterminated string at {i} in {text!r}")
            tokens.append(_Token("STRING", "".join(out), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch in "+-" and i + 1 < n and text[i + 1].isdigit() and _prev_is_operand_boundary(tokens)):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] in ".eE" or (text[j] in "+-" and text[j - 1] in "eE")):
                j += 1
            tokens.append(_Token("NUMBER", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_$"):
                j += 1
            word = text[i:j]
            kind = "KEYWORD" if word.lower() in _KEYWORDS else "IDENT"
            tokens.append(_Token(kind, word, i))
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(_Token("OP", op, i))
                i += len(op)
                break
        else:
            raise SqlSyntaxError(f"unexpected character {ch!r} at {i} in {text!r}")
    tokens.append(_Token("EOF", "", n))
    return tokens


def _prev_is_operand_boundary(tokens: list[_Token]) -> bool:
    """A +/- starts a number only after an operator/keyword, not an operand."""
    if not tokens:
        return True
    prev = tokens[-1]
    return not (prev.kind in ("NUMBER", "STRING", "IDENT") or prev.text == ")")


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    # -- helpers ---------------------------------------------------------------
    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        token = self.peek()
        return SqlSyntaxError(f"{message} at {token.pos} (near {token.text!r}) in {self.text!r}")

    def at_keyword(self, *words: str) -> bool:
        token = self.peek()
        return token.kind == "KEYWORD" and token.text.lower() in words

    def expect_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            raise self.error(f"expected {word.upper()}")
        self.advance()

    def at_op(self, *ops: str) -> bool:
        token = self.peek()
        return token.kind == "OP" and token.text in ops

    def expect_op(self, op: str) -> None:
        if not self.at_op(op):
            raise self.error(f"expected {op!r}")
        self.advance()

    def expect_ident(self) -> str:
        token = self.peek()
        if token.kind not in ("IDENT", "KEYWORD"):
            raise self.error("expected identifier")
        self.advance()
        return token.text

    # -- statements -----------------------------------------------------------
    def parse(self) -> Statement:
        if self.at_keyword("select"):
            stmt: Statement = self.parse_select()
        elif self.at_keyword("insert"):
            stmt = self.parse_insert()
        elif self.at_keyword("create"):
            stmt = self.parse_create()
        elif self.at_keyword("delete"):
            stmt = self.parse_delete()
        else:
            raise self.error("expected SELECT, INSERT, CREATE or DELETE")
        if self.peek().kind != "EOF":
            raise self.error("trailing input")
        return stmt

    def parse_select(self) -> SelectStmt:
        self.expect_keyword("select")
        count_star = False
        columns: tuple[str, ...]
        if self.at_keyword("count"):
            self.advance()
            self.expect_op("(")
            self.expect_op("*")
            self.expect_op(")")
            count_star = True
            columns = ("*",)
        elif self.at_op("*"):
            self.advance()
            columns = ("*",)
        else:
            names = [self.expect_ident()]
            while self.at_op(","):
                self.advance()
                names.append(self.expect_ident())
            columns = tuple(names)
        self.expect_keyword("from")
        table = self.expect_ident()
        where = None
        if self.at_keyword("where"):
            self.advance()
            where = self.parse_expr()
        order: list[OrderItem] = []
        if self.at_keyword("order"):
            self.advance()
            self.expect_keyword("by")
            while True:
                column = self.expect_ident()
                descending = False
                if self.at_keyword("asc", "desc"):
                    descending = self.advance().text.lower() == "desc"
                order.append(OrderItem(column, descending))
                if not self.at_op(","):
                    break
                self.advance()
        limit = None
        if self.at_keyword("limit"):
            self.advance()
            token = self.peek()
            if token.kind != "NUMBER":
                raise self.error("expected LIMIT count")
            self.advance()
            limit = int(float(token.text))
        return SelectStmt(
            table=table,
            columns=columns,
            where=where,
            order_by=tuple(order),
            limit=limit,
            count_star=count_star,
        )

    def parse_insert(self) -> InsertStmt:
        self.expect_keyword("insert")
        self.expect_keyword("into")
        table = self.expect_ident()
        columns: tuple[str, ...] | None = None
        if self.at_op("("):
            self.advance()
            names = [self.expect_ident()]
            while self.at_op(","):
                self.advance()
                names.append(self.expect_ident())
            self.expect_op(")")
            columns = tuple(names)
        self.expect_keyword("values")
        rows: list[tuple[_t.Any, ...]] = []
        while True:
            self.expect_op("(")
            values = [self.parse_literal().value]
            while self.at_op(","):
                self.advance()
                values.append(self.parse_literal().value)
            self.expect_op(")")
            rows.append(tuple(values))
            if not self.at_op(","):
                break
            self.advance()
        return InsertStmt(table=table, columns=columns, rows=tuple(rows))

    def parse_create(self) -> CreateTableStmt:
        self.expect_keyword("create")
        self.expect_keyword("table")
        table = self.expect_ident()
        self.expect_op("(")
        columns: list[tuple[str, str]] = []
        while True:
            name = self.expect_ident()
            type_token = self.peek()
            if type_token.kind not in ("IDENT", "KEYWORD"):
                raise self.error("expected column type")
            self.advance()
            type_text = type_token.text
            if self.at_op("("):  # VARCHAR(255)
                self.advance()
                size = self.peek()
                if size.kind != "NUMBER":
                    raise self.error("expected type length")
                self.advance()
                self.expect_op(")")
                type_text = f"{type_text}({size.text})"
            columns.append((name, type_text))
            if not self.at_op(","):
                break
            self.advance()
        self.expect_op(")")
        return CreateTableStmt(table=table, columns=tuple(columns))

    def parse_delete(self) -> DeleteStmt:
        self.expect_keyword("delete")
        self.expect_keyword("from")
        table = self.expect_ident()
        where = None
        if self.at_keyword("where"):
            self.advance()
            where = self.parse_expr()
        return DeleteStmt(table=table, where=where)

    # -- expressions -----------------------------------------------------------
    def parse_expr(self) -> SqlExpr:
        node = self.parse_and()
        while self.at_keyword("or"):
            self.advance()
            node = LogicalOp("OR", node, self.parse_and())
        return node

    def parse_and(self) -> SqlExpr:
        node = self.parse_not()
        while self.at_keyword("and"):
            self.advance()
            node = LogicalOp("AND", node, self.parse_not())
        return node

    def parse_not(self) -> SqlExpr:
        if self.at_keyword("not"):
            self.advance()
            return NotOp(self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> SqlExpr:
        if self.at_op("("):
            self.advance()
            node = self.parse_expr()
            self.expect_op(")")
            return node
        operand = self.parse_operand()
        if self.at_keyword("is"):
            self.advance()
            negated = False
            if self.at_keyword("not"):
                self.advance()
                negated = True
            self.expect_keyword("null")
            return IsNull(operand, negated=negated)
        negated = False
        if self.at_keyword("not"):
            self.advance()
            negated = True
            if not self.at_keyword("in", "like"):
                raise self.error("expected IN or LIKE after NOT")
        if self.at_keyword("in"):
            self.advance()
            self.expect_op("(")
            values = [self.parse_literal().value]
            while self.at_op(","):
                self.advance()
                values.append(self.parse_literal().value)
            self.expect_op(")")
            return InList(operand, tuple(values), negated=negated)
        if self.at_keyword("like"):
            self.advance()
            token = self.peek()
            if token.kind != "STRING":
                raise self.error("expected LIKE pattern string")
            self.advance()
            return Like(operand, token.text, negated=negated)
        token = self.peek()
        if token.kind == "OP" and token.text in ("=", "<>", "!=", "<", "<=", ">", ">="):
            self.advance()
            right = self.parse_operand()
            op = "<>" if token.text == "!=" else token.text
            return Comparison(op, operand, right)
        raise self.error("expected comparison, IN, LIKE or IS NULL")

    def parse_operand(self) -> SqlExpr:
        token = self.peek()
        if token.kind in ("NUMBER", "STRING") or self.at_keyword("null"):
            return self.parse_literal()
        if token.kind == "IDENT":
            self.advance()
            return ColumnRef(token.text)
        raise self.error("expected column or literal")

    def parse_literal(self) -> Constant:
        token = self.peek()
        if token.kind == "NUMBER":
            self.advance()
            text = token.text
            if any(c in text for c in ".eE"):
                return Constant(float(text))
            return Constant(int(text))
        if token.kind == "STRING":
            self.advance()
            return Constant(token.text)
        if self.at_keyword("null"):
            self.advance()
            return Constant(None)
        raise self.error("expected literal")


def parse_sql(text: str) -> Statement:
    """Parse one SQL statement; raises :class:`SqlSyntaxError` on bad input."""
    if not text.strip():
        raise SqlSyntaxError("empty statement")
    return _Parser(text).parse()


@lru_cache(maxsize=256)
def parse_sql_cached(text: str) -> Statement:
    """LRU-cached :func:`parse_sql`, keyed on the statement text.

    Statements are frozen dataclasses over tuples, so sharing the parsed
    object across callers is safe.
    """
    return parse_sql(text)
