"""The ClassAd record type: a case-insensitive map of attribute → expression.

A ClassAd is a set of ``name = expr`` bindings.  Values assigned as
plain Python scalars are wrapped as literals; strings that *look like*
expressions can be bound with :meth:`ClassAd.set_expr`.  Serialization
follows the classic one-attribute-per-line Condor format used by
``condor_status -l`` and ``hawkeye_advertise``.
"""

from __future__ import annotations

import re
import typing as _t

from repro.classad.ast import Expr, Literal
from repro.classad.evaluator import Evaluation, evaluate
from repro.classad.parser import _KEYWORD_LITERALS, parse_expr
from repro.classad.values import UNDEFINED, Value, is_scalar
from repro.errors import ClassAdSyntaxError

__all__ = ["ClassAd"]

# ``name = literal`` where the parser would build a single Literal node: a
# string with no quote or backslash, an unsigned integer or digits.digits,
# or a keyword.  ASCII classes spelled out, because IGNORECASE and \d also
# accept characters the lexer rejects.
_LITERAL_LINE = re.compile(
    r"""\s*([^\s=#][^=]*?)\s*=\s*(?:"([^"\\]*)"|([0-9]+\.[0-9]+)|([0-9]+)"""
    r"""|([Tt][Rr][Uu][Ee]|[Ff][Aa][Ll][Ss][Ee]|[Uu][Nn][Dd][Ee][Ff][Ii][Nn][Ee][Dd]|[Ee][Rr][Rr][Oo][Rr])"""
    r""")\s*\Z"""
)


class ClassAd:
    """An attribute/expression record with ClassAd evaluation semantics."""

    __slots__ = ("_attrs", "_display", "_sized")

    def __init__(self, attributes: _t.Mapping[str, _t.Any] | None = None) -> None:
        self._attrs: dict[str, Expr] = {}
        self._display: dict[str, str] = {}
        self._sized: tuple[str, int] | None = None  # sized_text(), until the next mutation
        if attributes:
            for name, value in attributes.items():
                self[name] = value

    # -- mutation ---------------------------------------------------------------
    def __setitem__(self, name: str, value: _t.Any) -> None:
        """Bind ``name`` to a literal value (or an :class:`Expr`)."""
        key = name.lower()
        self._display[key] = name
        if isinstance(value, Expr):
            self._attrs[key] = value
        else:
            self._attrs[key] = Literal(value)
        self._sized = None

    def set_expr(self, name: str, expression: str) -> None:
        """Bind ``name`` to a parsed ClassAd expression string."""
        key = name.lower()
        self._display[key] = name
        self._attrs[key] = parse_expr(expression)
        self._sized = None

    def __delitem__(self, name: str) -> None:
        key = name.lower()
        del self._attrs[key]
        del self._display[key]
        self._sized = None

    def update(self, other: "ClassAd") -> None:
        """Merge ``other``'s bindings into this ad (other wins)."""
        for key, expr in other._attrs.items():
            self._attrs[key] = expr
            self._display[key] = other._display[key]
        self._sized = None

    # -- access -----------------------------------------------------------------
    def lookup(self, name: str) -> Expr | None:
        """The raw expression bound to ``name`` (no evaluation)."""
        return self._attrs.get(name.lower())

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._attrs

    def __len__(self) -> int:
        return len(self._attrs)

    def names(self) -> list[str]:
        """Attribute names in insertion order, original spelling."""
        return [self._display[k] for k in self._attrs]

    def eval(self, name: str, target: "ClassAd | None" = None) -> Value:
        """Evaluate attribute ``name`` with this ad as MY (UNDEFINED if absent)."""
        expr = self.lookup(name)
        if expr is None:
            return UNDEFINED
        return evaluate(expr, my=self, target=target)

    def eval_counted(self, name: str, target: "ClassAd | None" = None) -> tuple[Value, int]:
        """Like :meth:`eval` but also returns the number of AST ops visited."""
        expr = self.lookup(name)
        if expr is None:
            return UNDEFINED, 1
        ctx = Evaluation(my=self, target=target)
        value = evaluate(expr, ctx=ctx)
        return value, ctx.ops

    def get_scalar(self, name: str, default: _t.Any = None) -> _t.Any:
        """Evaluate ``name``; return ``default`` for UNDEFINED/ERROR."""
        value = self.eval(name)
        return value if is_scalar(value) else default

    # -- serialization ----------------------------------------------------------
    def serialize(self) -> str:
        """Condor long-format text (one ``name = expr`` per line)."""
        return "\n".join(f"{self._display[k]} = {expr}" for k, expr in self._attrs.items())

    @classmethod
    def deserialize(cls, text: str) -> "ClassAd":
        """Parse the output of :meth:`serialize` back into an ad.

        A line binding a plain literal — nearly every line of a Startd ad
        — becomes the parser's ``Literal`` node without tokenizing; any
        other line goes through :func:`parse_expr`, the one grammar.
        """
        ad = cls()
        attrs, display = ad._attrs, ad._display
        for line in text.split("\n"):
            found = _LITERAL_LINE.match(line)
            if found is not None:
                name, string, real, integer, keyword = found.groups()
                if string is not None:
                    node = Literal(string)
                elif integer is not None:
                    node = Literal(int(integer))
                elif real is not None:
                    node = Literal(float(real))
                else:
                    node = _KEYWORD_LITERALS[keyword.lower()]
            else:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                name, equals, expression = line.partition("=")
                name = name.strip()
                if not equals or not name:
                    raise ClassAdSyntaxError(f"expected 'name = expression', got {line!r}")
                node = parse_expr(expression.strip())
            key = name.lower()
            display[key] = name
            attrs[key] = node
        return ad

    def sized_text(self) -> tuple[str, int]:
        """``serialize()`` and :meth:`estimated_size` from one encoding,
        made once per state of the ad."""
        sized = self._sized
        if sized is None:
            text = self.serialize()
            sized = self._sized = (text, len(text) + 2)
        return sized

    def estimated_size(self) -> int:
        """Approximate serialized size in bytes (drives network costs)."""
        return self.sized_text()[1]

    def copy(self) -> "ClassAd":
        clone = ClassAd()
        clone._attrs = dict(self._attrs)
        clone._display = dict(self._display)
        clone._sized = self._sized
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        name = self.get_scalar("Name", "?")
        return f"<ClassAd Name={name} ({len(self)} attrs)>"
