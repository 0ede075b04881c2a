"""The ClassAd record type: a case-insensitive map of attribute → expression.

A ClassAd is a set of ``name = expr`` bindings.  Values assigned as
plain Python scalars are wrapped as literals; strings that *look like*
expressions can be bound with :meth:`ClassAd.set_expr`.  Serialization
follows the classic one-attribute-per-line Condor format used by
``condor_status -l`` and ``hawkeye_advertise``.
"""

from __future__ import annotations

import typing as _t

from repro.classad.ast import Expr, Literal
from repro.classad.evaluator import Evaluation, evaluate
from repro.classad.parser import parse_expr
from repro.classad.values import UNDEFINED, Value, is_scalar

__all__ = ["ClassAd"]


class ClassAd:
    """An attribute/expression record with ClassAd evaluation semantics."""

    __slots__ = ("_attrs", "_display")

    def __init__(self, attributes: _t.Mapping[str, _t.Any] | None = None) -> None:
        self._attrs: dict[str, Expr] = {}
        self._display: dict[str, str] = {}
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

    def set_expr(self, name: str, expression: str) -> None:
        """Bind ``name`` to a parsed ClassAd expression string."""
        key = name.lower()
        self._display[key] = name
        self._attrs[key] = parse_expr(expression)

    def __delitem__(self, name: str) -> None:
        key = name.lower()
        del self._attrs[key]
        del self._display[key]

    def update(self, other: "ClassAd") -> None:
        """Merge ``other``'s bindings into this ad (other wins)."""
        for key, expr in other._attrs.items():
            self._attrs[key] = expr
            self._display[key] = other._display[key]

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
        """Parse the output of :meth:`serialize` back into an ad."""
        ad = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            name, _, expression = line.partition("=")
            ad.set_expr(name.strip(), expression.strip())
        return ad

    def sized_text(self) -> tuple[str, int]:
        """``serialize()`` and :meth:`estimated_size` from one encoding."""
        text = self.serialize()
        return text, len(text) + 2

    def estimated_size(self) -> int:
        """Approximate serialized size in bytes (drives network costs)."""
        return self.sized_text()[1]

    def copy(self) -> "ClassAd":
        clone = ClassAd()
        clone._attrs = dict(self._attrs)
        clone._display = dict(self._display)
        return clone

    def __repr__(self) -> str:  # pragma: no cover
        name = self.get_scalar("Name", "?")
        return f"<ClassAd Name={name} ({len(self)} attrs)>"
