"""RFC 1960 search filters: the parsed tree.

MDS clients select data with string filters such as
``(&(objectclass=MdsHost)(Mds-Cpu-Total-Free-1minX100>=80))``.  This
module parses the full RFC 1960 grammar — AND ``&``, OR ``|``, NOT
``!``, equality, presence ``=*``, substring ``a=*b*c``, ``>=`` and
``<=`` — into frozen nodes that :mod:`repro.ldap.compile` lowers to
entry predicates.

Comparisons are numeric when both sides parse as numbers (matching how
OpenLDAP treats the integer-syntax attributes the MDS schema uses) and
case-insensitive-lexicographic otherwise.  Each leaf parses its value
once at construction, for the compiled predicate to close over.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.errors import FilterSyntaxError

__all__ = [
    "Filter",
    "And",
    "Or",
    "Not",
    "Equality",
    "Presence",
    "Substring",
    "GreaterOrEqual",
    "LessOrEqual",
    "parse_filter",
]


class Filter:
    """Base class for parsed filter nodes."""

    def __str__(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class And(Filter):
    """``(&(f1)(f2)...)`` — true when every child matches."""

    children: tuple[Filter, ...]

    def __str__(self) -> str:
        return "(&" + "".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Or(Filter):
    """``(|(f1)(f2)...)`` — true when any child matches."""

    children: tuple[Filter, ...]

    def __str__(self) -> str:
        return "(|" + "".join(str(c) for c in self.children) + ")"


@dataclass(frozen=True)
class Not(Filter):
    """``(!(f))`` — true when the child does not match."""

    child: Filter

    def __str__(self) -> str:
        return f"(!{self.child})"


def _as_number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


@dataclass(frozen=True)
class Equality(Filter):
    """``(attr=value)`` with numeric or case-insensitive matching."""

    attr: str
    value: str

    def __post_init__(self) -> None:
        # Parse the comparison value once at construction; these are not
        # dataclass fields, so equality/hash/repr stay value-based.
        object.__setattr__(self, "_num", _as_number(self.value))
        object.__setattr__(self, "_lower", self.value.lower())

    def __str__(self) -> str:
        return f"({self.attr}={self.value})"


@dataclass(frozen=True)
class Presence(Filter):
    """``(attr=*)`` — attribute existence."""

    attr: str

    def __str__(self) -> str:
        return f"({self.attr}=*)"


@dataclass(frozen=True)
class Substring(Filter):
    """``(attr=ini*mid1*mid2*fin)`` — anchored/wildcard substring match."""

    attr: str
    initial: str
    middles: tuple[str, ...]
    final: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "_initial_l", self.initial.lower())
        object.__setattr__(self, "_middles_l", tuple(m.lower() for m in self.middles))
        object.__setattr__(self, "_final_l", self.final.lower())

    def _match_one(self, text: str) -> bool:
        pos = 0
        initial: str = self._initial_l  # type: ignore[attr-defined]
        if initial:
            if not text.startswith(initial):
                return False
            pos = len(initial)
        for mid in self._middles_l:  # type: ignore[attr-defined]
            idx = text.find(mid, pos)
            if idx < 0:
                return False
            pos = idx + len(mid)
        final: str = self._final_l  # type: ignore[attr-defined]
        if final:
            return text.endswith(final) and len(text) - len(final) >= pos
        return True

    def __str__(self) -> str:
        parts = [self.initial, *self.middles, self.final]
        return f"({self.attr}={'*'.join(parts)})"


class _Ordering(Filter):
    """Shared machinery for >= and <=."""

    op: _t.Callable[[float, float], bool]
    symbol: str

    def __init__(self, attr: str, value: str) -> None:
        self.attr = attr
        self.value = value
        self._num = _as_number(value)
        self._lower = value.lower()

    def __str__(self) -> str:
        return f"({self.attr}{self.symbol}{self.value})"

    def __eq__(self, other: object) -> bool:
        return (
            type(self) is type(other)
            and self.attr == other.attr  # type: ignore[attr-defined]
            and self.value == other.value  # type: ignore[attr-defined]
        )

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.attr, self.value))


class GreaterOrEqual(_Ordering):
    """``(attr>=value)``."""

    symbol = ">="
    op = staticmethod(lambda a, b: a >= b)
    op_str = staticmethod(lambda a, b: a >= b)


class LessOrEqual(_Ordering):
    """``(attr<=value)``."""

    symbol = "<="
    op = staticmethod(lambda a, b: a <= b)
    op_str = staticmethod(lambda a, b: a <= b)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str) -> FilterSyntaxError:
        return FilterSyntaxError(f"{message} at position {self.pos} in {self.text!r}")

    def peek(self) -> str:
        if self.pos >= len(self.text):
            raise self.error("unexpected end of filter")
        return self.text[self.pos]

    def expect(self, ch: str) -> None:
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def parse(self) -> Filter:
        node = self.parse_node()
        if self.pos != len(self.text):
            raise self.error("trailing characters after filter")
        return node

    def parse_node(self) -> Filter:
        self.expect("(")
        ch = self.peek()
        if ch == "&":
            self.pos += 1
            children = self.parse_children()
            node: Filter = And(tuple(children))
        elif ch == "|":
            self.pos += 1
            children = self.parse_children()
            node = Or(tuple(children))
        elif ch == "!":
            self.pos += 1
            node = Not(self.parse_node())
        else:
            node = self.parse_simple()
        self.expect(")")
        return node

    def parse_children(self) -> list[Filter]:
        children = []
        while self.peek() == "(":
            children.append(self.parse_node())
        if not children:
            raise self.error("empty AND/OR filter list")
        return children

    def parse_simple(self) -> Filter:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] not in "=<>~()":
            self.pos += 1
        attr = self.text[start : self.pos].strip()
        if not attr:
            raise self.error("missing attribute name")
        if self.pos >= len(self.text):
            raise self.error("truncated comparison")
        op_ch = self.text[self.pos]
        if op_ch in "<>":
            self.pos += 1
            self.expect("=")
            value = self.read_value()
            cls = GreaterOrEqual if op_ch == ">" else LessOrEqual
            return cls(attr, value)
        if op_ch == "~":
            # Approximate match: we treat it as equality (OpenLDAP without
            # phonetic indexing behaves the same for MDS attributes).
            self.pos += 1
            self.expect("=")
            return Equality(attr, self.read_value())
        self.expect("=")
        value = self.read_value()
        if value == "*":
            return Presence(attr)
        if "*" in value:
            parts = value.split("*")
            return Substring(attr, parts[0], tuple(p for p in parts[1:-1] if p), parts[-1])
        return Equality(attr, value)

    def read_value(self) -> str:
        start = self.pos
        out: list[str] = []
        while self.pos < len(self.text) and self.text[self.pos] != ")":
            ch = self.text[self.pos]
            if ch == "(":
                raise self.error("unescaped '(' in value")
            if ch == "\\":
                if self.pos + 1 >= len(self.text):
                    raise self.error("dangling escape")
                out.append(self.text[self.pos + 1])
                self.pos += 2
                continue
            out.append(ch)
            self.pos += 1
        if self.pos == start and not out:
            # Empty value is legal in LDAP (matches empty string).
            return ""
        return "".join(out)


def parse_filter(text: str) -> Filter:
    """Parse an RFC 1960 filter string into a :class:`Filter` tree.

    A bare ``attr=value`` without parentheses is accepted as a
    convenience (ldapsearch does the same).
    """
    text = text.strip()
    if not text:
        raise FilterSyntaxError("empty filter")
    if not text.startswith("("):
        text = f"({text})"
    return _Parser(text).parse()
