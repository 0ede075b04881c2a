"""``ClassAd.deserialize``'s literal fast path against a parser-only decode.

Lines that bind a plain literal skip the tokenizer; the oracle below is
the decode loop with ``parse_expr`` on every line.  The two must agree on
names, on nodes *and the Python type of every literal's value* (dataclass
equality alone would pass ``Literal(1)`` for ``Literal(1.0)`` or
``Literal(True)``), on the re-serialized bytes and on the modelled size —
and on which lines are rejected.
"""

import numpy as np
import pytest

from repro.classad import ERROR, UNDEFINED, ClassAd, Literal, parse_expr
from repro.errors import ClassAdSyntaxError
from repro.hawkeye import Agent, make_default_modules, synthesize_startd_ad
from repro.sim.randomness import RngHub
from tests.queryplane.test_differential_classad import _random_ad


def parser_only(text: str) -> ClassAd:
    ad = ClassAd()
    for line in text.split("\n"):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, equals, expression = line.partition("=")
        if not equals or not name.strip():
            raise ClassAdSyntaxError(f"no binding in {line!r}")
        ad.set_expr(name.strip(), expression.strip())
    return ad


def assert_same_decode(text: str) -> ClassAd:
    got, want = ClassAd.deserialize(text), parser_only(text)
    assert got.names() == want.names()
    for name in want.names():
        node, oracle = got.lookup(name), want.lookup(name)
        assert node == oracle, name
        assert type(node) is type(oracle), name
        if isinstance(oracle, Literal):
            assert type(node.value) is type(oracle.value), name
    assert got.serialize() == want.serialize()
    assert got.estimated_size() == want.estimated_size()
    return got


def test_generated_ads_decode_alike_and_round_trip():
    hub = RngHub(seed=23)
    startd_rng = hub.stream("fastpath", "startd")
    texts = [
        synthesize_startd_ad(f"sim{i:04d}.pool", startd_rng, now=30.0 * i).serialize()
        for i in range(40)
    ]
    agent = Agent("lucky4.mcs.anl.gov", make_default_modules(), seed=5)
    texts += [agent.query(now=float(t)).ad.serialize() for t in range(5)]
    pool_rng = hub.stream("fastpath", "pool")
    texts += [_random_ad(pool_rng, f"slot{i}").serialize() for i in range(60)]
    assert any("Cpus * 512" in text or "(Cpus * 512)" in text for text in texts)  # a non-literal
    for text in texts:
        assert assert_same_decode(text).serialize() == text
    # One reply body is several ads' worth of lines; CRLF framing changes nothing.
    assert_same_decode("\r\n".join(texts[:3]).replace("\n\n", "\n"))


HAND_WRITTEN = """\
# a comment, then a blank line and one of spaces

   \t
Neg = -2
Exp = 1e5
ExpReal = 2.5E-3
LeadingDot = .5
Zeros = 007
Big = 1234567890123456789012345678901234567890
Real = 3.250
IntLooksReal = 10.0
T = true
F = FaLsE
U = undefined
E = ERROR
NotAKeyword = trueish
Plain = "sim0007.pool"
Empty = ""
Hash = "# not a comment"
Equals = "a = b"
Quote = "a\\"b"
Tab = "tab\\t"
Backslash = "c:\\\\dir"
RawTab = "a\tb"
Ref = other
Scoped = MY.a
Target = TARGET.CpuLoad > 50
Sum = 1 + 2
Paren = (3)
Padded   =    42   \r
NoSpace=7
Str="tight"
  Indented = 1
inner space name = 5
1starts_with_digit = 6
ArabicIndic = \u0663
dup = 1
DUP = "later wins, first slot and new spelling"
"""


def test_hand_written_lines_decode_alike():
    ad = assert_same_decode(HAND_WRITTEN)
    assert "inner space name" in ad.names() and "DUP" in ad.names() and "dup" not in ad.names()
    literal = {name: ad.lookup(name).value for name in ad.names()
               if isinstance(ad.lookup(name), Literal)}
    assert literal["Zeros"] == 7 and type(literal["Zeros"]) is int
    assert literal["Big"] == 1234567890123456789012345678901234567890
    assert literal["Real"] == 3.25 and type(literal["IntLooksReal"]) is float
    assert literal["Exp"] == 1e5 and type(literal["Exp"]) is float
    assert (literal["T"], literal["F"], literal["U"], literal["E"]) == (True, False, UNDEFINED, ERROR)
    assert ad.lookup("F") is parse_expr("FALSE")  # the parser's own singleton
    assert literal["Quote"] == 'a"b' and literal["Tab"] == "tab\t" and literal["RawTab"] == "a\tb"
    assert literal["Hash"] == "# not a comment" and literal["Equals"] == "a = b"
    assert literal["Padded"] == 42 and literal["Str"] == "tight"
    assert literal["ArabicIndic"] == 3  # a digit to the lexer's isdigit(); left to it
    assert "Neg" not in literal and "NotAKeyword" not in literal  # UnaryOp, AttrRef


@pytest.mark.parametrize(
    "line",
    [
        "x = 1.",
        "x = y = z",
        "x == 3",
        'x = "unterminated',
        'x = "a" "b"',
        "x = 1e",
        "x = 12abc",
        'Name = "a" &&',
        "x =",
        "x = fal\u017fe",  # IGNORECASE would fold the long s to s
        "= 3",
        "  = \"no name\"",
        "no binding here",
    ],
)
def test_rejected_lines_are_rejected_alike_and_named(line):
    with pytest.raises((ClassAdSyntaxError, ValueError)):
        parser_only(line)
    with pytest.raises(ClassAdSyntaxError) as caught:
        ClassAd.deserialize(f'Name = "ok"\n{line}\nCpus = 2')
    if "=" not in line or line.lstrip().startswith("="):
        assert repr(line.strip()) in str(caught.value)  # the message names the line


@pytest.mark.parametrize(
    "value",
    ["a\nb", "\n", "tab\there", 'say "hi"', "back\\slash", "\\n is not a newline",
     "line\u2028separator", "next\x85line", "cr\rmid", "vt\x0bff\x0c"],
)
def test_strings_with_escapes_and_line_breaks_round_trip(value):
    ad = ClassAd({"Name": "n", "Note": value, "After": 1})
    text = ad.serialize()
    assert len(text.split("\n")) == 3  # one record per line, whatever the string holds
    back = assert_same_decode(text)
    assert back.eval("Note") == value and back.eval("After") == 1
    assert back.serialize() == text


def test_sized_text_is_made_once_per_state_of_the_ad(monkeypatch):
    ad = synthesize_startd_ad("sim0001.pool", np.random.default_rng(1))
    calls = []
    real = ClassAd.serialize
    monkeypatch.setattr(ClassAd, "serialize", lambda self: calls.append(1) or real(self))
    first = ad.sized_text()
    assert ad.sized_text() is first and ad.estimated_size() == first[1] == len(first[0]) + 2
    assert ad.copy().sized_text() is first
    assert len(calls) == 1
    for mutate in (
        lambda a: a.__setitem__("Cpus", 4),
        lambda a: a.set_expr("Memory", "Cpus * 512"),
        lambda a: a.__delitem__("OpSys"),
        lambda a: a.update(ClassAd({"Extra": "x"})),
    ):
        clone = ad.copy()
        mutate(clone)
        assert clone.sized_text() == (real(clone), len(real(clone)) + 2) != first
    assert ad.sized_text() is first  # the copies' mutations are their own
