"""Tests for the RFC 1960 filter parser and its compiled predicates."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FilterSyntaxError
from repro.ldap import (
    And,
    Entry,
    Equality,
    GreaterOrEqual,
    LessOrEqual,
    Not,
    Or,
    Presence,
    Substring,
    parse_filter,
)
from repro.ldap.compile import resolve_filter


def matches(flt, entry):
    """Whether the compiled predicate of ``flt`` (text or tree) accepts ``entry``."""
    return resolve_filter(flt).predicate(entry)


@pytest.fixture
def host_entry():
    return Entry(
        "Mds-Host-hn=lucky7.mcs.anl.gov, Mds-Vo-name=local, o=grid",
        {
            "objectclass": ["MdsHost", "MdsComputer"],
            "Mds-Cpu-model": "Pentium III",
            "Mds-Cpu-speedMHz": "1133",
            "Mds-Memory-Ram-sizeMB": "512",
            "Mds-Os-name": "Linux",
        },
    )


# -- parsing -----------------------------------------------------------------


def test_parse_equality():
    f = parse_filter("(objectclass=MdsHost)")
    assert f == Equality("objectclass", "MdsHost")


def test_parse_bare_filter_wrapped():
    assert parse_filter("cn=foo") == Equality("cn", "foo")


def test_parse_presence():
    assert parse_filter("(cn=*)") == Presence("cn")


def test_parse_substring():
    f = parse_filter("(cn=lucky*anl*gov)")
    assert f == Substring("cn", "lucky", ("anl",), "gov")


def test_parse_ordering():
    assert parse_filter("(x>=5)") == GreaterOrEqual("x", "5")
    assert parse_filter("(x<=5)") == LessOrEqual("x", "5")


def test_parse_boolean_combinators():
    f = parse_filter("(&(a=1)(|(b=2)(!(c=3))))")
    assert isinstance(f, And)
    assert isinstance(f.children[1], Or)
    assert isinstance(f.children[1].children[1], Not)


def test_parse_escaped_paren_in_value():
    f = parse_filter(r"(cn=foo\(bar\))")
    assert f == Equality("cn", "foo(bar)")


def test_parse_approx_treated_as_equality():
    assert parse_filter("(cn~=foo)") == Equality("cn", "foo")


@pytest.mark.parametrize(
    "bad",
    ["", "(", "()", "(&)", "(cn=a", "(cn=a))", "((cn=a))x", "(=x)", "(cn=a\\)", "(a=b(c)"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(FilterSyntaxError):
        parse_filter(bad)


def test_str_roundtrip():
    texts = [
        "(objectclass=MdsHost)",
        "(cn=*)",
        "(cn=a*b*c)",
        "(x>=10)",
        "(&(a=1)(b=2))",
        "(|(a=1)(!(b=2)))",
    ]
    for text in texts:
        f = parse_filter(text)
        assert parse_filter(str(f)) == f


# -- evaluation -----------------------------------------------------------


def test_equality_matches_casefold(host_entry):
    assert matches("(Mds-Os-name=linux)", host_entry)
    assert matches("(MDS-OS-NAME=Linux)", host_entry)
    assert not matches("(Mds-Os-name=Windows)", host_entry)


def test_equality_multivalued(host_entry):
    assert matches("(objectclass=MdsComputer)", host_entry)


def test_numeric_equality(host_entry):
    # "1133" == "1133.0" numerically.
    assert matches("(Mds-Cpu-speedMHz=1133.0)", host_entry)


def test_presence(host_entry):
    assert matches("(Mds-Cpu-model=*)", host_entry)
    assert not matches("(Mds-Gpu-model=*)", host_entry)


def test_ordering_numeric(host_entry):
    assert matches("(Mds-Cpu-speedMHz>=1000)", host_entry)
    assert not matches("(Mds-Cpu-speedMHz>=2000)", host_entry)
    assert matches("(Mds-Memory-Ram-sizeMB<=512)", host_entry)


def test_ordering_lexicographic():
    entry = Entry("cn=x", {"grade": "beta"})
    assert matches("(grade>=alpha)", entry)
    assert not matches("(grade>=gamma)", entry)


def test_substring_matching(host_entry):
    assert matches("(Mds-Host-hn=lucky*)", host_entry)
    assert matches("(Mds-Host-hn=*anl*)", host_entry)
    assert matches("(Mds-Host-hn=*gov)", host_entry)
    assert matches("(Mds-Host-hn=lucky*anl*gov)", host_entry)
    assert not matches("(Mds-Host-hn=ucsd*)", host_entry)
    assert not matches("(Mds-Host-hn=*ucsd*)", host_entry)


def test_substring_final_cannot_overlap_middle():
    entry = Entry("cn=x", {"v": "abc"})
    # initial "ab", final "bc" would need to overlap -> no match.
    assert not matches("(v=ab*bc)", entry)


def test_boolean_evaluation(host_entry):
    f = parse_filter("(&(objectclass=MdsHost)(Mds-Cpu-speedMHz>=1000))")
    assert matches(f, host_entry)
    f2 = parse_filter("(|(Mds-Os-name=Windows)(Mds-Os-name=Linux))")
    assert matches(f2, host_entry)
    f3 = parse_filter("(!(Mds-Os-name=Linux))")
    assert not matches(f3, host_entry)


def test_empty_value_equality():
    entry = Entry("cn=x", {"note": ""})
    assert matches("(note=)", entry)


# -- properties ---------------------------------------------------------------

_attr_names = st.sampled_from(["a", "b", "c", "value", "size"])
_values = st.integers(min_value=0, max_value=100).map(str)


@st.composite
def entries(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    entry = Entry("cn=prop")
    for _ in range(n):
        entry.put(draw(_attr_names), draw(_values))
    return entry


@given(entries(), _attr_names, _values)
def test_property_not_is_complement(entry, attr, value):
    f = parse_filter(f"({attr}={value})")
    g = parse_filter(f"(!({attr}={value}))")
    assert matches(f, entry) != matches(g, entry)


@given(entries(), _attr_names, _values)
def test_property_ge_le_cover_all_numbers(entry, attr, value):
    """For an entry with attr present, x>=v or x<=v always holds numerically."""
    if not entry.has(attr):
        return
    ge = parse_filter(f"({attr}>={value})")
    le = parse_filter(f"({attr}<={value})")
    assert matches(ge, entry) or matches(le, entry)


@given(entries(), _attr_names, _values, _values)
def test_property_and_commutes(entry, attr, v1, v2):
    f = parse_filter(f"(&({attr}={v1})({attr}>={v2}))")
    g = parse_filter(f"(&({attr}>={v2})({attr}={v1}))")
    assert matches(f, entry) == matches(g, entry)
