"""Property-based tests for ClassAd serialization and evaluation laws."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.classad import ERROR, UNDEFINED, ClassAd, evaluate, match, parse_expr
from repro.classad.values import is_scalar, value_repr

_scalars = st.one_of(
    st.integers(min_value=-10_000, max_value=10_000),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False).map(lambda f: round(f, 6)),
    st.booleans(),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" ._-\n\t\"\\"
        ),
        max_size=20,
    ),
)

_attr_names = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,15}", fullmatch=True).filter(
    lambda s: s.lower() not in ("true", "false", "undefined", "error", "my", "target")
)


@st.composite
def classads(draw):
    n = draw(st.integers(min_value=0, max_value=8))
    ad = ClassAd()
    for _ in range(n):
        ad[draw(_attr_names)] = draw(_scalars)
    return ad


@settings(max_examples=100, deadline=None)
@given(classads())
def test_property_serialize_roundtrip(ad):
    """serialize() -> deserialize() preserves every attribute's value."""
    back = ClassAd.deserialize(ad.serialize())
    assert set(n.lower() for n in back.names()) == set(n.lower() for n in ad.names())
    for name in ad.names():
        original = ad.eval(name)
        restored = back.eval(name)
        if isinstance(original, float):
            assert math.isclose(restored, original, rel_tol=1e-9)
        else:
            assert restored == original


@settings(max_examples=60, deadline=None)
@given(classads(), _attr_names)
def test_property_missing_attr_is_undefined(ad, name):
    if name.lower() not in (n.lower() for n in ad.names()):
        assert ad.eval(name) is UNDEFINED


@settings(max_examples=60, deadline=None)
@given(st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100))
def test_property_arithmetic_associativity(a, b, c):
    left = evaluate(parse_expr(f"({a} + {b}) + {c}"))
    right = evaluate(parse_expr(f"{a} + ({b} + {c})"))
    assert left == right


@settings(max_examples=60, deadline=None)
@given(st.integers(-100, 100), st.integers(-100, 100))
def test_property_meta_equals_is_reflexive_and_total(a, b):
    assert evaluate(parse_expr(f"{a} =?= {a}")) is True
    meta_eq = evaluate(parse_expr(f"{a} =?= {b}"))
    meta_ne = evaluate(parse_expr(f"{a} =!= {b}"))
    assert isinstance(meta_eq, bool) and meta_eq != meta_ne


@settings(max_examples=60, deadline=None)
@given(classads(), classads())
def test_property_match_is_symmetric(left, right):
    left.set_expr("Requirements", "TRUE")
    right.set_expr("Requirements", "TRUE")
    assert match(left, right).matched == match(right, left).matched


@settings(max_examples=60, deadline=None)
@given(_scalars)
def test_property_value_repr_parses_back(value):
    expr = parse_expr(value_repr(value))
    got = evaluate(expr)
    assert is_scalar(got)
    if isinstance(value, float):
        assert math.isclose(got, value, rel_tol=1e-9, abs_tol=1e-12)
    else:
        assert got == value


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["&&", "||"]), st.sampled_from(["TRUE", "FALSE", "UNDEFINED"]), st.sampled_from(["TRUE", "FALSE", "UNDEFINED"]))
def test_property_logic_commutative(op, a, b):
    assert evaluate(parse_expr(f"{a} {op} {b}")) is evaluate(parse_expr(f"{b} {op} {a}"))


def test_error_never_escapes_logic_silently():
    # ERROR must dominate unless short-circuited by a decisive left.
    assert evaluate(parse_expr("(1/0) && TRUE")) is ERROR
    assert evaluate(parse_expr("(1/0) || FALSE")) is ERROR
