"""Tests for DN parsing and hierarchy relations."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.ldap.dn as dn_module
from repro.errors import DnSyntaxError
from repro.ldap import DN, RDN, parse_dn


def test_parse_simple_dn():
    dn = parse_dn("Mds-Host-hn=lucky7.mcs.anl.gov, Mds-Vo-name=local, o=grid")
    assert dn.depth == 3
    assert dn.rdn == RDN("Mds-Host-hn", "lucky7.mcs.anl.gov")
    assert str(dn.parent) == "Mds-Vo-name=local, o=grid"


def test_root_dn():
    dn = parse_dn("")
    assert dn.depth == 0
    assert str(dn) == ""


def test_root_dn_has_no_rdn_or_parent():
    root = parse_dn("")
    with pytest.raises(DnSyntaxError):
        _ = root.rdn
    with pytest.raises(DnSyntaxError):
        _ = root.parent


def test_equality_is_case_insensitive_on_attrs():
    assert parse_dn("CN=Foo, O=Grid") == parse_dn("cn=Foo, o=Grid")
    assert parse_dn("cn=Foo") != parse_dn("cn=foo")  # values case-sensitive


def test_hash_consistency():
    a = parse_dn("CN=x, O=y")
    b = parse_dn("cn=x, o=y")
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_descendant_relations():
    base = parse_dn("Mds-Vo-name=local, o=grid")
    host = parse_dn("Mds-Host-hn=lucky0, Mds-Vo-name=local, o=grid")
    device = host.child("Mds-Device-name", "cpu")
    assert host.is_descendant_of(base)
    assert device.is_descendant_of(base)
    assert device.is_descendant_of(host)
    assert not base.is_descendant_of(host)
    assert not host.is_descendant_of(host)
    assert host.is_equal_or_descendant_of(host)


def test_sibling_is_not_descendant():
    a = parse_dn("cn=a, o=grid")
    b = parse_dn("cn=b, o=grid")
    assert not a.is_descendant_of(b)


def test_escaped_comma_in_value():
    dn = parse_dn(r"cn=Smith\, John, o=grid")
    assert dn.depth == 2
    assert dn.rdn.value == "Smith, John"
    # Round-trips through str().
    assert parse_dn(str(dn)) == dn


def test_malformed_dns_rejected():
    for bad in ["cn", "=value", "cn=a,,o=b", "cn=a,", "a+b=c", "cn=x\\"]:
        with pytest.raises(DnSyntaxError):
            parse_dn(bad)


def test_parse_memo_returns_equal_dns_for_equal_text():
    text = "Mds-Device-name=cpu, Mds-Host-hn=lucky7.mcs.anl.gov, Mds-Vo-name=local, o=grid"
    first, again = DN.parse(text), DN.parse(text)
    assert first == again == parse_dn(text)
    assert str(again) == str(parse_dn(text)) and again.rdns == parse_dn(text).rdns


def test_parse_memo_never_caches_malformed_text():
    for _ in range(3):
        for bad in ["cn", "=value", "cn=a,,o=b", "a+b=c", "cn=x\\"]:
            with pytest.raises(DnSyntaxError):
                DN.parse(bad)
            assert bad not in dn_module._PARSED


def test_parse_memo_stays_within_its_bound():
    for i in range(dn_module._PARSED_MAX + 50):
        assert DN.parse(f"cn=n{i}, o=memo").rdn.value == f"n{i}"
        assert len(dn_module._PARSED) <= dn_module._PARSED_MAX
    assert DN.parse("cn=n0, o=memo") == parse_dn("cn=n0, o=memo")  # re-parsed after a drop


def test_child_construction():
    base = parse_dn("o=grid")
    child = base.child("cn", "x")
    assert str(child) == "cn=x, o=grid"
    assert child.parent == base


_rdn_values = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=".-_ "),
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip() == s and s.strip() != "")


@given(st.lists(st.tuples(_rdn_values, _rdn_values), min_size=1, max_size=5))
def test_property_str_parse_roundtrip(pairs):
    dn = DN([RDN(attr, value) for attr, value in pairs])
    assert parse_dn(str(dn)) == dn


@given(st.lists(st.tuples(_rdn_values, _rdn_values), min_size=2, max_size=5))
def test_property_parent_child_inverse(pairs):
    dn = DN([RDN(a, v) for a, v in pairs])
    rebuilt = dn.parent.child(dn.rdn.attr, dn.rdn.value)
    assert rebuilt == dn
    assert dn.is_descendant_of(dn.parent)
