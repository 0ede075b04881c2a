"""Tests for the DIT: add/get/delete, scoped search, projection, LDIF."""

import random

import pytest

from repro.errors import EntryExistsError, NoSuchEntryError
from repro.ldap import (
    DIT,
    SCOPE_BASE,
    SCOPE_ONE,
    SCOPE_SUB,
    Entry,
    entry_to_ldif,
    from_ldif,
    parse_dn,
    to_ldif,
)


@pytest.fixture
def tree():
    dit = DIT()
    dit.add(Entry("o=grid", {"objectclass": "organization"}))
    dit.add(Entry("Mds-Vo-name=local, o=grid", {"objectclass": "MdsVo"}))
    for host in ("lucky0", "lucky1"):
        dit.add(
            Entry(
                f"Mds-Host-hn={host}.mcs.anl.gov, Mds-Vo-name=local, o=grid",
                {"objectclass": "MdsHost", "Mds-Os-name": "Linux"},
            )
        )
        for device in ("cpu", "memory"):
            dit.add(
                Entry(
                    f"Mds-Device-name={device}, Mds-Host-hn={host}.mcs.anl.gov, "
                    "Mds-Vo-name=local, o=grid",
                    {"objectclass": "MdsDevice", "Mds-Device-name": device},
                )
            )
    return dit


def test_count(tree):
    assert len(tree) == 8


def test_get_existing(tree):
    entry = tree.get("Mds-Host-hn=lucky0.mcs.anl.gov, Mds-Vo-name=local, o=grid")
    assert entry.first("Mds-Os-name") == "Linux"


def test_get_missing_raises(tree):
    with pytest.raises(NoSuchEntryError):
        tree.get("cn=nope, o=grid")


def test_add_requires_parent():
    dit = DIT()
    with pytest.raises(NoSuchEntryError):
        dit.add(Entry("cn=child, o=missing"))


def test_add_create_parents():
    dit = DIT()
    dit.add(Entry("cn=deep, ou=x, o=grid"), create_parents=True)
    assert dit.exists("ou=x, o=grid")
    assert dit.exists("o=grid")
    assert len(dit) == 3


def test_duplicate_add_rejected(tree):
    with pytest.raises(EntryExistsError):
        tree.add(Entry("o=grid"))


def test_upsert_replaces(tree):
    dn = "Mds-Host-hn=lucky0.mcs.anl.gov, Mds-Vo-name=local, o=grid"
    tree.upsert(Entry(dn, {"Mds-Os-name": "Linux 2.4.10"}))
    assert tree.get(dn).first("Mds-Os-name") == "Linux 2.4.10"
    assert len(tree) == 8  # replaced, not added


def test_delete_leaf(tree):
    dn = parse_dn("Mds-Device-name=cpu, Mds-Host-hn=lucky0.mcs.anl.gov, Mds-Vo-name=local, o=grid")
    assert tree.delete(dn) == 1
    assert not tree.exists(dn)


def test_delete_with_children_requires_recursive(tree):
    dn = parse_dn("Mds-Host-hn=lucky0.mcs.anl.gov, Mds-Vo-name=local, o=grid")
    with pytest.raises(EntryExistsError):
        tree.delete(dn)
    removed = tree.delete(dn, recursive=True)
    assert removed == 3
    assert len(tree) == 5


def test_scope_base(tree):
    hits = tree.search("o=grid", scope=SCOPE_BASE)
    assert [str(e.dn) for e in hits] == ["o=grid"]


def test_scope_one(tree):
    hits = tree.search("Mds-Vo-name=local, o=grid", scope=SCOPE_ONE)
    assert len(hits) == 2
    assert all(e.first("objectclass") == "MdsHost" for e in hits)


def test_scope_sub(tree):
    hits = tree.search("Mds-Vo-name=local, o=grid", scope=SCOPE_SUB)
    assert len(hits) == 7  # vo + 2 hosts + 4 devices


def test_search_with_filter(tree):
    hits = tree.search("o=grid", scope=SCOPE_SUB, filter="(objectclass=MdsDevice)")
    assert len(hits) == 4
    hits2 = tree.search("o=grid", filter="(Mds-Device-name=cpu)")
    assert len(hits2) == 2


def test_search_missing_base_raises(tree):
    with pytest.raises(NoSuchEntryError):
        tree.search("o=nowhere")


def test_search_bad_scope(tree):
    with pytest.raises(ValueError):
        tree.search("o=grid", scope="tree")


def test_projection(tree):
    hits = tree.search(
        "o=grid",
        filter="(objectclass=MdsHost)",
        attributes=["Mds-Os-name"],
    )
    entry = hits[0]
    assert entry.first("Mds-Os-name") == "Linux"
    assert not entry.has("objectclass")
    # RDN attribute always kept.
    assert entry.has("Mds-Host-hn")


def test_entries_enumeration(tree):
    assert len(tree.entries()) == 8


def test_ldif_roundtrip(tree):
    entries = tree.entries()
    text = to_ldif(entries)
    parsed = from_ldif(text)
    assert len(parsed) == len(entries)
    for original, reparsed in zip(entries, parsed):
        assert reparsed.dn == original.dn
        assert reparsed.to_dict() == original.to_dict()


def test_ldif_estimated_size_tracks_content():
    small = Entry("cn=a", {"x": "1"})
    big = Entry("cn=a", {f"attr{i}": "value" * 10 for i in range(50)})
    assert len(entry_to_ldif(big)) > len(entry_to_ldif(small)) * 10
    assert big.ldif_length() == len(entry_to_ldif(big))


@pytest.mark.parametrize("seed", range(8))
def test_ldif_length_follows_every_mutation(seed):
    # Values that need escaping in a DN, non-ASCII text, and names that differ
    # only in case; add_value repeats values so the duplicate no-op is hit.
    rng = random.Random(seed)
    names = ("cn", "CN", "objectclass", "Mds-Host-hn", "mds-host-HN", "x")
    values = ("a", "b,c", "k=v", "back\\slash", "ünïcødé", "日本", "", 12, 3.5)
    entry = Entry(r"cn=Smith\, J\=r\\, Mds-Vo-name=lücky, o=grid", {"x": "1"})
    assert entry.ldif_length() == len(entry_to_ldif(entry))
    for _ in range(200):
        op = rng.random()
        name = rng.choice(names)
        if op < 0.35:
            entry.put(name, rng.sample(values, rng.randint(0, 3)))
        elif op < 0.85:
            entry.add_value(name, rng.choice(values))
        else:
            entry.remove(name)
        assert entry.ldif_length() == len(entry_to_ldif(entry))
    for derived in (entry.copy(), entry.project(["objectclass"])):
        assert derived.ldif_length() == len(entry_to_ldif(derived))


def test_entry_basics():
    entry = Entry("cn=x", {"A": ["1", "2"]})
    assert entry.get("a") == ["1", "2"]
    assert entry.first("A") == "1"
    assert entry.first("missing", "dflt") == "dflt"
    entry.add_value("a", 3)
    assert entry.get("A") == ["1", "2", "3"]
    entry.remove("a")
    assert not entry.has("a")
    clone_src = Entry("cn=y", {"k": "v"})
    clone = clone_src.copy()
    clone.put("k", "other")
    assert clone_src.first("k") == "v"
