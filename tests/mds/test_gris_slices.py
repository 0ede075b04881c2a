"""The GRIS answers from provider slices exactly as a directory tree would.

The oracle is the tree the GRIS used to keep: a ``DIT`` holding the suffix
and host entries, into which every provider output is ``upsert``-ed in the
order it was produced, searched from the VO suffix.  Each test drives a
GRIS through some history and, after every step, asks both the same
questions — every scope, filter and projection.
"""

import pytest

from repro.ldap import DIT, MDS_VO_SUFFIX, Entry, host_dn_text, to_ldif
from repro.mds import GIIS, GRIS, InformationProvider, replicated_providers
from tests.mds.test_reply_bytes import ATTRIBUTES, FILTERS

HOST = "lucky7.mcs.anl.gov"
SCOPES = ("base", "one", "sub")
QUESTIONS = FILTERS + ("(!(objectclass=MdsDevice))", "(Mds-Device-name=memory#1)")


class Logged(InformationProvider):
    """A provider that also logs each output, for the reference tree."""

    def __init__(self, log, name, objectclass, **kwargs):
        super().__init__(name, objectclass, **kwargs)
        self.log = log

    def produce(self, hostname, rng, now=0.0):
        entries = super().produce(hostname, rng, now)
        self.log.extend(entries)
        return entries


class Respelled(Logged):
    """Spells its RDN attribute in lower case, with a value unlike its DN's."""

    def produce(self, hostname, rng, now=0.0):
        entries = super().produce(hostname, rng, now)
        for entry in entries:
            entry.remove("Mds-Device-name")
            entry.put("mds-device-name", self.name.upper())
        return entries


def logged(log, n):
    return [Logged(log, p.name, p.objectclass) for p in replicated_providers(n)]


def reference(log):
    dit = DIT()
    dit.add(Entry("o=grid"), create_parents=True)
    dit.add(Entry(MDS_VO_SUFFIX, {"objectclass": "MdsVoName"}), create_parents=True)
    dit.add(
        Entry(host_dn_text(HOST), {"objectclass": ["MdsHost", "MdsComputer"], "Mds-Host-hn": HOST})
    )
    for entry in log:
        dit.upsert(entry)
    return dit


def view(entries):
    return [(str(e.dn), e.to_dict()) for e in entries], to_ldif(entries)


def assert_matches_reference(gris, log, now):
    oracle = reference(log)
    for scope in SCOPES:
        for text in QUESTIONS:
            for attributes in ATTRIBUTES:
                got = gris.search(text, now=now, scope=scope, attributes=attributes)
                want = oracle.search(MDS_VO_SUFFIX, scope=scope, filter=text, attributes=attributes)
                assert view(got.entries) == view(want), (scope, text, attributes)
                assert got.estimated_size() == (len(to_ldif(want)) if want else 64)
                assert got.providers_run == []  # asking never re-ran a provider


def test_slices_answer_like_the_tree_through_a_history():
    log = []
    gris = GRIS(HOST, logged(log, 10), cachettl=5.0, seed=3)
    assert gris.search(now=0.0).providers_run  # every provider runs once
    assert_matches_reference(gris, log, now=0.0)

    gris.add_provider(Logged(log, "extra", "MdsMemory"))  # mid-run
    assert gris.search(now=3.0).providers_run == ["extra"]
    assert_matches_reference(gris, log, now=3.0)

    # At 6 s the first ten lapsed and "extra" (fetched at 3 s) did not.
    rerun = gris.search(now=6.0).providers_run
    assert "extra" not in rerun and len(rerun) == 10
    assert_matches_reference(gris, log, now=6.0)


@pytest.mark.parametrize("cachettl", (0.0, 30.0))
def test_providers_sharing_a_name_share_one_slice(cachettl):
    log = []
    providers = logged(log, 4)
    providers.insert(1, Logged(log, "dup", "MdsCpu"))
    providers.append(Logged(log, "dup", "MdsMemory"))
    gris = GRIS(HOST, providers, cachettl=cachettl, seed=1)
    first = gris.search(now=0.0)
    # Uncached, both run and the later one's output replaces the earlier's in
    # place; cached, the second finds the first's output under the shared name.
    assert first.providers_run.count("dup") == (2 if cachettl == 0.0 else 1)
    if cachettl == 0.0:
        # Every search re-runs both, so compare one answer per search.
        for now, scope in ((1.0, "sub"), (2.0, "one"), (3.0, "base")):
            got = gris.search(now=now, scope=scope)
            want = reference(log).search(MDS_VO_SUFFIX, scope=scope)
            assert view(got.entries) == view(want)
        devices = [e for e in gris.search(now=4.0).entries if "MdsDevice" in e.get("objectclass")]
        names = [e.first("Mds-Device-name") for e in devices]
        assert names == ["cpu", "dup", "memory", "filesystem", "network"]
        assert "MdsMemory" in devices[1].get("objectclass")
    else:
        assert_matches_reference(gris, log, now=1.0)


def test_unknown_scope_raises_like_the_tree():
    log = []
    gris = GRIS(HOST, logged(log, 3))
    for scope in ("tree", "children", ""):
        with pytest.raises(ValueError):
            gris.search(now=0.0, scope=scope)
        with pytest.raises(ValueError):
            reference(log).search(MDS_VO_SUFFIX, scope=scope)


def test_gris_and_giis_project_a_respelled_rdn_alike():
    log = []
    gris = GRIS(HOST, [*logged(log, 2), Respelled(log, "odd", "MdsOdd")], cachettl=float("inf"))
    giis = GIIS("giis0", cachettl=float("inf"))
    giis.register("gris0", lambda at: (gris.search(now=at).entries, 0.0))
    for attributes in (*ATTRIBUTES, ("Mds-Device-name",)):
        text = "(objectclass=MdsDevice)"
        from_gris = gris.search(text, attributes=attributes).entries
        from_giis = giis.query(text, attributes=attributes).entries
        want = reference(log).search(MDS_VO_SUFFIX, filter=text, attributes=attributes)
        assert view(from_gris) == view(from_giis) == view(want)
    for server in (gris.search, giis.query):
        (odd,) = server("(objectclass=MdsOdd)", attributes=("objectclass",)).entries
        # The entry's own spelling and value of its RDN attribute, not the DN's.
        assert odd.to_dict() == {"mds-device-name": ["ODD"], "objectclass": ["MdsDevice", "MdsOdd"]}
