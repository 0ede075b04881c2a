"""Tests for the GIIS: registration soft-state, aggregation, crash limits."""

import pytest

from repro.errors import RegistryError, ServiceCrashError
from repro.mds import GIIS, GRIS, replicated_providers


def make_gris(host, n=10):
    return GRIS(host, replicated_providers(n), cachettl=float("inf"), seed=hash(host) % 2**31)


def gris_puller(gris):
    def pull(now):
        result = gris.search(now=now)
        return result.entries, result.exec_cost

    return pull


@pytest.fixture
def giis():
    g = GIIS("giis0", cachettl=float("inf"))
    for i in range(5):
        gris = make_gris(f"lucky{i + 3}.mcs.anl.gov")
        g.register(f"lucky{i + 3}", gris_puller(gris), now=0.0)
    return g


def test_registration_count(giis):
    assert giis.registrant_count == 5


def test_query_all_merges_registrants(giis):
    result = giis.query(now=0.0)
    assert result.registrants_queried == 5
    hosts = [e for e in result.entries if "MdsHost" in e.get("objectclass")]
    assert len(hosts) == 5
    assert len(result.pulled) == 5  # first query pulls everyone


def test_second_query_hits_cache(giis):
    giis.query(now=0.0)
    result = giis.query(now=1.0)
    assert result.pulled == []
    assert result.cache_hits == 5


def test_query_with_filter(giis):
    result = giis.query("(objectclass=MdsCpu)", now=0.0)
    assert len(result.entries) == 5  # one cpu device per host


def test_query_part_subset(giis):
    result = giis.query(now=0.0, subset=["lucky3", "lucky4"])
    assert result.registrants_queried == 2
    hosts = [e for e in result.entries if "MdsHost" in e.get("objectclass")]
    assert len(hosts) == 2


def test_query_unknown_subset_raises(giis):
    with pytest.raises(RegistryError):
        giis.query(now=0.0, subset=["nonesuch"])


def test_attribute_projection(giis):
    result = giis.query(
        "(objectclass=MdsHost)", now=0.0, attributes=["Mds-Host-hn"]
    )
    assert all(e.nattrs <= 2 for e in result.entries)


def test_projection_shrinks_payload(giis):
    full = giis.query(now=0.0).estimated_size()
    part = giis.query(now=1.0, attributes=["Mds-Host-hn"]).estimated_size()
    assert part < full / 2


def test_soft_state_expiry():
    giis = GIIS("g", cachettl=float("inf"))
    gris = make_gris("h1")
    giis.register("h1", gris_puller(gris), now=0.0, ttl=100.0)
    assert giis.query(now=50.0).registrants_queried == 1
    # Lease lapses without renewal.
    assert giis.query(now=150.0).registrants_queried == 0
    assert giis.sweep(now=150.0) == ["h1"]
    assert giis.registrant_count == 0


def test_renewal_extends_lease():
    giis = GIIS("g")
    giis.register("h1", gris_puller(make_gris("h1")), now=0.0, ttl=100.0)
    assert giis.renew("h1", now=90.0)
    assert giis.query(now=150.0).registrants_queried == 1
    assert not giis.renew("ghost", now=0.0)


def test_reregistration_renews():
    giis = GIIS("g")
    puller = gris_puller(make_gris("h1"))
    giis.register("h1", puller, now=0.0, ttl=100.0)
    giis.register("h1", puller, now=90.0, ttl=100.0)
    assert giis.query(now=150.0).registrants_queried == 1
    assert giis.registrant_count == 1


def test_crashed_giis_refuses_work():
    # The query-all crash is the kernel's to decide; it marks the GIIS.
    giis = GIIS("g")
    giis.register("h0", gris_puller(make_gris("h0")), now=0.0)
    giis.crashed = True
    with pytest.raises(ServiceCrashError):
        giis.query(now=0.0)
    with pytest.raises(ServiceCrashError):
        giis.register("h1", gris_puller(make_gris("h1")), now=0.0)
    with pytest.raises(ServiceCrashError):
        giis.unregister("h0")


def test_hierarchy_giis_registers_into_parent():
    child = GIIS("child", cachettl=float("inf"))
    child.register("h1", gris_puller(make_gris("h1")), now=0.0)
    parent = GIIS("parent", cachettl=float("inf"))
    parent.register("child", child.as_puller(), now=0.0)
    result = parent.query(now=0.0)
    hosts = [e for e in result.entries if "MdsHost" in e.get("objectclass")]
    assert len(hosts) == 1


def test_pull_cost_propagates():
    giis = GIIS("g", cachettl=float("inf"))
    gris = GRIS("h1", replicated_providers(10), cachettl=0.0, seed=0)
    giis.register("h1", gris_puller(gris), now=0.0)
    result = giis.query(now=0.0)
    assert result.pull_cost == pytest.approx(0.5)  # 10 providers x 0.05
