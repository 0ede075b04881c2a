"""Tests for information providers, the TTL cache and the GRIS."""

import numpy as np
import pytest

from repro.mds import (
    GRIS,
    DEFAULT_PROVIDER_NAMES,
    InformationProvider,
    TtlCache,
    make_default_providers,
    replicated_providers,
)


# -- TtlCache ----------------------------------------------------------------


def test_cache_hit_within_ttl():
    cache = TtlCache(ttl=30.0)
    cache.put("k", "v", now=0.0)
    assert cache.get("k", now=10.0) == "v"
    assert cache.stats.hits == 1


def test_cache_expires_after_ttl():
    cache = TtlCache(ttl=30.0)
    cache.put("k", "v", now=0.0)
    assert cache.get("k", now=30.0) is None
    assert cache.stats.misses == 1


def test_cache_ttl_zero_disables():
    cache = TtlCache(ttl=0.0)
    cache.put("k", "v", now=0.0)
    assert cache.get("k", now=0.0) is None
    assert len(cache) == 0


def test_cache_infinite_ttl_never_expires():
    cache = TtlCache(ttl=float("inf"))
    cache.put("k", "v", now=0.0)
    assert cache.get("k", now=1e12) == "v"


def test_cache_negative_ttl_rejected():
    with pytest.raises(ValueError):
        TtlCache(ttl=-1.0)


def test_cache_hit_rate():
    cache = TtlCache(ttl=100.0)
    cache.put("k", 1, now=0.0)
    cache.get("k", now=1.0)
    cache.get("other", now=1.0)
    assert cache.stats.hit_rate == pytest.approx(0.5)


# -- providers ---------------------------------------------------------------


def test_default_install_has_ten_providers():
    providers = make_default_providers()
    assert len(providers) == 10
    assert {p.name for p in providers} == set(DEFAULT_PROVIDER_NAMES)


def test_replicated_providers_extends_with_memory_clones():
    providers = replicated_providers(90)
    assert len(providers) == 90
    clones = [p for p in providers if p.name.startswith("memory#")]
    assert len(clones) == 80
    assert all(p.objectclass == "MdsMemory" for p in clones)


def test_replicated_providers_truncates():
    assert len(replicated_providers(4)) == 4


def test_provider_produces_schema_entries():
    rng = np.random.default_rng(0)
    provider = make_default_providers()[0]  # cpu
    entries = provider.produce("lucky7.mcs.anl.gov", rng, now=5.0)
    assert len(entries) == 1
    entry = entries[0]
    assert "MdsCpu" in entry.get("objectclass")
    assert entry.first("Mds-Cpu-speedMHz") == "1133"
    assert "lucky7" in str(entry.dn)
    assert entry.nattrs >= provider.nattrs
    assert provider.invocations == 1


def test_provider_entries_deterministic_per_seed():
    p1 = InformationProvider("cpu-free", "MdsCpuFree")
    p2 = InformationProvider("cpu-free", "MdsCpuFree")
    e1 = p1.produce("h", np.random.default_rng(42))
    e2 = p2.produce("h", np.random.default_rng(42))
    assert e1[0].to_dict() == e2[0].to_dict()


# -- GRIS ---------------------------------------------------------------


def make_gris(cachettl=30.0, n=10):
    return GRIS("lucky7.mcs.anl.gov", replicated_providers(n), cachettl=cachettl, seed=1)


def test_first_search_runs_all_providers():
    gris = make_gris()
    result = gris.search(now=0.0)
    assert len(result.providers_run) == 10
    assert result.cache_misses == 10
    assert result.exec_cost == pytest.approx(10 * 0.05)
    assert result.fetched


def test_cached_search_runs_nothing():
    gris = make_gris()
    gris.search(now=0.0)
    result = gris.search(now=1.0)
    assert result.providers_run == []
    assert result.cache_hits == 10
    assert result.exec_cost == 0.0
    assert not result.fetched


def test_cache_expiry_triggers_refetch():
    gris = make_gris(cachettl=30.0)
    gris.search(now=0.0)
    result = gris.search(now=31.0)
    assert len(result.providers_run) == 10


def test_nocache_always_fetches():
    gris = make_gris(cachettl=0.0)
    gris.search(now=0.0)
    result = gris.search(now=0.5)
    assert len(result.providers_run) == 10


def test_search_returns_host_and_device_entries():
    gris = make_gris()
    result = gris.search(now=0.0)
    # vo + host + 10 devices
    assert len(result.entries) == 12
    hosts = [e for e in result.entries if "MdsHost" in e.get("objectclass")]
    assert len(hosts) == 1


def test_search_filter_narrows():
    gris = make_gris()
    result = gris.search("(objectclass=MdsCpu)", now=0.0)
    assert len(result.entries) == 1


def test_search_result_size_scales_with_providers():
    small = make_gris(n=10)
    big = make_gris(n=90)
    s = small.search(now=0.0).estimated_size()
    b = big.search(now=0.0).estimated_size()
    assert b > 5 * s


def test_memoized_search_is_consistent():
    gris = make_gris()
    r1 = gris.search(now=0.0)
    r2 = gris.search(now=1.0)
    assert [str(e.dn) for e in r1.entries] == [str(e.dn) for e in r2.entries]
    assert gris.queries == 2


def test_add_provider_invalidates():
    gris = make_gris()
    gris.search(now=0.0)
    gris.add_provider(InformationProvider("extra", "MdsMemory"))
    result = gris.search(now=1.0)
    assert result.providers_run == ["extra"]
    assert len(result.entries) == 13


def test_entry_count():
    assert len(make_gris().search().entries) == 12
