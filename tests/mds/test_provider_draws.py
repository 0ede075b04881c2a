"""Providers' batched draws against one scalar numpy call per reading.

A provider shape (name, object class, attribute count) fixes its entry
once, and a run draws every reading in one ``DrawPlan`` batch.  The
reference in :mod:`tests.mds.oracle` is the provider as it was: an entry
parsed from its DN text, filled one ``rng.integers`` reading at a time.
After every run both must give the same entries (DN text, attribute
spelling and order, values), the same ``ldif_length``, the same
``invocations`` and the same generator state, and then the same next
draws.
"""

import numpy as np
import pytest

import repro.ldap.dn as dn_module
from repro.ldap import DN, entry_to_ldif, host_dn_text
from repro.mds import InformationProvider, replicated_providers
from tests.hawkeye.test_agent_draws import assert_lockstep
from tests.mds import oracle

HOSTS = ("lucky7.mcs.anl.gov", "lucky3.mcs.anl.gov")
NOWS = (0.0, 5, 30.5, 1e6 + 0.25)  # float and int clocks

# name -> (providers, seeds)
SETS = {
    "one": (lambda: replicated_providers(1), 200),
    "ten": (lambda: replicated_providers(10), 50),
    "ninety": (lambda: replicated_providers(90), 10),
    "odd": (
        lambda: [
            InformationProvider("mystery", "MdsMystery"),  # unknown kind: one generic value
            InformationProvider("cpu", "MdsCpu", nattrs=3),  # below the fixed count: no padding
            InformationProvider("network", "MdsNet", nattrs=40),  # 31 padding draws
            InformationProvider("os", "MdsOs", nattrs=0),
            InformationProvider("memory#7", "MdsMemory", nattrs=9),
        ],
        200,
    ),
}


def twins(providers):
    return [
        oracle.InformationProvider(p.name, p.objectclass, exec_cost=p.exec_cost, nattrs=p.nattrs)
        for p in providers
    ]


def view(entries):
    return [(str(e.dn), e.attribute_names(), e.to_dict()) for e in entries]


def produce_both(provider, reference, rng, reference_rng, hostname, now):
    got = provider.produce(hostname, rng, now)
    want = reference.produce(hostname, reference_rng, now)
    assert view(got) == view(want)
    assert got == want
    assert [e.ldif_length() for e in got] == [len(entry_to_ldif(e)) for e in want]
    assert provider.invocations == reference.invocations
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    return got


@pytest.mark.parametrize("buffered", [0, 1])
@pytest.mark.parametrize("name", sorted(SETS))
def test_providers_match_the_scalar_oracle(name, buffered):
    make, seeds = SETS[name]
    for seed in range(seeds):
        providers = make()
        references = twins(providers)
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        if buffered:  # leave the upper half of a word in PCG64's 32-bit buffer
            assert int(rng.integers(0, 10)) == int(reference_rng.integers(0, 10))
        assert rng.bit_generator.state["has_uint32"] == buffered
        for run in range(2):
            hostname, now = HOSTS[run], NOWS[(seed + run) % len(NOWS)]
            for provider, reference in zip(providers, references):
                produce_both(provider, reference, rng, reference_rng, hostname, now)
        assert_lockstep(rng, reference_rng)


def test_mutating_a_produced_entry_leaves_later_runs_alone():
    providers = replicated_providers(10)
    references = twins(providers)
    rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
    for now in (0.0, 1.0, 2.0):
        for provider, reference in zip(providers, references):
            (entry,) = produce_both(provider, reference, rng, reference_rng, HOSTS[0], now)
            entry.put("objectclass", "Scribbled")
            entry.add_value("Mds-validto", "never")
            entry.remove("Mds-Device-name")
            assert entry.ldif_length() == len(entry_to_ldif(entry))
        # A new provider of a shape already run starts from the shape, not from an entry.
        fresh = InformationProvider("cpu", "MdsCpu")
        produce_both(fresh, twins([fresh])[0], rng, reference_rng, HOSTS[0], now)


def test_network_address_keeps_the_numpy_int_text():
    (entry,) = InformationProvider("network", "MdsNet").produce(HOSTS[0], np.random.default_rng(5))
    octet = np.random.default_rng(5).integers(1, 254)  # the provider's first draw
    assert isinstance(octet, np.integer)
    assert entry.first("Mds-Net-addr") == f"140.221.9.{octet}"


def test_the_device_dn_is_built_below_the_host_dn_not_parsed():
    hostname = "dn-check.mcs.anl.gov"
    (entry,) = InformationProvider("queue", "MdsQueue").produce(hostname, np.random.default_rng(0))
    assert str(entry.dn) not in dn_module._PARSED
    assert entry.dn.parent == DN.parse(host_dn_text(hostname))
    assert entry.dn == DN.parse(f"Mds-Device-name=queue, {host_dn_text(hostname)}")
