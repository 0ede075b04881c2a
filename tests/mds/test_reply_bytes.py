"""The encode-once reply path of GRIS and GIIS.

Whatever sequence of changes a server has been through, the bytes a
result hands the socket are the LDIF of the entries it carries, its size
is the figure the DES has always charged, and neither is computed again
while the data they encode has not changed.
"""

import random

import pytest

import repro.mds.cache as mds_cache
from repro.ldap.ldif import to_ldif
from repro.mds import GIIS, GRIS, GrisResult, InformationProvider, replicated_providers

FILTERS = (
    "(objectclass=*)",
    "(objectclass=MdsCpu)",
    "(objectclass=MdsMemory)",
    "(&(objectclass=MdsHost)(Mds-Host-hn=*))",
    "(objectclass=NoSuchClass)",  # matches nothing: the 64-byte empty answer
)
ATTRIBUTES = (None, ("Mds-Host-hn",), ("objectclass", "Mds-Cpu-Free-1minX100"))


def old_size(entries):
    """The size formula both servers carried before the bytes were kept."""
    return len(to_ldif(entries)) if entries else 64


def check(result):
    assert result.wire() == to_ldif(result.entries).encode()
    assert result.estimated_size() == old_size(result.entries)


@pytest.fixture
def encodings(monkeypatch):
    """Counts the LDIF encodings the answer memo performs."""
    calls = []

    def counting(entries):
        calls.append(len(entries))
        return to_ldif(entries)

    monkeypatch.setattr(mds_cache, "to_ldif", counting)
    return calls


@pytest.mark.parametrize("seed", range(6))
def test_gris_bytes_follow_the_entries_through_any_history(seed):
    rng = random.Random(seed)
    gris = GRIS("lucky7.mcs.anl.gov", replicated_providers(10), cachettl=5.0, seed=seed)
    now, empties = 0.0, 0
    for step in range(60):
        roll = rng.random()
        if roll < 0.15:
            now += rng.choice((1.0, 6.0))  # 6 s outlives the TTL: providers re-run
        elif roll < 0.22:
            gris.add_provider(InformationProvider(f"extra{step}", "MdsMemory"))
        result = gris.search(
            rng.choice(FILTERS),
            now=now,
            scope=rng.choice(("sub", "one")),
            attributes=rng.choice(ATTRIBUTES),
        )
        check(result)
        empties += not result.entries
    assert empties  # the empty-result case was exercised
    assert gris.search("(objectclass=NoSuchClass)", now=now).estimated_size() == 64


def _registrant(giis, name, *, cachettl, now, ttl=600.0, seed=0):
    gris = GRIS(f"{name}.mcs.anl.gov", replicated_providers(4), cachettl=cachettl, seed=seed)

    def pull(at):
        result = gris.search(now=at)
        return result.entries, result.exec_cost

    giis.register(name, pull, now=now, ttl=ttl)


@pytest.mark.parametrize("seed", range(6))
def test_giis_bytes_follow_the_entries_through_any_history(seed):
    rng = random.Random(seed)
    giis = GIIS("giis0", cachettl=8.0)
    now, added = 0.0, 0
    for _ in range(4):
        _registrant(giis, f"gris{added}", cachettl=3.0, now=now, seed=added)
        added += 1
    for _step in range(80):
        roll = rng.random()
        names = [reg.name for reg in giis.registrations.alive(now)]
        if roll < 0.15:
            now += rng.choice((1.0, 9.0))  # 9 s outlives the GIIS cache: registrants re-pulled
        elif roll < 0.22:
            _registrant(giis, f"gris{added}", cachettl=3.0, now=now, ttl=rng.choice((20.0, 600.0)))
            added += 1
        elif roll < 0.28 and len(names) > 2:
            giis.unregister(rng.choice(names))
        elif roll < 0.34:
            now += 15.0
            for name in names:  # the lapsed 20 s leases of the others get swept
                if rng.random() < 0.7:
                    giis.renew(name, now)
            giis.sweep(now + 6.0)
        names = [reg.name for reg in giis.registrations.alive(now)]
        subset = rng.sample(names, rng.randint(1, len(names))) if rng.random() < 0.4 else None
        result = giis.query(
            rng.choice(FILTERS), now=now, attributes=rng.choice(ATTRIBUTES), subset=subset
        )
        check(result)
    assert giis.query("(objectclass=NoSuchClass)", now=now).estimated_size() == 64


def test_a_result_built_by_hand_still_sizes_and_encodes_itself():
    entries = GRIS("h.example.org", replicated_providers(3)).search().entries
    check(GrisResult(entries=entries))
    assert GrisResult(entries=[]).estimated_size() == 64


def test_unchanged_data_is_encoded_once_however_often_it_is_served(encodings):
    giis = GIIS("giis0", cachettl=float("inf"))
    for i in range(3):
        _registrant(giis, f"gris{i}", cachettl=float("inf"), now=0.0, seed=i)
    first = giis.query(now=0.0)
    served = [giis.query(now=float(t)).wire() for t in range(1, 20)]
    assert all(body is served[0] for body in served)  # the very same bytes object
    assert first.wire() is served[0]
    # Sizing the four answers (three GRIS, the GIIS) encoded nothing; only the
    # GIIS was asked for bytes, and encoded them once for all 20 answers.
    assert len(encodings) == 1


def test_sizing_alone_keeps_no_bytes(encodings):
    # The DES asks for sizes only: they are summed, never encoded, and
    # nothing but the integer may be retained.
    gris = GRIS("lucky7.mcs.anl.gov", replicated_providers(10), cachettl=float("inf"))
    sizes = {gris.search(now=float(t)).estimated_size() for t in range(10)}
    assert len(sizes) == 1 and len(encodings) == 0
    assert sizes == {old_size(gris.search(now=10.0).entries)}
    assert all(answer._wire is None for answer in gris._memo._answers.values())


def test_the_memo_is_dropped_when_the_generation_moves():
    gris = GRIS("lucky7.mcs.anl.gov", replicated_providers(10), cachettl=5.0)
    for text in FILTERS:
        gris.search(text, now=0.0)
    assert len(gris._memo._answers) == len(FILTERS)
    stale = gris.search(now=1.0).wire()
    fresh = gris.search(now=10.0)  # TTL lapsed: providers re-ran, generation moved
    assert len(gris._memo._answers) == 1
    assert fresh.wire() is not stale and fresh.wire() == to_ldif(fresh.entries).encode()

    giis = GIIS("giis0", cachettl=float("inf"))
    for i in range(3):
        _registrant(giis, f"gris{i}", cachettl=float("inf"), now=0.0, seed=i)
    for text in FILTERS:
        giis.query(text, now=0.0)
    assert len(giis._memo._answers) == len(FILTERS)
    before = giis.query(now=1.0).wire()
    giis.unregister("gris1")
    after = giis.query(now=2.0)
    assert len(giis._memo._answers) == 1
    assert b"gris1.mcs.anl.gov" in before and b"gris1.mcs.anl.gov" not in after.wire()


def test_one_generation_keeps_a_bounded_number_of_questions():
    gris = GRIS("lucky7.mcs.anl.gov", replicated_providers(10), cachettl=float("inf"))
    for i in range(3 * mds_cache.AnswerMemo.MAX_QUESTIONS):
        check(gris.search(f"(Mds-Host-hn=host{i})", now=0.0))
        assert len(gris._memo._answers) <= mds_cache.AnswerMemo.MAX_QUESTIONS + 1
