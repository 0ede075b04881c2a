"""The Registry's maps against the SQL Registry they replaced.

:mod:`tests.rgma.oracle` keeps each registration as a row of a SQL
table.  Seeded histories of register, re-register, unregister, sweep,
lookup, ``producer_count`` and ``describe`` — on clocks that stand
still, step back and land exactly on lease expiries — run on both, and
after every step the two agree: the same answers in the same row order,
with ``expires_at`` of the same value and type.
"""

import random

import pytest

from repro.errors import RegistryError
from repro.rgma import Registry
from repro.rgma.schema import GLOBAL_SCHEMA
from tests.rgma import oracle

TABLES = tuple(GLOBAL_SCHEMA)
ASKED = (*TABLES, "noSuchTable")
IDS = tuple(f"lucky{i % 4}/p{i}" for i in range(10))
PREDICATES = ("", "WHERE hostName = 'o''brien'", "WHERE load1 > 0.5")
LEASES = (5, 10, 7.5, 20.0, 1800.0)  # int and float; most land on a later clock
BOTH = pytest.mark.parametrize("make", [Registry, oracle.Registry], ids=["maps", "sql"])


def answer(call, *args, **kwargs):
    """A call's result, each registration paired with its expiry's type; or the error raised."""
    try:
        result = call(*args, **kwargs)
    except RegistryError:
        return RegistryError
    if isinstance(result, list) and result and hasattr(result[0], "expires_at"):
        return [(reg, type(reg.expires_at)) for reg in result]
    return result


def step(pick, clock):
    """One random call at ``clock``, as an int or a float: (method, args, kwargs)."""
    now = clock if pick.random() < 0.5 else float(clock)
    roll = pick.random()
    if roll < 0.35:
        args = (pick.choice(IDS), pick.choice(ASKED), f"servlet{pick.randrange(3)}", pick.choice(PREDICATES))
        return "register", args, {"now": now, "lease": pick.choice(LEASES)}
    if roll < 0.45:
        return "unregister", (pick.choice(IDS),), {}
    if roll < 0.55:
        return "sweep", (now,), {}
    if roll < 0.80:
        return "lookup", (pick.choice(ASKED),), {"now": now}
    if roll < 0.90:
        return "producer_count", (), {"now": now}
    return "describe", (pick.choice(ASKED),), {}


@pytest.mark.parametrize("seed", range(8))
def test_registry_matches_the_sql_oracle_through_a_history(seed):
    pick = random.Random(seed)
    mine, theirs = Registry(), oracle.Registry()
    clock = 0
    for _ in range(150):
        clock = max(0, clock + pick.choice((0, 0, 5, 5, 10, -10, -25)))
        name, args, kwargs = step(pick, clock)
        got = answer(getattr(mine, name), *args, **kwargs)
        assert got == answer(getattr(theirs, name), *args, **kwargs), (name, args, kwargs)
        for table in TABLES:  # the whole state, at this clock
            assert answer(mine.lookup, table, now=clock) == answer(theirs.lookup, table, now=clock)
    assert (mine.registrations_total, mine.lookups_total) == (
        theirs.registrations_total,
        theirs.lookups_total,
    )


@BOTH
def test_a_reregistration_moves_to_the_end(make):
    registry = make()
    for producer_id in ("a", "b", "c"):
        registry.register(producer_id, "cpuLoad", "s1", now=0.0, lease=100.0)
    registry.register("a", "cpuLoad", "s2", now=5.0, lease=100.0)
    regs = registry.lookup("cpuLoad", now=5.0)
    assert [(r.producer_id, r.servlet) for r in regs] == [("b", "s1"), ("c", "s1"), ("a", "s2")]


@BOTH
def test_a_lease_lapses_at_its_expiry_whichever_way_the_clock_moves(make):
    registry = make()
    registry.register("p1", "cpuLoad", "s1", now=0.0, lease=10.0)
    registry.register("p2", "cpuLoad", "s1", now=0, lease=20)

    def live(now):
        return [r.producer_id for r in registry.lookup("cpuLoad", now=now)]

    assert live(9.5) == ["p1", "p2"]
    assert live(10.0) == ["p2"]  # expiresAt == now has lapsed
    assert live(20) == []
    assert live(0) == ["p1", "p2"]  # the clock stepped back: both answer again
    registry.lookup("cpuLoad", now=0).clear()  # an answer is the caller's own list
    assert live(0) == ["p1", "p2"]
    assert registry.producer_count(now=10) == 1
    assert registry.sweep(now=10.0) == 1
    assert live(0) == ["p2"]


def test_quotes_round_trip_through_every_operation():
    registry = Registry()
    predicate = "WHERE hostName = 'o''brien'"
    registry.register("o'brien", "cpuLoad", "s'1", predicate, now=0.0, lease=10.0)
    (reg,) = registry.lookup("cpuLoad", now=0.0)
    assert (reg.producer_id, reg.servlet, reg.predicate) == ("o'brien", "s'1", predicate)
    registry.register("o'brien", "memoryUsage", "s'2", predicate, now=1.0, lease=10.0)
    assert registry.lookup("cpuLoad", now=1.0) == []
    assert [r.servlet for r in registry.lookup("memoryUsage", now=1.0)] == ["s'2"]
    assert registry.unregister("o'brien")
    assert not registry.unregister("o'brien")
    registry.register("o'brien", "cpuLoad", "s'1", predicate, now=2.0, lease=10.0)
    assert registry.sweep(now=12.0) == 1
    assert registry.producer_count(now=0.0) == 0
