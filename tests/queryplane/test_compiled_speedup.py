"""Warm compiled queries beat the interpreted oracles on the three planes.

Each plane (LDAP subtree search, SQL SELECT, ClassAd collector
constraint query) runs one fixed query batch twice: through ``src`` —
the warm compiled closures with index pruning, the steady state the
simulation runs in — and through the interpreted oracles in
``tests/queryplane/oracles.py`` (parse per query, tree/row/pool scan).
Both answer alike, and ``src`` must be at least 3x faster on at least
two of the three planes.  The DIT has no indexes, so the LDAP plane is
scan against scan and the SQL and ClassAd planes carry the rule.
Everything is measured inside the one test, best of three runs per
side, so the test passes or fails the same when selected on its own.
"""

from __future__ import annotations

import math
from functools import partial
from time import perf_counter

import numpy as np

from repro.classad import AdCollector, ClassAd
from repro.ldap import DIT, Entry
from repro.relational import Database, parse_sql
from tests.queryplane import oracles

REPEATS = 3
MIN_SPEEDUP = 3.0

_OSES = ("Linux", "SunOS", "Irix", "AIX", "FreeBSD")


def _ldap_batch():
    dit = DIT()
    dit.add(Entry("o=grid", {"objectclass": "organization"}))
    dit.add(Entry("Mds-Vo-name=local, o=grid", {"objectclass": "MdsVo"}))
    rng = np.random.default_rng(1)
    for i in range(150):
        dn = f"Mds-Host-hn=host{i}.mcs.anl.gov, Mds-Vo-name=local, o=grid"
        dit.add(
            Entry(
                dn,
                {
                    "objectclass": "MdsHost",
                    "Mds-Os-name": _OSES[i % len(_OSES)],
                    "Mds-Cpu-Free": str(int(rng.integers(0, 100))),
                },
            )
        )
        dit.add(
            Entry(
                f"Mds-Device-name=cpu, {dn}",
                {"objectclass": "MdsDevice", "Mds-Cpu-speedMHz": "866"},
            )
        )
    filters = [f"(&(objectclass=MdsHost)(Mds-Os-name={os}))" for os in _OSES]
    filters += [f"(Mds-Cpu-Free={v})" for v in ("7", "25", "50", "75", "99")]

    def run(compiled: bool) -> int:
        search = dit.search if compiled else partial(oracles.search, dit)
        return sum(len(search("o=grid", filter=text)) for _ in range(20) for text in filters)

    return run


def _sql_batch():
    db = Database()
    db.execute("CREATE TABLE cpuLoad (host VARCHAR(64), load1 REAL, cpus INT, site VARCHAR(16))")
    table = db.table("cpuLoad")
    rng = np.random.default_rng(2)
    sites = ("anl", "uc", "isi", "ncsa")
    for i in range(400):
        table.insert(
            (
                f"host{i}",
                round(float(rng.random()) * 4, 3),
                int(rng.integers(1, 9)),
                sites[int(rng.integers(0, len(sites)))],
            )
        )
    table.create_index("site")
    table.create_sorted_index("load1")
    table.create_sorted_index("cpus")
    statements = [
        "SELECT host, load1 FROM cpuLoad WHERE load1 > 3.8",
        "SELECT host FROM cpuLoad WHERE load1 < 0.2",
        "SELECT * FROM cpuLoad WHERE load1 >= 3.9 AND cpus >= 4",
        "SELECT host FROM cpuLoad WHERE cpus > 7",
        "SELECT host FROM cpuLoad WHERE site = 'anl' AND load1 > 3.5",
        "SELECT COUNT(*) FROM cpuLoad WHERE load1 > 3.7 AND site = 'uc'",
    ]

    def run(compiled: bool) -> int:
        if compiled:
            return sum(len(db.query(sql)) for _ in range(40) for sql in statements)
        return sum(
            len(oracles.execute_select(table, parse_sql(sql)))
            for _ in range(40)
            for sql in statements
        )

    return run


def _classad_batch():
    collector = AdCollector(indexed_attrs=("Name", "Machine"))
    rng = np.random.default_rng(3)
    for i in range(400):
        collector.advertise(
            ClassAd(
                {
                    "Name": f"slot{i}",
                    "Machine": f"m{i % 20}",
                    "CpuLoad": round(float(rng.random()) * 2, 3),
                    "Cpus": int(rng.integers(1, 5)),
                }
            )
        )
    constraints = [f'Machine == "m{k}" && CpuLoad > 0.3' for k in range(20)]

    def run(compiled: bool) -> int:
        query = collector.query if compiled else partial(oracles.collector_query, collector)
        return sum(len(query(constraint).ads) for _ in range(5) for constraint in constraints)

    return run


def _best_wall(fn) -> float:
    best = math.inf
    for _ in range(REPEATS):
        start = perf_counter()
        fn()
        best = min(best, perf_counter() - start)
    return best


def test_warm_compiled_beats_interpreted_on_two_of_three_planes():
    speedups: dict[str, float] = {}
    for plane, batch in (("ldap", _ldap_batch), ("sql", _sql_batch), ("classad", _classad_batch)):
        run = batch()
        # Same answers on both sides; this also warms the compile caches
        # outside the timed runs.
        assert run(True) == run(False) > 0, plane
        speedups[plane] = _best_wall(lambda: run(False)) / _best_wall(lambda: run(True))
    summary = ", ".join(f"{p}={r:.1f}x" for p, r in sorted(speedups.items()))
    fast = [plane for plane, ratio in speedups.items() if ratio >= MIN_SPEEDUP]
    assert len(fast) >= 2, f"compiled speedups below {MIN_SPEEDUP}x: {summary}"
