"""Schedule digest: the engine's popped ``(when, seq)`` stream, pinned.

Every event the simulator processes leaves the heap through
``repro.sim.engine.heappop`` (``Simulator.run`` binds it from the module
at call time).  Hashing ``struct.pack("<dq", when, seq)`` per pop checks
an engine refactor event by event rather than through the rounding of a
figure table: one event more or less, one key moved, and the digest of
every point that crosses the changed code differs.

The points are short (3 s warm-up, 10 s window) and span what the figure
path runs: every Exp-1/Exp-2 system at one saturated user count, an
Exp-3 and an Exp-4 point, a two-level GIIS tree beside its flat twin, and a fault scenario
whose clients retry with a per-try deadline (stalls longer than the
deadline, so abandoned server work and the retry loop are both pinned).
"""

from __future__ import annotations

import hashlib
import heapq
import struct
from dataclasses import replace

import pytest

from repro.core.experiments import exp1, exp2, exp3, exp4, extensions
from repro.core.experiments.faults import fault_scenario
from repro.core.experiments.scenarios import run_scenario_point
from repro.core.params import default_params
from repro.sim import engine

WARMUP, WINDOW = 3.0, 10.0
SHORT = {"warmup": WARMUP, "window": WINDOW}


def _fault_point():
    sc = fault_scenario("outage", WARMUP, WINDOW)
    sc = replace(sc, faults=replace(sc.faults, stall=0.15, stall_seconds=0.8, breaker=False))
    base = default_params()
    params = replace(base, workload=replace(base.workload, request_timeout=0.5))
    return run_scenario_point("mds-gris-cache", sc, 30, 1, params=params, **SHORT)


# name -> (point thunk, events popped, sha256 of the popped keys)
POINTS = {
    "exp1-mds-gris-cache": (
        lambda: exp1.run_point("mds-gris-cache", 300, **SHORT),
        14956,
        "b308cf74105346f8f76217b0b5063b989714dc5fc75668e858ac004b95fac155",
    ),
    "exp1-mds-gris-nocache": (
        lambda: exp1.run_point("mds-gris-nocache", 300, **SHORT),
        4992,
        "7fbf4d6d827a460476106ec8c6658d66afdff4b28724e2d3dd65951045dfb4f6",
    ),
    "exp1-hawkeye-agent": (
        lambda: exp1.run_point("hawkeye-agent", 300, **SHORT),
        17651,
        "b70accef7f81e1e154b21cf2aa5cf55b8cc935afcc4c6d2dfe338d25ef687afd",
    ),
    "exp1-rgma-ps-lucky": (
        lambda: exp1.run_point("rgma-ps-lucky", 300, **SHORT),
        8918,
        "402c320d0725a632cd60f08a0ae25953f35969a94053200be4d142044203ca17",
    ),
    "exp1-rgma-ps-uc": (
        lambda: exp1.run_point("rgma-ps-uc", 100, **SHORT),
        7069,
        "342e03d43630b22fcf347f2128438a01c200cf82d500bf519ab4c67debbcf878",
    ),
    "exp2-mds-giis": (
        lambda: exp2.run_point("mds-giis", 300, **SHORT),
        31303,
        "344a0815bff30877b70f6db8c34af43bccaee7c629d7e3dc34635770d945c351",
    ),
    "exp2-hawkeye-manager": (
        lambda: exp2.run_point("hawkeye-manager", 300, **SHORT),
        26842,
        "0ebf99b3506bdfc87d4cbe4513e74b749392f0244ecadd1d41359ae45aab5e00",
    ),
    "exp2-rgma-registry-lucky": (
        lambda: exp2.run_point("rgma-registry-lucky", 300, **SHORT),
        7267,
        "6e7c1a0c8f3e20ff7383b20a76108bcbe3f34467390ed2bab1df70e020c96518",
    ),
    "exp2-rgma-registry-uc": (
        lambda: exp2.run_point("rgma-registry-uc", 100, **SHORT),
        6377,
        "05456a62efd7a2c3dade792fc29d0f620f5e9ec6dbe01dc80f880894e0c9e0fe",
    ),
    "exp3-mds-gris-cache": (
        lambda: exp3.run_point("mds-gris-cache", 50, **SHORT),
        1642,
        "4b005009d54cc7f115620f9ae8542c4f82eb55e71294147bdd7f5c0d9168f2b8",
    ),
    "exp4-mds-giis-part": (
        lambda: exp4.run_point("mds-giis-part", 50, **SHORT),
        1657,
        "a8f0e1cba95c05b447b386bc6855181f09e780fe950ef61cd56b46182da7acea",
    ),
    "two-level-giis": (
        lambda: extensions.hierarchy_comparison(16, users=10, **SHORT),
        7667,
        "063a90d3818233bc6f932d52d6c6958164cb44de6c2e4ff33e391e43fc499533",
    ),
    "fault-outage-deadline": (
        _fault_point,
        3843,
        "06663298861725853209de6bbc9a3a16392d8e5319bd17d776f5b7075dae14f3",
    ),
}


def schedule_digest(monkeypatch: pytest.MonkeyPatch, thunk) -> tuple[int, str]:
    """``(pops, sha256)`` of every ``(when, seq)`` the engine pops running ``thunk``."""
    digest = hashlib.sha256()
    pack = struct.Struct("<dq").pack
    pops = 0

    def pop(heap):
        nonlocal pops
        entry = heapq.heappop(heap)
        digest.update(pack(entry[0], entry[1]))
        pops += 1
        return entry

    monkeypatch.setattr(engine, "heappop", pop)
    thunk()
    return pops, digest.hexdigest()


@pytest.mark.parametrize("name", list(POINTS))
def test_schedule_digest_is_pinned(monkeypatch, name):
    thunk, pops, sha = POINTS[name]
    assert schedule_digest(monkeypatch, thunk) == (pops, sha)
