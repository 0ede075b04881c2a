"""The collector's incrementally maintained views against the scanning oracle.

On the compiled plane a full-scan constraint is answered from a view that
re-matches only the ads advertised since it was last asked.  It must be
indistinguishable from the scan it replaces — same ad objects in the same
order, same ``scanned``/``ops``/``index_hit`` — after any history of
``advertise``/``remove``/``expire``, and it must actually do less work.
"""

import pytest

from repro.classad import AdCollector, ClassAd
from repro.classad import collector as collector_module
from repro.classad.matchmaker import match_pool
from repro.sim.randomness import RngHub
from tests.queryplane.test_differential_classad import _random_ad

MATCHES_NOTHING = "TARGET.CpuLoad > 50"
MATCHES_SOME = "CpuLoad > 1.0"
CONJUNCTIVE_INDEXED = 'Machine == "m1" && CpuLoad < 1.0'
DISJUNCTIVE_UNINDEXED = 'Arch == "sparc" || Cpus >= 3'
WHOLE_INDEXED = 'Machine == "m2"'
CONSTRAINTS = (
    MATCHES_NOTHING, MATCHES_SOME, CONJUNCTIVE_INDEXED, DISJUNCTIVE_UNINDEXED, WHOLE_INDEXED,
)


def _pruned_scan(oracle: AdCollector, constraint: str, machine: str):
    """What the conjunct-pruned path must report: the scan of one bucket."""
    request = ClassAd({"MyType": "Query"})
    request.set_expr("Requirements", constraint)
    bucket = [ad for ad in oracle.ads() if ad.get_scalar("Machine") == machine]
    matches, ops = match_pool(request, bucket)
    return [ad for _rank, ad in matches], len(bucket), ops


def test_views_equal_the_scan_over_a_seeded_history():
    hub = RngHub(seed=20261004)
    rng = hub.stream("classad", "views", "history")
    ad_rng = hub.stream("classad", "views", "ads")
    views, oracle = AdCollector(), AdCollector()
    both = (views, oracle)
    names: list[str] = []
    minted = 0
    now = 0.0
    asked = dict.fromkeys(CONSTRAINTS, 0)
    full_scans_with_matches = 0
    for step in range(3200):
        now += float(rng.random())
        roll = rng.random()
        if roll < 0.22 or len(names) < 5:  # a new name
            name = f"slot{minted}"
            minted += 1
            names.append(name)
            ad = _random_ad(ad_rng, name)
            lifetime = float(rng.uniform(5.0, 60.0))
            for collector in both:
                collector.advertise(ad, now=now, lifetime=lifetime)
        elif roll < 0.50:  # a replacement
            ad = _random_ad(ad_rng, names[int(rng.integers(0, len(names)))])
            for collector in both:
                collector.advertise(ad, now=now, lifetime=40.0)
        elif roll < 0.62:  # the same object again, changed in between
            resident = views.get(names[int(rng.integers(0, len(names)))])
            if resident is not None:
                resident["CpuLoad"] = round(float(rng.random()) * 2, 3)
                for collector in both:
                    collector.advertise(resident, now=now, lifetime=40.0)
        elif roll < 0.72:
            name = names.pop(int(rng.integers(0, len(names))))
            assert views.remove(name) == oracle.remove(name)
        elif roll < 0.80:
            assert views.expire(now) == oracle.expire(now)
        assert len(views) == len(oracle)

        constraint = CONSTRAINTS[int(rng.integers(0, len(CONSTRAINTS)))]
        asked[constraint] += 1
        got = views.query(constraint, compiled=True)
        want = oracle.query(constraint, compiled=False)
        where = f"step {step}: {constraint}"
        assert [id(ad) for ad in got.ads] == [id(ad) for ad in want.ads], where
        if constraint == CONJUNCTIVE_INDEXED:
            ads, scanned, ops = _pruned_scan(oracle, constraint, "m1")
            assert [id(ad) for ad in ads] == [id(ad) for ad in want.ads], where
            assert (got.scanned, got.ops, got.index_hit) == (scanned, ops, True), where
        else:
            assert (got.scanned, got.ops, got.index_hit) == (
                want.scanned, want.ops, want.index_hit
            ), where
            if not got.index_hit and got.ads:
                full_scans_with_matches += 1
    # The history exercised what it claims to.
    assert all(count > 400 for count in asked.values()), asked
    assert full_scans_with_matches > 400
    assert oracle.expired_total == views.expired_total > 50
    assert 10 < len(views) < minted


@pytest.fixture
def match_calls(monkeypatch):
    """Counts the bilateral matches the collector's views perform."""
    calls = []
    real = collector_module.match

    def counting(left, right):
        calls.append(right)
        return real(left, right)

    monkeypatch.setattr(collector_module, "match", counting)
    return calls


def _pool(n: int) -> AdCollector:
    collector = AdCollector()
    for i in range(n):
        collector.advertise(ClassAd({"Name": f"slot{i}", "CpuLoad": i / n, "Cpus": 1 + i % 4}))
    return collector


def test_a_query_matches_only_the_ads_advertised_since(match_calls):
    collector = _pool(20)
    first = collector.query(MATCHES_SOME, compiled=True)
    assert len(match_calls) == 20 and first.scanned == 20
    del match_calls[:]

    assert collector.query(MATCHES_SOME, compiled=True) == first
    assert match_calls == []  # nothing changed: nothing evaluated

    replaced = [ClassAd({"Name": f"slot{i}", "CpuLoad": 1.5}) for i in (3, 7, 11)]
    for ad in replaced:
        collector.advertise(ad)
    collector.advertise(replaced[0])  # the same key twice is still one ad to look at
    answer = collector.query(MATCHES_SOME, compiled=True)
    assert sorted(map(id, match_calls)) == sorted(map(id, replaced))
    assert [ad.get_scalar("Name") for ad in answer.ads] == ["slot3", "slot7", "slot11"]
    assert answer == collector.query(MATCHES_SOME, compiled=False)
    del match_calls[:]

    collector.remove("slot7")
    collector.advertise(ClassAd({"Name": "late", "CpuLoad": 1.9}))
    answer = collector.query(MATCHES_SOME, compiled=True)
    assert [ad.get_scalar("Name") for ad in match_calls] == ["late"]  # a removal costs nothing
    assert [ad.get_scalar("Name") for ad in answer.ads] == ["slot3", "slot11", "late"]
    assert answer == collector.query(MATCHES_SOME, compiled=False)
    del match_calls[:]

    # A second constraint has its own view; the first is not disturbed by it.
    collector.query(MATCHES_NOTHING, compiled=True)
    assert len(match_calls) == 20
    del match_calls[:]
    collector.query(MATCHES_SOME, compiled=True)
    collector.query(MATCHES_NOTHING, compiled=True)
    assert match_calls == []


def test_the_interpreted_side_keeps_no_view(match_calls):
    collector = _pool(5)
    for _ in range(3):
        collector.query(MATCHES_SOME, compiled=False)
    assert match_calls == [] and not collector._views  # match_pool scans, every time


def test_the_least_recently_asked_view_is_evicted(match_calls):
    collector = _pool(4)
    constraints = [f"Cpus > {i}" for i in range(AdCollector.MAX_VIEWS)]
    for constraint in constraints:
        collector.query(constraint, compiled=True)
    collector.query(constraints[0], compiled=True)  # now the most recently asked
    collector.query("Cpus < 0", compiled=True)  # one more than the cap
    assert len(collector._views) == AdCollector.MAX_VIEWS
    del match_calls[:]
    collector.query(constraints[0], compiled=True)
    assert match_calls == []  # kept
    collector.query(constraints[1], compiled=True)
    assert len(match_calls) == 4  # evicted: opened again, owing the whole pool


def test_a_view_that_owes_more_than_a_scan_is_dropped():
    collector = _pool(6)
    collector.query(MATCHES_SOME, compiled=True)
    collector.query(WHOLE_INDEXED, compiled=True)
    for i in range(6):  # names churn and nobody asks again
        collector.advertise(ClassAd({"Name": f"churn{i}", "CpuLoad": 1.2}))
        collector.remove(f"churn{i}")
    assert MATCHES_SOME in collector._views  # six dirty keys, six resident ads
    collector.advertise(ClassAd({"Name": "churn6", "CpuLoad": 1.2}))
    collector.remove("churn6")
    assert MATCHES_SOME not in collector._views
    assert WHOLE_INDEXED in collector._views  # an index plan owes nothing
    assert collector.query(MATCHES_SOME, compiled=True) == collector.query(
        MATCHES_SOME, compiled=False
    )


def test_a_failed_evaluation_leaves_the_view_consistent(match_calls):
    collector = _pool(3)
    constraint = "int(CpuLoad) >= 0"
    collector.query(constraint, compiled=True)
    collector.advertise(ClassAd({"Name": "slot1", "CpuLoad": float("inf")}))
    for _ in range(2):  # int(inf) overflows, on either side, every time it is asked
        with pytest.raises(OverflowError):
            collector.query(constraint, compiled=True)
    with pytest.raises(OverflowError):
        collector.query(constraint, compiled=False)
    collector.advertise(ClassAd({"Name": "slot1", "CpuLoad": 0.25}))
    assert collector.query(constraint, compiled=True) == collector.query(
        constraint, compiled=False
    )


def test_a_malformed_constraint_opens_no_view():
    from repro.errors import ClassAdSyntaxError

    collector = _pool(2)
    for compiled in (True, False):
        with pytest.raises(ClassAdSyntaxError):
            collector.query("CpuLoad >", compiled=compiled)
    assert not collector._views
