"""Differential corpus: compiled ClassAd evaluation against the oracle.

The compiled closures must return the same value AND the same
``Evaluation.ops`` count as the tree-walking oracle
(``tests/queryplane/oracles.py``) — the op count feeds the simulation's
CPU cost models, so parity is load-bearing, not cosmetic.  Also checks
collector constraint queries with conjunctive index pruning against the
oracle's full scan.
"""

import math

from repro.classad import AdCollector, ClassAd, Evaluation, evaluate, parse_expr
from repro.sim.randomness import RngHub
from tests.queryplane import oracles

_ATTRS = ("CpuLoad", "Cpus", "Arch", "Active", "Memory", "Missing")
_STR_LITS = ('"intel"', '"INTEL"', '"sparc"', '"x"')
_NUM_LITS = ("0", "1", "2", "7", "3.5", "-2", "0.5")
_FUNCS = ("floor", "ceiling", "round", "int", "real", "string", "strcat",
          "toupper", "tolower", "size", "isUndefined", "isError")


def _random_expr(rng, depth: int = 0) -> str:
    roll = rng.random() if depth < 3 else 1.0
    if roll < 0.30:
        op = ("&&", "||", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%",
              "=?=", "=!=")[int(rng.integers(0, 15))]
        return f"({_random_expr(rng, depth + 1)} {op} {_random_expr(rng, depth + 1)})"
    if roll < 0.38:
        op = "!" if rng.random() < 0.5 else "-"
        return f"{op}({_random_expr(rng, depth + 1)})"
    if roll < 0.50:
        func = _FUNCS[int(rng.integers(0, len(_FUNCS)))]
        arity = int(rng.integers(1, 3)) if func == "strcat" else 1
        args = ", ".join(_random_expr(rng, depth + 1) for _ in range(arity))
        return f"{func}({args})"
    if roll < 0.56:
        return (
            f"ifThenElse({_random_expr(rng, depth + 1)}, "
            f"{_random_expr(rng, depth + 1)}, {_random_expr(rng, depth + 1)})"
        )
    leaf = rng.random()
    if leaf < 0.35:
        attr = _ATTRS[int(rng.integers(0, len(_ATTRS)))]
        scope = ("", "MY.", "TARGET.")[int(rng.integers(0, 3))]
        return f"{scope}{attr}"
    if leaf < 0.55:
        return _STR_LITS[int(rng.integers(0, len(_STR_LITS)))]
    if leaf < 0.90:
        return _NUM_LITS[int(rng.integers(0, len(_NUM_LITS)))]
    return ("TRUE", "FALSE", "UNDEFINED", "ERROR")[int(rng.integers(0, 4))]


def _random_ad(rng, name: str) -> ClassAd:
    ad = ClassAd({"Name": name, "Machine": f"m{int(rng.integers(0, 4))}"})
    if rng.random() < 0.9:
        ad["CpuLoad"] = round(float(rng.random()) * 2, 3)
    if rng.random() < 0.9:
        ad["Cpus"] = int(rng.integers(1, 5))
    if rng.random() < 0.8:
        ad["Arch"] = ("INTEL", "SPARC")[int(rng.integers(0, 2))]
    if rng.random() < 0.5:
        ad["Active"] = bool(rng.integers(0, 2))
    if rng.random() < 0.4:
        ad.set_expr("Memory", "Cpus * 512")
    return ad


def _same_value(a, b) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return isinstance(b, float) and math.isnan(b)
    return a == b


def test_differential_eval_corpus():
    hub = RngHub(seed=20260808)
    ad_rng = hub.stream("classad", "ads")
    expr_rng = hub.stream("classad", "exprs")
    my = _random_ad(ad_rng, "my-ad")
    target = _random_ad(ad_rng, "target-ad")
    for trial in range(250):
        text = _random_expr(expr_rng)
        expr = parse_expr(text)
        ctx_compiled = Evaluation(my=my, target=target)
        ctx_oracle = Evaluation(my=my, target=target)
        got = evaluate(expr, ctx=ctx_compiled)
        want = oracles.evaluate(expr, ctx=ctx_oracle)
        assert _same_value(got, want), f"trial {trial}: {text} -> {got!r} != {want!r}"
        assert ctx_compiled.ops == ctx_oracle.ops, (
            f"trial {trial}: {text} ops {ctx_compiled.ops} != {ctx_oracle.ops}"
        )


def test_differential_collector_queries():
    hub = RngHub(seed=42)
    rng = hub.stream("classad", "pool")
    collector = AdCollector(indexed_attrs=("Name", "Machine", "Arch"))
    for i in range(30):
        collector.advertise(_random_ad(rng, f"slot{i}"))
    constraints = (
        "TRUE",
        'Machine == "m1"',
        'Machine == "m1" && CpuLoad < 1.0',
        '"INTEL" == Arch && Cpus >= 2',
        'MY.MyType == "Query" && Machine == "m2"',
        'Arch == "sparc" || Machine == "m0"',
        'Machine == "m3" && Memory >= 1024',
        "CpuLoad > 0.5",
    )
    for constraint in constraints:
        got = collector.query(constraint)
        want = oracles.collector_query(collector, constraint)
        got_names = [ad.get_scalar("Name") for ad in got.ads]
        want_names = [ad.get_scalar("Name") for ad in want.ads]
        assert got_names == want_names, f"constraint {constraint!r} diverged"
        assert got.scanned <= want.scanned


def test_pruned_query_reorders_like_insertion():
    """Re-advertising keeps the original slot; candidates sort by it."""
    collector = AdCollector(indexed_attrs=("Machine",))
    for name in ("a", "b", "c"):
        collector.advertise(ClassAd({"Name": name, "Machine": "box", "Cpus": 1}))
    collector.advertise(ClassAd({"Name": "a", "Machine": "box", "Cpus": 8}))  # refresh
    constraint = 'Machine == "box" && Cpus >= 1'
    got = collector.query(constraint)
    want = oracles.collector_query(collector, constraint)
    assert [ad.get_scalar("Name") for ad in got.ads] == [
        ad.get_scalar("Name") for ad in want.ads
    ]
    assert got.index_hit and not want.index_hit


def test_removed_ads_leave_the_bucket():
    collector = AdCollector(indexed_attrs=("Machine",))
    for name in ("a", "b"):
        collector.advertise(ClassAd({"Name": name, "Machine": "box", "Cpus": 2}))
    collector.remove("a")
    outcome = collector.query('Machine == "box" && Cpus >= 1')
    assert [ad.get_scalar("Name") for ad in outcome.ads] == ["b"]
    assert outcome.scanned == 1


def test_an_emptied_bucket_is_deleted_not_kept():
    """Name churn must not leave one empty set per value ever indexed."""
    collector = AdCollector(indexed_attrs=("Name", "Machine"))
    collector.advertise(ClassAd({"Name": "stays", "Machine": "box", "Cpus": 2}))
    for i in range(50):
        collector.advertise(ClassAd({"Name": f"churn{i}", "Machine": f"host{i}", "Cpus": 2}))
        collector.remove(f"churn{i}")
    collector.advertise(ClassAd({"Name": "stays", "Machine": "rack", "Cpus": 2}))  # moved bucket
    assert sorted(collector._index) == [("machine", "rack"), ("name", "stays")]
    # The absent keys still answer: nothing there, nothing scanned.
    assert collector.lookup_equal("Machine", "host7") == []
    for constraint in ('Machine == "box"', 'Machine == "host7" && Cpus >= 1'):
        got = collector.query(constraint)
        want = oracles.collector_query(collector, constraint)
        assert got.ads == want.ads == []
        assert (got.scanned, got.index_hit) == (0, True)
    rack = collector.query('Machine == "rack" && Cpus >= 1')
    assert [ad.get_scalar("Name") for ad in rack.ads] == ["stays"] and rack.scanned == 1
