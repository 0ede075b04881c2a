"""Differential corpus: LDAP search answers against the interpreted oracle.

Generates randomized DITs and RFC 1960 filter texts (seeded through
:class:`repro.sim.randomness.RngHub`, so failures replay exactly) and
asserts ``DIT.search`` — the scan with compiled predicate closures —
returns byte-identical results to the oracle's scan, which walks the
filter tree per entry (``tests/queryplane/oracles.py``).
"""

from repro.ldap import DIT, SCOPE_BASE, SCOPE_ONE, SCOPE_SUB, Entry, parse_filter
from repro.sim.randomness import RngHub
from tests.queryplane import oracles

_ATTRS = ("Mds-Os-name", "Mds-Cpu-Free", "Mds-Memory-Ram-Total", "objectclass")
_TEXT_VALUES = ("Linux", "SunOS", "linux 2.4.10", "Irix", "MdsHost", "nan")
_NUM_VALUES = ("0", "2", "7", "7.0", "50", "512", "-3.5", "1e3")


def _build_dit(rng, hosts: int) -> DIT:
    dit = DIT()
    dit.add(Entry("o=grid", {"objectclass": "organization"}))
    dit.add(Entry("Mds-Vo-name=local, o=grid", {"objectclass": "MdsVo"}))
    for i in range(hosts):
        attrs = {
            "objectclass": "MdsHost",
            "Mds-Os-name": _TEXT_VALUES[int(rng.integers(0, len(_TEXT_VALUES)))],
            "Mds-Cpu-Free": _NUM_VALUES[int(rng.integers(0, len(_NUM_VALUES)))],
        }
        if rng.random() < 0.7:
            attrs["Mds-Memory-Ram-Total"] = str(int(rng.integers(0, 2048)))
        dn = f"Mds-Host-hn=host{i}.mcs.anl.gov, Mds-Vo-name=local, o=grid"
        dit.add(Entry(dn, attrs))
        for device in ("cpu", "memory")[: int(rng.integers(0, 3))]:
            dit.add(
                Entry(
                    f"Mds-Device-name={device}, {dn}",
                    {
                        "objectclass": "MdsDevice",
                        "Mds-Cpu-Free": _NUM_VALUES[int(rng.integers(0, len(_NUM_VALUES)))],
                    },
                )
            )
    return dit


def _random_value(rng) -> str:
    pool = _TEXT_VALUES + _NUM_VALUES
    return pool[int(rng.integers(0, len(pool)))]


def _random_filter(rng, depth: int = 0) -> str:
    roll = rng.random() if depth < 3 else 1.0
    attr = _ATTRS[int(rng.integers(0, len(_ATTRS)))]
    if roll < 0.15:
        parts = "".join(_random_filter(rng, depth + 1) for _ in range(int(rng.integers(2, 4))))
        return f"(&{parts})"
    if roll < 0.30:
        parts = "".join(_random_filter(rng, depth + 1) for _ in range(int(rng.integers(2, 4))))
        return f"(|{parts})"
    if roll < 0.40:
        return f"(!{_random_filter(rng, depth + 1)})"
    leaf = rng.random()
    if leaf < 0.35:
        return f"({attr}={_random_value(rng)})"
    if leaf < 0.50:
        return f"({attr}=*)"
    if leaf < 0.65:
        value = _random_value(rng)
        return f"({attr}=*{value[: max(1, len(value) // 2)]}*)"
    if leaf < 0.80:
        return f"({attr}>={_NUM_VALUES[int(rng.integers(0, len(_NUM_VALUES)))]})"
    return f"({attr}<={_NUM_VALUES[int(rng.integers(0, len(_NUM_VALUES)))]})"


def _answer(hits):
    return [(str(e.dn), sorted((a, tuple(e.get(a))) for a in e.attribute_names())) for e in hits]


def _both(dit: DIT, base: str, scope: str, flt, attributes):
    """(src answer, oracle answer) to one question."""
    got = _answer(dit.search(base, scope, flt, attributes))
    want = _answer(oracles.search(dit, base, scope, flt, attributes))
    return got, want


def test_differential_search_corpus():
    hub = RngHub(seed=20260808)
    data_rng = hub.stream("ldap", "data")
    filter_rng = hub.stream("ldap", "filters")
    dit = _build_dit(data_rng, hosts=12)
    bases = (
        "o=grid",
        "Mds-Vo-name=local, o=grid",
        "Mds-Host-hn=host0.mcs.anl.gov, Mds-Vo-name=local, o=grid",
    )
    scopes = (SCOPE_SUB, SCOPE_SUB, SCOPE_SUB, SCOPE_ONE, SCOPE_BASE)
    for trial in range(120):
        text = _random_filter(filter_rng)
        base = bases[int(filter_rng.integers(0, len(bases)))]
        scope = scopes[int(filter_rng.integers(0, len(scopes)))]
        attributes = None if filter_rng.random() < 0.7 else ["Mds-Os-name", "objectclass"]
        got, want = _both(dit, base, scope, text, attributes)
        assert got == want, f"trial {trial}: filter {text!r} diverged ({scope} at {base})"


def test_differential_survives_mutation():
    """Answers follow add/upsert/delete, asked twice after each step."""
    hub = RngHub(seed=7)
    rng = hub.stream("ldap", "mutation")
    dit = _build_dit(rng, hosts=6)
    questions = (
        "(objectclass=MdsHost)",
        "(Mds-Os-name=plan9)",
        "(Mds-Cpu-Free>=50)",
        "(&(objectclass=MdsHost)(Mds-Os-name=Linux))",
        "(|(Mds-Os-name=Plan9)(Mds-Os-name=SunOS))",
    )
    mutations = (
        lambda: dit.delete(
            dit.get("Mds-Host-hn=host2.mcs.anl.gov, Mds-Vo-name=local, o=grid").dn, recursive=True
        ),
        lambda: dit.upsert(
            Entry(
                "Mds-Host-hn=host3.mcs.anl.gov, Mds-Vo-name=local, o=grid",
                {"objectclass": "MdsHost", "Mds-Os-name": "Plan9", "Mds-Cpu-Free": "99"},
            )
        ),
        lambda: dit.add(
            Entry(
                "Mds-Host-hn=fresh.mcs.anl.gov, Mds-Vo-name=local, o=grid",
                {"objectclass": "MdsHost", "Mds-Os-name": "Linux"},
            )
        ),
    )
    for step, mutate in enumerate(mutations):
        mutate()
        for text in questions:
            for ask in range(2):
                got, want = _both(dit, "o=grid", SCOPE_SUB, text, None)
                assert got == want, f"filter {text!r} diverged after mutation {step} (ask {ask})"


def test_numeric_string_equality_matches_scan():
    """Equality matches numerically first: (a=7.0) must find value "7"."""
    dit = DIT()
    dit.add(Entry("o=grid", {"objectclass": "organization"}))
    dit.add(Entry("cn=a, o=grid", {"objectclass": "x", "Mds-Cpu-Free": "7"}))
    dit.add(Entry("cn=b, o=grid", {"objectclass": "x", "Mds-Cpu-Free": "7.0"}))
    dit.add(Entry("cn=c, o=grid", {"objectclass": "x", "Mds-Cpu-Free": "seven"}))
    for text in ("(Mds-Cpu-Free=7.0)", "(Mds-Cpu-Free=7)", "(Mds-Cpu-Free=SEVEN)"):
        got, want = _both(dit, "o=grid", SCOPE_SUB, text, None)
        assert got == want
    assert len(dit.search("o=grid", SCOPE_SUB, "(Mds-Cpu-Free=7.0)")) == 2


def test_filter_object_search_differential():
    """search() accepts pre-parsed Filter objects, like the oracle."""
    dit = _build_dit(RngHub(seed=5).stream("ldap", "obj"), hosts=5)
    flt = parse_filter("(&(objectclass=MdsHost)(Mds-Cpu-Free>=2))")
    got, want = _both(dit, "o=grid", SCOPE_SUB, flt, None)
    assert got == want
