"""Differential corpus: the executor against the interpreted oracle.

Random rows (including NULLs and numeric strings) and random WHERE
clauses run through ``select_rowids`` and through the oracle's
first-bucket-or-scan interpreter (``tests/queryplane/oracles.py``);
rowids, result rows and ORDER BY/LIMIT output must be identical whether
the executor pruned with hash/sorted indexes and a compiled row closure
or the oracle walked the tree per row.
"""

from repro.relational import Database, parse_sql
from repro.relational.executor import execute_select, select_rowids
from repro.sim.randomness import RngHub
from tests.queryplane import oracles

_SITES = ("anl", "uc", "isi", None)
_NOTES = ("ok", "OK", "7", "7.0", "nan", "warm spare", None, "1e2")


def _build_db(rng, rows: int) -> Database:
    db = Database()
    db.execute(
        "CREATE TABLE cpuLoad (host VARCHAR(64), load1 REAL, cpus INT, "
        "site VARCHAR(16), note VARCHAR(32))"
    )
    table = db.table("cpuLoad")
    for i in range(rows):
        load = None if rng.random() < 0.15 else round(float(rng.random()) * 4, 3)
        cpus = None if rng.random() < 0.1 else int(rng.integers(1, 9))
        table.insert(
            (
                f"host{int(rng.integers(0, rows // 2 + 1))}",
                load,
                cpus,
                _SITES[int(rng.integers(0, len(_SITES)))],
                _NOTES[int(rng.integers(0, len(_NOTES)))],
            )
        )
    table.create_index("host")
    table.create_index("site")
    table.create_index("note")
    table.create_sorted_index("load1")
    table.create_sorted_index("cpus")
    table.create_sorted_index("note")
    return db

_COLUMNS = ("host", "load1", "cpus", "site", "note")
_OPS = ("=", "!=", "<", "<=", ">", ">=")


def _random_const(rng) -> str:
    roll = rng.random()
    if roll < 0.4:
        return str(round(float(rng.random()) * 4, 2))
    if roll < 0.55:
        return str(int(rng.integers(0, 9)))
    pool = ("'host1'", "'host3'", "'anl'", "'uc'", "'ok'", "'7'", "'7.0'", "'warm spare'")
    return pool[int(rng.integers(0, len(pool)))]


def _random_where(rng, depth: int = 0) -> str:
    roll = rng.random() if depth < 3 else 1.0
    if roll < 0.18:
        return f"({_random_where(rng, depth + 1)}) AND ({_random_where(rng, depth + 1)})"
    if roll < 0.36:
        return f"({_random_where(rng, depth + 1)}) OR ({_random_where(rng, depth + 1)})"
    if roll < 0.44:
        return f"NOT ({_random_where(rng, depth + 1)})"
    column = _COLUMNS[int(rng.integers(0, len(_COLUMNS)))]
    leaf = rng.random()
    if leaf < 0.45:
        op = _OPS[int(rng.integers(0, len(_OPS)))]
        const = _random_const(rng)
        if rng.random() < 0.25:  # constant on the left
            return f"{const} {op} {column}"
        return f"{column} {op} {const}"
    if leaf < 0.65:
        values = ", ".join(_random_const(rng) for _ in range(int(rng.integers(1, 4))))
        neg = "NOT " if rng.random() < 0.3 else ""
        return f"{column} {neg}IN ({values})"
    if leaf < 0.80:
        neg = "NOT " if rng.random() < 0.3 else ""
        pattern = ("host%", "%o%", "h_st1", "7%")[int(rng.integers(0, 4))]
        return f"{column} {neg}LIKE '{pattern}'"
    neg = "NOT " if rng.random() < 0.3 else ""
    return f"{column} IS {neg}NULL"


def test_differential_where_corpus():
    hub = RngHub(seed=20260808)
    db = _build_db(hub.stream("sql", "data"), rows=40)
    table = db.table("cpuLoad")
    rng = hub.stream("sql", "where")
    for trial in range(150):
        where_text = _random_where(rng)
        stmt = parse_sql(f"SELECT * FROM cpuLoad WHERE {where_text}")
        got, _, _ = select_rowids(table, stmt.where)
        want, _, _ = oracles.select_rowids(table, stmt.where)
        assert got == want, f"trial {trial}: WHERE {where_text} diverged"


def test_differential_full_select():
    """ORDER BY / LIMIT / projection agree with the oracle."""
    hub = RngHub(seed=11)
    db = _build_db(hub.stream("sql", "data2"), rows=30)
    table = db.table("cpuLoad")
    rng = hub.stream("sql", "select")
    for _ in range(40):
        where_text = _random_where(rng)
        stmt = parse_sql(
            "SELECT host, load1, note FROM cpuLoad "
            f"WHERE {where_text} ORDER BY load1 DESC, host LIMIT 7"
        )
        got = execute_select(table, stmt)
        want = oracles.execute_select(table, stmt)
        assert got.rows == want.rows, f"WHERE {where_text} diverged"


def test_differential_after_delete():
    """Sorted/hash index maintenance across DELETE keeps answers identical."""
    hub = RngHub(seed=23)
    db = _build_db(hub.stream("sql", "data3"), rows=25)
    table = db.table("cpuLoad")
    db.execute("DELETE FROM cpuLoad WHERE load1 > 2.0")
    db.execute("DELETE FROM cpuLoad WHERE site = 'uc'")
    rng = hub.stream("sql", "where3")
    for _ in range(60):
        where_text = _random_where(rng)
        stmt = parse_sql(f"SELECT * FROM cpuLoad WHERE {where_text}")
        got, _, _ = select_rowids(table, stmt.where)
        want, _, _ = oracles.select_rowids(table, stmt.where)
        assert got == want, f"WHERE {where_text} diverged after deletes"


def test_numeric_string_index_matches_scan():
    """'7' = '7.0' numerically; the hash index must key them together."""
    db = Database()
    db.execute("CREATE TABLE t (tag VARCHAR(8))")
    table = db.table("t")
    for tag in ("7", "7.0", "seven", "NaN", None):
        table.insert((tag,))
    table.create_index("tag")
    for where in ("tag = '7.0'", "tag = '7'", "tag = 'SEVEN'", "tag = 'nan'"):
        stmt = parse_sql(f"SELECT * FROM t WHERE {where}")
        got, _, indexed = select_rowids(table, stmt.where)
        want, _, _ = oracles.select_rowids(table, stmt.where)
        assert indexed
        assert got == want
    # Numeric-string unification: both spellings land in one bucket.
    assert len(db.query("SELECT * FROM t WHERE tag = '7.00'").rows) == 2


def test_range_candidates_cover_text_rows():
    """Sorted-index range pruning keeps rows that only match lexicographically."""
    db = Database()
    db.execute("CREATE TABLE t (v VARCHAR(8))")
    table = db.table("t")
    for v in ("1", "50", "9", "abc", "zzz", None):
        table.insert((v,))
    table.create_sorted_index("v")
    for where in ("v > 10", "v >= '5'", "v < 100", "v <= 'b'"):
        stmt = parse_sql(f"SELECT * FROM t WHERE {where}")
        got, _, _ = select_rowids(table, stmt.where)
        want, _, _ = oracles.select_rowids(table, stmt.where)
        assert got == want, f"WHERE {where} diverged"


# Int/float twins of one number, and text that sorts between the twins'
# spellings: '1' < '1-' < '1.0' < '1/' < '10' as text.
_TWINS = (("1", "1.0"), ("2", "2.0"), ("10", "10.0"), ("0", "0.0"))
_BETWEEN = ("1-", "1/", "10", "2-", "2/", "0-", "0/", "1", "2.5")


def _twin_where(rng) -> tuple[str, str]:
    """A random WHERE over a text and a numeric column, and its twin
    with every integer constant respelled as a float (or back)."""
    parts, twins = [], []
    for _ in range(int(rng.integers(1, 3))):
        column = ("note", "note", "cpus")[int(rng.integers(0, 3))]
        op = _OPS[int(rng.integers(0, len(_OPS)))]
        pair = _TWINS[int(rng.integers(0, len(_TWINS)))]
        flip = int(rng.integers(0, 2))
        parts.append(f"{column} {op} {pair[flip]}")
        twins.append(f"{column} {op} {pair[1 - flip]}")
    joiner = (" AND ", " OR ")[int(rng.integers(0, 2))]
    return joiner.join(parts), joiner.join(twins)


def test_differential_int_float_twins():
    """Each query and then its twin, on one table, each against the oracle.

    The twins are equal trees (``Constant(1) == Constant(1.0)``) whose
    text fallbacks differ, so a compiled-WHERE cache that let them share
    a closure answers one of them wrongly.  Fresh parses, too, so a cache
    keyed on a freed tree's recycled ``id`` would show.
    """
    hub = RngHub(seed=20261015)
    rng = hub.stream("sql", "twins")
    db = Database()
    db.execute("CREATE TABLE t (note VARCHAR(8), cpus INT)")
    table = db.table("t")
    for note in _BETWEEN:
        table.insert((note, int(rng.integers(0, 12))))
    table.create_sorted_index("note")
    mismatches = 0
    for trial in range(200):
        where, twin = _twin_where(rng)
        for text in (where, twin, where):
            stmt = parse_sql(f"SELECT * FROM t WHERE {text}")
            got, _, _ = select_rowids(table, stmt.where)
            want, _, _ = oracles.select_rowids(table, stmt.where)
            assert got == want, f"trial {trial}: WHERE {text} diverged after its twin"
        first, _, _ = oracles.select_rowids(table, parse_sql(f"SELECT * FROM t WHERE {where}").where)
        second, _, _ = oracles.select_rowids(table, parse_sql(f"SELECT * FROM t WHERE {twin}").where)
        mismatches += first != second
    assert mismatches > 20  # the twins really do answer differently
