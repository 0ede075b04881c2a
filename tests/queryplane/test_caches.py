"""Compile-cache behavior: LIKE regexes, filter texts, SQL parse memo."""

import pytest

from repro.ldap.compile import compile_text
from repro.relational import Database
from repro.relational.compile import like_regex
from repro.relational.sqlparser import parse_sql_cached
from tests.queryplane import oracles


def test_like_regex_cache_hits():
    like_regex.cache_clear()
    assert like_regex("host%").fullmatch("host12")
    assert not like_regex("host%").fullmatch("ghost12")
    info = like_regex.cache_info()
    assert info.hits == 1 and info.misses == 1
    # Case-insensitive, and LIKE wildcards are the only specials.
    assert like_regex("h_st.%").fullmatch("H3ST.x")
    assert not like_regex("h_st.%").fullmatch("h3stax")


def test_compiled_filter_text_cache():
    compile_text.cache_clear()
    first = compile_text("(&(objectclass=MdsHost)(Mds-Cpu-Free>=2))")
    second = compile_text("(&(objectclass=MdsHost)(Mds-Cpu-Free>=2))")
    assert first is second
    assert compile_text.cache_info().hits == 1
    assert first.predicate is second.predicate


def test_parse_sql_cached_memoizes():
    text = "SELECT * FROM t WHERE a = 1"
    assert parse_sql_cached(text) is parse_sql_cached(text)


@pytest.mark.parametrize("first", ("1", "1.0"))
def test_compiled_where_keeps_int_and_float_constants_apart(first):
    """``Constant(1) == Constant(1.0)``, but their text fallbacks differ:
    '1-' sorts after '1' and before '1.0'.  Each spelling, asked first or
    second on one table, answers like the oracle."""
    db = Database()
    db.execute("CREATE TABLE t (v VARCHAR(8))")
    table = db.table("t")
    table.insert(("1-",))
    second = "1.0" if first == "1" else "1"
    for const in (first, second, first):
        stmt = parse_sql_cached(f"SELECT * FROM t WHERE v > {const}")
        want = oracles.execute_select(table, stmt).rows
        assert db.query(f"SELECT * FROM t WHERE v > {const}").rows == want, const
        assert len(want) == (1 if const == "1" else 0)


def test_classad_compile_memoizes_per_node():
    from repro.classad import Evaluation, Literal, parse_expr
    from repro.classad.compile import compile_expr

    expr = parse_expr("CpuLoad > 0.5 && Cpus >= 2")
    assert compile_expr(expr) is compile_expr(expr)
    # Equal-but-type-distinct literals must NOT share a closure:
    # Literal(3) == Literal(3.0) under Python's cross-type equality.
    int_lit = Literal(3)
    real_lit = Literal(3.0)
    assert int_lit == real_lit
    assert compile_expr(int_lit) is not compile_expr(real_lit)
    ctx = Evaluation()
    assert isinstance(compile_expr(int_lit)(ctx), int)
    assert isinstance(compile_expr(real_lit)(ctx), float)
