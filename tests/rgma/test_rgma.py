"""Tests for the R-GMA stack: producers, servlets, registry, mediation."""

import pytest

from repro.errors import RegistryError, SqlError
from repro.rgma import (
    Consumer,
    ConsumerServlet,
    Producer,
    ProducerServlet,
    Registry,
    make_default_producers,
)
from repro.rgma.schema import GLOBAL_SCHEMA


@pytest.fixture
def deployment():
    """The Experiment-1 R-GMA layout: one ProducerServlet, 10 producers."""
    registry = Registry()
    servlet = ProducerServlet("lucky3-ps")
    for producer in make_default_producers("lucky3.mcs.anl.gov", 10, seed=7):
        servlet.attach(producer, registry, now=0.0)
    servlet.publish_all(now=1.0)
    resolver = {"lucky3-ps": servlet}
    cs = ConsumerServlet("uc-cs", registry, resolver.__getitem__)
    return registry, servlet, cs


# -- producers ---------------------------------------------------------------


def test_default_producers_cycle_tables():
    producers = make_default_producers("h", 10)
    assert len(producers) == 10
    tables = {p.table for p in producers}
    assert tables == {"cpuLoad", "memoryUsage", "networkTraffic", "diskUsage", "processCount"}


def test_producer_rejects_unknown_table():
    with pytest.raises(RegistryError):
        Producer("p", "noSuchTable", "h")


def test_producer_measure_rows_match_schema():
    producer = Producer("p1", "cpuLoad", "lucky3", seed=3)
    row = producer.measure(now=12.0)
    assert row["producerId"] == "p1"
    assert row["hostName"] == "lucky3"
    assert row["timestamp"] == 12.0
    assert 0.0 <= row["load1"] <= 2.0
    assert set(row) <= set(producer.columns())


def test_producer_default_predicate():
    producer = Producer("p1", "cpuLoad", "lucky3")
    assert producer.predicate == "WHERE hostName = 'lucky3'"


# -- registry ----------------------------------------------------------------


def test_registry_register_and_lookup(deployment):
    registry, _servlet, _cs = deployment
    regs = registry.lookup("cpuLoad", now=0.0)
    assert len(regs) == 2  # 10 producers over 5 tables
    assert all(r.servlet == "lucky3-ps" for r in regs)


def test_registry_reregistration_replaces():
    registry = Registry()
    registry.register("p1", "cpuLoad", "s1", now=0.0)
    registry.register("p1", "cpuLoad", "s2", now=10.0)
    regs = registry.lookup("cpuLoad", now=10.0)
    assert len(regs) == 1
    assert regs[0].servlet == "s2"


def test_registry_lease_expiry_and_sweep():
    registry = Registry()
    registry.register("p1", "cpuLoad", "s1", now=0.0, lease=100.0)
    assert registry.lookup("cpuLoad", now=50.0)
    assert registry.lookup("cpuLoad", now=150.0) == []
    assert registry.sweep(now=150.0) == 1
    assert registry.producer_count(now=150.0) == 0


def test_registry_unknown_table_rejected():
    registry = Registry()
    with pytest.raises(RegistryError):
        registry.register("p1", "nope", "s1")


def test_registry_describe():
    registry = Registry()
    columns = registry.describe("cpuLoad")
    assert ("load1", "REAL") in columns
    with pytest.raises(RegistryError):
        registry.describe("nope")


def test_registry_predicate_with_quote_is_escaped():
    registry = Registry()
    registry.register("p1", "cpuLoad", "s1", predicate="WHERE hostName = 'o''brien'")
    assert registry.lookup("cpuLoad")[0].predicate == "WHERE hostName = 'o''brien'"


# -- producer servlet ---------------------------------------------------------


def test_servlet_buffers_and_answers(deployment):
    _registry, servlet, _cs = deployment
    answer = servlet.answer("SELECT * FROM cpuLoad")
    assert len(answer.result.rows) == 2  # one tuple per cpuLoad producer
    assert answer.producers_touched == 2


def test_servlet_where_filtering(deployment):
    _registry, servlet, _cs = deployment
    answer = servlet.answer("SELECT load1 FROM cpuLoad WHERE load1 >= 0")
    assert all(row[0] >= 0 for row in answer.result.rows)


def test_servlet_rejects_non_select(deployment):
    _registry, servlet, _cs = deployment
    with pytest.raises(SqlError):
        servlet.answer("DELETE FROM cpuLoad")


def test_servlet_unknown_table(deployment):
    _registry, servlet, _cs = deployment
    with pytest.raises(RegistryError):
        servlet.answer("SELECT * FROM secrets")


def test_servlet_empty_table_answer():
    servlet = ProducerServlet("s")
    answer = servlet.answer("SELECT * FROM cpuLoad")
    assert answer.result.rows == []


def test_servlet_duplicate_attach_rejected():
    servlet = ProducerServlet("s")
    producer = Producer("p1", "cpuLoad", "h")
    servlet.attach(producer)
    with pytest.raises(RegistryError):
        servlet.attach(producer)


def test_servlet_history_trim():
    servlet = ProducerServlet("s", history_rows=5)
    servlet.attach(Producer("p1", "cpuLoad", "h", seed=1))
    for t in range(12):
        servlet.publish("p1", now=float(t))
    answer = servlet.answer("SELECT timestamp FROM cpuLoad ORDER BY timestamp")
    stamps = [row[0] for row in answer.result.rows]
    assert len(stamps) == 5
    assert stamps == [7.0, 8.0, 9.0, 10.0, 11.0]  # oldest trimmed


def test_servlet_publish_unknown_producer():
    servlet = ProducerServlet("s")
    with pytest.raises(RegistryError):
        servlet.publish("ghost", now=0.0)


def test_servlet_counts_follow_attach_and_detach():
    servlet = ProducerServlet("s")
    producers = make_default_producers("h", 10)
    for producer in producers:
        servlet.attach(producer)
    assert servlet.detach(producers[0].producer_id)
    assert not servlet.detach(producers[0].producer_id)
    assert servlet.producer_count == len(servlet.producers) == 9
    for table in GLOBAL_SCHEMA:
        want = sum(p.table == table for p in servlet.producers)
        assert servlet.answer(f"SELECT * FROM {table}").producers_touched == want


# -- mediation ------------------------------------------------------------


def test_consumer_mediated_query(deployment):
    _registry, _servlet, cs = deployment
    consumer = Consumer("u1")
    cs.attach(consumer)
    answer = consumer.query("SELECT hostName, load1 FROM cpuLoad", now=1.0)
    assert answer.producers_matched == 2
    assert answer.servlets_contacted == ["lucky3-ps"]
    assert len(answer.rows) == 2
    assert answer.columns == ("hostName", "load1")


def test_mediation_merges_multiple_servlets():
    registry = Registry()
    servlets = {}
    for host in ("lucky3", "lucky4"):
        servlet = ProducerServlet(f"{host}-ps")
        servlet.attach(Producer(f"{host}/p0", "cpuLoad", host, seed=1), registry)
        servlet.publish_all(now=0.0)
        servlets[f"{host}-ps"] = servlet
    cs = ConsumerServlet("cs", registry, servlets.__getitem__)
    answer = cs.query("SELECT hostName FROM cpuLoad")
    assert sorted(r[0] for r in answer.rows) == ["lucky3", "lucky4"]
    assert len(answer.servlets_contacted) == 2


def test_mediation_no_producers_gives_schema_columns():
    registry = Registry()
    cs = ConsumerServlet("cs", registry, lambda name: (_ for _ in ()).throw(KeyError(name)))
    answer = cs.query("SELECT * FROM cpuLoad")
    assert answer.rows == []
    assert "load1" in answer.columns


def test_consumer_servlet_capacity_limit():
    registry = Registry()
    cs = ConsumerServlet("cs", registry, lambda n: None, max_consumers=2)
    cs.attach(Consumer("a"))
    cs.attach(Consumer("b"))
    with pytest.raises(RegistryError):
        cs.attach(Consumer("c"))
    assert cs.consumer_count == 2
    assert cs.detach("a")
    cs.attach(Consumer("c"))


def test_unattached_consumer_cannot_query():
    with pytest.raises(RegistryError):
        Consumer("zombie").query("SELECT * FROM cpuLoad")


def test_consumer_rejects_non_select(deployment):
    _registry, _servlet, cs = deployment
    consumer = Consumer("u")
    cs.attach(consumer)
    with pytest.raises(SqlError):
        consumer.query("INSERT INTO cpuLoad VALUES (1)")
