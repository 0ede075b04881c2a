"""Tests for the push model: continuous queries over streams."""

import pytest

from repro.errors import SqlError
from repro.rgma import Producer, StreamBroker


@pytest.fixture
def broker():
    return StreamBroker()


def test_subscribe_and_receive(broker):
    seen = []
    broker.subscribe("s1", "SELECT * FROM cpuLoad", seen.append)
    delivered = broker.publish(
        "cpuLoad",
        {"producerId": "p", "hostName": "h", "timestamp": 1.0, "load1": 0.4, "load5": 0.3, "load15": 0.2},
    )
    assert delivered == 1
    assert seen[0]["load1"] == 0.4


def test_where_clause_filters_stream(broker):
    """The paper's example: notify when the load reaches some maximum."""
    alerts = []
    broker.subscribe("alarm", "SELECT hostName, load1 FROM cpuLoad WHERE load1 > 1.5", alerts.append)
    for load in (0.5, 1.0, 1.8, 0.2, 1.9):
        broker.publish(
            "cpuLoad",
            {"producerId": "p", "hostName": "h", "timestamp": 0.0,
             "load1": load, "load5": load, "load15": load},
        )
    assert [a["load1"] for a in alerts] == [1.8, 1.9]
    assert broker.deliveries == 2
    assert broker.published == 5


def test_projection_in_stream(broker):
    seen = []
    broker.subscribe("s", "SELECT hostName FROM cpuLoad", seen.append)
    broker.publish(
        "cpuLoad",
        {"producerId": "p", "hostName": "lucky0", "timestamp": 0.0,
         "load1": 0.1, "load5": 0.1, "load15": 0.1},
    )
    assert seen == [{"hostName": "lucky0"}]


def test_table_isolation(broker):
    cpu_seen, mem_seen = [], []
    broker.subscribe("cpu", "SELECT * FROM cpuLoad", cpu_seen.append)
    broker.subscribe("mem", "SELECT * FROM memoryUsage", mem_seen.append)
    broker.publish("memoryUsage", {"producerId": "p", "hostName": "h", "timestamp": 0.0, "totalMB": 512, "freeMB": 100})
    assert not cpu_seen
    assert len(mem_seen) == 1


def test_unsubscribe_stops_delivery(broker):
    seen = []
    broker.subscribe("s", "SELECT * FROM cpuLoad", seen.append)
    assert broker.unsubscribe("s")
    assert not broker.unsubscribe("s")
    broker.publish(
        "cpuLoad",
        {"producerId": "p", "hostName": "h", "timestamp": 0.0, "load1": 1.0, "load5": 1.0, "load15": 1.0},
    )
    assert seen == []
    assert broker.subscription_count == 0


def test_multiple_subscribers_each_delivered(broker):
    counts = [0, 0]

    def cb(i):
        def inner(_row):
            counts[i] += 1
        return inner

    broker.subscribe("a", "SELECT * FROM cpuLoad", cb(0))
    broker.subscribe("b", "SELECT * FROM cpuLoad WHERE load1 > 10", cb(1))
    broker.publish(
        "cpuLoad",
        {"producerId": "p", "hostName": "h", "timestamp": 0.0, "load1": 1.0, "load5": 1.0, "load15": 1.0},
    )
    assert counts == [1, 0]


def test_bad_subscription_rejected(broker):
    with pytest.raises(SqlError):
        broker.subscribe("s", "DELETE FROM cpuLoad", print)
    with pytest.raises(SqlError):
        broker.subscribe("s", "SELECT * FROM nope", print)


def test_publish_unknown_table_rejected(broker):
    with pytest.raises(SqlError):
        broker.publish("nope", {})


def test_producer_feeds_stream(broker):
    """Producer/Consumer pairing for notification (paper §2.2)."""
    producer = Producer("p1", "cpuLoad", "lucky3", seed=5)
    got = []
    broker.subscribe("watch", "SELECT load1 FROM cpuLoad WHERE hostName = 'lucky3'", got.append)
    for t in range(5):
        broker.publish("cpuLoad", producer.measure(float(t)))
    assert len(got) == 5


def _cpu_row(load1=1.0):
    return {"producerId": "p", "hostName": "h", "timestamp": 0.0,
            "load1": load1, "load5": load1, "load15": load1}


def test_unknown_where_column_rejected_at_subscribe(broker):
    seen = []
    broker.subscribe("good", "SELECT * FROM cpuLoad", seen.append)
    with pytest.raises(SqlError):
        broker.subscribe("bad", "SELECT * FROM cpuLoad WHERE nosuch > 1", print)
    assert broker.publish("cpuLoad", _cpu_row()) == 1
    assert len(seen) == 1 and broker.subscription_count == 1


def test_unknown_projected_column_rejected_at_subscribe(broker):
    seen = []
    broker.subscribe("good", "SELECT hostName FROM cpuLoad", seen.append)
    with pytest.raises(SqlError):
        broker.subscribe("bad", "SELECT nosuch FROM cpuLoad", print)
    assert broker.publish("cpuLoad", _cpu_row()) == 1
    assert seen == [{"hostName": "h"}]


def test_subscribing_an_id_twice_is_rejected(broker):
    seen = []
    broker.subscribe("s", "SELECT * FROM cpuLoad", seen.append)
    with pytest.raises(SqlError):
        broker.subscribe("s", "SELECT * FROM cpuLoad", seen.append)
    assert broker.publish("cpuLoad", _cpu_row()) == 1
    assert len(seen) == 1


def test_an_id_moves_to_another_table_only_through_unsubscribe(broker):
    seen = []
    broker.subscribe("s", "SELECT * FROM cpuLoad", seen.append)
    with pytest.raises(SqlError):
        broker.subscribe("s", "SELECT * FROM memoryUsage", seen.append)
    assert broker.unsubscribe("s")
    broker.subscribe("s", "SELECT freeMB FROM memoryUsage", seen.append)
    assert broker.publish("cpuLoad", _cpu_row()) == 0
    memory = {"producerId": "p", "hostName": "h", "timestamp": 0.0, "totalMB": 512, "freeMB": 100}
    assert broker.publish("memoryUsage", memory) == 1
    assert seen == [{"freeMB": 100}]
