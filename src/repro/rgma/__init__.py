"""R-GMA: Producers, servlets, Registry and continuous streams (paper §2.2).

Functional re-implementation of the EU DataGrid Relational Grid
Monitoring Architecture: producers publish global-schema tuples through
ProducerServlets; ConsumerServlets mediate consumer SQL via the
Registry; the StreamBroker provides the push model.  Timing is charged
by the simulation layer (``repro.core``).
"""

from repro.rgma.consumer_servlet import Consumer, ConsumerServlet, MediatedAnswer
from repro.rgma.producer import Producer, make_default_producers
from repro.rgma.producer_servlet import ProducerServlet, ServletAnswer
from repro.rgma.registry import ProducerRegistration, Registry
from repro.rgma.schema import GLOBAL_SCHEMA, STREAM_TABLES, table_ddl
from repro.rgma.streams import ContinuousQuery, StreamBroker

__all__ = [
    "Producer",
    "make_default_producers",
    "ProducerServlet",
    "ServletAnswer",
    "Registry",
    "ProducerRegistration",
    "ConsumerServlet",
    "Consumer",
    "MediatedAnswer",
    "StreamBroker",
    "ContinuousQuery",
    "GLOBAL_SCHEMA",
    "STREAM_TABLES",
    "table_ddl",
]
