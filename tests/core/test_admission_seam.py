"""The service seam both runtimes share: one admission rule, one expose phase.

The differential test drives one scripted burst at a DES
``kernel_service`` and at a ``LiveService`` and requires the same
:class:`~repro.core.admission.ServiceStats` and the same arguments to
``conn_overhead.latency``.  The live side runs on a stepped clock, so
nothing here depends on wall time.
"""

import asyncio
import heapq

import pytest

from repro.core.admission import Admission, ServiceStats
from repro.core.components import System
from repro.core.desruntime import kernel_service
from repro.core.kernels.build import connect_plan, expose_plan, materialize_plan
from repro.core.kernels.ops import Compute, CrashSelf, KernelResponse, KernelSpec
from repro.core.params import default_params
from repro.core.runner import new_run
from repro.core.topology.catalog import catalog_entries
from repro.core.topology.plan import (
    AggregateSpec,
    DeploymentPlan,
    Edge,
    EdgeKind,
    PlanError,
    ServerSpec,
)
from repro.live.runtime import AsyncioRuntime, LiveLock, LiveService
from repro.sim.resources import Mutex
from repro.sim.rpc import call

# -- (a) differential admission ------------------------------------------------

#: Six arrivals 1 ms apart, all inside the first one's 1 s of service:
#: two take the threads, one takes the backlog slot, three are refused.
#: (Exactly tied arrivals would be ordered by the DES heap's slot-grant
#: hop, which asyncio has no counterpart for; 1 ms keeps the order
#: unambiguous on both.)  One admitted request raises, one crashes the
#: service, and two latecomers then find it crashed.
BURST = [(0.000, "raise"), (0.001, "ok"), (0.002, "crash"),
         (0.003, "ok"), (0.004, "ok"), (0.005, "ok"),
         (5.000, "ok"), (5.001, "ok")]


class RecordingOverhead:
    """A ``conn_overhead`` that logs the concurrency it was asked about."""

    def __init__(self):
        self.seen = []

    def latency(self, concurrent):
        self.seen.append(concurrent)
        return 0.25


def burst_spec(overhead):
    def handle(payload):
        yield Compute(1.0)
        if payload == "raise":
            raise ValueError("scripted application error")
        if payload == "crash":
            yield CrashSelf("scripted", "scripted crash")
        return KernelResponse(value=payload, size=64)

    return KernelSpec("burst", handle, max_threads=2, backlog=1, conn_overhead=overhead)


def des_burst():
    overhead = RecordingOverhead()
    run = new_run(seed=1, monitored=())
    service = kernel_service(
        run.sim, run.net, run.testbed.lucky["lucky7"], burst_spec(overhead)
    )
    client = run.testbed.lucky["lucky6"]

    def one(delay, payload):
        yield run.sim.timeout(delay)
        try:
            yield from call(run.sim, run.net, client, service, payload)
        except Exception:
            pass

    for delay, payload in BURST:
        run.sim.spawn(one(delay, payload))
    run.sim.run(until=60.0)
    return service.stats, overhead.seen, service.concurrent


class StepClock:
    """Model time that moves only when every task is parked on it."""

    def __init__(self):
        self.t = 0.0
        self._sleepers = []

    def now(self):
        return self.t

    async def sleep(self, seconds):
        if seconds > 0:
            wake = asyncio.get_running_loop().create_future()
            heapq.heappush(self._sleepers, (self.t + seconds, len(self._sleepers), wake))
            await wake

    async def run(self, tasks):
        while not all(task.done() for task in tasks):
            for _ in range(20):  # let every runnable task reach its next park
                await asyncio.sleep(0)
            if self._sleepers:
                self.t, _, wake = heapq.heappop(self._sleepers)
                wake.set_result(None)


def live_burst():
    overhead = RecordingOverhead()

    async def main():
        clock = StepClock()
        service = LiveService(burst_spec(overhead), clock)

        async def one(delay, payload):
            await clock.sleep(delay)
            try:
                await service.request(payload)
            except Exception:
                pass

        tasks = [asyncio.ensure_future(one(d, p)) for d, p in BURST]
        await clock.run(tasks)
        return service

    service = asyncio.run(main())
    return service.stats, overhead.seen, service.admission.open


def test_des_and_live_admit_the_same_burst_the_same_way():
    des_stats, des_overheads, des_open = des_burst()
    live_stats, live_overheads, live_open = live_burst()
    assert type(des_stats) is type(live_stats) is ServiceStats
    for field in ("arrived", "refused", "completed", "errors", "dropped", "max_concurrent"):
        assert getattr(des_stats, field) == getattr(live_stats, field), field
    assert des_stats.arrived == 8
    assert des_stats.refused == 5  # three past the accept queue, two after the crash
    assert des_stats.completed == 1
    assert des_stats.errors == 2  # the raise and the crash
    assert des_stats.max_concurrent == 3
    # Overhead is computed from the handlers running once the slot is
    # held: 1, then 2, then 2 again for the request promoted from the queue.
    assert des_overheads == live_overheads == [1, 2, 2]
    assert des_stats.busy_time == pytest.approx(live_stats.busy_time)
    assert des_open == live_open == 0


def test_admission_conserves_every_arrival():
    adm = Admission(max_threads=1, backlog=1)
    adm.arrive()
    assert adm.enter("a")
    adm.arrive()
    assert not adm.full()
    assert not adm.enter("b")  # parked
    adm.arrive()
    assert adm.full()
    adm.refuse(now=3.0)
    assert adm.leave(True, 1.5) == "b"  # slot passes on; active never dips
    assert (adm.active, adm.queued) == (1, 0)
    assert adm.leave(False, 0.5) is None
    s = adm.stats
    assert s.arrived == s.refused + s.completed + s.errors + adm.open == 3
    assert s.refusal_log == [3.0] and s.busy_time == 2.0


def test_a_queued_request_that_goes_away_is_an_error_not_a_leak():
    adm = Admission(max_threads=1, backlog=2)
    for waiter in ("a", "b", "c"):
        adm.arrive()
        adm.enter(waiter)
    adm.abandon("b")
    assert adm.leave(True, 0.0) == "c"
    assert adm.leave(True, 0.0) is None
    assert adm.stats.arrived == adm.stats.completed + adm.stats.errors == 3
    assert adm.open == 0


# -- (c) one expose phase ------------------------------------------------------


def des_exposure(plan):
    run = new_run(seed=1, monitored=())
    objects, extras, services = {}, {}, {}
    materialize_plan(plan, objects, extras)
    connect_plan(plan, objects, extras)
    rows = []
    for name, spec, kspec in expose_plan(
        plan, objects, extras, default_params(),
        make_lock=lambda n: Mutex(run.sim, name=n), wire=False, services=services,
    ):
        services[name] = kernel_service(run.sim, run.net, run.testbed.lucky["lucky0"], kspec)
        rows.append((name, kspec.name, kspec.max_threads, kspec.backlog))
    return rows


def live_exposure(plan):
    dep = AsyncioRuntime().compile(plan)
    return [
        (name, svc.spec.name, svc.spec.max_threads, svc.spec.backlog)
        for name, svc in dep.services.items()
    ]


@pytest.mark.parametrize("entry", sorted(catalog_entries()))
def test_both_runtimes_expose_the_same_services(entry):
    plan = catalog_entries()[entry]()
    rows = des_exposure(plan)
    assert rows == live_exposure(plan)
    assert plan.entry in {name for name, *_ in rows}


def test_side_doors_are_exposed_on_both_runtimes():
    names = {name for name, *_ in live_exposure(catalog_entries()["faults-mds-registration"]())}
    assert "giis:registration" in names
    names = {name for name, *_ in live_exposure(catalog_entries()["faults-hawkeye-advertise"]())}
    assert "manager:ingest" in names


@pytest.mark.parametrize("system", [System.MDS, System.HAWKEYE])
def test_fanout_without_children_is_a_plan_error_on_both(system):
    plan = DeploymentPlan(
        system, "childless",
        (AggregateSpec("top", host="lucky0", variant="fanout"),),
        entry="top",
    )
    with pytest.raises(PlanError, match="no aggregation edges"):
        des_exposure(plan)
    with pytest.raises(PlanError, match="no aggregation edges"):
        AsyncioRuntime().compile(plan)


def test_an_unknown_variant_is_a_plan_error_on_both():
    plan = DeploymentPlan(
        System.MDS, "odd", (ServerSpec("gris", host="lucky7", variant="turbo"),), entry="gris"
    )
    with pytest.raises(PlanError, match="no 'turbo'"):
        des_exposure(plan)
    with pytest.raises(PlanError, match="no 'turbo'"):
        AsyncioRuntime().compile(plan)


def test_a_target_declared_after_its_caller_is_a_plan_error():
    plan = DeploymentPlan(
        System.RGMA, "backwards",
        (
            ServerSpec("cs", host="uc:0", variant="mediator"),
            ServerSpec("ps", host="lucky3"),
        ),
        (Edge(EdgeKind.MEDIATION, "cs", "ps"),),
        entry="cs",
    )
    with pytest.raises(PlanError, match="before it"):
        AsyncioRuntime().compile(plan)


def test_expose_needs_no_lock_for_lockless_kernels():
    made = []
    plan = catalog_entries()["exp2-rgma-registry-uc"]()
    objects, extras = {}, {}
    materialize_plan(plan, objects, extras)
    connect_plan(plan, objects, extras)
    list(expose_plan(plan, objects, extras, default_params(),
                     make_lock=lambda n: made.append(n) or LiveLock(n),
                     wire=True, services={}))
    assert made == []  # the Registry serializes nothing
