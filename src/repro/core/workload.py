"""Closed-loop user simulation (paper §3.1).

"All requests to the servers ... occurred with a one-second wait
period.  That is, after a user queried a service component and received
a response, the user waited one second before sending its next query.
Note this does not mean that queries were sent once a second, rather,
this is equivalent to blocking sends with a 1-second wait in between."

Each simulated user is one process: issue a blocking request, record
the outcome, wait ``think_time``, repeat.  Refused connections (server
backlog full) are retried after ``retry_wait``.

The paper's future work plans "additional patterns of user access"
(§4); :data:`THINK_PATTERNS` provides them: the paper's near-constant
wait, exponential (Poisson users), heavy-tailed Pareto, and a bursty
on/off pattern.  Select with ``WorkloadParams.pattern``.
"""

from __future__ import annotations

import typing as _t

import numpy as np

from repro.core.metrics import (
    OUTCOME_ERROR,
    OUTCOME_OK,
    OUTCOME_REFUSED,
    OUTCOME_TIMEOUT,
    RequestLog,
)
from repro.core.params import WorkloadParams
from repro.errors import RequestTimeoutError, ServiceUnavailableError

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulator
    from repro.sim.host import Host
    from repro.sim.network import Network
    from repro.sim.rpc import RetryPolicy, Service

__all__ = ["spawn_users", "user_process", "THINK_PATTERNS", "make_think_sampler"]

# A think-time multiplier sampled at the moment each wait begins; the
# scenario plane uses it for diurnal/flash-crowd arrival modulation.
ThinkScale = _t.Callable[[float], float]


def _constant_pattern(wp: WorkloadParams, rng: np.random.Generator) -> _t.Callable[[], float]:
    """The paper's wait: 1 s with a little de-phasing jitter."""

    def sample() -> float:
        jitter = 1.0 + float(rng.uniform(-wp.think_jitter, wp.think_jitter))
        return wp.think_time * jitter

    return sample


def _exponential_pattern(wp: WorkloadParams, rng: np.random.Generator) -> _t.Callable[[], float]:
    """Memoryless waits with the same mean (Poisson-like users)."""

    def sample() -> float:
        return float(rng.exponential(wp.think_time))

    return sample


def _pareto_pattern(wp: WorkloadParams, rng: np.random.Generator) -> _t.Callable[[], float]:
    """Heavy-tailed waits (shape 1.5), mean matched to ``think_time``."""
    shape = 1.5
    scale = wp.think_time * (shape - 1.0) / shape  # mean = scale*shape/(shape-1)

    def sample() -> float:
        return float(scale * (1.0 + rng.pareto(shape)))

    return sample


def _onoff_pattern(wp: WorkloadParams, rng: np.random.Generator) -> _t.Callable[[], float]:
    """Bursty users: runs of quick-fire queries separated by long idles.

    Mean wait still ~``think_time``: bursts of ~8 queries at 0.1x
    spacing, then one idle of ~8x.
    """
    state = {"left": int(rng.integers(1, 9))}

    def sample() -> float:
        state["left"] -= 1
        if state["left"] > 0:
            return 0.1 * wp.think_time
        state["left"] = int(rng.integers(4, 13))
        return float(rng.exponential(7.3 * wp.think_time))

    return sample


THINK_PATTERNS: dict[str, _t.Callable[[WorkloadParams, np.random.Generator], _t.Callable[[], float]]] = {
    "constant": _constant_pattern,
    "exponential": _exponential_pattern,
    "pareto": _pareto_pattern,
    "onoff": _onoff_pattern,
}


def make_think_sampler(wp: WorkloadParams, rng: np.random.Generator) -> _t.Callable[[], float]:
    """The wait-time sampler for ``wp.pattern`` (KeyError on unknown)."""
    return THINK_PATTERNS[wp.pattern](wp, rng)


def user_process(
    sim: Simulator,
    net: Network,
    user_id: int,
    client_host: Host,
    service: Service,
    payload_fn: _t.Callable[[int], _t.Any],
    request_size: int,
    log: RequestLog,
    wp: WorkloadParams,
    rng: np.random.Generator,
    retry: RetryPolicy | None = None,
    think_scale: ThinkScale | None = None,
) -> _t.Generator:
    """One user's infinite query loop (the run(until=...) ends it).

    ``think_scale`` maps the current simulation time to a multiplier on
    the sampled wait — scenario arrival modulation.  ``None`` leaves the
    wait untouched.

    With ``retry``, each logical query runs through the policy's
    backoff/breaker loop; only the final outcome is logged, so refused
    records then mean "gave up after retries" (or a fast-fail from an
    open circuit breaker).
    """
    from repro.sim.rpc import call  # runtime-only: keeps the module sim-free at import

    think = make_think_sampler(wp, rng)
    # Desynchronize start times so users don't arrive in lockstep.
    yield sim.timeout(float(rng.uniform(0.0, wp.start_spread)))
    while True:
        started = sim.now
        try:
            yield from call(
                sim,
                net,
                client_host,
                service,
                payload_fn(user_id),
                size=request_size,
                timeout=wp.request_timeout,
                retry=retry,
            )
            log.add(user_id, started, sim.now, OUTCOME_OK)
        except ServiceUnavailableError:
            log.add(user_id, started, sim.now, OUTCOME_REFUSED)
            yield sim.timeout(wp.retry_wait)
            continue
        except RequestTimeoutError:
            log.add(user_id, started, sim.now, OUTCOME_TIMEOUT)
        except Exception:  # an error reply re-raises whatever the handler raised
            log.add(user_id, started, sim.now, OUTCOME_ERROR)
        # The paper's 1-second wait by default (with a little jitter so
        # hundreds of identical closed loops don't phase-lock into
        # request waves); other access patterns via wp.pattern.
        wait = think()
        if think_scale is not None:
            wait *= think_scale(sim.now)
        yield sim.timeout(wait)


def spawn_users(
    sim: Simulator,
    net: Network,
    clients: _t.Sequence[Host],
    service: Service,
    *,
    log: RequestLog,
    wp: WorkloadParams,
    rng: np.random.Generator,
    payload_fn: _t.Callable[[int], _t.Any] = lambda uid: {"query": "all"},
    request_size: int = 512,
    services_by_user: _t.Sequence[Service] | None = None,
    retry: RetryPolicy | None = None,
    think_scale: ThinkScale | None = None,
    first_id: int = 0,
) -> int:
    """Start one user process per entry of ``clients``.

    ``services_by_user`` optionally routes each user to its own service
    (the R-GMA lucky variant runs one ConsumerServlet per node).
    ``retry`` is shared by every user, so its stats accumulate the
    run-level retry amplification.  ``first_id`` offsets the user ids
    (scenario client mixes spawn the population in groups).  Returns the
    number of users started.
    """
    for offset, client in enumerate(clients):
        user_id = first_id + offset
        target = services_by_user[offset] if services_by_user is not None else service
        sim.spawn(
            user_process(
                sim,
                net,
                user_id,
                client,
                target,
                payload_fn,
                request_size,
                log,
                wp,
                rng,
                retry=retry,
                think_scale=think_scale,
            ),
            name=f"user{user_id}",
        )
    return len(clients)
