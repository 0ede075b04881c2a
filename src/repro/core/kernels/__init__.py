"""Runtime-agnostic service kernels: one plan, two runtimes.

Every Table-1 role is implemented here exactly once, as a *kernel* — a
small object whose ``handle(payload)`` generator yields runtime
operations (:mod:`repro.core.kernels.ops`) and returns a
:class:`~repro.core.kernels.ops.KernelResponse` computed by the real
functional machinery (``repro.ldap`` / ``repro.relational`` /
``repro.classad``).  The background loops of a plan (publishers,
advertisers, soft-state registrars, lease sweepers) are op generators
too, yielded by :func:`~repro.core.kernels.build.activate_plan`.
Runtimes interpret the ops:

* :mod:`repro.core.desruntime` maps them onto simulator events — the
  deterministic twin, byte-identical to the pre-kernel DES handlers;
* :mod:`repro.live` maps them onto asyncio primitives behind real
  localhost listeners.

This package must stay importable with :mod:`repro.sim` absent — a
test enforces it — so kernels receive clocks, locks and call targets
as injected opaque tokens and never import a runtime.
"""

from repro.core.kernels.build import (
    activate_plan,
    bank_placements,
    connect_plan,
    expose_plan,
    materialize_plan,
)
from repro.core.kernels.hawkeye import (
    AgentKernel,
    ManagerAggregateKernel,
    ManagerDirectoryKernel,
    ManagerFanoutKernel,
    ManagerIngestKernel,
)
from repro.core.kernels.mds import (
    GiisAggregateKernel,
    GiisDirectoryKernel,
    GiisFanoutKernel,
    GiisLeafKernel,
    GiisRegistrationKernel,
    GrisKernel,
)
from repro.core.kernels.ops import (
    CLOCK,
    Acquire,
    Busy,
    Call,
    Clock,
    Compute,
    CrashSelf,
    Fanout,
    Held,
    KernelResponse,
    KernelSpec,
    QueueDepth,
    Release,
)
from repro.core.kernels.rgma import (
    ConsumerServletKernel,
    ProducerServletKernel,
    RegistryKernel,
)

__all__ = [
    # ops
    "CLOCK",
    "Acquire",
    "Busy",
    "Call",
    "Clock",
    "Compute",
    "CrashSelf",
    "Fanout",
    "Held",
    "KernelResponse",
    "KernelSpec",
    "QueueDepth",
    "Release",
    # kernels
    "GrisKernel",
    "GiisDirectoryKernel",
    "GiisAggregateKernel",
    "GiisRegistrationKernel",
    "GiisLeafKernel",
    "GiisFanoutKernel",
    "AgentKernel",
    "ManagerDirectoryKernel",
    "ManagerAggregateKernel",
    "ManagerIngestKernel",
    "ManagerFanoutKernel",
    "ProducerServletKernel",
    "ConsumerServletKernel",
    "RegistryKernel",
    # the shared compile phases
    "bank_placements",
    "materialize_plan",
    "connect_plan",
    "expose_plan",
    "activate_plan",
]
