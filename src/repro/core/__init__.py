"""The study harness — the paper's primary contribution, reproduced.

``repro.core`` turns the three functional systems plus the simulated
testbed into the benchmark methodology of the paper:

* :mod:`repro.core.components` — Table 1's component/role mapping;
* :mod:`repro.core.params` — calibrated cost models (see DESIGN.md §2);
* :mod:`repro.core.testbed` — the Lucky/UC topology;
* :mod:`repro.core.workload` — blocking closed-loop users, 1 s waits;
* :mod:`repro.core.metrics` — throughput/response/load/load1 estimators;
* :mod:`repro.core.kernels` — runtime-agnostic service kernels and the
  shared materialize/connect/expose compile phases;
* :mod:`repro.core.admission` — the one admission rule and ServiceStats;
* :mod:`repro.core.desruntime` — kernels bound to the simulated runtime;
* :mod:`repro.core.runner` — per-point orchestration;
* :mod:`repro.core.experiments` — the four experiment sets (§3.3-§3.6);
* :mod:`repro.core.study` — the experiment sets and claims, declared;
* :mod:`repro.core.figures` — Figures 5-20 registry and CLI;
* :mod:`repro.core.report` — the claim scorecard and CLI;
* :mod:`repro.core.results` — series/figure containers and renderers.

The re-exports below resolve lazily (PEP 562) so that sim-free modules
— :mod:`repro.core.kernels` and the live plane built on them — can be
imported without dragging the discrete-event simulator along.
"""

import importlib

_LAZY = {
    "Role": "repro.core.components",
    "System": "repro.core.components",
    "COMPONENT_MAPPING": "repro.core.components",
    "component_for": "repro.core.components",
    "StudyParams": "repro.core.params",
    "default_params": "repro.core.params",
    "measurement_window": "repro.core.params",
    "Testbed": "repro.core.testbed",
    "build_testbed": "repro.core.testbed",
    "LUCKY_NAMES": "repro.core.testbed",
    "RequestLog": "repro.core.metrics",
    "MetricsSummary": "repro.core.metrics",
    "summarize": "repro.core.metrics",
    "ScenarioRun": "repro.core.runner",
    "PointResult": "repro.core.runner",
    "new_run": "repro.core.runner",
    "drive": "repro.core.runner",
    "Figure": "repro.core.results",
    "Series": "repro.core.results",
}

__all__ = list(_LAZY)


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
