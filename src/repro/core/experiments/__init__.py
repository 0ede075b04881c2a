"""The four experiment sets of the paper's Section 3.

* :mod:`repro.core.experiments.exp1` — information-server scalability
  with users (Figures 5-8);
* :mod:`repro.core.experiments.exp2` — directory-server scalability
  with users (Figures 9-12);
* :mod:`repro.core.experiments.exp3` — information-server scalability
  with information collectors (Figures 13-16);
* :mod:`repro.core.experiments.exp4` — aggregate-information-server
  scalability with information servers (Figures 17-20);
* :mod:`repro.core.experiments.faults` — the Exp-1/2 points re-run
  under injected crash/restart faults with client-side retry.

Each figure module exposes ``SYSTEMS`` (the figure legends),
``X_VALUES`` (sweep coordinates), ``run_point(system, x, seed, ...)``
and ``sweep(...)``; the fault module exposes
``sweep(system, fault_scenario(kind, warmup, window), ...)``.
"""

from repro.core.experiments import exp1, exp2, exp3, exp4, faults

__all__ = ["exp1", "exp2", "exp3", "exp4", "faults"]
