"""The live plane and the kernels must import without the simulator.

The whole point of the kernel extraction is that service logic lives
below the runtime split: :mod:`repro.core.kernels` and
:mod:`repro.live` (plus the domain packages they pull in) may not
import :mod:`repro.sim` at module scope.  A fresh interpreter with a
meta-path blocker makes any regression an ImportError, not a silent
re-coupling.
"""

import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[2]

BLOCKER_SCRIPT = """
import sys

class SimBlocker:
    def find_spec(self, name, path=None, target=None):
        if name == "repro.sim" or name.startswith("repro.sim."):
            raise ImportError(f"{name} blocked: this module must stay sim-free")
        return None

sys.meta_path.insert(0, SimBlocker())

import repro.core.admission
import repro.core.kernels
import repro.core.workload
import repro.core.metrics
import repro.mds.resilience
import repro.hawkeye.resilience
import repro.live
from repro.core.kernels.build import (
    activate_plan, connect_plan, expose_plan, materialize_plan,
)
from repro.core.params import default_params
from repro.core.topology.plan import DeploymentPlan
from repro.core.topology.catalog import exp1_plan, registration_fault_plan

# Compiling a plan to live services exercises materialize/connect/expose
# and every kernel constructor -- still no simulator.
from repro.live.runtime import AsyncioRuntime, LiveLock

for system in ("mds-gris-cache", "rgma-ps-lucky", "hawkeye-agent"):
    dep = AsyncioRuntime(time_scale=0.1).compile(exp1_plan(system))
    assert dep.services, system

# The shared expose phase and the admission rule, called directly.
plan, objects, extras, services = exp1_plan("rgma-ps-uc"), {}, {}, {}
materialize_plan(plan, objects, extras)
connect_plan(plan, objects, extras)
for name, _node, spec in expose_plan(
    plan, objects, extras, default_params(),
    make_lock=LiveLock, wire=True, services=services,
):
    services[name] = spec
assert list(services) == ["ps", "cs"], services

# The shared activate phase, called directly: registrars and the sweeper
# as op generators, stepped to their first op.
plan, objects, extras, services = registration_fault_plan(), {}, {}, {}
materialize_plan(plan, objects, extras)
connect_plan(plan, objects, extras)
for name, _node, spec in expose_plan(
    plan, objects, extras, default_params(),
    make_lock=LiveLock, wire=True, services=services,
):
    services[name] = spec
loops = list(activate_plan(
    plan, objects, extras, default_params(), services=services,
    stream=lambda *names: None,
))
assert [name for name, _p, _f in loops][-1] == "giis-sweep", loops
assert len(extras["registrar_stats"]) == len(loops) - 1
for _name, _placement, factory in loops:
    assert type(next(factory())).__name__ in ("Call", "Busy")
admission = repro.core.admission.Admission(max_threads=1, backlog=0)
admission.arrive()
assert admission.enter("w") and admission.full()

assert "repro.sim" not in sys.modules
print("sim-free imports OK")
"""


def test_kernels_and_live_import_without_sim():
    proc = subprocess.run(
        [sys.executable, "-c", BLOCKER_SCRIPT],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "sim-free imports OK" in proc.stdout


def test_des_twin_still_uses_sim():
    """Sanity check the blocker: the DES runtime *does* need repro.sim."""
    script = BLOCKER_SCRIPT.split("import repro.core.kernels")[0] + (
        "try:\n"
        "    import repro.core.desruntime\n"
        "except ImportError:\n"
        "    print('des blocked as expected')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert "des blocked as expected" in proc.stdout
