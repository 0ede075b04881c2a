"""The Hawkeye Monitoring Agent.

"A Monitoring Agent is a distributed information service component that
collects ClassAds from each of its Modules and then integrates them
into a single Startd ClassAd.  At fixed intervals, the Agent sends the
Startd ClassAd to its registered Manager" (paper §2.3).

The Agent does *not* keep an indexed resident database — the paper
attributes its query latency precisely to having "to retrieve new
information for each query" (§3.3) — so :meth:`query` re-collects its
modules every time and reports the work done.  What a query re-collects
is the readings: the ad's shape (names, constants, merge order) never
depends on them, so it is compiled once as modules register, and a query
costs one batch of draws plus one pass over that skeleton.

Hard limit: "The maximum number of Modules currently able to register
to an Agent was 98, adding another Module caused the Startd to crash"
(§3.5) — reproduced by ``MAX_MODULES``.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

import numpy as np

from repro.classad import ClassAd
from repro.classad.ast import Literal
from repro.classad.values import value_repr
from repro.errors import ServiceCrashError
from repro.core.draws import DrawPlan, Integers, Uniform
from repro.hawkeye.modules import NOW, Module

__all__ = ["Agent", "AgentAnswer", "MAX_MODULES"]

MAX_MODULES = 98  # the paper's observed Startd crash threshold


@dataclass
class AgentAnswer:
    """One Agent query answer plus the work it caused."""

    ad: ClassAd
    modules_run: int = 0
    exec_cost: float = 0.0  # module sensor CPU charged
    integration_ops: int = 0  # attribute merges performed

    def estimated_size(self) -> int:
        return self.ad.estimated_size()


class _Skeleton:
    """An ad's shape compiled from module plans: merged key order, display
    spellings, constant ``Literal``s and lines, and which slot takes which
    draw.  A later binding of a key overwrites an earlier one in place,
    as ``ClassAd.update`` does; every draw is still made."""

    def __init__(self, plan: _t.Iterable[tuple[str, str, _t.Any]] = ()) -> None:
        self._slots: dict[str, tuple[str, _t.Any, int]] = {}  # key -> (display, spec, draw)
        self._specs: list[Integers | Uniform] = []  # every draw, in draw order
        self._compiled: tuple | None = None
        self.add(plan)

    def __len__(self) -> int:
        return len(self._slots)

    def add(self, plan: _t.Iterable[tuple[str, str, _t.Any]]) -> None:
        for display, key, spec in plan:
            draw = -1
            if isinstance(spec, (Integers, Uniform)):
                draw = len(self._specs)
                self._specs.append(spec)
            self._slots[key] = (display, spec, draw)
        self._compiled = None

    def _compile(self) -> tuple:
        exprs: list[_t.Any] = []
        lines: list[str] = []
        nows, drawn = [], []
        for slot, (display, spec, draw) in enumerate(self._slots.values()):
            line, literal = f"{display} = ", None
            if spec is NOW:
                nows.append((slot, line))
            elif draw >= 0:
                drawn.append((slot, draw, line))
            else:
                literal = Literal(spec)
                line += str(literal)
            exprs.append(literal)
            lines.append(line)
        keys = tuple(self._slots)
        display = {key: d for key, (d, _spec, _draw) in self._slots.items()}
        self._compiled = (keys, display, exprs, lines, nows, drawn, DrawPlan(self._specs))
        return self._compiled

    def build(self, rng: np.random.Generator, now: float) -> ClassAd:
        """A fresh ad: one batch of draws, one pass over the slots.  Its
        ``sized_text()`` memo is the text assembled in the same pass."""
        keys, display, exprs, lines, nows, drawn, draws = self._compiled or self._compile()
        values = draws.draw(rng)
        exprs, lines = exprs.copy(), lines.copy()
        if nows:
            literal, text = Literal(now), value_repr(now)
            for slot, prefix in nows:
                exprs[slot] = literal
                lines[slot] = prefix + text
        for slot, draw, prefix in drawn:
            value = values[draw]
            exprs[slot] = Literal(value)
            lines[slot] = prefix + repr(value)  # value_repr of an int or float
        ad = ClassAd()
        ad._attrs = dict(zip(keys, exprs))
        ad._display = display.copy()
        text = "\n".join(lines)
        ad._sized = (text, len(text) + 2)
        return ad


def _startd_plan(machine: str) -> tuple[tuple[str, str, _t.Any], ...]:
    attrs = (
        ("MyType", "Machine"),
        ("TargetType", "Job"),
        ("Name", machine),
        ("Machine", machine),
        ("OpSys", "LINUX"),
        ("Arch", "INTEL"),
        ("LastHeardFrom", NOW),
    )
    return tuple((display, display.lower(), spec) for display, spec in attrs)


class Agent:
    """Per-machine collector integrating Module ads into a Startd ad."""

    def __init__(
        self,
        machine: str,
        modules: _t.Sequence[Module] = (),
        *,
        seed: int = 0,
    ) -> None:
        self.machine = machine
        self.modules: list[Module] = []
        self._rng = np.random.default_rng(seed)
        self._startd = _Skeleton(_startd_plan(machine))
        self._exec_cost = 0.0
        self._integration_ops = 0
        self.crashed = False
        self.queries = 0
        self.ads_sent = 0
        for module in modules:
            self.add_module(module)

    def add_module(self, module: Module) -> None:
        """Register one more module; crashes the Startd past 98."""
        self._check_alive()
        if len(self.modules) >= MAX_MODULES:
            self.crashed = True
            raise ServiceCrashError(
                f"Startd on {self.machine} crashed: module limit {MAX_MODULES} exceeded"
            )
        self.modules.append(module)
        # Merging a fragment rescans the accumulated ad: O(m^2) in total.
        self._integration_ops += len(self._startd) + len(module.plan)
        self._exec_cost += module.exec_cost
        self._startd.add(module.plan)

    @property
    def module_count(self) -> int:
        return len(self.modules)

    # -- the core operations ----------------------------------------------------
    def integrate(self, now: float = 0.0) -> AgentAnswer:
        """Collect every module and merge into a single Startd ClassAd.

        Every call draws fresh readings for every module.  The modelled
        integration cost, ``integration_ops``, grows superlinearly with
        the module count — each fragment merge rescans the accumulating
        ad (the behaviour behind the paper's Experiment-3 collapse past
        ~60 collectors) — and is fixed when modules are added.
        """
        self._check_alive()
        ad = self._startd.build(self._rng, now)
        return AgentAnswer(ad, len(self.modules), self._exec_cost, self._integration_ops)

    def query(self, now: float = 0.0) -> AgentAnswer:
        """Answer a direct client query (fresh collection every time)."""
        self.queries += 1
        return self.integrate(now)

    def query_module(self, module_name: str, now: float = 0.0) -> AgentAnswer:
        """Answer a query about one particular Module (paper §2.3)."""
        self._check_alive()
        self.queries += 1
        for module in self.modules:
            if module.name == module_name:
                ad = _Skeleton(module.plan).build(self._rng, now)
                return AgentAnswer(ad, 1, module.exec_cost, len(ad))
        raise KeyError(f"no module {module_name!r} on agent {self.machine}")

    def make_startd_ad(self, now: float = 0.0) -> tuple[ClassAd, AgentAnswer]:
        """Build the periodic Startd ad sent to the Manager."""
        answer = self.integrate(now)
        self.ads_sent += 1
        return answer.ad, answer

    def _check_alive(self) -> None:
        if self.crashed:
            raise ServiceCrashError(f"Startd on {self.machine} has crashed")
