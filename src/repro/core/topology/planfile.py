"""Plan files: JSON persistence for :class:`DeploymentPlan`.

A ``.plan`` file is plain JSON — the node specs keyed by role kind,
the typed edges, the entry node — so deployments can live next to the
code (``examples/*.plan``) and be validated in CI with
``repro-topology check``.
"""

from __future__ import annotations

import json
import typing as _t
from pathlib import Path

from repro.core.components import System
from repro.core.topology.plan import (
    AggregateSpec,
    CollectorSpec,
    DeploymentPlan,
    DirectorySpec,
    Edge,
    EdgeKind,
    NodeSpec,
    PlanError,
    ServerSpec,
)

__all__ = ["dumps", "loads", "dump", "load"]

_KINDS: dict[str, type[NodeSpec]] = {
    "collector": CollectorSpec,
    "server": ServerSpec,
    "aggregate": AggregateSpec,
    "directory": DirectorySpec,
}
_KIND_NAMES = {cls: kind for kind, cls in _KINDS.items()}

# Per-kind extra fields on top of the NodeSpec base.
_EXTRA_FIELDS: dict[str, tuple[str, ...]] = {
    "collector": ("count", "flavor"),
    "server": ("cached", "primed"),
    "aggregate": ("primed", "query_part"),
    "directory": ("primed",),
}
_BASE_FIELDS = (
    "host", "variant", "seed", "replicas", "expose", "tracked", "fault_target",
)


def _node_to_dict(spec: NodeSpec) -> dict[str, _t.Any]:
    kind = _KIND_NAMES[type(spec)]
    out: dict[str, _t.Any] = {"kind": kind, "name": spec.name}
    for field in _BASE_FIELDS + _EXTRA_FIELDS[kind]:
        out[field] = getattr(spec, field)
    if spec.options:
        out["options"] = spec.options
    return out


def _node_from_dict(raw: dict[str, _t.Any]) -> NodeSpec:
    data = dict(raw)
    kind = data.pop("kind", None)
    if kind not in _KINDS:
        raise PlanError(f"node {data.get('name')!r}: unknown kind {kind!r}")
    cls = _KINDS[kind]
    allowed = {"name", "options", *_BASE_FIELDS, *_EXTRA_FIELDS[kind]}
    unknown = set(data) - allowed
    if unknown:
        raise PlanError(f"node {data.get('name')!r}: unknown fields {sorted(unknown)}")
    return cls(**data)


def dumps(plan: DeploymentPlan) -> str:
    """Serialize a plan to indented JSON."""
    doc = {
        "system": plan.system.value,
        "name": plan.name,
        "description": plan.description,
        "entry": plan.entry,
        "nodes": [_node_to_dict(spec) for spec in plan.nodes],
        "edges": [
            {
                "kind": e.kind.value,
                "source": e.source,
                "target": e.target,
                **({"options": e.options} if e.options else {}),
            }
            for e in plan.edges
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def loads(text: str) -> DeploymentPlan:
    """Parse a plan from JSON; structural errors become :class:`PlanError`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PlanError("a plan file must hold a JSON object")
    try:
        system = System(doc["system"])
    except (KeyError, ValueError) as exc:
        raise PlanError(f"bad or missing system: {doc.get('system')!r}") from exc
    try:
        nodes = tuple(_node_from_dict(raw) for raw in doc.get("nodes", ()))
        edges = tuple(
            Edge(
                kind=EdgeKind(raw["kind"]),
                source=raw["source"],
                target=raw["target"],
                options=raw.get("options", {}),
            )
            for raw in doc.get("edges", ())
        )
    except (TypeError, KeyError, ValueError) as exc:
        if isinstance(exc, PlanError):
            raise
        raise PlanError(f"malformed plan file: {exc}") from exc
    return DeploymentPlan(
        system=system,
        name=doc.get("name", ""),
        nodes=nodes,
        edges=edges,
        entry=doc.get("entry", ""),
        description=doc.get("description", ""),
    )


def dump(plan: DeploymentPlan, path: str | Path) -> None:
    Path(path).write_text(dumps(plan))


def load(path: str | Path) -> DeploymentPlan:
    return loads(Path(path).read_text())
