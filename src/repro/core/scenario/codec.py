"""Scenario files: JSON persistence for :class:`Scenario`.

A ``.scenario.json`` file is plain JSON — the five generative model
sections keyed by name — so scenarios live next to the plans they pair
with (``examples/*.scenario.json``) and are validated in CI with
``repro-scenario check``.  The codec is strict the way the plan codec
is: unknown fields are errors, defaults are omitted on write, and
``loads(dumps(s)) == s`` for every valid scenario.
"""

from __future__ import annotations

import dataclasses
import json
import typing as _t
from pathlib import Path

from repro.core.scenario.model import (
    ArrivalModel,
    ChurnModel,
    FaultModel,
    MixComponent,
    Outage,
    Scenario,
    ScenarioError,
    WanEpisode,
    WanWeather,
)

__all__ = ["dumps", "loads", "dump", "load"]

# Per-arrival-kind field sets: a diurnal model carrying flash fields (or
# vice versa) is almost certainly a typo, so the codec rejects it.
_ARRIVAL_FIELDS: dict[str, tuple[str, ...]] = {
    "diurnal": ("period", "amplitude", "phase"),
    "flash": ("at", "duration", "peak", "ramp"),
}


def _to_dict(obj: _t.Any, *, skip: tuple[str, ...] = ()) -> dict[str, _t.Any]:
    """Dataclass -> dict with default-valued fields omitted."""
    out: dict[str, _t.Any] = {}
    for f in dataclasses.fields(obj):
        if f.name in skip:
            continue
        value = getattr(obj, f.name)
        if f.default is not dataclasses.MISSING and value == f.default:
            continue
        out[f.name] = value
    return out


def _from_dict(
    cls: type, raw: _t.Any, *, where: str, allowed: set[str] | None = None
) -> _t.Any:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(raw).__name__}")
    names = {f.name for f in dataclasses.fields(cls)}
    allowed = names if allowed is None else allowed
    unknown = set(raw) - allowed
    if unknown:
        raise ScenarioError(f"{where}: unknown fields {sorted(unknown)}")
    try:
        return cls(**raw)
    except TypeError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _arrival_to_dict(model: ArrivalModel) -> dict[str, _t.Any]:
    out: dict[str, _t.Any] = {"kind": model.kind}
    defaults = ArrivalModel(kind=model.kind)
    for name in _ARRIVAL_FIELDS[model.kind]:
        value = getattr(model, name)
        if value != getattr(defaults, name):
            out[name] = value
    return out


def _arrival_from_dict(raw: _t.Any, index: int) -> ArrivalModel:
    where = f"arrivals[{index}]"
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where}: expected an object, got {type(raw).__name__}")
    kind = raw.get("kind")
    if kind not in _ARRIVAL_FIELDS:
        raise ScenarioError(
            f"{where}: unknown kind {kind!r}; pick from {tuple(_ARRIVAL_FIELDS)}"
        )
    return _from_dict(
        ArrivalModel, raw, where=where, allowed={"kind", *_ARRIVAL_FIELDS[kind]}
    )


def dumps(scenario: Scenario) -> str:
    """Serialize a scenario to indented JSON (defaults omitted)."""
    doc: dict[str, _t.Any] = {"name": scenario.name}
    if scenario.description:
        doc["description"] = scenario.description
    if scenario.seed:
        doc["seed"] = scenario.seed
    if scenario.plan:
        doc["plan"] = scenario.plan
    if scenario.arrivals:
        doc["arrivals"] = [_arrival_to_dict(m) for m in scenario.arrivals]
    if scenario.churn is not None:
        churn = _to_dict(scenario.churn)
        if scenario.churn.targets:
            churn["targets"] = list(scenario.churn.targets)
        doc["churn"] = churn
    if scenario.wan is not None:
        wan = _to_dict(scenario.wan, skip=("episodes",))
        if scenario.wan.episodes:
            wan["episodes"] = [_to_dict(ep) for ep in scenario.wan.episodes]
        doc["wan"] = wan
    if scenario.mix:
        doc["mix"] = [_to_dict(c) for c in scenario.mix]
    if scenario.faults is not None:
        faults: dict[str, _t.Any] = {}
        if scenario.faults.outages:
            faults["outages"] = [_to_dict(o) for o in scenario.faults.outages]
        faults.update(_to_dict(scenario.faults, skip=("outages",)))
        doc["faults"] = faults
    return json.dumps(doc, indent=2) + "\n"


def loads(text: str) -> Scenario:
    """Parse and validate a scenario; errors become :class:`ScenarioError`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("a scenario file must hold a JSON object")
    known = {"name", "description", "seed", "plan", "arrivals", "churn", "wan", "mix", "faults"}
    unknown = set(doc) - known
    if unknown:
        raise ScenarioError(f"unknown top-level fields {sorted(unknown)}")
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        raise ScenarioError("a scenario needs a non-empty string name")

    arrivals = tuple(
        _arrival_from_dict(raw, i) for i, raw in enumerate(_seq(doc, "arrivals"))
    )
    churn = None
    if "churn" in doc:
        raw = dict(_obj(doc, "churn"))
        if "targets" in raw:
            raw["targets"] = tuple(raw["targets"])
        churn = _from_dict(ChurnModel, raw, where="churn")
    wan = None
    if "wan" in doc:
        raw = dict(_obj(doc, "wan"))
        episodes = raw.pop("episodes", [])
        if not isinstance(episodes, list):
            raise ScenarioError("wan.episodes: expected a list")
        raw["episodes"] = tuple(
            _from_dict(WanEpisode, ep, where=f"wan.episodes[{i}]")
            for i, ep in enumerate(episodes)
        )
        wan = _from_dict(
            WanWeather,
            raw,
            where="wan",
            allowed={f.name for f in dataclasses.fields(WanWeather)},
        )
    mix = tuple(
        _from_dict(MixComponent, raw, where=f"mix[{i}]")
        for i, raw in enumerate(_seq(doc, "mix"))
    )
    faults = None
    if "faults" in doc:
        raw = dict(_obj(doc, "faults"))
        raw["outages"] = tuple(
            _from_dict(Outage, o, where=f"faults.outages[{i}]")
            for i, o in enumerate(_seq(raw, "outages"))
        )
        faults = _from_dict(FaultModel, raw, where="faults")
    return Scenario(
        name=doc["name"],
        description=doc.get("description", ""),
        seed=doc.get("seed", 0),
        plan=doc.get("plan", ""),
        arrivals=arrivals,
        churn=churn,
        wan=wan,
        mix=mix,
        faults=faults,
    ).validate()


def _seq(doc: dict, key: str) -> list:
    raw = doc.get(key, [])
    if not isinstance(raw, list):
        raise ScenarioError(f"{key}: expected a list, got {type(raw).__name__}")
    return raw


def _obj(doc: dict, key: str) -> dict:
    raw = doc[key]
    if not isinstance(raw, dict):
        raise ScenarioError(f"{key}: expected an object, got {type(raw).__name__}")
    return raw


def dump(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(dumps(scenario))


def load(path: str | Path) -> Scenario:
    return loads(Path(path).read_text())
