"""The study, declared: the four experiment sets and the paper's claims.

The paper is four experiment sets × four metrics: each row of
:data:`SETS` plots the :data:`METRICS` in order as four consecutive
figures (5-20), which :mod:`repro.core.figures` builds.  Each headline
finding is a sentence about points on those curves, and each is one
row of :data:`CLAIMS`, which ``repro-report`` (:mod:`repro.core.report`)
measures and checks.

A claim's *readings* are named values of two kinds:

* a point metric ``(experiment, system, x, attribute)``, any
  :class:`~repro.core.runner.PointResult` attribute (``"throughput"``,
  ``"crashed"``, ...);
* a value derived from earlier readings or numbers, ``(a, "/", b)``
  (a ratio whose denominator is floored at 1e-9) or ``(a, "-", b)``.

Its *bounds* are ``(reading, "<" or ">", number or reading)`` or
``(reading, "<" or ">", factor, reading)`` for ``factor * reading``;
the claim holds when every bound does.  ``detail`` formats the readings
into the scorecard's ``measured:`` line.
"""

from __future__ import annotations

import typing as _t
from dataclasses import dataclass

from repro.core.experiments import exp1, exp2, exp3, exp4

__all__ = ["ExperimentSet", "SETS", "METRICS", "Claim", "CLAIMS"]


@dataclass(frozen=True)
class ExperimentSet:
    """One experiment set: four figures from one sweep per system."""

    experiment: _t.Any  # exp1..exp4 module
    first_figure: int
    server: str  # the server kind the figure titles name
    axis: str  # the x axis as the titles name it
    xlabel: str


SETS: tuple[ExperimentSet, ...] = (
    ExperimentSet(exp1, 5, "Information Server", "No. of Concurrent Users", "No. of Users"),
    ExperimentSet(exp2, 9, "Directory Server", "No. of Concurrent Users", "No. of Users"),
    ExperimentSet(
        exp3, 13, "Information Server", "No. of Information Collectors",
        "No. of Information Collectors",
    ),
    ExperimentSet(
        exp4, 17, "Aggregate Information Server", "No. of Information Servers",
        "No. of Information Servers",
    ),
)

# The four metrics every set plots, in figure order, with their axis labels.
METRICS: dict[str, str] = {
    "throughput": "Throughput (queries/sec)",
    "response_time": "Response Time (sec)",
    "load1": "Load1",
    "cpu_load": "CPU Load (%)",
}


@dataclass(frozen=True)
class Claim:
    """One published claim: the readings it takes and the bounds they must meet."""

    id: str
    figure: int
    text: str  # the paper's claim, paraphrased
    readings: dict[str, tuple]
    bounds: tuple[tuple, ...]
    detail: str  # format string over the readings

    def points(self) -> list[tuple[_t.Any, str, int]]:
        """The ``(experiment, system, x)`` points the readings take, in order."""
        return list(dict.fromkeys(spec[:3] for spec in self.readings.values() if len(spec) == 4))


X, R, L, CPU = "throughput", "response_time", "load1", "cpu_load"
_NOCACHE, _AGENT, _PS = ((exp3, s, 90) for s in ("mds-gris-nocache", "hawkeye-agent", "rgma-ps"))

CLAIMS: tuple[Claim, ...] = (
    Claim("gris-cache-linear", 5, "cached GRIS throughput near-linear with users",
          {"low": (exp1, "mds-gris-cache", 100, X), "high": (exp1, "mds-gris-cache", 600, X)},
          (("high", ">", 4, "low"), ("high", ">", 60)),
          "X(100)={low:.1f}, X(600)={high:.1f} q/s"),
    Claim("gris-nocache-cap", 5, "uncached GRIS never exceeds 2 queries/second",
          {"x": (exp1, "mds-gris-nocache", 300, X)},
          (("x", ">", 0.5), ("x", "<", 2.0)),
          "X(300)={x:.2f} q/s"),
    Claim("caching-decisive", 5, "caching buys the GRIS >20x throughput at scale",
          {"cached": (exp1, "mds-gris-cache", 600, X),
           "uncached": (exp1, "mds-gris-nocache", 600, X),
           "ratio": ("cached", "/", "uncached")},
          (("ratio", ">", 20),),
          "{ratio:.0f}x"),
    Claim("gris-cache-plateau", 6, "cached GRIS responses ~4 s and stable for >=50 users",
          {"r200": (exp1, "mds-gris-cache", 200, R), "r600": (exp1, "mds-gris-cache", 600, R),
           "step": ("r600", "-", "r200")},
          (("r200", ">", 2.5), ("r200", "<", 5.5), ("r600", ">", 2.5), ("r600", "<", 5.5),
           ("step", "<", 1.5), ("step", ">", -1.5)),
          "R(200)={r200:.2f}s, R(600)={r600:.2f}s"),
    Claim("rgma-response-linear", 6, "ProducerServlet response grows with users",
          {"r100": (exp1, "rgma-ps-lucky", 100, R), "r600": (exp1, "rgma-ps-lucky", 600, R)},
          (("r600", ">", 1.8, "r100"),),
          "R(100)={r100:.1f}s, R(600)={r600:.1f}s"),
    Claim("agent-mid-pack", 5, "Agent saturates between the GRIS variants (~40-60 q/s)",
          {"x": (exp1, "hawkeye-agent", 300, X)},
          (("x", ">", 25), ("x", "<", 70)),
          "X(300)={x:.1f} q/s"),
    Claim("gris-cache-cpu", 8, "cached GRIS host reaches ~60% CPU at 600 users",
          {"cpu": (exp1, "mds-gris-cache", 600, CPU)},
          (("cpu", ">", 40), ("cpu", "<", 80)),
          "cpu={cpu:.0f}%"),
    Claim("giis-scales", 9, "GIIS saturates near 100 q/s with good scalability",
          {"x": (exp2, "mds-giis", 600, X)},
          (("x", ">", 80),),
          "X(600)={x:.0f} q/s"),
    Claim("manager-scales", 9, "Manager scales comparably to the GIIS",
          {"x": (exp2, "hawkeye-manager", 600, X)},
          (("x", ">", 80),),
          "X(600)={x:.0f} q/s"),
    Claim("registry-slower", 9, "Registry throughput well below GIIS/Manager",
          {"registry": (exp2, "rgma-registry-lucky", 600, X), "giis": (exp2, "mds-giis", 600, X),
           "third": ("giis", "/", 3)},
          (("registry", "<", "third"),),
          "registry={registry:.0f}, giis={giis:.0f} q/s"),
    Claim("giis-fast-responses", 10, "GIIS responses stay <2 s even at 600 users",
          {"r": (exp2, "mds-giis", 600, R)},
          (("r", "<", 2.0),),
          "R(600)={r:.2f}s"),
    Claim("registry-hot", 11, "Registry load1 far above GIIS/Manager",
          {"registry": (exp2, "rgma-registry-lucky", 600, L), "giis": (exp2, "mds-giis", 600, L)},
          (("registry", ">", 2, "giis"), ("registry", ">", 2.0)),
          "registry={registry:.1f}, giis={giis:.1f}"),
    Claim("giis-cpu-2x-manager", 12, "GIIS CPU load nearly twice the Manager's",
          {"giis": (exp2, "mds-giis", 600, CPU), "manager": (exp2, "hawkeye-manager", 600, CPU)},
          (("giis", ">", 1.7, "manager"),),
          "giis={giis:.0f}%, manager={manager:.0f}%"),
    Claim("gris-cache-90-collectors", 13, "cached GRIS still ~7 q/s, <1 s at 90 collectors",
          {"x": (exp3, "mds-gris-cache", 90, X), "r": (exp3, "mds-gris-cache", 90, R)},
          (("x", ">", 5), ("r", "<", 1.0)),
          "X={x:.1f} q/s, R={r:.2f}s"),
    Claim("collectors-collapse", 13, "Agent/ProducerServlet/uncached GRIS <1 q/s at 90 collectors",
          {"nocache": (*_NOCACHE, X), "agent": (*_AGENT, X), "ps": (*_PS, X)},
          (("nocache", "<", 1.0), ("agent", "<", 1.0), ("ps", "<", 1.0)),
          "mds-gris-nocache={nocache:.2f}, hawkeye-agent={agent:.2f}, rgma-ps={ps:.2f}"),
    Claim("collectors-slow", 14, "those servers also exceed ~10 s responses at 90 collectors",
          {"nocache": (*_NOCACHE, R), "agent": (*_AGENT, R), "ps": (*_PS, R)},
          (("nocache", ">", 8.0), ("agent", ">", 8.0), ("ps", ">", 8.0)),
          "mds-gris-nocache={nocache:.1f}s, hawkeye-agent={agent:.1f}s, rgma-ps={ps:.1f}s"),
    Claim("giis-all-degrades", 17, "GIIS query-all below 1 q/s by 200 registered GRIS",
          {"x": (exp4, "mds-giis-all", 200, X)},
          (("x", ">", 0), ("x", "<", 1.0)),
          "X(200)={x:.2f} q/s"),
    Claim("giis-crash", 17, "GIIS crashes on query-all past 200 registered GRIS",
          {"crashed": (exp4, "mds-giis-all", 300, "crashed"),
           "reason": (exp4, "mds-giis-all", 300, "crash_reason")},
          (("crashed", ">", 0),),
          "crashed={crashed} ({reason})"),
    Claim("querypart-survives", 17, "query-part reaches 500 registered GRIS without crashing",
          {"crashed": (exp4, "mds-giis-part", 500, "crashed"),
           "x": (exp4, "mds-giis-part", 500, X)},
          (("crashed", "<", 1), ("x", "<", 1.0)),
          "X(500)={x:.2f} q/s"),
    Claim("manager-agg-degrades", 17, "Manager below 1 q/s with 1000 advertising machines",
          {"x": (exp4, "hawkeye-manager", 1000, X)},
          (("x", ">", 0), ("x", "<", 1.0)),
          "X(1000)={x:.2f} q/s"),
    Claim("no-aggregation-past-100", 17, "no aggregate server is useful beyond ~100 registrants",
          {"giis": (exp4, "mds-giis-all", 200, X), "manager": (exp4, "hawkeye-manager", 400, X)},
          (("giis", "<", 2.5), ("manager", "<", 2.5)),
          "giis-all@200={giis:.2f}, manager@400={manager:.2f}"),
)
