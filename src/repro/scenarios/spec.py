"""ScenarioSpec: the seed-deterministic identity of a synthetic workload.

A :class:`ScenarioSpec` is a tiny frozen record -- family, seed and a
handful of size/shape knobs -- from which the generator
(:mod:`repro.scenarios.generator`) reproduces the *entire* workload:
the SDF graph, the actor implementations and (via the FlowSpec bridge)
the matching architecture.  Two processes holding equal specs build
byte-identical applications, which is what lets generated scenarios ride
the whole artifact/resume/serving machinery unchanged: the spec is the
content, everything else is derived.

In a FlowSpec document a scenario replaces the MJPEG ``sequence`` of an
app table::

    [app]
    [app.scenario]
    family = "splitjoin"
    seed = 1234
    actors = 7
    max_rate = 3
    wcet_profile = "mixed"
    token_bytes = 16

Specs also persist standalone as ``scenario`` artifacts
(:mod:`repro.artifacts`), so corpora can be stored and round-tripped
like every other result type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict

from repro.artifacts.schema import register
from repro.exceptions import ReproError

#: The graph families the generator knows how to build.
FAMILIES = ("chain", "splitjoin", "diamond", "cyclic", "mixed")

#: WCET draw ranges per profile: uniform actors, mixed granularity, or
#: a wide spread that stresses the scheduler's slack handling.
WCET_PROFILES: Dict[str, tuple] = {
    "uniform": (20, 40),
    "mixed": (5, 200),
    "wide": (1, 2000),
}

#: Inclusive bounds on the shape knobs (kept deliberately conservative:
#: every spec inside them must map onto the template platforms).
MAX_ACTORS = 64
MAX_RATE = 16
MAX_TOKEN_BYTES = 4096


class ScenarioError(ReproError):
    """Raised for invalid scenario parameters or a generator
    post-condition violation (the typed rejection the fuzz suite
    asserts on)."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Parameters of one synthetic workload.

    Attributes
    ----------
    family:
        Graph family, one of :data:`FAMILIES`.
    seed:
        The determinism root: every random draw of the generator comes
        from ``random.Random(seed)``.
    actors:
        Target actor count (families round it to their natural shape;
        the generated graph never exceeds it by more than a template).
    max_rate:
        Upper bound on rate skew (productions/consumptions/repeats are
        drawn from ``1..max_rate``).
    wcet_profile:
        Key into :data:`WCET_PROFILES`: the execution-time draw range.
    token_bytes:
        Upper bound on per-edge token sizes (bytes, floored at 4).
    name:
        Optional explicit name; :attr:`effective_name` derives
        ``"{family}-s{seed}"`` when empty.
    """

    family: str
    seed: int
    actors: int = 6
    max_rate: int = 3
    wcet_profile: str = "mixed"
    token_bytes: int = 16
    name: str = ""

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ScenarioError(
                f"unknown scenario family {self.family!r}; "
                f"pick from {', '.join(FAMILIES)}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise ScenarioError(
                f"scenario seed must be a non-negative integer, "
                f"got {self.seed!r}"
            )
        if not 2 <= self.actors <= MAX_ACTORS:
            raise ScenarioError(
                f"scenario actors must be in 2..{MAX_ACTORS}, "
                f"got {self.actors}"
            )
        if not 1 <= self.max_rate <= MAX_RATE:
            raise ScenarioError(
                f"scenario max_rate must be in 1..{MAX_RATE}, "
                f"got {self.max_rate}"
            )
        if self.wcet_profile not in WCET_PROFILES:
            raise ScenarioError(
                f"unknown wcet_profile {self.wcet_profile!r}; pick from "
                f"{', '.join(sorted(WCET_PROFILES))}"
            )
        if not 4 <= self.token_bytes <= MAX_TOKEN_BYTES:
            raise ScenarioError(
                f"scenario token_bytes must be in 4..{MAX_TOKEN_BYTES}, "
                f"got {self.token_bytes}"
            )

    @property
    def effective_name(self) -> str:
        return self.name or f"{self.family}-s{self.seed}"

    # ------------------------------------------------------------------
    # the document form ([app.scenario] table / artifact body)
    # ------------------------------------------------------------------
    def to_table(self) -> Dict[str, Any]:
        """The JSON/TOML table form (inverse of :meth:`from_table`)."""
        table: Dict[str, Any] = {
            "family": self.family,
            "seed": self.seed,
            "actors": self.actors,
            "max_rate": self.max_rate,
            "wcet_profile": self.wcet_profile,
            "token_bytes": self.token_bytes,
        }
        if self.name:
            table["name"] = self.name
        return table

    @classmethod
    def from_table(cls, table: Dict[str, Any]) -> "ScenarioSpec":
        """Parse an ``[app.scenario]`` table; unknown keys are rejected
        so a typo cannot silently change the generated workload."""
        if not isinstance(table, dict):
            raise ScenarioError(
                f"scenario table must be a table/object, "
                f"got {type(table).__name__}"
            )
        data = dict(table)

        def take(key: str, kinds, default=None, required=False):
            if key not in data:
                if required:
                    raise ScenarioError(
                        f"scenario table is missing required key {key!r}"
                    )
                return default
            value = data.pop(key)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise ScenarioError(
                    f"scenario key {key!r} must be "
                    f"{kinds.__name__}, got {value!r}"
                )
            return value

        spec = cls(
            family=take("family", str, required=True),
            seed=take("seed", int, required=True),
            actors=take("actors", int, default=6),
            max_rate=take("max_rate", int, default=3),
            wcet_profile=take("wcet_profile", str, default="mixed"),
            token_bytes=take("token_bytes", int, default=16),
            name=take("name", str, default=""),
        )
        if data:
            raise ScenarioError(
                f"unknown scenario key(s): {sorted(data)}"
            )
        return spec


def _encode_scenario(spec: ScenarioSpec) -> Dict[str, Any]:
    body = spec.to_table()
    body.setdefault("name", "")
    return body


def _decode_scenario(payload: Dict[str, Any]) -> ScenarioSpec:
    table = {
        key: value
        for key, value in payload.items()
        if key not in ("schema_version", "kind")
    }
    if not table.get("name"):
        table.pop("name", None)
    return ScenarioSpec.from_table(table)


register("scenario", ScenarioSpec, _encode_scenario, _decode_scenario)
