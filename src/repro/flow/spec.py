"""Declarative flow scenarios (FlowSpec).

A *FlowSpec* is a small JSON- or TOML-loadable document that names
everything one run of the automated flow needs: the case-study input,
the architecture template parameters, the throughput constraint, the
mapping effort, and the per-stage strategy choices of the pluggable
mapping pipeline (:mod:`repro.mapping.pipeline`).  It is the scenario
format behind ``python -m repro run --spec scenario.toml`` and
:meth:`repro.flow.design_flow.DesignFlow.from_spec`.

A complete TOML example::

    name = "mjpeg-spiral"

    [app]
    sequence = "gradient"   # test-set name, or "synthetic"
    quality = 75
    frames = 2

    [architecture]
    tiles = 4
    interconnect = "noc"    # "fsl" | "noc"
    with_ca = false

    [mapping]
    constraint = "1/9000"   # iterations/cycle; omit for best effort
    effort = "normal"
    binding = "spiral"      # greedy | spiral | ga
    buffer_policy = "exponential"
    seed = 7

    [mapping.fixed]
    VLD = "tile0"

A spec may instead declare *several* applications (use-cases) that share
the platform, one ``[[apps]]`` table each::

    name = "set-top-box"

    [[apps]]
    name = "decoder"
    sequence = "gradient"
    frames = 1
    constraint = "1/120000"

    [[apps]]
    name = "osd"
    sequence = "checkerboard"
    frames = 1

    [apps.fixed]        # pins actors of the *preceding* [[apps]] table
    VLD = "tile0"

    [architecture]
    tiles = 4

Multi-application specs run through :class:`repro.flow.session.FlowSession`
(which maps every use-case and checks the union platform) and through the
multi-application design-space exploration path
(:class:`repro.flow.dse.UseCaseEvaluator`).

Unknown keys are rejected so a typo cannot silently fall back to a
default strategy.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

from repro.arch.template import architecture_from_template
from repro.exceptions import ArchitectureError, ReproError
from repro.mapping.pipeline import MappingEffort, StrategyTuple

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from repro.scenarios.spec import ScenarioSpec


class FlowSpecError(ReproError):
    """Raised for malformed or unloadable FlowSpec documents."""


@dataclass(frozen=True)
class AppSpec:
    """One application of the scenario (``[app]`` or one ``[[apps]]``).

    The workload is either an MJPEG case-study input (``sequence`` /
    ``quality`` / ``frames``) or a generated synthetic one (an
    ``[app.scenario]`` table parsed into a
    :class:`repro.scenarios.spec.ScenarioSpec`); the two forms are
    mutually exclusive.  ``name`` identifies the use-case (defaults to
    the sequence or scenario name); ``constraint`` and ``fixed``
    override the spec-level throughput constraint and actor pins for
    this application only.
    """

    sequence: str = "gradient"
    quality: Optional[int] = None
    frames: int = 2
    name: str = ""
    constraint: Optional[Fraction] = None
    fixed: Optional[Dict[str, str]] = None
    scenario: Optional["ScenarioSpec"] = None

    @property
    def effective_name(self) -> str:
        if self.name:
            return self.name
        if self.scenario is not None:
            return self.scenario.effective_name
        return self.sequence


@dataclass(frozen=True)
class ArchSpec:
    """Template parameters of the platform (``[architecture]``).

    The structural interconnect knobs (FSL FIFO depth, NoC mesh wiring)
    default to the template defaults, so existing documents keep their
    meaning; they participate in every content key automatically via
    ``dataclasses.asdict``.
    """

    tiles: int = 2
    interconnect: str = "fsl"
    with_ca: bool = False
    instruction_kb: int = 128
    data_kb: int = 128
    slave_instruction_kb: Optional[int] = None
    slave_data_kb: Optional[int] = None
    fsl_fifo_depth: int = 16
    noc_wires_per_link: int = 32
    noc_connection_wires: int = 8

    def build(self):
        """Instantiate the template architecture these parameters name."""
        return architecture_from_template(
            self.tiles,
            self.interconnect,
            with_ca=self.with_ca,
            instruction_kb=self.instruction_kb,
            data_kb=self.data_kb,
            slave_instruction_kb=self.slave_instruction_kb,
            slave_data_kb=self.slave_data_kb,
            fsl_fifo_depth=self.fsl_fifo_depth,
            noc_wires_per_link=self.noc_wires_per_link,
            noc_connection_wires=self.noc_connection_wires,
        )


@dataclass(frozen=True)
class FlowSpec:
    """One declarative scenario: app(s) + architecture + mapping choices."""

    name: str = "scenario"
    apps: Tuple[AppSpec, ...] = (AppSpec(),)
    architecture: ArchSpec = field(default_factory=ArchSpec)
    constraint: Optional[Fraction] = None
    effort: str = "normal"
    fixed: Dict[str, str] = field(default_factory=dict)
    strategies: StrategyTuple = field(default_factory=StrategyTuple)

    @property
    def app(self) -> AppSpec:
        """The first (for single-application specs: the only) app."""
        return self.apps[0]

    @property
    def multi(self) -> bool:
        """True when the spec declares several use-case applications."""
        return len(self.apps) > 1

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FlowSpec":
        """Build and validate a spec from a parsed document."""
        data = dict(data)
        name = _take(data, "name", str, default="scenario")
        has_single = "app" in data
        app = _section(data, "app", _parse_app)
        apps_raw = _take(data, "apps", list, default=None)
        architecture = _section(data, "architecture", _parse_arch)
        mapping = dict(_take(data, "mapping", dict, default={}))
        if data:
            raise FlowSpecError(
                f"unknown top-level key(s) in flow spec: {sorted(data)}"
            )

        if apps_raw is not None:
            if has_single:
                raise FlowSpecError(
                    "flow spec declares both [app] and [[apps]]; use one"
                )
            if not apps_raw:
                raise FlowSpecError("[[apps]] must list at least one app")
            apps: List[AppSpec] = []
            for index, entry in enumerate(apps_raw):
                if not isinstance(entry, dict):
                    raise FlowSpecError(
                        f"[[apps]] entry {index} must be a table/object"
                    )
                entry = dict(entry)
                parsed = _parse_app(entry)
                if entry:
                    raise FlowSpecError(
                        f"unknown [[apps]] key(s) in flow spec: "
                        f"{sorted(entry)}"
                    )
                apps.append(parsed)
            names = [a.effective_name for a in apps]
            if len(set(names)) != len(names):
                raise FlowSpecError(
                    f"use-case applications need distinct names, "
                    f"got {names}"
                )
        else:
            apps = [app]

        constraint = _parse_constraint(
            _take(mapping, "constraint", (str, int), default=None)
        )
        effort = _take(mapping, "effort", str, default="normal")
        try:
            MappingEffort.of(effort)
        except ValueError as error:
            raise FlowSpecError(str(error)) from None
        fixed = dict(_take(mapping, "fixed", dict, default={}))
        for actor, tile in fixed.items():
            if not isinstance(actor, str) or not isinstance(tile, str):
                raise FlowSpecError(
                    "[mapping.fixed] must map actor names to tile names"
                )
        strategies = StrategyTuple(
            binding=_take(mapping, "binding", str, default="greedy"),
            routing=_take(mapping, "routing", str, default="xy"),
            buffer_policy=_take(
                mapping, "buffer_policy", str, default="linear"
            ),
            scheduling=_take(
                mapping, "scheduling", str, default="static-order"
            ),
            seed=_take(mapping, "seed", int, default=None),
        )
        try:
            strategies.validate()
        except ValueError as error:
            raise FlowSpecError(str(error)) from None
        if mapping:
            raise FlowSpecError(
                f"unknown [mapping] key(s) in flow spec: {sorted(mapping)}"
            )
        spec = cls(
            name=name,
            apps=tuple(apps),
            architecture=architecture,
            constraint=constraint,
            effort=effort,
            fixed=fixed,
            strategies=strategies,
        )
        try:
            spec.build_architecture()  # the template's own checks
        except ArchitectureError as error:
            raise FlowSpecError(
                f"invalid [architecture]: {error}"
            ) from None
        return spec

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "FlowSpec":
        return load_flow_spec(path)

    # ------------------------------------------------------------------
    # realization
    # ------------------------------------------------------------------
    def build_application(self):
        """Instantiate the (single) case-study application of the spec."""
        if self.multi:
            raise FlowSpecError(
                f"spec {self.name!r} declares {len(self.apps)} "
                "applications; use build_applications() or run it through "
                "repro.flow.session.FlowSession / 'repro batch'"
            )
        return self.build_app(self.apps[0])

    def build_applications(self):
        """Instantiate every application, renamed to its use-case name."""
        return [self.build_app(app_spec) for app_spec in self.apps]

    def build_app(self, app_spec: AppSpec):
        """Instantiate one application, renamed to its use-case name."""
        if app_spec.scenario is not None:
            # deferred import: repro.scenarios imports this module
            from repro.scenarios.generator import (
                build_scenario_application,
            )

            model = build_scenario_application(app_spec.scenario)
        else:
            model = build_case_study_app(
                app_spec.sequence,
                quality=app_spec.quality,
                frames=app_spec.frames,
            )
        if app_spec.name or self.multi:
            model.name = app_spec.effective_name
        return model

    def constraint_for(self, app_spec: AppSpec) -> Optional[Fraction]:
        """Effective throughput constraint of one application."""
        return (
            app_spec.constraint
            if app_spec.constraint is not None
            else self.constraint
        )

    def fixed_for(self, app_spec: AppSpec) -> Optional[Dict[str, str]]:
        """Effective actor pins of one application."""
        fixed = (
            app_spec.fixed if app_spec.fixed is not None else self.fixed
        )
        return dict(fixed) if fixed else None

    def build_architecture(self):
        """Instantiate the template architecture this spec names."""
        return self.architecture.build()

    def to_document(self) -> Dict[str, Any]:
        """The JSON-able document form of this spec.

        The inverse of :meth:`from_dict`:
        ``FlowSpec.from_dict(spec.to_document()) == spec``.  This is the
        body a client POSTs to the flow service (:mod:`repro.service`),
        and what lets a spec loaded from TOML travel over HTTP as JSON.
        """
        mapping: Dict[str, Any] = {
            "effort": self.effort,
            "binding": self.strategies.binding,
            "routing": self.strategies.routing,
            "buffer_policy": self.strategies.buffer_policy,
            "scheduling": self.strategies.scheduling,
        }
        if self.strategies.seed is not None:
            mapping["seed"] = self.strategies.seed
        if self.constraint is not None:
            mapping["constraint"] = str(self.constraint)
        if self.fixed:
            mapping["fixed"] = dict(self.fixed)
        document: Dict[str, Any] = {
            "name": self.name,
            "architecture": dataclasses.asdict(self.architecture),
            "mapping": mapping,
        }
        if self.multi:
            document["apps"] = [
                _app_document(app) for app in self.apps
            ]
        else:
            document["app"] = _app_document(self.app)
        return document

    def describe(self) -> str:
        bits = [f"scenario {self.name!r}:"]
        for app_spec in self.apps:
            label = "app" if not self.multi else \
                f"use-case {app_spec.effective_name!r}"
            if app_spec.scenario is not None:
                s = app_spec.scenario
                bits.append(
                    f"  {label}: generated {s.family} scenario "
                    f"(seed {s.seed}, ~{s.actors} actor(s))"
                )
            else:
                bits.append(
                    f"  {label}: {app_spec.sequence} "
                    f"(quality {app_spec.quality or 'default'}, "
                    f"{app_spec.frames} frame(s))"
                )
        bits += [
            f"  architecture: {self.architecture.tiles} tile(s), "
            f"{self.architecture.interconnect}"
            + (" +CA" if self.architecture.with_ca else ""),
            f"  mapping: {self.strategies.build_pipeline().describe()}, "
            f"effort {self.effort}",
        ]
        if self.constraint is not None:
            bits.append(f"  constraint: {self.constraint} iterations/cycle")
        if self.fixed:
            pins = ", ".join(
                f"{a}->{t}" for a, t in sorted(self.fixed.items())
            )
            bits.append(f"  pinned: {pins}")
        return "\n".join(bits)


def _app_document(app: AppSpec) -> Dict[str, Any]:
    """JSON-able form of one AppSpec (omits unset optionals)."""
    document: Dict[str, Any] = {}
    if app.scenario is not None:
        document["scenario"] = app.scenario.to_table()
    else:
        document["sequence"] = app.sequence
        document["frames"] = app.frames
        if app.quality is not None:
            document["quality"] = app.quality
    if app.name:
        document["name"] = app.name
    if app.constraint is not None:
        document["constraint"] = str(app.constraint)
    if app.fixed is not None:
        document["fixed"] = dict(app.fixed)
    return document


# ----------------------------------------------------------------------
# parsing helpers
# ----------------------------------------------------------------------
def _take(data: Dict[str, Any], key: str, kinds, default=None):
    if key not in data:
        return default
    value = data.pop(key)
    if value is None:
        return default
    accepted = kinds if isinstance(kinds, tuple) else (kinds,)
    expected = "/".join(k.__name__ for k in accepted)
    # bool subclasses int: reject it explicitly wherever int is accepted
    # but bool is not, or `constraint = true` would parse as Fraction(1)
    bad_bool = (
        isinstance(value, bool) and bool not in accepted and int in accepted
    )
    if bad_bool or not isinstance(value, accepted):
        raise FlowSpecError(
            f"flow spec key {key!r} must be {expected}, "
            f"got {type(value).__name__}"
        )
    return value


def _section(data: Dict[str, Any], key: str, parser):
    section = dict(_take(data, key, dict, default={}))
    parsed = parser(section)
    if section:
        raise FlowSpecError(
            f"unknown [{key}] key(s) in flow spec: {sorted(section)}"
        )
    return parsed


def _parse_app(section: Dict[str, Any]) -> AppSpec:
    fixed = _take(section, "fixed", dict, default=None)
    if fixed is not None:
        fixed = dict(fixed)
        for actor, tile in fixed.items():
            if not isinstance(actor, str) or not isinstance(tile, str):
                raise FlowSpecError(
                    "[apps.fixed] must map actor names to tile names"
                )
    scenario = None
    if "scenario" in section:
        clashes = [
            key for key in ("sequence", "quality", "frames")
            if key in section
        ]
        if clashes:
            raise FlowSpecError(
                "an app declares both [app.scenario] and case-study "
                f"key(s) {clashes}; a workload is either generated or "
                "an MJPEG sequence, not both"
            )
        table = _take(section, "scenario", dict)
        # deferred import: repro.scenarios imports this module
        from repro.scenarios.spec import ScenarioError, ScenarioSpec

        try:
            scenario = ScenarioSpec.from_table(dict(table))
        except ScenarioError as error:
            raise FlowSpecError(
                f"invalid [app.scenario] table: {error}"
            ) from error
    app = AppSpec(
        sequence=_take(section, "sequence", str, default="gradient"),
        quality=_take(section, "quality", int, default=None),
        frames=_take(section, "frames", int, default=2),
        name=_take(section, "name", str, default=""),
        constraint=_parse_constraint(
            _take(section, "constraint", (str, int), default=None)
        ),
        fixed=fixed,
        scenario=scenario,
    )
    if scenario is None:
        _check_case_study(app)
    return app


def _check_case_study(app: AppSpec) -> None:
    """Reject what the MJPEG encoder or the test set would refuse later."""
    if app.quality is not None and not 1 <= app.quality <= 100:
        raise FlowSpecError(
            f"app quality must be in 1..100, got {app.quality}"
        )
    if app.frames < 1:
        raise FlowSpecError(f"app frames must be >= 1, got {app.frames}")
    if app.sequence != "synthetic":
        # deferred import: the MJPEG package pulls in numpy
        from repro.mjpeg import SEQUENCE_BUILDERS

        if app.sequence not in SEQUENCE_BUILDERS:
            raise FlowSpecError(
                f"unknown sequence {app.sequence!r}; pick from "
                f"{sorted(SEQUENCE_BUILDERS) + ['synthetic']}"
            )


def _parse_arch(section: Dict[str, Any]) -> ArchSpec:
    return ArchSpec(
        tiles=_take(section, "tiles", int, default=2),
        interconnect=_take(section, "interconnect", str, default="fsl"),
        with_ca=_take(section, "with_ca", bool, default=False),
        instruction_kb=_take(section, "instruction_kb", int, default=128),
        data_kb=_take(section, "data_kb", int, default=128),
        slave_instruction_kb=_take(
            section, "slave_instruction_kb", int, default=None
        ),
        slave_data_kb=_take(section, "slave_data_kb", int, default=None),
        fsl_fifo_depth=_take(section, "fsl_fifo_depth", int, default=16),
        noc_wires_per_link=_take(
            section, "noc_wires_per_link", int, default=32
        ),
        noc_connection_wires=_take(
            section, "noc_connection_wires", int, default=8
        ),
    )


def _parse_constraint(value) -> Optional[Fraction]:
    if value is None:
        return None
    try:
        constraint = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise FlowSpecError(
            f"invalid constraint {value!r}; expected a fraction like "
            "'1/6000'"
        ) from None
    if constraint <= 0:
        raise FlowSpecError(
            f"constraint must be > 0 iterations/cycle, got {value!r}"
        )
    return constraint


def load_flow_spec(path: Union[str, Path]) -> FlowSpec:
    """Load a FlowSpec document from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise FlowSpecError(f"cannot read flow spec {path}: {error}") \
            from None
    suffix = path.suffix.lower()
    if suffix == ".json":
        try:
            data = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            # decode and syntax errors are ValueErrors; RecursionError
            # is nesting deeper than the parser's stack
            raise FlowSpecError(
                f"invalid JSON flow spec {path}: {error}"
            ) from None
    elif suffix == ".toml":
        try:
            import tomllib
        except ModuleNotFoundError:  # pragma: no cover - py3.10 path
            try:
                import tomli as tomllib  # noqa: F401 (same API)
            except ModuleNotFoundError:
                raise FlowSpecError(
                    "TOML flow specs need Python 3.11+ (tomllib) or the "
                    "'tomli' package; use the JSON form otherwise"
                ) from None
        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            raise FlowSpecError(
                f"invalid TOML flow spec {path}: {error}"
            ) from None
    else:
        raise FlowSpecError(
            f"unsupported flow spec format {suffix or path.name!r}; "
            "use .toml or .json"
        )
    if not isinstance(data, dict):
        raise FlowSpecError(
            f"flow spec {path} must contain a table/object at the top level"
        )
    return FlowSpec.from_dict(data)


def build_case_study_app(
    sequence: str, quality: Optional[int] = None, frames: int = 2
):
    """Build the MJPEG case-study application for one test sequence.

    ``sequence`` is a name from
    :func:`repro.mjpeg.test_set_sequences` or ``"synthetic"``.  The
    default quality follows the benchmark conventions: 75 for the
    structured sequences, 98 for the high-entropy synthetic one.
    """
    from repro.mjpeg import (
        build_mjpeg_application,
        encode_sequence,
        synthetic_sequence,
        test_set_sequences,
    )

    if sequence == "synthetic":
        encoded_frames = synthetic_sequence(n_frames=frames)
        quality = 98 if quality is None else quality
    else:
        sequences = test_set_sequences(n_frames=frames)
        if sequence not in sequences:
            raise ReproError(
                f"unknown sequence {sequence!r}; pick from "
                f"{sorted(sequences) + ['synthetic']}"
            )
        encoded_frames = sequences[sequence]
        quality = 75 if quality is None else quality
    encoded = encode_sequence(encoded_frames, quality=quality, h=4, v=2)
    return build_mjpeg_application(encoded)
