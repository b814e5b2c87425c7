"""The Fig. 1 flow driver.

``DesignFlow(app, arch).run()`` executes, in order:

1. architecture validation (the template instantiation of Table 1);
2. SDF3 mapping: binding, routing, buffers, schedules, throughput
   guarantee;
3. MAMPS generation: netlist, software, XPS project;
4. synthesis: the runnable platform (simulator);
5. optional measurement on the synthesized platform.

Each automated step is timed into an :class:`EffortReport`, reproducing
the bottom half of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional, Union

if TYPE_CHECKING:  # avoid a runtime cycle with repro.flow.dse
    from repro.flow.dse import CandidatePoint, DesignPoint
    from repro.flow.spec import FlowSpec

from repro.appmodel.model import ApplicationModel
from repro.arch.platform import ArchitectureModel
from repro.comm.serialization import SerializationModel
from repro.flow.effort import EffortReport
from repro.mamps.generator import generate_platform, synthesize
from repro.mamps.project import PlatformProject
from repro.mapping.pipeline import (
    MappingEffort,
    MappingPipeline,
    map_application,
)
from repro.mapping.spec import MappingResult
from repro.sim.platform_sim import MeasuredThroughput, PlatformSimulator


@dataclass
class FlowResult:
    """Everything the flow produced."""

    mapping_result: MappingResult
    project: PlatformProject
    simulator: Optional[PlatformSimulator]
    measured: Optional[MeasuredThroughput]
    effort: EffortReport

    @property
    def guaranteed_throughput(self) -> Fraction:
        return self.mapping_result.guaranteed_throughput

    @property
    def measured_throughput(self) -> Optional[Fraction]:
        return self.measured.throughput if self.measured else None

    def summary(self) -> str:
        lines = [
            f"guaranteed: {float(self.guaranteed_throughput * 1e6):.4f} "
            "iterations/Mcycle",
        ]
        if self.measured is not None:
            lines.append(
                f"measured:   {self.measured.per_mega_cycle():.4f} "
                "iterations/Mcycle"
            )
        lines.append("")
        lines.append(self.effort.as_table())
        return "\n".join(lines)


class DesignFlow:
    """The automated flow: application + architecture -> running platform."""

    def __init__(
        self,
        app: ApplicationModel,
        arch: ArchitectureModel,
        constraint: Optional[Fraction] = None,
        fixed: Optional[Dict[str, str]] = None,
        serialization_overrides: Optional[
            Dict[str, SerializationModel]
        ] = None,
        effort: str = "normal",
        pipeline: Optional[MappingPipeline] = None,
    ) -> None:
        self.app = app
        self.arch = arch
        self.constraint = constraint
        self.fixed = fixed
        self.serialization_overrides = serialization_overrides
        self.effort = MappingEffort.of(effort)
        #: The mapping pipeline to run; None means the paper's default
        #: recipe (greedy/xy/linear/static-order).
        self.pipeline = pipeline

    @classmethod
    def from_design_point(
        cls,
        app: ApplicationModel,
        point: "Union[CandidatePoint, DesignPoint]",
        constraint: Optional[Fraction] = None,
        fixed: Optional[Dict[str, str]] = None,
    ) -> "DesignFlow":
        """Build the full flow for a point the exploration engine picked.

        The typical hand-off: explore the template space with
        :class:`repro.flow.dse.ParallelExplorer`, take
        ``best_meeting_constraint()``, then run *this* flow on it to get
        the generated project and the measured throughput.  Accepts both
        an evaluated :class:`~repro.flow.dse.DesignPoint` (which carries
        its candidate) and a raw :class:`~repro.flow.dse.CandidatePoint`.
        """
        candidate = getattr(point, "candidate", None) or point
        if not hasattr(candidate, "build_architecture"):
            raise ValueError(
                f"design point {point.label!r} carries no candidate "
                "description; pass the CandidatePoint it was evaluated "
                "from"
            )
        strategy = getattr(candidate, "strategy", None)
        return cls(
            app,
            candidate.build_architecture(),
            constraint=constraint,
            fixed=fixed,
            effort=candidate.effort,
            pipeline=(
                strategy.build_pipeline() if strategy is not None else None
            ),
        )

    @classmethod
    def from_spec(
        cls,
        spec: "Union[FlowSpec, str, Path]",
        app: Optional[ApplicationModel] = None,
    ) -> "DesignFlow":
        """Build the flow from a declarative scenario (FlowSpec).

        ``spec`` is a :class:`~repro.flow.spec.FlowSpec` or a path to a
        TOML/JSON document (see :mod:`repro.flow.spec` for the schema).
        Pass ``app`` to substitute a prebuilt application for the
        spec's case-study section.
        """
        from repro.flow.spec import FlowSpec, load_flow_spec

        if not isinstance(spec, FlowSpec):
            spec = load_flow_spec(spec)
        # honour per-app overrides exactly like FlowSession does, so a
        # spec means the same thing with and without a workspace
        return cls(
            app if app is not None else spec.build_application(),
            spec.build_architecture(),
            constraint=spec.constraint_for(spec.app),
            fixed=spec.fixed_for(spec.app),
            effort=spec.effort,
            pipeline=spec.strategies.build_pipeline(),
        )

    def run(
        self,
        measure: bool = True,
        iterations: int = 30,
        warmup_iterations: int = 4,
    ) -> FlowResult:
        """Execute the full flow; ``measure=False`` stops after synthesis
        (e.g. for timing-only studies on non-functional models)."""
        effort = EffortReport()

        with effort.step("Generating architecture model"):
            self.arch.validate()

        with effort.step("Mapping the design (SDF3)"):
            mapping_result = map_application(
                self.app,
                self.arch,
                constraint=self.constraint,
                fixed=self.fixed,
                serialization_overrides=self.serialization_overrides,
                effort=self.effort,
                pipeline=self.pipeline,
            )

        with effort.step("Generating Xilinx project (MAMPS)"):
            project = generate_platform(self.app, self.arch, mapping_result)

        simulator = None
        measured = None
        can_run = self.app.is_functional()
        with effort.step("Synthesis of the system"):
            if can_run:
                simulator = synthesize(
                    self.app,
                    self.arch,
                    mapping_result,
                    serialization_overrides=self.serialization_overrides,
                )
        if measure and simulator is not None:
            measured = simulator.measure_throughput(
                iterations=iterations,
                warmup_iterations=warmup_iterations,
            )
        return FlowResult(
            mapping_result=mapping_result,
            project=project,
            simulator=simulator,
            measured=measured,
            effort=effort,
        )
