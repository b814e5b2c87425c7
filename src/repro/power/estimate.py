"""Platform power and application energy estimates.

Two result types thread power awareness through the flow:

* :class:`PowerEstimate` -- peak platform power: every tile's leakage
  plus every component's switching power, technology-scaled.  This is
  what a ``--power-budget`` is checked against.
* :class:`EnergyEstimate` -- energy per graph iteration of a *mapped*
  application, split into compute (repetition-vector firing counts x
  WCET x tile dynamic power), communication (channel token traffic x
  words x per-word interconnect energy over the existing
  :class:`~repro.mapping.spec.ChannelMapping` routes), and the static
  energy leaked over one guaranteed-throughput period.  This is what an
  ``--energy-budget`` is checked against.

Every figure is an exact :class:`fractions.Fraction`, so estimates are
deterministic and artifact round-trips are byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from repro.counters import count
from repro.exceptions import PowerError
from repro.power.model import PowerModel
from repro.sdf.repetition import repetition_vector

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.appmodel.model import ApplicationModel
    from repro.arch.platform import ArchitectureModel
    from repro.mapping.spec import MappingResult


@dataclass(frozen=True)
class PowerEstimate:
    """Peak platform power in milliwatts (exact fractions)."""

    static_mw: Fraction
    dynamic_mw: Fraction
    tech_nm: int

    @property
    def total_mw(self) -> Fraction:
        return self.static_mw + self.dynamic_mw

    def within_budget(self, budget_mw: Optional[Fraction]) -> bool:
        return budget_mw is None or self.total_mw <= budget_mw

    def describe(self) -> str:
        return (
            f"{float(self.total_mw):.1f} mW peak "
            f"({float(self.static_mw):.1f} static + "
            f"{float(self.dynamic_mw):.1f} dynamic, "
            f"{self.tech_nm} nm)"
        )


@dataclass(frozen=True)
class EnergyEstimate:
    """Energy per graph iteration in picojoules (exact fractions)."""

    compute_pj: Fraction
    communication_pj: Fraction
    static_pj: Fraction
    tech_nm: int

    @property
    def total_pj(self) -> Fraction:
        return self.compute_pj + self.communication_pj + self.static_pj

    @property
    def total_nj(self) -> Fraction:
        return self.total_pj / 1000

    def within_budget(self, budget_nj: Optional[Fraction]) -> bool:
        return budget_nj is None or self.total_nj <= budget_nj

    def describe(self) -> str:
        return (
            f"{float(self.total_nj):.2f} nJ/iteration "
            f"({float(self.compute_pj):.0f} pJ compute + "
            f"{float(self.communication_pj):.0f} pJ communication + "
            f"{float(self.static_pj):.0f} pJ static, "
            f"{self.tech_nm} nm)"
        )


def _platform_static_uw(
    architecture: "ArchitectureModel", model: PowerModel
) -> Fraction:
    total = Fraction(0)
    for tile in architecture.tiles:
        total += model.tile_static_uw(tile)
    if architecture.interconnect is not None:
        total += model.interconnect_static_uw(architecture.interconnect)
    return total


def platform_power(
    architecture: "ArchitectureModel",
    model: Optional[PowerModel] = None,
) -> PowerEstimate:
    """Peak power of the platform as currently configured/allocated."""
    model = model or PowerModel()
    static_uw = _platform_static_uw(architecture, model)
    dynamic_uw = Fraction(0)
    for tile in architecture.tiles:
        dynamic_uw += model.tile_dynamic_uw(tile)
    if architecture.interconnect is not None:
        dynamic_uw += model.interconnect_dynamic_uw(
            architecture.interconnect
        )
    count("power.platform")
    return PowerEstimate(
        static_mw=static_uw / 1000,
        dynamic_mw=dynamic_uw / 1000,
        tech_nm=model.tech_nm,
    )


def application_energy(
    application: "ApplicationModel",
    result: "MappingResult",
    architecture: "ArchitectureModel",
    model: Optional[PowerModel] = None,
) -> EnergyEstimate:
    """Energy one graph iteration costs under the given mapping.

    Uses only data the flow already computed: the repetition vector for
    firing counts, the bound implementations' WCETs, the channel routes
    of the mapping, and the guaranteed throughput for the period over
    which static power leaks.  1 uW x 1 ns = 1 fJ, hence the /1000
    conversions to pJ.
    """
    model = model or PowerModel()
    throughput = result.guaranteed_throughput
    if throughput is None or throughput <= 0:
        raise PowerError(
            "application energy is undefined for a mapping without a "
            "positive guaranteed throughput"
        )
    graph = application.graph
    q = repetition_vector(graph)

    compute_fj = Fraction(0)
    for actor, implementation in result.mapping.implementations.items():
        tile = architecture.tile(result.mapping.tile_of(actor))
        cycles = q[actor] * implementation.wcet
        compute_fj += (
            cycles * model.clock_ns * model.tile_dynamic_uw(tile)
        )

    communication_pj = Fraction(0)
    interconnect = architecture.interconnect
    if interconnect is not None:
        for channel in result.mapping.inter_tile_channels():
            edge = graph.edge(channel.edge)
            tokens = q[edge.src] * edge.production
            communication_pj += model.transfer_energy_pj(
                interconnect,
                channel.src_tile,
                channel.dst_tile,
                tokens,
                edge.token_size,
            )

    period_cycles = 1 / throughput
    static_fj = (
        _platform_static_uw(architecture, model)
        * period_cycles
        * model.clock_ns
    )
    count("power.application")
    return EnergyEstimate(
        compute_pj=compute_fj / 1000,
        communication_pj=communication_pj,
        static_pj=static_fj / 1000,
        tech_nm=model.tech_nm,
    )


__all__ = [
    "PowerEstimate",
    "EnergyEstimate",
    "platform_power",
    "application_energy",
]
