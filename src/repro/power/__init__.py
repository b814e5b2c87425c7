"""Power/energy modelling for the mapping flow (see docs/power.md).

The subsystem adds a third objective -- energy -- next to the paper's
throughput and area: a lumos-style technology-scaled per-tile
static+dynamic power model (:mod:`repro.power.model`), Marcon-style
per-hop/per-transfer interconnect energy, and exact-fraction
platform-power and energy-per-iteration estimates
(:mod:`repro.power.estimate`) that the DSE engine, CLI budgets
(``--power-budget`` / ``--energy-budget``), reports and artifacts all
consume.
"""

from repro.power.estimate import (
    EnergyEstimate,
    PowerEstimate,
    application_energy,
    platform_power,
)
from repro.power.model import (
    BASE_TECH_NM,
    TECH_NODES,
    PowerModel,
    words_per_token,
)

__all__ = [
    "BASE_TECH_NM",
    "TECH_NODES",
    "PowerModel",
    "words_per_token",
    "EnergyEstimate",
    "PowerEstimate",
    "application_energy",
    "platform_power",
]
