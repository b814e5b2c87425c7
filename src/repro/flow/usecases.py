"""Multiple applications on one platform (use-cases).

MAMPS generates "MPSoC projects ... based on a SDF description of one or
more applications and a task mapping" (Section 1; the MAMPS paper [8] is
about multiple use-cases of multiple applications).  This module provides
the time-multiplexed use-case model: several applications share one
generated platform, one use-case active at a time (the FPGA is
reconfigured between use-cases by loading a different schedule set, not a
different bitstream), so

* each use-case keeps its own mapping, schedules and throughput
  *guarantee*;
* the platform hardware is the union of what all use-cases need: every
  tile any use-case binds to, and one physical link per distinct
  (source tile, destination tile) pair used by any use-case (links are
  reused across use-cases because only one runs at a time);
* the union must respect physical limits (FSL ports per tile), which is
  checked here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.appmodel.model import ApplicationModel
from repro.arch.interconnect import FSLInterconnect
from repro.arch.platform import ArchitectureModel
from repro.exceptions import ArchitectureError, MappingError
from repro.mamps.generator import generate_platform
from repro.mamps.project import PlatformProject
from repro.mapping.pipeline import map_application
from repro.mapping.spec import MappingResult


@dataclass
class UseCaseMapping:
    """All per-use-case mapping results plus the platform union."""

    results: Dict[str, MappingResult] = field(default_factory=dict)
    link_pairs: Tuple[Tuple[str, str], ...] = ()
    tiles_used: Tuple[str, ...] = ()

    def guarantee_of(self, use_case: str) -> Fraction:
        return self.results[use_case].guaranteed_throughput

    def as_table(self) -> str:
        # column widths follow the content: long use-case names must
        # widen the name column instead of breaking the header rule
        name_width = max(
            [len(name) for name in self.results] + [len("use-case")]
        )
        header = (
            f"{'use-case':<{name_width}} {'guarantee/Mcycle':>17} "
            f"{'tiles':>6} {'links':>6}"
        )
        lines = [header, "-" * len(header)]
        for name, result in sorted(self.results.items()):
            lines.append(
                f"{name:<{name_width}} "
                f"{float(result.guaranteed_throughput * 1e6):>17.4f} "
                f"{len(result.mapping.used_tiles()):>6} "
                f"{len(result.mapping.inter_tile_channels()):>6}"
            )
        lines.append(
            f"platform union: {len(self.tiles_used)} tile(s), "
            f"{len(self.link_pairs)} physical link(s)"
        )
        return "\n".join(lines)


def _distinct_link_pairs(
    results: Dict[str, MappingResult]
) -> Tuple[Tuple[str, str], ...]:
    pairs: List[Tuple[str, str]] = []
    for result in results.values():
        for channel in result.mapping.inter_tile_channels():
            pair = (channel.src_tile, channel.dst_tile)
            if pair not in pairs:
                pairs.append(pair)
    return tuple(pairs)


def _check_union_feasible(
    arch: ArchitectureModel, pairs: Sequence[Tuple[str, str]]
) -> None:
    """Physical-resource check for the union platform."""
    if isinstance(arch.interconnect, FSLInterconnect):
        limit = arch.interconnect.max_links_per_tile
        out_counts: Dict[str, int] = {}
        in_counts: Dict[str, int] = {}
        for src, dst in pairs:
            out_counts[src] = out_counts.get(src, 0) + 1
            in_counts[dst] = in_counts.get(dst, 0) + 1
        for tile, count in out_counts.items():
            if count > limit:
                raise ArchitectureError(
                    f"use-case union needs {count} outgoing FSL links on "
                    f"{tile!r}, limit is {limit}"
                )
        for tile, count in in_counts.items():
            if count > limit:
                raise ArchitectureError(
                    f"use-case union needs {count} incoming FSL links on "
                    f"{tile!r}, limit is {limit}"
                )
    # The SDM NoC is reconfigured per use-case (its defining feature,
    # [17]: "dynamically reconfigurable"), so per-use-case routability --
    # already checked during each mapping -- is sufficient.


def build_use_case_mapping(
    arch: ArchitectureModel, results: Dict[str, MappingResult]
) -> UseCaseMapping:
    """Fold per-use-case mapping results into the checked platform union.

    This is the second half of :func:`map_use_cases`, split out so
    callers that obtained the per-application results elsewhere -- e.g.
    a :class:`~repro.flow.session.FlowSession` resuming them from a
    workspace -- get the same union computation and physical-limit
    checks.
    """
    pairs = _distinct_link_pairs(results)
    _check_union_feasible(arch, pairs)

    tiles_used: List[str] = []
    for result in results.values():
        for tile in result.mapping.used_tiles():
            if tile not in tiles_used:
                tiles_used.append(tile)

    return UseCaseMapping(
        results=results,
        link_pairs=pairs,
        tiles_used=tuple(sorted(tiles_used)),
    )


def map_use_cases(
    apps: Sequence[ApplicationModel],
    arch: ArchitectureModel,
    fixed: Optional[Dict[str, Dict[str, str]]] = None,
) -> UseCaseMapping:
    """Map every application onto the shared platform.

    ``fixed`` optionally pins actors per application name.  Applications
    must have distinct names.  Each mapping run starts from a clean
    interconnect (time multiplexing); the union of all connection pairs is
    checked against the physical limits afterwards.
    """
    names = [app.name for app in apps]
    if len(set(names)) != len(names):
        raise MappingError(
            f"use-case applications need distinct names, got {names}"
        )
    if not apps:
        raise MappingError("need at least one application")

    results: Dict[str, MappingResult] = {}
    for app in apps:
        pin = (fixed or {}).get(app.name)
        results[app.name] = map_application(app, arch, fixed=pin)

    return build_use_case_mapping(arch, results)


def generate_use_case_platform(
    apps: Sequence[ApplicationModel],
    arch: ArchitectureModel,
    mapping: UseCaseMapping,
) -> PlatformProject:
    """Generate the shared-platform project bundle.

    Layout: one complete per-use-case project under ``usecases/<name>/``
    (schedules + software are per use-case) plus a union summary
    describing the shared hardware.
    """
    project = PlatformProject(name=f"usecases_on_{arch.name}")
    by_name = {app.name: app for app in apps}
    for name, result in mapping.results.items():
        sub_project = generate_platform(by_name[name], arch, result)
        for path, content in sub_project.files.items():
            project.add(f"usecases/{name}/{path}", content)

    summary = [
        f"shared platform for {len(mapping.results)} use-case(s) on "
        f"{arch.name}",
        f"tiles used: {', '.join(mapping.tiles_used)}",
        "physical links (one per distinct pair, reused across use-cases):",
    ]
    for src, dst in mapping.link_pairs:
        summary.append(f"  {src} -> {dst}")
    summary.append("")
    summary.append(mapping.as_table())
    project.add("union_platform.txt", "\n".join(summary) + "\n")
    return project
