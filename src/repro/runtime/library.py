"""Design-time builder of per-application operating-point libraries.

For an application and a platform template, sweep the platform size
``k = 1 .. tiles`` (the same axis :func:`repro.flow.dse.
explore_design_space` walks), map the application onto each canonical
prefix platform, and keep the Pareto front over (guaranteed throughput,
area).  Front members become :class:`~repro.runtime.points.
OperatingPoint`\\ s; the front is persisted as one
``operating-point-library`` artifact keyed by application fingerprint +
architecture spec + constraint + effort + strategy.

Every per-size mapping reuses the *exact* ``mapping-result`` artifact
keying of :class:`repro.flow.session.FlowSession`, so a workspace that
already ran the flow (or a previous library build) resumes every
analysis from the store: a warm library build performs **zero**
throughput analyses, the same guarantee the run-time admission path
gives.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.arch.area import platform_area
from repro.artifacts.schema import (
    artifact_digest,
    encode_fraction,
    from_payload,
    to_payload,
)
from repro.artifacts.store import ArtifactStore
from repro.exceptions import MappingError, RoutingError
from repro.flow.dse import DesignPoint, ParetoFront
from repro.flow.fingerprint import (
    application_fingerprint,
    architecture_fingerprint,
    evaluation_key,
)
from repro.flow.spec import AppSpec, FlowSpec
from repro.mapping.pipeline import MappingEffort, map_application
from repro.runtime.points import (
    LIBRARY_KIND,
    OperatingPointLibrary,
    operating_point_from_result,
)


def library_key(
    app_fingerprint: str,
    architecture: Dict[str, Any],
    constraint: Optional[Any],
    effort: str,
    strategy: str,
    fixed: Optional[Dict[str, str]] = None,
) -> str:
    """Content address of one library: everything its build consumed.

    ``architecture`` is the ``dataclasses.asdict`` of the
    :class:`~repro.flow.spec.ArchSpec` the library sweeps prefixes of --
    the *template*, not one concrete platform, because the library
    covers every prefix size of it.
    """
    return artifact_digest(
        {
            "kind": "operating-point-library-key",
            "application": app_fingerprint,
            "architecture": architecture,
            "constraint": encode_fraction(constraint),
            "fixed": dict(sorted(fixed.items())) if fixed else None,
            "effort": effort,
            "strategy": strategy,
        }
    )


def library_key_for(
    spec: FlowSpec, app_spec: Optional[AppSpec] = None
) -> str:
    """The library key an admission of ``spec`` will look up."""
    app_spec = app_spec if app_spec is not None else spec.app
    app = spec.build_app(app_spec)
    effort = MappingEffort.of(spec.effort)
    return library_key(
        application_fingerprint(app),
        dataclasses.asdict(spec.architecture),
        spec.constraint_for(app_spec),
        effort.cache_token(),
        spec.strategies.cache_token(),
        fixed=spec.fixed_for(app_spec),
    )


@dataclass
class LibraryBuild:
    """Outcome of one :func:`build_library` call."""

    key: str
    library: OperatingPointLibrary
    #: Throughput analyses actually executed (0 on a warm workspace).
    analyses: int = 0
    #: Per-size mappings loaded from stored ``mapping-result`` artifacts.
    resumed: int = 0
    #: Platform sizes where mapping was infeasible (skipped, not fatal).
    infeasible: List[int] = field(default_factory=list)

    def summary(self) -> Dict[str, Any]:
        return {
            "app": self.library.app_name,
            "key": self.key,
            "points": [p.label for p in self.library.points],
            "analyses": self.analyses,
            "resumed": self.resumed,
            "infeasible": self.infeasible,
        }


def build_library(
    spec: FlowSpec,
    store: Optional[ArtifactStore] = None,
    app_spec: Optional[AppSpec] = None,
) -> LibraryBuild:
    """Build (or resume) the operating-point library for one app.

    Sweeps canonical prefix platforms ``tiles = 1 .. spec.architecture.
    tiles``, mapping the application onto each with the spec's
    strategies and effort.  With a ``store``, per-size
    results resume from / persist to ``mapping-result`` artifacts under
    the FlowSession keying, and the finished library is persisted under
    :func:`library_key`.
    """
    app_spec = app_spec if app_spec is not None else spec.app
    app = spec.build_app(app_spec)
    app_fp = application_fingerprint(app)
    constraint = spec.constraint_for(app_spec)
    fixed = spec.fixed_for(app_spec)
    effort = MappingEffort.of(spec.effort)
    strategies = spec.strategies
    arch_spec = spec.architecture

    key = library_key(
        app_fp,
        dataclasses.asdict(arch_spec),
        constraint,
        effort.cache_token(),
        strategies.cache_token(),
        fixed=fixed,
    )
    if store is not None:
        stored = store.get(LIBRARY_KIND, key)
        if stored is not None:
            return LibraryBuild(
                key=key, library=from_payload(stored), resumed=0
            )

    sizes = range(1, arch_spec.tiles + 1)
    front = ParetoFront()
    results_by_tiles: Dict[int, Any] = {}
    analyses = resumed = 0
    infeasible: List[int] = []
    for tiles in sizes:
        arch = dataclasses.replace(arch_spec, tiles=tiles).build()
        result_key = evaluation_key(
            app_fp,
            architecture_fingerprint(arch),
            constraint,
            fixed,
            effort.cache_token(),
            strategy=strategies.cache_token(),
        )
        result = None
        if store is not None:
            payload = store.get("mapping-result", result_key)
            if payload is not None:
                result = from_payload(payload)
                resumed += 1
        if result is None:
            try:
                result = map_application(
                    app,
                    arch,
                    constraint=constraint,
                    fixed=fixed,
                    effort=effort,
                    pipeline=strategies.build_pipeline(),
                )
            except (MappingError, RoutingError):
                infeasible.append(tiles)
                continue
            finally:
                analyses += 1
            if store is not None:
                store.put(
                    "mapping-result", result_key, to_payload(result)
                )
        results_by_tiles[tiles] = result
        front.add(
            DesignPoint(
                tiles=tiles,
                interconnect=arch_spec.interconnect,
                with_ca=arch_spec.with_ca,
                throughput=result.guaranteed_throughput,
                area=platform_area(arch),
                constraint_met=result.constraint_met,
                effort=effort.name,
                strategy=strategies,
            )
        )

    library = OperatingPointLibrary(
        app_name=app_spec.effective_name or app.name,
        app_fingerprint=app_fp,
        constraint=constraint,
    )
    for point in front.points():
        result = results_by_tiles[point.tiles]
        arch = dataclasses.replace(arch_spec, tiles=point.tiles).build()
        library.points.append(
            operating_point_from_result(
                point.label, result, arch, point.area.slices
            )
        )

    if store is not None:
        store.put(LIBRARY_KIND, key, to_payload(library))
    return LibraryBuild(
        key=key,
        library=library,
        analyses=analyses,
        resumed=resumed,
        infeasible=infeasible,
    )
