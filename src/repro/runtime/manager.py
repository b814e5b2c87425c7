"""The run-time platform manager: admission, departure, migration.

Today the service answers "map this spec"; a production MPSoC manager
answers "application C just arrived on a platform already running A and
B" (ROADMAP item 3).  :class:`PlatformManager` is that layer -- a
long-lived, lock-guarded model of ONE architecture that:

* **admits** an application by scanning its operating-point library
  (cheapest point first) for a point that *relocates* onto the free
  tiles -- pure residual-fit selection, zero throughput analyses -- and
  falls back to one incremental spiral mapping over the residual
  platform (Benhaoua et al., PAPERS.md) when no stored point fits;
* **departs** an application, releasing exactly what admission claimed,
  optionally migrating the survivors when the freed resources open a
  better stored placement -- charged with the state-transfer cost model
  of Sebai et al. (PAPERS.md): moving ``state_bytes`` over one link
  costs downtime, and a move only happens when the throughput gained
  over the policy horizon exceeds the iterations lost while down;
* **journals** every transition (:mod:`repro.runtime.journal`) so a
  restarted manager replays to byte-identical state without re-deciding
  anything.

Admission is all-or-nothing against *residual* resources only, so a
rejection (:class:`~repro.exceptions.AdmissionError`, HTTP 409 at the
service surface) can never degrade a running application.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, List, Optional, Tuple

from repro.arch.area import platform_area
from repro.artifacts.schema import (
    canonical_json,
    decode_fraction,
    encode_fraction,
    from_payload,
    to_payload,
)
from repro.artifacts.store import ArtifactStore
from repro.exceptions import (
    AdmissionError,
    MappingError,
    PlatformError,
    RoutingError,
    UnknownAppError,
)
from repro.flow.fingerprint import application_fingerprint
from repro.flow.spec import ArchSpec, FlowSpec
from repro.mapping.pipeline import MappingEffort, map_application
from repro.runtime.journal import PlatformJournal
from repro.runtime.library import library_key
from repro.runtime.points import (
    LIBRARY_KIND,
    OperatingPoint,
    OperatingPointLibrary,
    operating_point_from_result,
    transfer_cycles,
)
from repro.runtime.residual import (
    ResidualPlatform,
    ResourceClaim,
    find_placement,
)


@dataclass(frozen=True)
class MigrationPolicy:
    """When is moving a running application worth its downtime?

    A migration transfers the application's ``state_bytes`` over one
    connection (:func:`~repro.runtime.points.transfer_cycles`); during
    those cycles the application produces nothing.  The move pays off
    when the extra iterations gained over ``horizon_cycles`` exceed the
    iterations lost while down::

        (new - old) * horizon  >  old * downtime

    evaluated in exact :class:`~fractions.Fraction` arithmetic.
    """

    horizon_cycles: int = 100_000_000
    enabled: bool = True

    def worthwhile(
        self, old: Fraction, new: Fraction, downtime_cycles: int
    ) -> bool:
        if not self.enabled or new <= old:
            return False
        return (new - old) * self.horizon_cycles > old * downtime_cycles


@dataclass
class PlacedApp:
    """One admitted application and everything needed to undo it."""

    app_id: str
    app_name: str
    source: str  # "library" | "spiral"
    point: OperatingPoint
    #: Canonical point tile -> real managed tile.
    placement: Dict[str, str]
    claim: ResourceClaim
    guarantee: Fraction
    constraint: Optional[Fraction] = None
    library_key: Optional[str] = None
    #: Managed tiles that pinned actors tie the placement to.
    pinned: Tuple[str, ...] = ()


class PlatformManager:
    """Long-lived stateful manager of one architecture.

    Thread-safe (one re-entrant lock around every transition); intended
    to be owned by the service scheduler, whose request threads call it
    directly.  With a ``store``, every transition
    is journaled and :meth:`open` replays a restarted manager to the
    identical state.
    """

    def __init__(
        self,
        arch_spec: ArchSpec,
        store: Optional[ArtifactStore] = None,
        policy: Optional[MigrationPolicy] = None,
        _configure: bool = True,
    ) -> None:
        self.arch_spec = arch_spec
        self.store = store
        self.policy = policy if policy is not None else MigrationPolicy()
        self.arch = arch_spec.build()
        self.residual = ResidualPlatform(self.arch)
        self._apps: Dict[str, PlacedApp] = {}
        self._libraries: Dict[str, OperatingPointLibrary] = {}
        self._lock = threading.RLock()
        self._next = 1
        self.counters: Dict[str, int] = {
            "admissions": 0,
            "rejections": 0,
            "departures": 0,
            "migrations": 0,
            "analyses": 0,
        }
        self.journal = (
            PlatformJournal(store) if store is not None else None
        )
        if self.journal is not None and _configure:
            self.journal.append(
                "configure",
                {"architecture": dataclasses.asdict(arch_spec)},
            )

    # ------------------------------------------------------------------
    # construction from a journal
    # ------------------------------------------------------------------
    @classmethod
    def open(
        cls,
        store: Optional[ArtifactStore] = None,
        arch_spec: Optional[ArchSpec] = None,
        policy: Optional[MigrationPolicy] = None,
    ) -> Optional["PlatformManager"]:
        """Resume the workspace's platform, or configure a fresh one.

        A non-empty journal wins: the stored configuration is replayed
        (``arch_spec``, if also given, must match it).  An empty journal
        plus an ``arch_spec`` configures a fresh platform.  Neither ->
        ``None`` (nothing to manage yet).
        """
        journal = PlatformJournal(store) if store is not None else None
        if journal is None or len(journal) == 0:
            if arch_spec is None:
                return None
            return cls(arch_spec, store=store, policy=policy)

        events = journal.events()
        first = events[0]
        if first["event"] != "configure":
            raise PlatformError(
                "platform journal does not start with a configure event; "
                f"found {first['event']!r}"
            )
        stored = ArchSpec(**first["data"]["architecture"])
        if arch_spec is not None and arch_spec != stored:
            raise AdmissionError(
                "workspace already manages a different architecture "
                f"({stored.tiles} tile(s) / {stored.interconnect}); one "
                "platform per workspace"
            )
        manager = cls(
            stored, store=store, policy=policy, _configure=False
        )
        manager._apply(events[1:])
        return manager

    def _apply(self, events: List[Dict[str, Any]]) -> None:
        """Replay journaled decisions; never re-decides anything."""
        for payload in events:
            event, data = payload["event"], payload["data"]
            if event == "admit":
                point = from_payload(data["point"])
                placement = dict(data["placement"])
                claim = self.residual.claim_for(point, placement)
                self.residual.claim(claim)
                app = PlacedApp(
                    app_id=data["app_id"],
                    app_name=data["app_name"],
                    source=data["source"],
                    point=point,
                    placement=placement,
                    claim=claim,
                    guarantee=decode_fraction(data["guarantee"]),
                    constraint=decode_fraction(data["constraint"]),
                    library_key=data["library_key"],
                    pinned=tuple(data["pinned"]),
                )
                self._apps[app.app_id] = app
                self._next = max(
                    self._next, _id_number(app.app_id) + 1
                )
                self.counters["admissions"] += 1
            elif event == "depart":
                app = self._apps.pop(data["app_id"])
                self.residual.release(app.claim)
                self.counters["departures"] += 1
            elif event == "migrate":
                app = self._apps[data["app_id"]]
                self.residual.release(app.claim)
                point = from_payload(data["point"])
                placement = dict(data["placement"])
                claim = self.residual.claim_for(point, placement)
                self.residual.claim(claim)
                app.point = point
                app.placement = placement
                app.claim = claim
                app.guarantee = decode_fraction(data["guarantee"])
                app.source = "library"
                self.counters["migrations"] += 1
            else:
                raise PlatformError(
                    f"unknown platform journal event {event!r}"
                )

    # ------------------------------------------------------------------
    # libraries
    # ------------------------------------------------------------------
    def register_library(
        self, key: str, library: OperatingPointLibrary
    ) -> None:
        """Attach an in-memory library (tests; store-less managers)."""
        with self._lock:
            self._libraries[key] = library

    def _library_for(self, key: str) -> Optional[OperatingPointLibrary]:
        cached = self._libraries.get(key)
        if cached is not None:
            return cached
        if self.store is not None:
            payload = self.store.get(LIBRARY_KIND, key)
            if payload is not None:
                library = from_payload(payload)
                self._libraries[key] = library
                return library
        return None

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def admit(
        self,
        spec: FlowSpec,
        library: Optional[OperatingPointLibrary] = None,
    ) -> Dict[str, Any]:
        """Admit the spec's application onto the residual platform.

        Selection order: cheapest eligible library point that relocates
        onto the free tiles (zero analyses), then one spiral mapping
        over the residual sub-platform.  Raises
        :class:`~repro.exceptions.AdmissionError` when neither fits --
        the running applications are untouched either way.
        """
        if spec.multi:
            raise AdmissionError(
                f"spec {spec.name!r} declares {len(spec.apps)} "
                "applications; admission is per application"
            )
        if spec.architecture != self.arch_spec:
            raise AdmissionError(
                f"spec {spec.name!r} targets a "
                f"{spec.architecture.tiles}-tile "
                f"{spec.architecture.interconnect} platform; this "
                f"manager runs {self.arch_spec.tiles} tile(s) / "
                f"{self.arch_spec.interconnect}"
            )
        with self._lock:
            try:
                return self._admit_locked(spec, library)
            except AdmissionError:
                self.counters["rejections"] += 1
                raise

    def _admit_locked(
        self,
        spec: FlowSpec,
        library: Optional[OperatingPointLibrary],
    ) -> Dict[str, Any]:
        app_spec = spec.app
        app = spec.build_app(app_spec)
        constraint = spec.constraint_for(app_spec)
        fixed = spec.fixed_for(app_spec)
        pinned = tuple(sorted(set(fixed.values()))) if fixed else ()
        effort = MappingEffort.of(spec.effort)
        key = library_key(
            application_fingerprint(app),
            dataclasses.asdict(spec.architecture),
            constraint,
            effort.cache_token(),
            spec.strategies.cache_token(),
            fixed=fixed,
        )
        if library is None:
            library = self._library_for(key)

        analyses = 0
        placed: Optional[Tuple[OperatingPoint, Dict[str, str],
                               ResourceClaim, str]] = None
        if library is not None:
            for point in library.eligible():
                found = find_placement(point, self.residual, pinned)
                if found is not None:
                    placed = (point, found[0], found[1], "library")
                    break
        if placed is None:
            point, placement, claim = self._spiral_fallback(
                spec, app, constraint, fixed, effort
            )
            analyses = 1
            self.counters["analyses"] += 1
            placed = (point, placement, claim, "spiral")

        point, placement, claim, source = placed
        self.residual.claim(claim)
        app_id = f"app-{self._next:06d}"
        self._next += 1
        record = PlacedApp(
            app_id=app_id,
            app_name=app_spec.effective_name or app.name,
            source=source,
            point=point,
            placement=placement,
            claim=claim,
            guarantee=point.throughput,
            constraint=constraint,
            library_key=key,
            pinned=pinned,
        )
        self._apps[app_id] = record
        self.counters["admissions"] += 1
        if self.journal is not None:
            self.journal.append(
                "admit",
                {
                    "app_id": app_id,
                    "app_name": record.app_name,
                    "source": source,
                    "point": to_payload(point),
                    "placement": dict(sorted(placement.items())),
                    "guarantee": encode_fraction(record.guarantee),
                    "constraint": encode_fraction(constraint),
                    "library_key": key,
                    "pinned": list(pinned),
                },
            )
        return {
            "app_id": app_id,
            "app": record.app_name,
            "source": source,
            "point": point.label,
            "placement": dict(sorted(placement.items())),
            "tiles": list(claim.tiles),
            "guarantee": encode_fraction(record.guarantee),
            "analyses": analyses,
        }

    def _spiral_fallback(
        self,
        spec: FlowSpec,
        app: Any,
        constraint: Optional[Fraction],
        fixed: Optional[Dict[str, str]],
        effort: MappingEffort,
    ) -> Tuple[OperatingPoint, Dict[str, str], ResourceClaim]:
        """One incremental spiral mapping over the residual platform."""
        residual_arch = self.residual.residual_architecture()
        if residual_arch is None:
            raise AdmissionError(
                "no free tiles left on the platform"
            )
        strategies = dataclasses.replace(
            spec.strategies, binding="spiral"
        )
        try:
            result = map_application(
                app,
                residual_arch,
                constraint=constraint,
                fixed=fixed,
                effort=effort,
                pipeline=strategies.build_pipeline(),
            )
        except (MappingError, RoutingError) as error:
            raise AdmissionError(
                f"application {app.name!r} does not fit the residual "
                f"platform ({len(self.residual.free_tiles())} free "
                f"tile(s)): {error}"
            ) from None
        if constraint is not None and not result.constraint_met:
            raise AdmissionError(
                f"application {app.name!r}: best residual mapping "
                f"guarantees {result.guaranteed_throughput}, below the "
                f"constraint {constraint}"
            )
        used = sum(
            1 for _ in result.mapping.used_tiles()
        )
        point = operating_point_from_result(
            f"{used}t/spiral",
            result,
            residual_arch,
            platform_area(residual_arch).slices,
        )
        placement = {tile: tile for tile in point.tiles}
        claim = self.residual.claim_for(point, placement)
        reason = self.residual.admissible(claim)
        if reason is not None:  # defensive: mapper honored capacities
            raise AdmissionError(
                f"spiral fallback produced an inadmissible mapping: "
                f"{reason}"
            )
        return point, placement, claim

    # ------------------------------------------------------------------
    # departure + migration
    # ------------------------------------------------------------------
    def depart(
        self, app_id: str, migrate: bool = False
    ) -> Dict[str, Any]:
        """Release ``app_id``; optionally rebalance the survivors.

        With ``migrate=True``, each remaining application (admission
        order) is offered its best now-feasible library point; it moves
        only when :class:`MigrationPolicy` says the downtime pays off.
        """
        with self._lock:
            app = self._apps.pop(app_id, None)
            if app is None:
                raise UnknownAppError(
                    f"platform is not running {app_id!r}"
                )
            self.residual.release(app.claim)
            self.counters["departures"] += 1
            if self.journal is not None:
                self.journal.append(
                    "depart", {"app_id": app_id, "migrate": migrate}
                )
            migrations: List[Dict[str, Any]] = []
            if migrate:
                for survivor in list(self._apps.values()):
                    moved = self._consider_migration(survivor)
                    if moved is not None:
                        migrations.append(moved)
            return {
                "app_id": app_id,
                "app": app.app_name,
                "departed": True,
                "freed_tiles": list(app.claim.tiles),
                "migrations": migrations,
            }

    def _consider_migration(
        self, app: PlacedApp
    ) -> Optional[Dict[str, Any]]:
        if app.library_key is None:
            return None
        library = self._library_for(app.library_key)
        if library is None:
            return None
        # Free the app's own resources so its current placement competes
        # with the alternatives on equal footing.
        self.residual.release(app.claim)
        best: Optional[Tuple[OperatingPoint, Dict[str, str],
                             ResourceClaim]] = None
        for point in library.eligible():
            if best is not None and point.throughput <= best[0].throughput:
                continue
            if point.throughput <= app.guarantee:
                continue
            found = find_placement(point, self.residual, app.pinned)
            if found is not None:
                best = (point, found[0], found[1])

        if best is not None:
            point, placement, claim = best
            wires = 0
            if self.residual.kind == "noc":
                wires = self.residual._noc.default_connection_wires
            downtime = transfer_cycles(app.point.state_bytes, wires)
            if self.policy.worthwhile(
                app.guarantee, point.throughput, downtime
            ):
                self.residual.claim(claim)
                old_guarantee = app.guarantee
                app.point = point
                app.placement = placement
                app.claim = claim
                app.guarantee = point.throughput
                app.source = "library"
                self.counters["migrations"] += 1
                if self.journal is not None:
                    self.journal.append(
                        "migrate",
                        {
                            "app_id": app.app_id,
                            "point": to_payload(point),
                            "placement": dict(
                                sorted(placement.items())
                            ),
                            "guarantee": encode_fraction(
                                point.throughput
                            ),
                        },
                    )
                return {
                    "app_id": app.app_id,
                    "app": app.app_name,
                    "point": point.label,
                    "tiles": list(claim.tiles),
                    "from_guarantee": encode_fraction(old_guarantee),
                    "to_guarantee": encode_fraction(app.guarantee),
                    "downtime_cycles": downtime,
                }
        # keep the current placement
        self.residual.claim(app.claim)
        return None

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def state_payload(self) -> Dict[str, Any]:
        """Canonical JSON-able platform state (counters excluded --
        rejections are not journaled, so only *state* replays)."""
        with self._lock:
            return {
                "architecture": dataclasses.asdict(self.arch_spec),
                "apps": [
                    {
                        "id": app.app_id,
                        "app": app.app_name,
                        "source": app.source,
                        "point": app.point.label,
                        "guarantee": encode_fraction(app.guarantee),
                        "constraint": encode_fraction(app.constraint),
                        "placement": dict(
                            sorted(app.placement.items())
                        ),
                        "tiles": list(app.claim.tiles),
                    }
                    for app in sorted(
                        self._apps.values(), key=lambda a: a.app_id
                    )
                ],
                "residual": self.residual.snapshot(),
                "next_app": self._next,
            }

    def state_digest(self) -> str:
        """Canonical byte form of the state, for identity checks."""
        return canonical_json(self.state_payload())

    def status(self) -> Dict[str, Any]:
        with self._lock:
            payload = self.state_payload()
            payload["configured"] = True
            payload["counters"] = dict(self.counters)
            payload["journal_length"] = (
                len(self.journal) if self.journal is not None else 0
            )
            return payload

    def occupancy(self) -> Dict[str, Any]:
        """The healthz view: occupancy plus transition counters."""
        with self._lock:
            return {
                "configured": True,
                "apps": len(self._apps),
                "residual_tiles": len(self.residual.free_tiles()),
                "total_tiles": self.residual.total_tiles(),
                "counters": dict(self.counters),
            }

    def apps(self) -> Tuple[PlacedApp, ...]:
        with self._lock:
            return tuple(
                sorted(self._apps.values(), key=lambda a: a.app_id)
            )


def _id_number(app_id: str) -> int:
    try:
        return int(app_id.rsplit("-", 1)[1])
    except (IndexError, ValueError):
        return 0
