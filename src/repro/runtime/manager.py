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
* **journals** every decided transition (:mod:`repro.runtime.journal`)
  before applying it with the code replay uses, so a restarted manager
  reaches byte-identical state without re-deciding anything.

Admission is all-or-nothing against *residual* resources only, so a
rejection (:class:`~repro.exceptions.AdmissionError`, HTTP 409 at the
service surface) can never degrade a running application.
"""

from __future__ import annotations

import dataclasses
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Dict, Optional, Tuple

from repro.arch.area import platform_area
from repro.artifacts.schema import (
    canonical_json,
    decode_fraction,
    encode_fraction,
    from_payload,
    to_payload,
)
from repro.artifacts.store import ArtifactStore
from repro.counters import Counters
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
from repro.runtime.journal import EVENT_KIND, PlatformJournal
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
    directly.  Every transition is decided first, journaled (with a
    ``store``) and only then applied by :meth:`_apply`, the code that
    also replays the journal: an append that fails changes nothing, and
    a manager constructed on a journaled store replays it to the
    identical state.
    """

    def __init__(
        self,
        arch_spec: ArchSpec,
        store: Optional[ArtifactStore] = None,
        policy: Optional[MigrationPolicy] = None,
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
        self.counters = Counters((
            "admissions", "rejections", "departures", "migrations", "analyses",
        ))
        self.journal = None if store is None else PlatformJournal(store)
        if self.journal is None:
            return
        events = self.journal.events()
        if not events:
            architecture = dataclasses.asdict(arch_spec)
            self.journal.append("configure", {"architecture": architecture})
            return
        stored = _configured_architecture(events[0])
        if stored != arch_spec:
            raise AdmissionError(
                "workspace already manages a different architecture "
                f"({stored.tiles} tile(s) / {stored.interconnect}); one "
                "platform per workspace"
            )
        for payload in events[1:]:
            self._replay(payload)

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
        elif arch_spec is None:
            # the first event alone; the constructor reads them all
            first = journal.store.get(EVENT_KIND, journal._key(0))
            arch_spec = _configured_architecture(first)
        return cls(arch_spec, store=store, policy=policy)

    # ------------------------------------------------------------------
    # transitions: journal first, then apply (live and replayed alike)
    # ------------------------------------------------------------------
    def _commit(
        self, event: str, data: Dict[str, Any], app_id: str, **fields: Any
    ) -> None:
        """Journal one decided transition, then apply it."""
        if self.journal is not None:
            self.journal.append(event, data)
        self._apply(event, app_id, **fields)

    def _apply(self, event: str, app_id: str, **fields: Any) -> None:
        """Apply one journaled transition, live or replayed.

        The only code that changes the admitted apps, their claims,
        ``_next`` and the transition counts.  ``fields`` are the
        :class:`PlacedApp` fields the transition decided: all of them
        for ``admit``, the new point, placement, claim and guarantee
        for ``migrate``, none for ``depart``.
        """
        if event == "depart":
            self.residual.release(self._apps.pop(app_id).claim)
            self.counters.add("departures")
            return
        if event == "admit":
            app = PlacedApp(app_id=app_id, **fields)
            self._next = max(self._next, _id_number(app_id) + 1)
            self.counters.add("admissions")
        else:
            running = self._apps[app_id]
            self.residual.release(running.claim)
            app = dataclasses.replace(running, source="library", **fields)
            self.counters.add("migrations")
        self.residual.claim(app.claim)
        self._apps[app_id] = app

    def _replay(self, payload: Dict[str, Any]) -> None:
        """Decode one journaled decision and apply it; never re-decides."""
        seq, event, data = payload["seq"], payload["event"], payload["data"]
        where = f"platform journal event {seq} ({event})"
        try:
            fields: Dict[str, Any] = {}
            if event == "admit":
                fields.update(
                    app_name=data["app_name"],
                    source=data["source"],
                    constraint=decode_fraction(data["constraint"]),
                    library_key=data["library_key"],
                    pinned=tuple(data["pinned"]),
                )
            elif event not in ("depart", "migrate"):
                raise PlatformError(f"unknown {where}")
            elif data["app_id"] not in self._apps:
                raise PlatformError(
                    f"{where} names {data['app_id']!r}, which is not running"
                )
            if event != "depart":
                point = from_payload(data["point"])
                placement = dict(data["placement"])
                fields.update(
                    point=point,
                    placement=placement,
                    claim=self.residual.claim_for(point, placement),
                    guarantee=decode_fraction(data["guarantee"]),
                )
            self._apply(event, data["app_id"], **fields)
        except KeyError as missing:
            raise PlatformError(f"{where} lacks {missing}") from None
        except ValueError as error:  # e.g. an inadmissible claim
            raise PlatformError(f"{where}: {error}") from None

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
                self.counters.add("rejections")
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

        source, analyses, found = "library", 0, None
        if library is not None:
            for point in library.eligible():
                found = find_placement(point, self.residual, pinned)
                if found is not None:
                    placement, claim = found
                    break
        if found is None:
            point, placement, claim = self._spiral_fallback(
                spec, app, constraint, fixed, effort
            )
            source, analyses = "spiral", 1
            self.counters.add("analyses")

        app_id = f"app-{self._next:06d}"
        app_name = app_spec.effective_name or app.name
        data = {
            "app_id": app_id,
            "app_name": app_name,
            "source": source,
            "point": to_payload(point),
            "placement": dict(sorted(placement.items())),
            "guarantee": encode_fraction(point.throughput),
            "constraint": encode_fraction(constraint),
            "library_key": key,
            "pinned": list(pinned),
        }
        self._commit(
            "admit", data, app_id,
            app_name=app_name,
            source=source,
            point=point,
            placement=placement,
            claim=claim,
            guarantee=point.throughput,
            constraint=constraint,
            library_key=key,
            pinned=pinned,
        )
        return {
            "app_id": app_id,
            "app": app_name,
            "source": source,
            "point": point.label,
            "placement": data["placement"],
            "tiles": list(claim.tiles),
            "guarantee": data["guarantee"],
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
            app = self._apps.get(app_id)
            if app is None:
                raise UnknownAppError(
                    f"platform is not running {app_id!r}"
                )
            self._commit(
                "depart", {"app_id": app_id, "migrate": migrate}, app_id
            )
            survivors = list(self._apps.values()) if migrate else []
            migrations = [
                moved for moved in map(self._consider_migration, survivors)
                if moved is not None
            ]
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
        # The fastest better point that places wins (the earliest among
        # equals).  The probe frees the app's own resources, so its
        # current placement competes on equal footing, and claims them
        # back before anything is committed.
        better = sorted(
            (p for p in library.eligible() if p.throughput > app.guarantee),
            key=lambda p: p.throughput,
            reverse=True,
        )
        self.residual.release(app.claim)
        try:
            for point in better:
                found = find_placement(point, self.residual, app.pinned)
                if found is not None:
                    break
            else:
                return None
        finally:
            self.residual.claim(app.claim)

        placement, claim = found
        wires = 0
        if self.residual.kind == "noc":
            wires = self.residual._noc.default_connection_wires
        downtime = transfer_cycles(app.point.state_bytes, wires)
        if not self.policy.worthwhile(
            app.guarantee, point.throughput, downtime
        ):
            return None
        data = {
            "app_id": app.app_id,
            "point": to_payload(point),
            "placement": dict(sorted(placement.items())),
            "guarantee": encode_fraction(point.throughput),
        }
        self._commit(
            "migrate", data, app.app_id,
            point=point,
            placement=placement,
            claim=claim,
            guarantee=point.throughput,
        )
        return {
            "app_id": app.app_id,
            "app": app.app_name,
            "point": point.label,
            "tiles": list(claim.tiles),
            "from_guarantee": encode_fraction(app.guarantee),
            "to_guarantee": data["guarantee"],
            "downtime_cycles": downtime,
        }

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
                    for app in self.apps()
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
            payload["counters"] = self.counters.snapshot()
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
                "counters": self.counters.snapshot(),
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


def _configured_architecture(first: Optional[Dict[str, Any]]) -> ArchSpec:
    """The architecture a journal's first event configures."""
    event = first.get("event") if first is not None else None
    if event != "configure":
        raise PlatformError(
            "platform journal does not start with a configure event; "
            f"found {event!r}"
        )
    return ArchSpec(**first["data"]["architecture"])
