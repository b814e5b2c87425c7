"""Automated design-space exploration (paper Section 7, future work).

"For future work we would like to offer an improved automated design space
exploration" -- this module provides it as a proper subsystem rather than
a one-shot sweep:

* :class:`DesignSpace` enumerates candidate platforms over tile count,
  interconnect kind, communication-assist usage, heterogeneous tile
  memory mixes and mapping effort level;
* :class:`Evaluator` runs one candidate through the conservative mapping
  analysis (:meth:`repro.mapping.pipeline.MappingPipeline.run`) behind a
  content-addressed :class:`EvaluationCache`, so repeated sweeps and
  overlapping multi-application studies never re-analyze the same point,
  and candidates that build the same bound graph (extra tiles left
  empty) share its static orders and throughput analysis through the
  cache's round memo;
* :class:`ParallelExplorer` fans evaluations out over
  ``concurrent.futures`` workers with deterministic result ordering,
  optional early exit at the first constraint-satisfying point, and an
  incrementally maintained Pareto front.

Because every point costs one mapping run (sub-second), the whole space
of the template explores in seconds -- the "very fast design space
exploration" the conclusion promises -- and a cache-warm re-sweep costs
essentially nothing.

The one-call entry point :func:`explore_design_space` is kept for
compatibility; it now builds a space, evaluator and explorer under the
hood.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.appmodel.model import ApplicationModel
from repro.flow.backend import (
    ExecutionBackend,
    as_backend,
    backend_task,
)
from repro.arch.area import AreaEstimate, platform_area
from repro.arch.platform import ArchitectureModel
from repro.arch.template import architecture_from_template
from repro.exceptions import MappingError, PowerError, RoutingError
from repro.flow.fingerprint import (
    application_fingerprint,
    architecture_fingerprint,
    evaluation_key,
)
from repro.mapping.pipeline import (
    DEFAULT_STRATEGIES,
    MappingEffort,
    RoundMemo,
    StrategyTuple,
)
from repro.power import (
    EnergyEstimate,
    PowerEstimate,
    PowerModel,
    application_energy,
    platform_power,
)
from repro.sdf.throughput import UnboundedExecutionError


# ----------------------------------------------------------------------
# the design space
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TileMix:
    """A (possibly heterogeneous) memory configuration of the tiles.

    The MAMPS template ships one master and N-1 slave tiles; a mix sets
    their modified-Harvard memory sizes independently, e.g. a big master
    for the file-reading actor next to lean slaves.  ``(instruction kB,
    data kB)`` pairs per role.
    """

    name: str
    master_kb: Tuple[int, int] = (128, 128)
    slave_kb: Tuple[int, int] = (128, 128)

    @property
    def heterogeneous(self) -> bool:
        return self.master_kb != self.slave_kb


#: All tiles at the template default of 128 kB + 128 kB.
UNIFORM_MIX = TileMix("uniform")
#: Heterogeneous: full-size master, half-size slaves (saves BRAMs when the
#: pinned master actor is the memory-hungry one).
COMPACT_MIX = TileMix("compact", master_kb=(128, 128), slave_kb=(64, 64))


@dataclass(frozen=True)
class CandidatePoint:
    """One not-yet-evaluated configuration of the template.

    ``strategy`` names the mapping-pipeline stages the evaluation should
    run (:class:`repro.mapping.pipeline.StrategyTuple`); the default is
    the paper's recipe, which keeps historic labels unchanged.
    """

    tiles: int
    interconnect: str
    with_ca: bool = False
    mix: TileMix = UNIFORM_MIX
    effort: str = "normal"
    strategy: StrategyTuple = DEFAULT_STRATEGIES

    @property
    def label(self) -> str:
        suffix = "+CA" if self.with_ca else ""
        if self.mix.name != "uniform":
            suffix += f"@{self.mix.name}"
        suffix += self.strategy.label_suffix()
        return f"{self.tiles}t/{self.interconnect}{suffix}"

    def build_architecture(self) -> ArchitectureModel:
        """Instantiate the template architecture this point describes."""
        name = f"mamps_{self.tiles}t_{self.interconnect}"
        if self.mix.name != "uniform":
            name += f"_{self.mix.name}"
        return architecture_from_template(
            self.tiles,
            self.interconnect,
            name=name,
            instruction_kb=self.mix.master_kb[0],
            data_kb=self.mix.master_kb[1],
            slave_instruction_kb=self.mix.slave_kb[0],
            slave_data_kb=self.mix.slave_kb[1],
            with_ca=self.with_ca,
        )


@dataclass(frozen=True)
class DesignSpace:
    """The sweep definition: the cartesian product of all axes, minus
    configurations that are physically identical.

    Single-tile platforms take no interconnect, so only the first
    interconnect kind is kept for them; likewise a mix whose slave sizes
    differ is meaningless with one tile and collapses onto the uniform
    variant.
    """

    tile_counts: Sequence[int] = (1, 2, 3, 4, 5)
    interconnects: Sequence[str] = ("fsl", "noc")
    ca_options: Sequence[bool] = (False,)
    mixes: Sequence[TileMix] = (UNIFORM_MIX,)
    effort: str = "normal"
    strategy: StrategyTuple = DEFAULT_STRATEGIES

    def points(self) -> Tuple[CandidatePoint, ...]:
        """All candidate points, in deterministic enumeration order."""
        out: List[CandidatePoint] = []
        seen: set = set()
        for tiles in self.tile_counts:
            for interconnect in self.interconnects:
                if tiles == 1 and interconnect != self.interconnects[0]:
                    continue  # single tile has no interconnect; dedupe
                for with_ca in self.ca_options:
                    for mix in self.mixes:
                        if tiles == 1 and mix.heterogeneous:
                            # no slaves to differentiate; collapse onto the
                            # master-only variant
                            name = (
                                "uniform"
                                if mix.master_kb == UNIFORM_MIX.master_kb
                                else mix.name
                            )
                            mix = TileMix(
                                name, mix.master_kb, mix.master_kb
                            )
                        candidate = CandidatePoint(
                            tiles=tiles,
                            interconnect=interconnect,
                            with_ca=with_ca,
                            mix=mix,
                            effort=self.effort,
                            strategy=self.strategy,
                        )
                        if candidate.label in seen:
                            continue
                        seen.add(candidate.label)
                        out.append(candidate)
        return tuple(out)

    def __len__(self) -> int:
        return len(self.points())

    def __iter__(self) -> Iterator[CandidatePoint]:
        return iter(self.points())


# ----------------------------------------------------------------------
# evaluated points, objectives, and the incremental Pareto front
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Objective:
    """One axis of Pareto dominance.

    ``extract`` pulls the objective's value from a
    :class:`DesignPoint`; returning ``None`` marks the objective as
    *inactive* for that point (e.g. energy on a sweep that never
    enabled power estimation), and an objective inactive on either side
    of a comparison is skipped rather than treated as zero.
    """

    name: str
    maximize: bool
    extract: Callable[["DesignPoint"], Optional[object]]


def _throughput_of(point: "DesignPoint") -> Fraction:
    return point.throughput


def _slices_of(point: "DesignPoint") -> int:
    return point.area.slices


def _energy_of(point: "DesignPoint") -> Optional[Fraction]:
    return None if point.energy is None else point.energy.total_pj


#: The flow's objective set: the paper's (throughput, area) pair plus
#: energy per iteration (active only when power estimation ran).
OBJECTIVES: Tuple[Objective, ...] = (
    Objective("throughput", True, _throughput_of),
    Objective("slices", False, _slices_of),
    Objective("energy", False, _energy_of),
)


def dominates(
    point: "DesignPoint",
    other: "DesignPoint",
    objectives: Sequence[Objective] = OBJECTIVES,
) -> bool:
    """N-objective Pareto dominance: no worse on every active
    objective, strictly better on at least one."""
    better = False
    for objective in objectives:
        ours = objective.extract(point)
        theirs = objective.extract(other)
        if ours is None or theirs is None:
            continue
        if ours == theirs:
            continue
        if (ours > theirs) == objective.maximize:
            better = True
        else:
            return False
    return better


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration of the template."""

    tiles: int
    interconnect: str
    with_ca: bool
    throughput: Fraction
    area: AreaEstimate
    constraint_met: bool
    mix: str = "uniform"
    effort: str = "normal"
    #: The mapping-pipeline strategies the evaluation ran under.
    strategy: StrategyTuple = DEFAULT_STRATEGIES
    #: The candidate this point evaluated; lets a chosen point be promoted
    #: to the full flow (``DesignFlow.from_design_point``).
    candidate: Optional[CandidatePoint] = None
    #: Peak platform power; ``None`` unless power estimation was enabled
    #: (a budget or explicit model), keeping historic artifacts intact.
    power: Optional[PowerEstimate] = None
    #: Energy per graph iteration under this point's mapping; ``None``
    #: unless power estimation was enabled.
    energy: Optional[EnergyEstimate] = None

    @property
    def label(self) -> str:
        suffix = "+CA" if self.with_ca else ""
        if self.mix != "uniform":
            suffix += f"@{self.mix}"
        suffix += self.strategy.label_suffix()
        return f"{self.tiles}t/{self.interconnect}{suffix}"

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance over :data:`OBJECTIVES`: throughput is
        maximized, slice count and energy (when present) minimized."""
        return dominates(self, other)


def _front_sort_key(point: DesignPoint) -> Tuple[int, int, Fraction]:
    """Deterministic report ordering: cheapest first, ties broken on
    BRAMs then descending throughput, so equal-area points never
    shuffle between runs."""
    return (point.area.slices, point.area.brams, -point.throughput)


class ParetoFront:
    """Incrementally maintained set of non-dominated points.

    Each :meth:`add` drops the newcomer if any member dominates it and
    evicts members the newcomer dominates -- O(front size) per insert
    instead of the O(n^2) post-hoc filter over every evaluated point.
    Dominance runs over ``objectives`` (default :data:`OBJECTIVES`).
    """

    def __init__(
        self, objectives: Sequence[Objective] = OBJECTIVES
    ) -> None:
        self._members: List[DesignPoint] = []
        self._objectives = tuple(objectives)

    def add(self, point: DesignPoint) -> bool:
        """Insert ``point``; returns True when it (already) is a member."""
        if point in self._members:
            return True
        if any(
            dominates(member, point, self._objectives)
            for member in self._members
        ):
            return False
        self._members = [
            member
            for member in self._members
            if not dominates(point, member, self._objectives)
        ]
        self._members.append(point)
        return True

    def points(self) -> List[DesignPoint]:
        """Front members sorted by area (cheapest first; ties broken on
        BRAMs, then descending throughput)."""
        return sorted(self._members, key=_front_sort_key)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, point: DesignPoint) -> bool:
        return point in self._members

    def __eq__(self, other: object) -> bool:
        """Same member *set* (insertion order is irrelevant to a front)."""
        if not isinstance(other, ParetoFront):
            return NotImplemented
        return len(self._members) == len(other._members) and all(
            member in other._members for member in self._members
        )

    __hash__ = None  # mutable


# ----------------------------------------------------------------------
# the cached evaluator
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvaluationOutcome:
    """What evaluating one candidate produced: a point or a failure."""

    label: str
    point: Optional[DesignPoint] = None
    reason: Optional[str] = None

    @property
    def feasible(self) -> bool:
        return self.point is not None

    def rebrand(self, candidate: CandidatePoint) -> "EvaluationOutcome":
        """The same analysis content under ``candidate``'s identity.

        Cache keys address the *analysis problem* (fingerprints), which
        physically identical candidates share -- e.g. the single-tile
        platform regardless of the requested interconnect.  A cache hit
        must therefore be re-labeled for the candidate that asked, or a
        noc-only sweep could report points labeled ``1t/fsl``.
        """
        if self.point is None:
            return EvaluationOutcome(
                label=candidate.label, reason=self.reason
            )
        return EvaluationOutcome(
            label=candidate.label,
            point=DesignPoint(
                tiles=candidate.tiles,
                interconnect=candidate.interconnect,
                with_ca=candidate.with_ca,
                throughput=self.point.throughput,
                area=self.point.area,
                constraint_met=self.point.constraint_met,
                mix=candidate.mix.name,
                effort=candidate.effort,
                strategy=candidate.strategy,
                candidate=candidate,
                power=self.point.power,
                energy=self.point.energy,
            ),
        )


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class EvaluationCache:
    """Content-addressed store of evaluation outcomes.

    Keys are :func:`repro.flow.fingerprint.evaluation_key` digests --
    application fingerprint + architecture fingerprint + mapping knobs --
    so any two evaluations of the *same analysis problem* share an entry,
    regardless of which sweep, explorer or application object asked.
    Thread-safe: parallel workers share one instance.

    :attr:`rounds` is the mapping-round memo the evaluators hand to
    :meth:`~repro.mapping.pipeline.MappingPipeline.run`: bound-graph
    content key -> static orders and throughput result.  It lives in
    memory only, is never persisted, and :meth:`clear` empties it, so
    it lasts exactly as long as the cache.  Its lookups are not cache
    lookups and do not touch :attr:`stats`.  Threads share it without
    the lock: an entry is a pure function of its key, so a race at
    worst computes one round twice.
    """

    def __init__(self) -> None:
        self._store: Dict[str, EvaluationOutcome] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()
        self.rounds: RoundMemo = {}

    def get(self, key: str) -> Optional[EvaluationOutcome]:
        with self._lock:
            outcome = self._store.get(key)
            if outcome is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
            return outcome

    def put(self, key: str, outcome: EvaluationOutcome) -> None:
        with self._lock:
            self._store[key] = outcome

    def clear(self) -> None:
        with self._lock:
            self._store.clear()
            self.rounds.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)


class Evaluator:
    """Maps candidate points through the conservative analysis, memoized.

    One evaluator serves one application (its fingerprint is precomputed);
    the *cache* may be shared across evaluators -- keys embed the
    application fingerprint, so a multi-application study reuses whatever
    design points its applications have in common with earlier sweeps.
    """

    def __init__(
        self,
        app: ApplicationModel,
        constraint: Optional[Fraction] = None,
        fixed: Optional[Dict[str, str]] = None,
        cache: Optional[EvaluationCache] = None,
        power_budget: Optional[Fraction] = None,
        energy_budget: Optional[Fraction] = None,
        power_model: Optional[PowerModel] = None,
    ) -> None:
        self.app = app
        self.constraint = (
            constraint if constraint is not None
            else app.throughput_constraint
        )
        self.fixed = dict(fixed) if fixed else None
        self.cache = cache if cache is not None else EvaluationCache()
        self.power_budget = power_budget
        self.energy_budget = energy_budget
        if power_model is None and (
            power_budget is not None or energy_budget is not None
        ):
            power_model = PowerModel()
        #: ``None`` keeps power estimation off entirely -- evaluation
        #: keys and artifacts stay byte-identical to budget-less runs.
        self.power_model = power_model
        self._app_fingerprint = application_fingerprint(app)
        self.evaluations = 0  # cache misses that ran the full analysis
        self._count_lock = threading.Lock()

    def _budget_token(self) -> Optional[str]:
        """Cache-key part for the power configuration; ``None`` (and
        therefore absent from the key) when estimation is off."""
        if self.power_model is None:
            return None
        return (
            f"{self.power_model.cache_token()}"
            f",power={self.power_budget}"
            f",energy={self.energy_budget}"
        )

    def evaluate(self, candidate: CandidatePoint) -> EvaluationOutcome:
        """Analyze one candidate, consulting the cache first."""
        effort = MappingEffort.of(candidate.effort)
        arch = candidate.build_architecture()
        key = evaluation_key(
            self._app_fingerprint,
            architecture_fingerprint(arch),
            self.constraint,
            self.fixed,
            effort.cache_token(),
            strategy=candidate.strategy.cache_token(),
            budgets=self._budget_token(),
        )
        cached = self.cache.get(key)
        if cached is not None:
            return cached.rebrand(candidate)

        with self._count_lock:
            self.evaluations += 1
        try:
            result = candidate.strategy.build_pipeline().run(
                self.app,
                arch,
                constraint=self.constraint,
                fixed=self.fixed,
                effort=effort,
                memo=self.cache.rounds,
            )
        except (MappingError, RoutingError) as error:
            outcome = EvaluationOutcome(
                label=candidate.label, reason=str(error)
            )
        except UnboundedExecutionError:
            outcome = EvaluationOutcome(
                label=candidate.label,
                reason=(
                    "throughput analysis found no periodic phase within "
                    f"the {effort.max_iterations}-iteration budget; raise "
                    "it with --max-iterations or a higher --effort"
                ),
            )
        else:
            outcome = self._score(candidate, arch, result)
        self.cache.put(key, outcome)
        return outcome

    def _score(self, candidate, arch, result) -> EvaluationOutcome:
        """Fold a successful mapping into an outcome, estimating power
        and enforcing budgets when the model is on."""
        power = energy = None
        if self.power_model is not None:
            power = platform_power(arch, self.power_model)
            try:
                energy = application_energy(
                    self.app, result, arch, self.power_model
                )
            except PowerError as error:
                return EvaluationOutcome(
                    label=candidate.label, reason=str(error)
                )
            if not power.within_budget(self.power_budget):
                return EvaluationOutcome(
                    label=candidate.label,
                    reason=(
                        f"over power budget: "
                        f"{float(power.total_mw):.1f} mW > "
                        f"{float(self.power_budget):.1f} mW"
                    ),
                )
            if not energy.within_budget(self.energy_budget):
                return EvaluationOutcome(
                    label=candidate.label,
                    reason=(
                        f"over energy budget: "
                        f"{float(energy.total_nj):.2f} nJ/iter > "
                        f"{float(self.energy_budget):.2f} nJ/iter"
                    ),
                )
        return EvaluationOutcome(
            label=candidate.label,
            point=DesignPoint(
                tiles=candidate.tiles,
                interconnect=candidate.interconnect,
                with_ca=candidate.with_ca,
                throughput=result.guaranteed_throughput,
                area=platform_area(arch),
                constraint_met=result.constraint_met,
                mix=candidate.mix.name,
                effort=candidate.effort,
                strategy=candidate.strategy,
                candidate=candidate,
                power=power,
                energy=energy,
            ),
        )


class UseCaseEvaluator:
    """Evaluate candidates against *several* applications (use-cases).

    The MAMPS platform is shared by time-multiplexed use-cases
    (:mod:`repro.flow.usecases`): a candidate platform is only useful
    when **every** application maps onto it.  This evaluator runs one
    per-application :class:`Evaluator` against a shared cache and folds
    the outcomes:

    * infeasible for any application -> infeasible (reason names the
      application);
    * otherwise the combined point reports the *minimum* per-application
      throughput (the platform's bottleneck guarantee) and meets the
      constraint only when every application meets its own.

    Cache entries stay per-application, so overlapping studies and
    single-application sweeps reuse each other's work.  The union's
    physical-link feasibility (FSL port limits) is checked when a chosen
    point is promoted through :func:`repro.flow.usecases.map_use_cases`,
    not per candidate -- each per-application mapping is individually
    routable, which the per-candidate analysis already guarantees.
    """

    def __init__(
        self,
        apps: Sequence[ApplicationModel],
        constraints: Optional[Dict[str, Optional[Fraction]]] = None,
        fixed: Optional[Dict[str, Dict[str, str]]] = None,
        cache: Optional[EvaluationCache] = None,
        power_budget: Optional[Fraction] = None,
        energy_budget: Optional[Fraction] = None,
        power_model: Optional[PowerModel] = None,
    ) -> None:
        if not apps:
            raise ValueError("UseCaseEvaluator needs at least one app")
        names = [app.name for app in apps]
        if len(set(names)) != len(names):
            raise ValueError(
                f"use-case applications need distinct names, got {names}"
            )
        self.apps = tuple(apps)
        self.cache = cache if cache is not None else EvaluationCache()
        self._evaluators = [
            Evaluator(
                app,
                constraint=(constraints or {}).get(app.name),
                fixed=(fixed or {}).get(app.name),
                cache=self.cache,
                power_budget=power_budget,
                energy_budget=energy_budget,
                power_model=power_model,
            )
            for app in apps
        ]
        #: The binding constraint the explorer's early-exit logic checks;
        #: any application having one makes early exit meaningful.
        active = [
            e.constraint for e in self._evaluators
            if e.constraint is not None
        ]
        self.constraint: Optional[Fraction] = min(active) if active else None

    @property
    def evaluations(self) -> int:
        return sum(e.evaluations for e in self._evaluators)

    def evaluate(self, candidate: CandidatePoint) -> EvaluationOutcome:
        points: List[DesignPoint] = []
        for app, evaluator in zip(self.apps, self._evaluators):
            outcome = evaluator.evaluate(candidate)
            if outcome.point is None:
                return EvaluationOutcome(
                    label=candidate.label,
                    reason=f"{app.name}: {outcome.reason}",
                )
            points.append(outcome.point)
        bottleneck = min(points, key=lambda p: p.throughput)
        # the platform (and its peak power) is shared; energy reports
        # the worst per-application iteration cost, deterministically
        energy = None
        if all(p.energy is not None for p in points):
            energy = max(
                (p.energy for p in points), key=lambda e: e.total_pj
            )
        return EvaluationOutcome(
            label=candidate.label,
            point=DesignPoint(
                tiles=candidate.tiles,
                interconnect=candidate.interconnect,
                with_ca=candidate.with_ca,
                throughput=bottleneck.throughput,
                area=bottleneck.area,
                constraint_met=all(p.constraint_met for p in points),
                mix=candidate.mix.name,
                effort=candidate.effort,
                strategy=candidate.strategy,
                candidate=candidate,
                power=bottleneck.power,
                energy=energy,
            ),
        )


# ----------------------------------------------------------------------
# exploration results
# ----------------------------------------------------------------------
@dataclass
class ExplorationResult:
    """All evaluated points plus the Pareto frontier."""

    points: List[DesignPoint]
    failures: List[Tuple[str, str]]  # (label, reason)
    front: Optional[ParetoFront] = None
    cache_stats: Optional[CacheStats] = None
    elapsed_seconds: float = 0.0
    jobs: int = 1
    early_exit: bool = False
    skipped: int = 0  # candidates never evaluated due to early exit

    def pareto_frontier(self) -> List[DesignPoint]:
        if self.front is not None:
            return self.front.points()
        # post-hoc fallback for hand-built results
        frontier = [
            p for p in self.points
            if not any(q.dominates(p) for q in self.points)
        ]
        return sorted(frontier, key=_front_sort_key)

    def best_meeting_constraint(self) -> Optional[DesignPoint]:
        """Smallest design point that meets the throughput constraint."""
        feasible = [p for p in self.points if p.constraint_met]
        if not feasible:
            return None
        return min(feasible, key=_front_sort_key)

    def as_table(self) -> str:
        width = max([len(p.label) for p in self.points] + [12])
        # the energy column appears only when estimation ran, keeping
        # budget-less renders identical to historic output
        with_energy = any(p.energy is not None for p in self.points)
        header = (
            f"{'point':<{width}} {'throughput/Mcycle':>18} {'slices':>8} "
            f"{'BRAMs':>6} {'meets':>6} {'pareto':>7}"
        )
        if with_energy:
            header += f" {'nJ/iter':>10}"
        frontier = set(p.label for p in self.pareto_frontier())
        lines = [header, "-" * len(header)]
        for p in sorted(
            self.points,
            key=lambda p: (p.tiles, p.interconnect, p.with_ca, p.mix),
        ):
            line = (
                f"{p.label:<{width}} {float(p.throughput * 1e6):>18.4f} "
                f"{p.area.slices:>8} {p.area.brams:>6} "
                f"{'yes' if p.constraint_met else 'no':>6} "
                f"{'*' if p.label in frontier else '':>7}"
            )
            if with_energy:
                energy = (
                    f"{float(p.energy.total_nj):.2f}"
                    if p.energy is not None
                    else "-"
                )
                line += f" {energy:>10}"
            lines.append(line)
        for label, reason in self.failures:
            lines.append(f"{label:<{width}} infeasible: {reason}")
        if self.skipped:
            lines.append(
                f"(early exit: {self.skipped} candidate(s) not evaluated)"
            )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# the process-shippable evaluation task
# ----------------------------------------------------------------------
# Worker processes memoize one evaluator per sweep configuration: the
# config payload rides along with every candidate (workers are
# stateless across submissions by contract), but only the first
# candidate a worker sees actually builds the evaluator.
_CHILD_EVALUATORS: Dict[str, "Union[Evaluator, UseCaseEvaluator]"] = {}


def _sweep_config(
    evaluator: "Union[Evaluator, UseCaseEvaluator]",
) -> Dict[str, object]:
    """The JSON document a worker rebuilds this evaluator from."""
    from repro.artifacts.schema import to_payload

    def encode_power(ev: "Evaluator") -> Optional[Dict[str, object]]:
        if ev.power_model is None:
            return None
        return {
            "tech_nm": ev.power_model.tech_nm,
            "power_budget": (
                None if ev.power_budget is None else str(ev.power_budget)
            ),
            "energy_budget": (
                None
                if ev.energy_budget is None
                else str(ev.energy_budget)
            ),
        }

    if isinstance(evaluator, Evaluator):
        return {
            "multi": False,
            "apps": [to_payload(evaluator.app)],
            "constraints": {
                evaluator.app.name: (
                    None
                    if evaluator.constraint is None
                    else str(evaluator.constraint)
                )
            },
            "fixed": (
                {evaluator.app.name: evaluator.fixed}
                if evaluator.fixed
                else {}
            ),
            "power": encode_power(evaluator),
        }
    parts = evaluator._evaluators
    return {
        "multi": True,
        "apps": [to_payload(app) for app in evaluator.apps],
        "constraints": {
            app.name: (
                None if part.constraint is None else str(part.constraint)
            )
            for app, part in zip(evaluator.apps, parts)
        },
        "fixed": {
            app.name: part.fixed
            for app, part in zip(evaluator.apps, parts)
            if part.fixed
        },
        "power": encode_power(parts[0]),
    }


def _evaluator_from_config(
    config: Dict[str, object],
) -> "Union[Evaluator, UseCaseEvaluator]":
    import repro.artifacts.codecs  # noqa: F401  (registers the codecs)
    from repro.artifacts.schema import from_payload

    apps = [from_payload(payload) for payload in config["apps"]]
    constraints = {
        name: None if value is None else Fraction(value)
        for name, value in config["constraints"].items()
    }
    power = config["power"]
    power_kwargs: Dict[str, object] = {}
    if power is not None:
        power_kwargs = {
            "power_model": PowerModel(tech_nm=power["tech_nm"]),
            "power_budget": (
                None
                if power["power_budget"] is None
                else Fraction(power["power_budget"])
            ),
            "energy_budget": (
                None
                if power["energy_budget"] is None
                else Fraction(power["energy_budget"])
            ),
        }
    if not config["multi"]:
        app = apps[0]
        return Evaluator(
            app,
            constraint=constraints.get(app.name),
            fixed=config["fixed"].get(app.name),
            **power_kwargs,
        )
    return UseCaseEvaluator(
        apps,
        constraints=constraints,
        fixed=config["fixed"] or None,
        **power_kwargs,
    )


@backend_task("dse.evaluate-candidate")
def _evaluate_candidate_task(payload: Dict[str, object]) -> object:
    """Evaluate one candidate in a worker process.

    Payload: ``config`` (the sweep document of :func:`_sweep_config`),
    ``config_key`` (its digest, the memoization key) and ``candidate``
    (a canonical ``candidate-point`` payload).  Returns the canonical
    ``evaluation-outcome`` payload.  Each worker keeps a per-process
    evaluator (and evaluation cache) per config; results are a pure
    function of the inputs, so the parent's fold is byte-identical to
    a thread sweep.
    """
    import repro.artifacts.codecs  # noqa: F401  (registers the codecs)
    from repro.artifacts.schema import from_payload, to_payload

    key = payload["config_key"]
    evaluator = _CHILD_EVALUATORS.get(key)
    if evaluator is None:
        evaluator = _evaluator_from_config(payload["config"])
        _CHILD_EVALUATORS.clear()  # one sweep at a time per worker
        _CHILD_EVALUATORS[key] = evaluator
    candidate = from_payload(payload["candidate"])
    return to_payload(evaluator.evaluate(candidate))


# ----------------------------------------------------------------------
# the explorer
# ----------------------------------------------------------------------
class ParallelExplorer:
    """Sweeps a :class:`DesignSpace` through an :class:`Evaluator`.

    ``jobs > 1`` fans evaluations out over an execution backend
    (:mod:`repro.flow.backend`); results are collected in enumeration
    order, so the produced point list -- and therefore the Pareto front
    and the rendered table -- is byte-identical to a serial sweep.
    ``backend`` picks where evaluations run: ``"thread"`` (default)
    shares this process, ``"process"`` ships each candidate as a
    canonical payload to worker processes -- pure-Python analyses then
    scale with cores instead of contending on the GIL.  Process workers
    keep per-process evaluation caches, so the parent's ``cache_stats``
    only reflect its own (unused) cache.

    ``early_exit=True`` stops at the first candidate (in enumeration
    order) whose mapping meets the throughput constraint; later
    candidates are reported as ``skipped``.  With workers in flight some
    later points may already have been analyzed -- their results land in
    the cache for the next sweep but are *not* included in the result,
    keeping early-exit output independent of ``jobs``.
    """

    def __init__(
        self,
        evaluator: "Union[Evaluator, UseCaseEvaluator]",
        jobs: int = 1,
        backend: Union[None, str, ExecutionBackend] = None,
    ) -> None:
        self.evaluator = evaluator
        self.backend = as_backend(backend, jobs)
        self.jobs = self.backend.jobs

    def explore(
        self, space: DesignSpace, early_exit: bool = False
    ) -> ExplorationResult:
        if early_exit and self.evaluator.constraint is None:
            raise ValueError(
                "early_exit needs a throughput constraint; without one "
                "every point trivially satisfies it and the sweep would "
                "stop at the first candidate"
            )
        start = time.perf_counter()
        candidates = space.points()
        front = ParetoFront()
        points: List[DesignPoint] = []
        failures: List[Tuple[str, str]] = []
        skipped = 0
        stopped = threading.Event()

        def run(candidate: CandidatePoint) -> Optional[EvaluationOutcome]:
            if stopped.is_set():
                return None
            return self.evaluator.evaluate(candidate)

        fold = lambda outcomes: self._collect(  # noqa: E731
            candidates, outcomes, points, failures, front,
            early_exit, stopped,
        )
        if self.backend.name == "process":
            consumed = self.backend.run_tasks_ordered(
                "dse.evaluate-candidate",
                self._task_payloads(candidates),
                fold=lambda payloads: fold(
                    self._decode_outcomes(payloads)
                ),
            )
        else:
            # thread-side on purpose: threads share the caller's
            # EvaluationCache, which a task payload cannot carry
            consumed = self.backend.map_ordered(run, candidates, fold=fold)
        skipped = len(candidates) - consumed
        return ExplorationResult(
            points=points,
            failures=failures,
            front=front,
            cache_stats=self.evaluator.cache.stats,
            elapsed_seconds=time.perf_counter() - start,
            jobs=self.jobs,
            early_exit=early_exit,
            skipped=skipped,
        )

    def _task_payloads(
        self, candidates: Sequence[CandidatePoint]
    ) -> List[Dict[str, object]]:
        """One ``dse.evaluate-candidate`` payload per candidate."""
        from repro.artifacts.schema import to_payload

        config = _sweep_config(self.evaluator)
        config_key = hashlib.sha256(
            json.dumps(config, sort_keys=True).encode("utf-8")
        ).hexdigest()
        return [
            {
                "config": config,
                "config_key": config_key,
                "candidate": to_payload(candidate),
            }
            for candidate in candidates
        ]

    @staticmethod
    def _decode_outcomes(payloads) -> Iterator[EvaluationOutcome]:
        from repro.artifacts.schema import from_payload

        return (from_payload(payload) for payload in payloads)

    @staticmethod
    def _collect(
        candidates: Sequence[CandidatePoint],
        outcomes: Iterator[Optional[EvaluationOutcome]],
        points: List[DesignPoint],
        failures: List[Tuple[str, str]],
        front: ParetoFront,
        early_exit: bool,
        stopped: threading.Event,
    ) -> int:
        """Fold outcomes, in enumeration order, into the result lists.
        Returns how many candidates were consumed."""
        consumed = 0
        for candidate, outcome in zip(candidates, outcomes):
            if outcome is None:  # worker saw the stop flag first
                break
            consumed += 1
            if outcome.point is not None:
                points.append(outcome.point)
                front.add(outcome.point)
                if early_exit and outcome.point.constraint_met:
                    stopped.set()
                    break
            else:
                failures.append((outcome.label, outcome.reason or ""))
        return consumed


# ----------------------------------------------------------------------
# the one-call entry point
# ----------------------------------------------------------------------
def explore_design_space(
    app: Union[ApplicationModel, Sequence[ApplicationModel]],
    tile_counts: Sequence[int] = (1, 2, 3, 4, 5),
    interconnects: Sequence[str] = ("fsl", "noc"),
    ca_options: Sequence[bool] = (False,),
    constraint: Optional[Fraction] = None,
    fixed: Optional[Dict[str, str]] = None,
    mixes: Sequence[TileMix] = (UNIFORM_MIX,),
    effort: Union[str, MappingEffort] = "normal",
    jobs: int = 1,
    backend: Union[None, str, ExecutionBackend] = None,
    early_exit: bool = False,
    cache: Optional[EvaluationCache] = None,
    strategy: Optional[StrategyTuple] = None,
    binding: str = "greedy",
    routing: str = "xy",
    buffer_policy: str = "linear",
    scheduling: str = "static-order",
    seed: Optional[int] = None,
    power_budget: Optional[Fraction] = None,
    energy_budget: Optional[Fraction] = None,
    power_model: Optional[PowerModel] = None,
) -> ExplorationResult:
    """Evaluate every template configuration in the sweep.

    Points whose mapping fails (memory infeasible, unroutable, or a
    state space that outruns the effort's iteration budget) are
    recorded as failures rather than raising -- an exploration should
    report the whole space.  Pass a shared :class:`EvaluationCache` to
    reuse results across sweeps and applications, ``jobs`` to evaluate
    concurrently (``backend="process"`` moves evaluations onto worker
    processes; see :mod:`repro.flow.backend`), and ``early_exit=True``
    to stop at the first constraint-satisfying candidate.  The mapping-pipeline strategies
    can be set per stage (``binding``/``routing``/``buffer_policy``/
    ``scheduling``/``seed``) or wholesale via ``strategy``; cache keys
    embed the choice, so sweeping the same space under two strategies
    never produces a false cache hit.

    ``app`` may also be a *sequence* of applications with distinct
    names: the sweep then scores each candidate as a shared use-case
    platform through :class:`UseCaseEvaluator` (minimum per-application
    guarantee; feasible only when every application maps).  In that form
    ``constraint`` applies to every application (each application's own
    ``throughput_constraint`` is used where it is ``None``) and
    ``fixed`` pins actors *per application name*
    (``{app_name: {actor: tile}}``).

    Power estimation (and the energy objective) turns on when a
    ``power_budget`` (mW), ``energy_budget`` (nJ per iteration) or
    explicit ``power_model`` is supplied: every feasible point then
    carries :class:`~repro.power.PowerEstimate` /
    :class:`~repro.power.EnergyEstimate` values, over-budget points are
    recorded as failures, and the power configuration joins the cache
    keys.  Left at the defaults, keys, artifacts and reports are
    byte-identical to a pre-power run.
    """
    effort_name = MappingEffort.of(effort).name
    if strategy is None:
        strategy = StrategyTuple(
            binding=binding,
            routing=routing,
            buffer_policy=buffer_policy,
            scheduling=scheduling,
            seed=seed,
        )
    strategy.validate()
    space = DesignSpace(
        tile_counts=tile_counts,
        interconnects=interconnects,
        ca_options=ca_options,
        mixes=mixes,
        effort=effort_name,
        strategy=strategy,
    )
    if isinstance(app, ApplicationModel):
        evaluator: Union[Evaluator, UseCaseEvaluator] = Evaluator(
            app,
            constraint=constraint,
            fixed=fixed,
            cache=cache,
            power_budget=power_budget,
            energy_budget=energy_budget,
            power_model=power_model,
        )
    else:
        apps = list(app)
        evaluator = UseCaseEvaluator(
            apps,
            constraints=(
                None
                if constraint is None
                else {a.name: constraint for a in apps}
            ),
            fixed=fixed,
            cache=cache,
            power_budget=power_budget,
            energy_budget=energy_budget,
            power_model=power_model,
        )
    explorer = ParallelExplorer(evaluator, jobs=jobs, backend=backend)
    return explorer.explore(space, early_exit=early_exit)
