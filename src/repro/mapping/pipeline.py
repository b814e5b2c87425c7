"""The pluggable mapping pipeline (the SDF3 box of Fig. 1, opened up).

The paper's flow fixes one mapping recipe -- greedy load-balanced binding,
XY routing, uniform buffer growth, static-order scheduling -- but the
surrounding literature swaps these heuristics freely: Benhaoua et al.
place communicating tasks along an outward spiral from the master tile
(arXiv:1312.5764), and Quan & Pimentel's bias-elitist genetic algorithm
beats greedy mappers on heterogeneous MPSoCs (arXiv:1406.7539).  This
module turns each stage of the mapping flow into a *strategy* behind a
small protocol, keyed by name in a registry:

* :class:`BindingStrategy` -- actors -> tiles (``greedy``, ``spiral``,
  ``ga``, ``energy``);
* :class:`RoutingStrategy` -- inter-tile channels -> interconnect
  resources (``xy``);
* :class:`BufferPolicy` -- initial capacities and the growth schedule
  (``linear``, ``exponential``);
* :class:`SchedulingStrategy` -- per-tile static orders
  (``static-order``).

A :class:`MappingPipeline` chains resolved stages and runs the
constraint loop; :func:`map_application` is the one-call entry point
over it, and :class:`MappingEffort` is the only way to size a run.
:class:`StrategyTuple` is the hashable identity of a pipeline
configuration -- the design-space exploration engine embeds it in cache
keys so two evaluations of the same platform under different strategies
never collide.

A caller that maps many platforms (the design-space exploration engine)
can hand :meth:`MappingPipeline.run` a :data:`RoundMemo`: each round of
the constraint loop is then keyed by :func:`round_key`, a digest of the
bound graph's content, and a round whose bound graph was already
analyzed reuses its static orders and throughput result instead of
deriving and analyzing them again.
"""

from __future__ import annotations

import copy
import hashlib
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import (
    Dict,
    List,
    Optional,
    Protocol,
    Tuple,
    Union,
    runtime_checkable,
)

from repro.appmodel.implementation import ActorImplementation
from repro.appmodel.model import ApplicationModel
from repro.arch.noc import SDMNoC
from repro.arch.platform import ArchitectureModel
from repro.comm.serialization import SerializationModel
from repro.exceptions import DeadlockError, MappingError, \
    ThroughputConstraintError
from repro.mapping.binding import _memory_fits, bind_actors
from repro.mapping.bound_graph import (
    BoundGraph,
    apply_buffer_capacities,
    build_bound_graph,
)
from repro.mapping.buffer_alloc import allocate_buffers, grow_buffers
from repro.mapping.costs import CostWeights
from repro.mapping.routing import route_channels
from repro.mapping.scheduling import build_static_orders
from repro.mapping.spec import ChannelMapping, Mapping, MappingResult
from repro.sdf.engine import ThroughputEngine
from repro.sdf.repetition import repetition_vector
from repro.sdf.throughput import ThroughputResult


# ----------------------------------------------------------------------
# effort presets
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MappingEffort:
    """How hard the mapper tries before giving up on a design point.

    The exploration engine sweeps *many* points, most of which it only
    needs a quick feasibility verdict on; the final chosen point deserves
    the full retry budget.  An effort level bundles the two knobs that
    trade mapping quality for wall-clock time: the number of buffer-growth
    rounds and the state-space budget of the throughput analysis.  It is
    the only way to size a mapping run.
    """

    name: str
    max_buffer_rounds: int
    max_iterations: int

    @classmethod
    def of(cls, level: Union[str, "MappingEffort"]) -> "MappingEffort":
        """Resolve an effort level by name (``low``/``normal``/``high``).

        A ``+it<N>`` suffix (e.g. ``"normal+it50000"``) derives a preset
        with the state-space iteration budget overridden to ``N`` -- the
        string form the CLI's ``--max-iterations`` plumbs through the
        exploration engine, whose candidates carry effort by name.
        """
        if isinstance(level, MappingEffort):
            return level
        base_name, *suffixes = level.split("+")
        try:
            effort: MappingEffort = EFFORT_LEVELS[base_name]
        except KeyError:
            raise ValueError(
                f"unknown mapping effort {level!r}; pick from "
                f"{sorted(EFFORT_LEVELS)} (optionally suffixed with "
                "'+it<N>' to override the analysis iteration budget)"
            ) from None
        for token in suffixes:
            if not token.startswith("it"):
                raise ValueError(
                    f"unknown suffix {token!r} in mapping effort "
                    f"{level!r}; expected '+it<N>'"
                )
            try:
                iterations = int(token[2:])
            except ValueError:
                raise ValueError(
                    f"invalid iteration override in mapping effort "
                    f"{level!r}; expected '+it<N>' with a positive "
                    "integer N"
                ) from None
            effort = effort.with_iterations(iterations)
        return effort

    def with_iterations(self, max_iterations: int) -> "MappingEffort":
        """Same preset with a different state-space iteration budget.

        The derived name ``base+it<N>`` (plain ``base`` when ``N`` is
        the preset's own budget) round-trips through :meth:`of`, so the
        override survives string-typed plumbing (CLI, design-space
        candidates, cache keys).
        """
        if max_iterations < 1:
            raise ValueError(
                f"max_iterations must be >= 1, got {max_iterations}"
            )
        if max_iterations == self.max_iterations:
            return self
        base_name = self.name.split("+", 1)[0]
        base = EFFORT_LEVELS.get(base_name)
        name = base_name
        if base is None or base.max_iterations != max_iterations:
            name += f"+it{max_iterations}"
        return replace(self, name=name, max_iterations=max_iterations)

    def cache_token(self) -> str:
        """The effort part of a mapping-result or library cache key."""
        return f"{self.name}:{self.max_buffer_rounds}:{self.max_iterations}"


#: The named effort presets, cheapest first.
EFFORT_LEVELS: Dict[str, MappingEffort] = {
    "low": MappingEffort("low", max_buffer_rounds=4, max_iterations=4_000),
    "normal": MappingEffort(
        "normal", max_buffer_rounds=12, max_iterations=10_000
    ),
    "high": MappingEffort(
        "high", max_buffer_rounds=24, max_iterations=40_000
    ),
}


# ----------------------------------------------------------------------
# stage protocols
# ----------------------------------------------------------------------
@runtime_checkable
class BindingStrategy(Protocol):
    """Stage 1: assign every actor to a tile (and pick implementations)."""

    def bind(
        self,
        app: ApplicationModel,
        arch: ArchitectureModel,
        weights: Optional[CostWeights] = None,
        fixed: Optional[Dict[str, str]] = None,
        seed: Optional[int] = None,
    ) -> Tuple[Dict[str, str], Dict[str, ActorImplementation]]:
        ...


@runtime_checkable
class RoutingStrategy(Protocol):
    """Stage 2: allocate interconnect resources per inter-tile channel."""

    def route(
        self,
        app: ApplicationModel,
        arch: ArchitectureModel,
        binding: Dict[str, str],
    ) -> Dict[str, ChannelMapping]:
        ...


@runtime_checkable
class BufferPolicy(Protocol):
    """Stage 3: choose starting capacities and the growth schedule."""

    def allocate(
        self, app: ApplicationModel, channels: Dict[str, ChannelMapping]
    ) -> None:
        ...

    def grow(
        self, channels: Dict[str, ChannelMapping], round_index: int
    ) -> None:
        ...


@runtime_checkable
class SchedulingStrategy(Protocol):
    """Stage 4: derive per-tile static orders for the bound graph."""

    def build(self, bound: BoundGraph) -> Dict[str, List[str]]:
        ...


#: Stage kinds, in pipeline order.
STAGE_KINDS: Tuple[str, ...] = ("binding", "routing", "buffer", "scheduling")

_REGISTRY: Dict[str, Dict[str, type]] = {kind: {} for kind in STAGE_KINDS}


def register_strategy(kind: str, name: str):
    """Class decorator registering a strategy under ``(kind, name)``.

    Duplicate registrations raise immediately (a silent override would
    change mapping results behind the caller's back).  The decorated
    class gains ``kind`` and ``name`` attributes, which is how a
    pipeline recovers the registry identity of an instance.
    """
    if kind not in _REGISTRY:
        raise ValueError(
            f"unknown stage kind {kind!r}; pick from {sorted(_REGISTRY)}"
        )

    def decorator(cls):
        if name in _REGISTRY[kind]:
            raise ValueError(
                f"duplicate registration of {kind} strategy {name!r} "
                f"(already provided by "
                f"{_REGISTRY[kind][name].__qualname__})"
            )
        _REGISTRY[kind][name] = cls
        cls.kind = kind
        cls.name = name
        return cls

    return decorator


def resolve(kind: str, name: str):
    """Instantiate the registered ``kind`` strategy called ``name``."""
    if kind not in _REGISTRY:
        raise ValueError(
            f"unknown stage kind {kind!r}; pick from {sorted(_REGISTRY)}"
        )
    try:
        cls = _REGISTRY[kind][name]
    except KeyError:
        raise ValueError(
            f"unknown {kind} strategy {name!r}; registered: "
            f"{sorted(_REGISTRY[kind])}"
        ) from None
    return cls()


def registered(kind: str) -> Tuple[str, ...]:
    """The names registered for one stage kind, sorted."""
    if kind not in _REGISTRY:
        raise ValueError(
            f"unknown stage kind {kind!r}; pick from {sorted(_REGISTRY)}"
        )
    return tuple(sorted(_REGISTRY[kind]))


# ----------------------------------------------------------------------
# binding strategies
# ----------------------------------------------------------------------
@register_strategy("binding", "greedy")
class GreedyBinding:
    """The paper's recipe: heavy actors first, lowest cost-function tile."""

    def bind(self, app, arch, weights=None, fixed=None, seed=None):
        return bind_actors(app, arch, weights=weights, fixed=fixed)


def _dataflow_order(app: ApplicationModel) -> List[str]:
    """Actors in deterministic dataflow (topological-ish) order.

    Kahn's algorithm over the explicit edges; actors on cycles (or left
    unreachable) are appended in name order so the traversal is total.
    """
    incoming: Dict[str, int] = {a.name: 0 for a in app.graph}
    successors: Dict[str, List[str]] = {a.name: [] for a in app.graph}
    for edge in app.graph.explicit_edges():
        if edge.src == edge.dst:
            continue
        incoming[edge.dst] += 1
        successors[edge.src].append(edge.dst)
    ready = sorted(a for a, n in incoming.items() if n == 0)
    order: List[str] = []
    seen = set()
    while ready:
        actor = ready.pop(0)
        if actor in seen:
            continue
        seen.add(actor)
        order.append(actor)
        for succ in successors[actor]:
            if succ in seen:
                continue
            incoming[succ] -= 1
            if incoming[succ] <= 0:
                ready.append(succ)
    order.extend(a for a in sorted(incoming) if a not in seen)
    return order


def _spiral_tile_order(arch: ArchitectureModel) -> List[str]:
    """Processor tiles ordered outward from the master tile.

    On the SDM NoC, outward means increasing hop distance from the
    master's router (ties broken by name) -- Benhaoua et al.'s spiral
    walk on a square mesh.  FSL platforms are distance-free, so the
    template order (master first) already *is* the spiral.
    """
    tiles = list(arch.processor_tiles())
    masters = [t for t in tiles if t.role == "master"]
    anchor = masters[0] if masters else tiles[0]
    noc = arch.interconnect if isinstance(arch.interconnect, SDMNoC) else None
    if noc is None:
        ordered = [anchor] + [t for t in tiles if t.name != anchor.name]
        return [t.name for t in ordered]
    return [
        t.name
        for t in sorted(
            tiles,
            key=lambda t: (noc.hop_distance(anchor.name, t.name), t.name),
        )
    ]


@register_strategy("binding", "spiral")
class SpiralBinding:
    """Benhaoua-style placement: walk the dataflow, fill tiles outward.

    Actors are visited in dataflow order and packed onto the current
    tile of the outward spiral until its projected load exceeds the
    balanced share (total workload / tile count); then the walk advances
    one tile.  Communicating neighbours therefore land on the same or an
    adjacent tile, which is the point of run-time spiral mappers:
    short routes at placement cost O(actors x tiles).  ``weights`` is
    ignored: the spiral optimizes locality, not the generic cost
    functions.
    """

    def bind(self, app, arch, weights=None, fixed=None, seed=None):
        app.validate()
        arch.validate()
        q = repetition_vector(app.graph)
        spiral = _spiral_tile_order(arch)

        def workload(actor: str) -> int:
            wcets = [i.wcet for i in app.implementations_of(actor)]
            return q[actor] * min(wcets)

        total = sum(workload(a.name) for a in app.graph)
        share = max(total // max(len(spiral), 1), 1)

        binding: Dict[str, str] = {}
        implementations: Dict[str, ActorImplementation] = {}
        load: Dict[str, int] = {}
        cursor = 0

        def feasible(actor: str, tile_name: str):
            tile = arch.tile(tile_name)
            impl = app.implementation_for(actor, tile.pe_type)
            if impl is None:
                return None
            on_tile = [a for a, t in binding.items() if t == tile_name]
            trial = dict(implementations)
            trial[actor] = impl
            if not _memory_fits(app, arch, tile_name, on_tile + [actor],
                                trial):
                return None
            return impl

        def place(actor: str, tile_name: str,
                  impl: ActorImplementation) -> None:
            binding[actor] = tile_name
            implementations[actor] = impl
            load[tile_name] = load.get(tile_name, 0) + q[actor] * impl.wcet

        for actor in _dataflow_order(app):
            if fixed and actor in fixed:
                impl = (
                    feasible(actor, fixed[actor])
                    if fixed[actor] in spiral else None
                )
                if impl is None:
                    raise MappingError(
                        f"actor {actor!r} cannot be bound: pinned to "
                        f"{fixed[actor]!r} but infeasible there"
                    )
                place(actor, fixed[actor], impl)
                continue
            placed = False
            # advance the spiral while the current tile is full, then
            # fall back to any later (wrapping) tile that still fits
            for offset in range(len(spiral)):
                tile_name = spiral[(cursor + offset) % len(spiral)]
                impl = feasible(actor, tile_name)
                if impl is None:
                    continue
                projected = load.get(tile_name, 0) + q[actor] * impl.wcet
                if offset == 0 and projected > share and load.get(tile_name):
                    continue  # current tile is full; spiral outward
                cursor = (cursor + offset) % len(spiral)
                place(actor, tile_name, impl)
                placed = True
                break
            if not placed:
                # every tile is either full or infeasible; retry ignoring
                # the balance threshold (feasibility beats balance)
                for tile_name in spiral:
                    impl = feasible(actor, tile_name)
                    if impl is not None:
                        place(actor, tile_name, impl)
                        placed = True
                        break
            if not placed:
                raise MappingError(
                    f"actor {actor!r} cannot be bound: no tile offers a "
                    "matching PE type with enough memory"
                )
        return binding, implementations


@register_strategy("binding", "energy")
class EnergyBiasedBinding:
    """Marcon-style energy-aware placement: minimize communication energy.

    Actors are visited in dataflow order; each is placed on the feasible
    tile that minimizes the interconnect energy of its edges to already
    placed neighbours (per-word bit energy from
    :class:`repro.power.PowerModel` -- zero intra-tile, flat per FSL
    word, injection + per-hop on the NoC), with ties broken by the
    lighter projected load and then the outward spiral order.  The
    result co-locates chatty neighbours when memory allows and keeps
    unavoidable NoC routes short.  Fully deterministic: exact-fraction
    energies, no seed (``weights``/``seed`` are ignored).
    """

    def bind(self, app, arch, weights=None, fixed=None, seed=None):
        from repro.power.model import PowerModel

        app.validate()
        arch.validate()
        model = PowerModel()
        q = repetition_vector(app.graph)
        spiral = _spiral_tile_order(arch)
        edges = list(app.graph.explicit_edges())

        binding: Dict[str, str] = {}
        implementations: Dict[str, ActorImplementation] = {}
        load: Dict[str, int] = {}

        def feasible(actor: str, tile_name: str):
            tile = arch.tile(tile_name)
            impl = app.implementation_for(actor, tile.pe_type)
            if impl is None:
                return None
            on_tile = [a for a, t in binding.items() if t == tile_name]
            trial = dict(implementations)
            trial[actor] = impl
            if not _memory_fits(app, arch, tile_name, on_tile + [actor],
                                trial):
                return None
            return impl

        def communication_pj(actor: str, tile_name: str) -> Fraction:
            """Interconnect energy per iteration of ``actor``'s edges to
            neighbours already placed, were it bound to ``tile_name``."""
            if arch.interconnect is None:
                return Fraction(0)
            total = Fraction(0)
            for edge in edges:
                if edge.src == edge.dst:
                    continue
                if edge.src == actor and edge.dst in binding:
                    other = binding[edge.dst]
                elif edge.dst == actor and edge.src in binding:
                    other = binding[edge.src]
                else:
                    continue
                total += model.transfer_energy_pj(
                    arch.interconnect,
                    tile_name,
                    other,
                    q[edge.src] * edge.production,
                    edge.token_size,
                )
            return total

        def place(actor: str, tile_name: str,
                  impl: ActorImplementation) -> None:
            binding[actor] = tile_name
            implementations[actor] = impl
            load[tile_name] = load.get(tile_name, 0) + q[actor] * impl.wcet

        for actor in _dataflow_order(app):
            if fixed and actor in fixed:
                impl = (
                    feasible(actor, fixed[actor])
                    if fixed[actor] in spiral else None
                )
                if impl is None:
                    raise MappingError(
                        f"actor {actor!r} cannot be bound: pinned to "
                        f"{fixed[actor]!r} but infeasible there"
                    )
                place(actor, fixed[actor], impl)
                continue
            best = None
            for position, tile_name in enumerate(spiral):
                impl = feasible(actor, tile_name)
                if impl is None:
                    continue
                cost = (
                    communication_pj(actor, tile_name),
                    load.get(tile_name, 0) + q[actor] * impl.wcet,
                    position,
                )
                if best is None or cost < best[0]:
                    best = (cost, tile_name, impl)
            if best is None:
                raise MappingError(
                    f"actor {actor!r} cannot be bound: no tile offers a "
                    "matching PE type with enough memory"
                )
            place(actor, best[1], best[2])
        return binding, implementations


@register_strategy("binding", "ga")
class BiasElitistGABinding:
    """Quan & Pimentel-style bias-elitist genetic binding, seeded.

    Chromosomes are tile choices per actor (restricted to tiles whose PE
    type has an implementation, and to the pinned tile for fixed
    actors).  The *bias*: the initial population is seeded with the
    greedy binding, so the GA starts from the best known constructive
    solution.  The *elitism*: the top ``elite`` individuals survive each
    generation unchanged.  Fitness minimizes the bottleneck tile load
    plus an interconnect-traffic term, with memory overflows pushed out
    by a large penalty.  Fully deterministic under a fixed ``seed``
    (``None`` runs as seed 0).  ``weights`` only shapes the greedy bias
    genome, not the GA's own fitness.
    """

    population = 24
    generations = 40
    elite = 2
    mutation_boost = 1.0  # scales the per-gene mutation rate 1/len
    #: This strategy is randomized: the seed is part of its identity
    #: (cache keys, labels).  Deterministic strategies leave this False
    #: so a stray ``seed`` cannot split their cache entries.
    uses_seed = True

    def bind(self, app, arch, weights=None, fixed=None, seed=None):
        app.validate()
        arch.validate()
        rng = random.Random(0 if seed is None else seed)
        q = repetition_vector(app.graph)
        actors = sorted(a.name for a in app.graph)
        tiles = list(arch.processor_tiles())

        domains: List[List[int]] = []
        for actor in actors:
            feasible = [
                i for i, tile in enumerate(tiles)
                if app.implementation_for(actor, tile.pe_type) is not None
                and (not fixed or actor not in fixed
                     or tile.name == fixed[actor])
            ]
            if not feasible:
                reason = (
                    f"pinned to {fixed[actor]!r} but infeasible there"
                    if fixed and actor in fixed
                    else "no tile offers a matching PE type"
                )
                raise MappingError(
                    f"actor {actor!r} cannot be bound: {reason}"
                )
            domains.append(feasible)

        def impl_of(actor: str, tile_index: int) -> ActorImplementation:
            return app.implementation_for(
                actor, tiles[tile_index].pe_type
            )

        fitness_cache: Dict[Tuple[int, ...], float] = {}

        def fitness(genome: Tuple[int, ...]) -> float:
            cached = fitness_cache.get(genome)
            if cached is not None:
                return cached
            load: Dict[int, int] = {}
            per_tile: Dict[int, List[str]] = {}
            impls: Dict[str, ActorImplementation] = {}
            for actor, gene in zip(actors, genome):
                impl = impl_of(actor, gene)
                impls[actor] = impl
                load[gene] = load.get(gene, 0) + q[actor] * impl.wcet
                per_tile.setdefault(gene, []).append(actor)
            cost = float(max(load.values()))
            by_actor = dict(zip(actors, genome))
            for edge in app.graph.explicit_edges():
                if by_actor[edge.src] != by_actor[edge.dst]:
                    words = -(-edge.token_size // 4)
                    cost += q[edge.src] * edge.production * words
            for gene, on_tile in per_tile.items():
                if not _memory_fits(app, arch, tiles[gene].name, on_tile,
                                    impls):
                    cost += 1e12
            fitness_cache[genome] = cost
            return cost

        def greedy_genome() -> Optional[Tuple[int, ...]]:
            try:
                greedy, _ = bind_actors(
                    app, arch, weights=weights, fixed=fixed
                )
            except MappingError:
                return None
            index = {t.name: i for i, t in enumerate(tiles)}
            return tuple(index[greedy[a]] for a in actors)

        def random_genome() -> Tuple[int, ...]:
            return tuple(rng.choice(d) for d in domains)

        population = [random_genome() for _ in range(self.population)]
        bias = greedy_genome()
        if bias is not None:
            population[0] = bias

        mutation_rate = min(
            1.0, self.mutation_boost / max(len(actors), 1)
        )

        def tournament(scored) -> Tuple[int, ...]:
            a, b = rng.randrange(len(scored)), rng.randrange(len(scored))
            return scored[min(a, b)][1]  # scored is sorted best-first

        for _ in range(self.generations):
            scored = sorted(
                ((fitness(g), g) for g in population), key=lambda x: x[0]
            )
            next_population = [g for _, g in scored[: self.elite]]
            while len(next_population) < self.population:
                mother = tournament(scored)
                father = tournament(scored)
                child = tuple(
                    (m if rng.random() < 0.5 else f)
                    for m, f in zip(mother, father)
                )
                child = tuple(
                    (rng.choice(domains[i])
                     if rng.random() < mutation_rate else gene)
                    for i, gene in enumerate(child)
                )
                next_population.append(child)
            population = next_population

        best_cost, best = min(
            ((fitness(g), g) for g in population), key=lambda x: x[0]
        )
        if best_cost >= 1e12:
            raise MappingError(
                f"GA binding found no memory-feasible placement of "
                f"{app.name!r} on {arch.name!r} "
                f"(population {self.population}, "
                f"{self.generations} generations)"
            )
        binding = {a: tiles[g].name for a, g in zip(actors, best)}
        implementations = {
            a: impl_of(a, g) for a, g in zip(actors, best)
        }
        return binding, implementations


# ----------------------------------------------------------------------
# routing strategies
# ----------------------------------------------------------------------
@register_strategy("routing", "xy")
class XYRouting:
    """The template router: dedicated FSL links, XY paths on the NoC."""

    def route(self, app, arch, binding):
        return route_channels(app, arch, binding)


# ----------------------------------------------------------------------
# buffer policies
# ----------------------------------------------------------------------
@register_strategy("buffer", "linear")
class LinearBufferGrowth:
    """The paper's schedule: liveness-bound start, +1 burst per round."""

    def allocate(self, app, channels):
        allocate_buffers(app, channels)

    def grow(self, channels, round_index):
        grow_buffers(channels)


@register_strategy("buffer", "exponential")
class ExponentialBufferGrowth:
    """Doubling growth: round ``k`` adds ``2**k`` tokens per buffer.

    Reaches deep pipelining in O(log capacity) analysis rounds instead
    of O(capacity) -- the right schedule when the constraint needs
    buffers far above the liveness bound and every round costs a full
    throughput analysis.  The step is capped so a long hopeless run
    cannot overflow tile memories by orders of magnitude.
    """

    max_step = 1024

    def allocate(self, app, channels):
        allocate_buffers(app, channels)

    def grow(self, channels, round_index):
        step = min(2 ** max(round_index, 0), self.max_step)
        grow_buffers(channels, factor_step=step)


# ----------------------------------------------------------------------
# scheduling strategies
# ----------------------------------------------------------------------
@register_strategy("scheduling", "static-order")
class StaticOrderScheduling:
    """SDF3's list scheduler: record one greedy self-timed iteration."""

    def build(self, bound):
        return build_static_orders(bound)


# ----------------------------------------------------------------------
# the strategy tuple (the pipeline's cacheable identity)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StrategyTuple:
    """Names of the four stage strategies plus the binding seed.

    This is what distinguishes two mapping runs of the same application
    on the same platform: the DSE engine embeds :meth:`cache_token` in
    evaluation keys, and :meth:`build_pipeline` reconstructs the exact
    pipeline later (e.g. when a chosen design point is promoted to the
    full flow).
    """

    binding: str = "greedy"
    routing: str = "xy"
    buffer_policy: str = "linear"
    scheduling: str = "static-order"
    seed: Optional[int] = None

    @property
    def is_default(self) -> bool:
        return self.normalize() == DEFAULT_STRATEGIES

    def normalize(self) -> "StrategyTuple":
        """Canonical form for identity purposes (cache keys, labels).

        The seed only belongs to the identity when the binding strategy
        is randomized (``uses_seed``): greedy/spiral ignore it, so
        ``--seed 7`` with a deterministic binder must neither miss a
        warm cache nor change point labels.  For randomized binders a
        ``None`` seed canonicalizes to 0 (what the GA actually runs
        with), so seeded and unseeded runs that compute identical
        mappings share one entry.
        """
        cls = _REGISTRY["binding"].get(self.binding)
        # unknown (unregistered/custom) binders are conservatively
        # treated as seeded; registered ones default to deterministic
        seeded = (
            getattr(cls, "uses_seed", False) if cls is not None else True
        )
        seed = (0 if self.seed is None else self.seed) if seeded else None
        if seed == self.seed:
            return self
        return replace(self, seed=seed)

    def validate(self) -> "StrategyTuple":
        """Resolve every name once; raises ValueError on unknown names."""
        resolve("binding", self.binding)
        resolve("routing", self.routing)
        resolve("buffer", self.buffer_policy)
        resolve("scheduling", self.scheduling)
        return self

    def cache_token(self) -> str:
        """The strategy part of an evaluation cache key."""
        n = self.normalize()
        return (
            f"binding={n.binding},routing={n.routing}"
            f",buffer={n.buffer_policy},scheduling={n.scheduling}"
            f",seed={n.seed}"
        )

    def short(self) -> str:
        """Compact human-readable form (``default`` when nothing varies)."""
        if self.is_default:
            return "default"
        bits = []
        n = self.normalize()
        default = DEFAULT_STRATEGIES
        for field_name in (
            "binding", "routing", "buffer_policy", "scheduling", "seed"
        ):
            value = getattr(n, field_name)
            if value != getattr(default, field_name):
                bits.append(f"{field_name}={value}")
        return "+".join(bits)

    def label_suffix(self) -> str:
        """What a design-point label appends for a non-default tuple."""
        return "" if self.is_default else f"#{self.short()}"

    def build_pipeline(self) -> "MappingPipeline":
        return MappingPipeline(
            binding=self.binding,
            routing=self.routing,
            buffer_policy=self.buffer_policy,
            scheduling=self.scheduling,
            seed=self.seed,
        )


#: The paper's original recipe; what bare ``map_application`` runs.
DEFAULT_STRATEGIES = StrategyTuple()


# ----------------------------------------------------------------------
# round reuse
# ----------------------------------------------------------------------
#: :func:`round_key` -> what that round computed: the static orders and
#: the throughput result, or ``None`` when the bound graph deadlocked.
RoundMemo = Dict[
    str, Optional[Tuple[Dict[str, List[str]], ThroughputResult]]
]

_UNSEEN = object()


def round_key(
    bound: BoundGraph, max_iterations: int, strategies: StrategyTuple
) -> str:
    """Content key of one constraint-loop round.

    A sha256 over everything the round's static orders and throughput
    analysis read: actors in graph order (execution time, concurrency),
    edges in graph order (endpoints, rates, *current* initial tokens),
    the resource binding in insertion order (it fixes the simulator's
    interleaving priority), the application actors, the analysis
    iteration budget and the strategy tuple.  Two platforms whose extra
    tiles stay empty build equal bound graphs, hence equal keys.
    """
    graph = bound.graph
    content = (
        [(a.name, a.execution_time, a.concurrency) for a in graph.actors],
        [
            (e.name, e.src, e.dst, e.production, e.consumption,
             e.initial_tokens)
            for e in graph.edges
        ],
        list(bound.processor_of.items()),
        bound.app_actors,
        max_iterations,
        strategies.cache_token(),
    )
    return hashlib.sha256(repr(content).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# the pipeline
# ----------------------------------------------------------------------
class MappingPipeline:
    """Chains the four mapping stages and runs the constraint loop.

    Stages are given by registry name or as strategy instances; the
    defaults are the paper's recipe.  ``seed`` feeds randomized binding
    strategies (the GA); deterministic strategies ignore it.
    """

    def __init__(
        self,
        binding: Union[str, BindingStrategy] = "greedy",
        routing: Union[str, RoutingStrategy] = "xy",
        buffer_policy: Union[str, BufferPolicy] = "linear",
        scheduling: Union[str, SchedulingStrategy] = "static-order",
        seed: Optional[int] = None,
    ) -> None:
        self.binding = self._coerce("binding", binding)
        self.routing = self._coerce("routing", routing)
        self.buffer_policy = self._coerce("buffer", buffer_policy)
        self.scheduling = self._coerce("scheduling", scheduling)
        self.seed = seed

    @staticmethod
    def _coerce(kind: str, value):
        if isinstance(value, str):
            return resolve(kind, value)
        return value

    @property
    def strategies(self) -> StrategyTuple:
        """The registry identity of this pipeline's configuration."""

        def name_of(stage, fallback: str) -> str:
            return getattr(stage, "name", None) or fallback

        return StrategyTuple(
            binding=name_of(self.binding, "custom"),
            routing=name_of(self.routing, "custom"),
            buffer_policy=name_of(self.buffer_policy, "custom"),
            scheduling=name_of(self.scheduling, "custom"),
            seed=self.seed,
        )

    def describe(self) -> str:
        s = self.strategies
        return (
            f"binding={s.binding} routing={s.routing} "
            f"buffers={s.buffer_policy} scheduling={s.scheduling}"
            + (f" seed={s.seed}" if s.seed is not None else "")
        )

    def run(
        self,
        app: ApplicationModel,
        arch: ArchitectureModel,
        constraint: Optional[Fraction] = None,
        weights: Optional[CostWeights] = None,
        fixed: Optional[Dict[str, str]] = None,
        serialization_overrides: Optional[
            Dict[str, SerializationModel]
        ] = None,
        strict: bool = False,
        effort: Union[str, MappingEffort] = "normal",
        memo: Optional[RoundMemo] = None,
    ) -> MappingResult:
        """Map ``app`` onto ``arch``; see :func:`map_application` for the
        parameters.

        ``memo`` shares round outcomes across runs: a round whose
        :func:`round_key` is already in it skips static-order derivation
        and throughput analysis, and a new key's outcome is stored.  The
        caller owns its lifetime; without one every round is computed.
        Keys name the stages by registry name, so pipelines built from
        unregistered stage instances must not share a memo.
        """
        budget = MappingEffort.of(effort)
        if constraint is None:
            constraint = app.throughput_constraint

        binding, implementations = self.binding.bind(
            app, arch, weights=weights, fixed=fixed, seed=self.seed
        )
        channels = self.routing.route(app, arch, binding)
        self.buffer_policy.allocate(app, channels)

        best = None
        rounds_used = 0
        # Warm path: the bound graph is built once; buffer growth only
        # changes credit-token counts, so later rounds retune it in place
        # (apply_buffer_capacities) instead of re-expanding every channel.
        # The state-space analyzer is likewise reused across rounds as
        # long as the derived static orders are unchanged -- its simulator
        # re-reads initial tokens on reset.
        bound = None
        analyzer = None
        analyzer_orders = None
        strategies = self.strategies
        for round_index in range(budget.max_buffer_rounds + 1):
            if bound is None:
                bound = build_bound_graph(
                    app, arch, binding, implementations, channels,
                    serialization_overrides=serialization_overrides,
                )
            else:
                apply_buffer_capacities(bound, app, channels)
            key = None
            entry = _UNSEEN
            if memo is not None:
                key = round_key(bound, budget.max_iterations, strategies)
                entry = memo.get(key, _UNSEEN)
            if entry is _UNSEEN:
                try:
                    orders = self.scheduling.build(bound)
                    if analyzer is None or orders != analyzer_orders:
                        analyzer = ThroughputEngine(
                            bound.graph,
                            processor_of=bound.processor_of,
                            static_order=orders,
                            reference_actor=bound.app_actors[0],
                            max_iterations=budget.max_iterations,
                            repetitions=bound.repetitions,
                        )
                        analyzer_orders = orders
                    entry = (orders, analyzer.analyze())
                except DeadlockError:
                    entry = None
                if key is not None:
                    memo[key] = entry
            if entry is None:
                self.buffer_policy.grow(channels, round_index)
                rounds_used = round_index + 1
                continue
            shared_orders, result = entry
            # a copy per round: no two results share the memo's lists
            orders = {t: list(order) for t, order in shared_orders.items()}

            if best is None or result.throughput > best[0].throughput:
                best = (
                    result, orders,
                    {name: _copy_channel(c)
                     for name, c in channels.items()},
                )
            if constraint is None or result.throughput >= constraint:
                break
            self.buffer_policy.grow(channels, round_index)
            rounds_used = round_index + 1

        if best is None:
            raise ThroughputConstraintError(
                f"no deadlock-free buffer configuration found for "
                f"{app.name!r} on {arch.name!r} within "
                f"{budget.max_buffer_rounds} rounds"
            )

        result, orders, best_channels = best
        mapping = Mapping(
            application=app.name,
            architecture=arch.name,
            actor_binding=dict(binding),
            implementations=dict(implementations),
            channels=best_channels,
            static_orders=orders,
        )
        outcome = MappingResult(
            mapping=mapping,
            throughput=result,
            constraint=constraint,
            buffer_growth_rounds=rounds_used,
        )
        if strict and not outcome.constraint_met:
            raise ThroughputConstraintError(
                f"constraint {constraint} unreachable for {app.name!r} on "
                f"{arch.name!r}: best guarantee is {result.throughput} "
                f"after {rounds_used} buffer-growth round(s)"
            )
        return outcome


def map_application(
    app: ApplicationModel,
    arch: ArchitectureModel,
    constraint: Optional[Fraction] = None,
    weights: Optional[CostWeights] = None,
    fixed: Optional[Dict[str, str]] = None,
    serialization_overrides: Optional[Dict[str, SerializationModel]] = None,
    strict: bool = False,
    effort: Union[str, MappingEffort] = "normal",
    binding: Union[str, BindingStrategy] = "greedy",
    routing: Union[str, RoutingStrategy] = "xy",
    buffer_policy: Union[str, BufferPolicy] = "linear",
    scheduling: Union[str, SchedulingStrategy] = "static-order",
    seed: Optional[int] = None,
    pipeline: Optional[MappingPipeline] = None,
) -> MappingResult:
    """Map ``app`` onto ``arch`` and compute the throughput guarantee.

    The end-to-end mapping flow (the SDF3 box of Fig. 1): binding,
    routing, buffer allocation, static-order scheduling and throughput
    analysis, growing buffer capacities until the throughput constraint
    is met or the effort's retry budget runs out.  The result carries
    the mapping -- the interchange object MAMPS consumes -- plus the
    guarantee computed on the bound graph.

    Parameters
    ----------
    constraint:
        Required iterations per cycle; defaults to the application's own
        ``throughput_constraint``.
    weights:
        Steers the generic cost functions of the *greedy* binder only
        (the GA uses them just for its greedy bias genome; the spiral
        binder optimizes locality, not the cost functions).
    fixed:
        Pin actors to tiles (e.g. the file-reading actor to the master).
    serialization_overrides:
        Per-tile serialization model substitutions (Section 6.3).
    strict:
        Raise :class:`ThroughputConstraintError` when the constraint cannot
        be met; otherwise return the best mapping with
        ``constraint_met == False``.
    effort:
        A :class:`MappingEffort` (or preset name, e.g. ``"low"`` or
        ``"normal+it50000"``) supplying both retry budgets.
    binding, routing, buffer_policy, scheduling, seed:
        Stage strategies by registry name (or instance); the defaults are
        the paper's recipe.  ``seed`` feeds randomized strategies (``ga``).
    pipeline:
        A prebuilt :class:`MappingPipeline` (e.g. from
        :meth:`StrategyTuple.build_pipeline`); overrides the per-stage
        arguments when given.
    """
    if pipeline is None:
        pipeline = MappingPipeline(
            binding=binding,
            routing=routing,
            buffer_policy=buffer_policy,
            scheduling=scheduling,
            seed=seed,
        )
    return pipeline.run(
        app,
        arch,
        constraint=constraint,
        weights=weights,
        fixed=fixed,
        serialization_overrides=serialization_overrides,
        strict=strict,
        effort=effort,
    )


def _copy_channel(channel: ChannelMapping) -> ChannelMapping:
    """Snapshot a channel for the saved-best mapping.

    ``parameters`` is deep-copied: the live channel keeps being grown by
    the constraint loop, and a shared parameters object would let later
    rounds mutate the supposedly frozen best snapshot.
    """
    return ChannelMapping(
        edge=channel.edge,
        src_tile=channel.src_tile,
        dst_tile=channel.dst_tile,
        capacity=channel.capacity,
        alpha_src=channel.alpha_src,
        alpha_dst=channel.alpha_dst,
        parameters=copy.deepcopy(channel.parameters),
    )
