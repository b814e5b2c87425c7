"""SDF graph data structure.

A synchronous dataflow (SDF) graph [Lee & Messerschmitt 1987] consists of
*actors* connected by directed *edges* (also called channels).  Each edge has
a constant *production rate* (tokens produced per firing of its source
actor), a constant *consumption rate* (tokens consumed per firing of its
destination actor) and may carry *initial tokens*.  An actor is *ready* when
every input edge holds at least the consumption rate of tokens; executing a
ready actor is called a *firing*.

This module deliberately keeps the graph purely structural.  Timing lives on
:attr:`Actor.execution_time` (worst-case execution time in clock cycles, the
paper's base time unit) and communication metadata lives on
:attr:`Edge.token_size` (bytes).  Higher layers (application model, mapping,
communication model) attach richer information without the core analyses
needing to know about it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.exceptions import GraphError


def _require_int(owner: str, field_name: str, value: object) -> None:
    """Counts and cycle budgets are exact integers; a float (or bool)
    sneaking in would only surface much later as a confusing simulator or
    repetition-vector failure, so reject it where it is written."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise GraphError(
            f"{owner}: {field_name} must be an integer, "
            f"got {value!r} ({type(value).__name__})"
        )


@dataclass
class Actor:
    """A vertex of an SDF graph.

    Parameters
    ----------
    name:
        Unique name within the graph.
    execution_time:
        Worst-case execution time of one firing, in clock cycles.  May be 0
        for bookkeeping actors (e.g. the ``s2``/``s3`` actors of the
        communication model of Fig. 4).
    group:
        Optional label tying derived actors back to their origin.  The
        communication-model expansion tags the 8 channel actors with the
        original edge name.
    concurrency:
        Per-actor override of the maximum number of overlapping firings.
        ``None`` (the default) inherits the simulator-wide setting; the
        communication model sets it on the channel-latency actor ``c2`` to
        let ``w`` words pipeline through the link.
    """

    name: str
    execution_time: int = 0
    group: Optional[str] = None
    concurrency: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("actor name must be non-empty")
        _require_int(
            f"actor {self.name!r}", "execution time", self.execution_time
        )
        if self.execution_time < 0:
            raise GraphError(
                f"actor {self.name!r}: execution time must be >= 0, "
                f"got {self.execution_time}"
            )
        if self.concurrency is not None and self.concurrency < 1:
            raise GraphError(
                f"actor {self.name!r}: concurrency must be >= 1 or None"
            )

    def __hash__(self) -> int:  # actors are identified by name within a graph
        return hash(self.name)


@dataclass
class Edge:
    """A directed edge (channel) of an SDF graph.

    Parameters
    ----------
    name:
        Unique name within the graph.
    src, dst:
        Names of the producing and consuming actors.  ``src == dst`` gives a
        self-edge, used to model actor state (Fig. 2) or to sequentialize
        firings.
    production:
        Tokens produced on the edge per firing of ``src``.
    consumption:
        Tokens consumed from the edge per firing of ``dst``.
    initial_tokens:
        Tokens present on the edge before execution starts.
    token_size:
        Size of one token in bytes; used by the communication model to
        compute the number of 32-bit words per token.  ``0`` means the edge
        never crosses the interconnect (e.g. credit/ordering edges).
    implicit:
        Paper Section 3 distinguishes *explicitly implemented* edges (data
        transferred between actor implementations) from *implicitly
        implemented* edges (state self-edges, buffer-size back-edges,
        static-order edges).  Implicit edges never become function arguments
        nor interconnect traffic.
    """

    name: str
    src: str
    dst: str
    production: int = 1
    consumption: int = 1
    initial_tokens: int = 0
    token_size: int = 0
    implicit: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("edge name must be non-empty")
        owner = f"edge {self.name!r}"
        _require_int(owner, "production rate", self.production)
        _require_int(owner, "consumption rate", self.consumption)
        _require_int(owner, "initial tokens", self.initial_tokens)
        _require_int(owner, "token size", self.token_size)
        if self.production <= 0 or self.consumption <= 0:
            raise GraphError(
                f"edge {self.name!r}: rates must be positive, got "
                f"production={self.production} consumption={self.consumption}"
            )
        if self.initial_tokens < 0:
            raise GraphError(
                f"edge {self.name!r}: initial tokens must be >= 0"
            )
        if self.token_size < 0:
            raise GraphError(f"edge {self.name!r}: token size must be >= 0")
        if self.src == self.dst and self.initial_tokens < self.consumption:
            # A self-edge is replenished only by its own actor's firings:
            # with fewer than `consumption` initial tokens the actor can
            # never fire at all.  That used to surface much later as a
            # simulator/deadlock failure; reject it at construction.
            raise GraphError(
                f"edge {self.name!r}: self-loop on {self.src!r} needs at "
                f"least {self.consumption} initial token(s) to ever fire, "
                f"got {self.initial_tokens}"
            )

    @property
    def is_self_edge(self) -> bool:
        """True when source and destination are the same actor."""
        return self.src == self.dst

    def __hash__(self) -> int:
        return hash(self.name)


class SDFGraph:
    """A named synchronous dataflow graph.

    The graph is built incrementally with :meth:`add_actor` and
    :meth:`add_edge`; both validate against duplicates and dangling
    references so analyses can assume a well-formed graph.

    The class supports iteration over actors and ``len()`` (number of
    actors), and cheap adjacency queries (:meth:`in_edges`,
    :meth:`out_edges`).
    """

    def __init__(self, name: str = "sdf") -> None:
        if not name:
            raise GraphError("graph name must be non-empty")
        self.name = name
        self._actors: Dict[str, Actor] = {}
        self._edges: Dict[str, Edge] = {}
        self._in: Dict[str, List[Edge]] = {}
        self._out: Dict[str, List[Edge]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_actor(
        self,
        name: str,
        execution_time: int = 0,
        group: Optional[str] = None,
        concurrency: Optional[int] = None,
    ) -> Actor:
        """Add an actor and return it.

        Raises :class:`GraphError` if an actor with the same name exists.
        """
        if name in self._actors:
            raise GraphError(f"duplicate actor {name!r} in graph {self.name!r}")
        actor = Actor(
            name=name,
            execution_time=execution_time,
            group=group,
            concurrency=concurrency,
        )
        self._actors[name] = actor
        self._in[name] = []
        self._out[name] = []
        return actor

    def add_edge(
        self,
        name: str,
        src: str,
        dst: str,
        production: int = 1,
        consumption: int = 1,
        initial_tokens: int = 0,
        token_size: int = 0,
        implicit: bool = False,
    ) -> Edge:
        """Add an edge and return it.

        Both endpoint actors must already exist.
        """
        if name in self._edges:
            raise GraphError(f"duplicate edge {name!r} in graph {self.name!r}")
        for endpoint in (src, dst):
            if endpoint not in self._actors:
                raise GraphError(
                    f"edge {name!r} references unknown actor {endpoint!r}"
                )
        edge = Edge(
            name=name,
            src=src,
            dst=dst,
            production=production,
            consumption=consumption,
            initial_tokens=initial_tokens,
            token_size=token_size,
            implicit=implicit,
        )
        self._edges[name] = edge
        self._out[src].append(edge)
        self._in[dst].append(edge)
        return edge

    def remove_edge(self, name: str) -> None:
        """Remove an edge by name."""
        edge = self._edges.pop(name, None)
        if edge is None:
            raise GraphError(f"unknown edge {name!r}")
        self._out[edge.src].remove(edge)
        self._in[edge.dst].remove(edge)

    def remove_actor(self, name: str) -> None:
        """Remove an actor and every edge touching it."""
        if name not in self._actors:
            raise GraphError(f"unknown actor {name!r}")
        touching = [
            e.name for e in self._edges.values() if name in (e.src, e.dst)
        ]
        for edge_name in touching:
            self.remove_edge(edge_name)
        del self._actors[name]
        del self._in[name]
        del self._out[name]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def actors(self) -> Tuple[Actor, ...]:
        """All actors, in insertion order."""
        return tuple(self._actors.values())

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges, in insertion order."""
        return tuple(self._edges.values())

    def actor(self, name: str) -> Actor:
        """Look up an actor by name."""
        try:
            return self._actors[name]
        except KeyError:
            raise GraphError(
                f"unknown actor {name!r} in graph {self.name!r}"
            ) from None

    def edge(self, name: str) -> Edge:
        """Look up an edge by name."""
        try:
            return self._edges[name]
        except KeyError:
            raise GraphError(
                f"unknown edge {name!r} in graph {self.name!r}"
            ) from None

    def has_actor(self, name: str) -> bool:
        return name in self._actors

    def has_edge(self, name: str) -> bool:
        return name in self._edges

    def in_edges(self, actor: str) -> Tuple[Edge, ...]:
        """Edges whose destination is ``actor`` (self-edges included)."""
        return tuple(self._in[actor])

    def out_edges(self, actor: str) -> Tuple[Edge, ...]:
        """Edges whose source is ``actor`` (self-edges included)."""
        return tuple(self._out[actor])

    def self_edges(self, actor: str) -> Tuple[Edge, ...]:
        return tuple(e for e in self._out[actor] if e.is_self_edge)

    def explicit_edges(self) -> Tuple[Edge, ...]:
        """Edges that transfer data between distinct actors (Section 3)."""
        return tuple(
            e for e in self._edges.values()
            if not e.implicit and not e.is_self_edge
        )

    def __iter__(self) -> Iterator[Actor]:
        return iter(self._actors.values())

    def __eq__(self, other: object) -> bool:
        """Structural equality: same name, actors and edges.

        Insertion order is irrelevant (the dict comparisons are
        order-insensitive), matching the artifact round-trip contract of
        :mod:`repro.artifacts`: ``from_payload(to_payload(g)) == g``.
        """
        if not isinstance(other, SDFGraph):
            return NotImplemented
        return (
            self.name == other.name
            and self._actors == other._actors
            and self._edges == other._edges
        )

    # graphs are mutable containers; keep identity hashing (same pragma
    # as Actor/Edge, which hash by name while comparing structurally)
    __hash__ = object.__hash__

    def __len__(self) -> int:
        return len(self._actors)

    def __contains__(self, actor_name: str) -> bool:
        return actor_name in self._actors

    def __repr__(self) -> str:
        return (
            f"SDFGraph({self.name!r}, actors={len(self._actors)}, "
            f"edges={len(self._edges)})"
        )

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "SDFGraph":
        """Deep-ish copy (actors and edges are re-created)."""
        clone = SDFGraph(name or self.name)
        for actor in self._actors.values():
            clone.add_actor(
                actor.name,
                actor.execution_time,
                actor.group,
                actor.concurrency,
            )
        for edge in self._edges.values():
            clone.add_edge(
                edge.name,
                edge.src,
                edge.dst,
                production=edge.production,
                consumption=edge.consumption,
                initial_tokens=edge.initial_tokens,
                token_size=edge.token_size,
                implicit=edge.implicit,
            )
        return clone

    def with_execution_times(
        self, times: Dict[str, int], name: Optional[str] = None
    ) -> "SDFGraph":
        """Copy of the graph with some actors' execution times replaced.

        Used to evaluate the same structure under different WCET estimates
        (worst-case vs. measured, Section 6.1) without mutating the source
        graph.
        """
        clone = self.copy(name or self.name)
        for actor_name, time in times.items():
            clone.actor(actor_name).execution_time = time
        return clone

    def undirected_components(self) -> List[List[str]]:
        """Connected components, ignoring edge direction.

        Consistency (repetition vectors) is defined per weakly connected
        component; a well-formed application graph has exactly one.
        """
        seen: Dict[str, bool] = {}
        components: List[List[str]] = []
        for start in self._actors:
            if start in seen:
                continue
            stack = [start]
            component: List[str] = []
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen[node] = True
                component.append(node)
                for edge in self._out[node]:
                    stack.append(edge.dst)
                for edge in self._in[node]:
                    stack.append(edge.src)
            components.append(sorted(component))
        return components

    def is_connected(self) -> bool:
        """True when the graph is weakly connected (or empty)."""
        return len(self.undirected_components()) <= 1

    def total_initial_tokens(self) -> int:
        return sum(e.initial_tokens for e in self._edges.values())


def validate_graph(graph: SDFGraph) -> None:
    """Structural sanity checks beyond what construction already enforces.

    Raises :class:`GraphError` when the graph is empty or not weakly
    connected.  Called by analyses that require a single component.
    """
    if len(graph) == 0:
        raise GraphError(f"graph {graph.name!r} has no actors")
    if not graph.is_connected():
        raise GraphError(
            f"graph {graph.name!r} is not connected: components="
            f"{graph.undirected_components()}"
        )
