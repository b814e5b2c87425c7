"""The application model: graph + implementations + constraint.

This is the flow's first input (Fig. 1, "Application Model / actor.c"): the
SDF graph, a C-based (here: Python-callable) implementation per actor, the
per-implementation metrics, and the application's throughput constraint.
The model is the common interchange object consumed by both the mapping
side (SDF3 role) and the platform-generation side (MAMPS role) -- the
"common input format" that Section 2 credits with removing manual
translation errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.appmodel.implementation import ActorImplementation
from repro.exceptions import GraphError
from repro.sdf.graph import SDFGraph, validate_graph
from repro.sdf.repetition import repetition_vector


@dataclass
class ApplicationModel:
    """A throughput-constrained application.

    Parameters
    ----------
    graph:
        The application's SDF graph.  Edge ``token_size`` fields must be
        set on every explicit edge (they drive serialization costs).
    implementations:
        All actor implementations; each actor needs at least one.
    throughput_constraint:
        Required graph iterations per clock cycle (e.g. MCUs per cycle for
        the MJPEG decoder).  ``None`` means best-effort mapping.
    name:
        Defaults to the graph name.
    """

    graph: SDFGraph
    implementations: List[ActorImplementation] = field(default_factory=list)
    throughput_constraint: Optional[Fraction] = None
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.graph.name
        self._by_actor: Dict[str, List[ActorImplementation]] = {}
        for impl in self.implementations:
            self._by_actor.setdefault(impl.actor, []).append(impl)

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def implementations_of(self, actor: str) -> Tuple[ActorImplementation, ...]:
        """All implementations of ``actor`` (any PE type)."""
        return tuple(self._by_actor.get(actor, ()))

    def implementation_for(
        self, actor: str, pe_type: str
    ) -> Optional[ActorImplementation]:
        """The implementation of ``actor`` for ``pe_type``, or None."""
        for impl in self._by_actor.get(actor, ()):
            if impl.pe_type == pe_type:
                return impl
        return None

    def supported_pe_types(self, actor: str) -> Tuple[str, ...]:
        return tuple(i.pe_type for i in self._by_actor.get(actor, ()))

    def wcet(self, actor: str, pe_type: str) -> int:
        impl = self.implementation_for(actor, pe_type)
        if impl is None:
            raise GraphError(
                f"actor {actor!r} has no implementation for PE type "
                f"{pe_type!r} (available: {self.supported_pe_types(actor)})"
            )
        return impl.wcet

    def add_implementation(self, impl: ActorImplementation) -> None:
        if impl.actor not in self.graph:
            raise GraphError(
                f"implementation {impl.name!r} targets unknown actor "
                f"{impl.actor!r}"
            )
        self.implementations.append(impl)
        self._by_actor.setdefault(impl.actor, []).append(impl)

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def timed_graph(
        self, pe_type_of: Optional[Dict[str, str]] = None
    ) -> SDFGraph:
        """Copy of the graph with execution times taken from the WCETs.

        ``pe_type_of`` selects which implementation's WCET to use per actor
        (actor name -> PE type); by default the first implementation wins.
        This is the graph handed to the throughput analysis.
        """
        times: Dict[str, int] = {}
        for actor in self.graph:
            if pe_type_of and actor.name in pe_type_of:
                times[actor.name] = self.wcet(
                    actor.name, pe_type_of[actor.name]
                )
            else:
                impls = self.implementations_of(actor.name)
                if not impls:
                    raise GraphError(
                        f"actor {actor.name!r} has no implementation"
                    )
                times[actor.name] = impls[0].wcet
        return self.graph.with_execution_times(times)

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the model is complete enough for the flow.

        * graph well-formed, connected, consistent;
        * every actor has at least one implementation;
        * implementations reference existing actors and explicit edges;
        * explicit edges carry a token size;
        * functional implementations exist either for all actors or none
          (a half-functional application cannot be simulated meaningfully).
        """
        validate_graph(self.graph)
        repetition_vector(self.graph)  # raises if inconsistent

        for actor in self.graph:
            if not self.implementations_of(actor.name):
                raise GraphError(
                    f"actor {actor.name!r} has no implementation"
                )

        explicit = {e.name for e in self.graph.explicit_edges()}
        for impl in self.implementations:
            if impl.actor not in self.graph:
                raise GraphError(
                    f"implementation {impl.name!r} targets unknown actor "
                    f"{impl.actor!r}"
                )
            for edge_name in impl.argument_order:
                if edge_name not in explicit:
                    raise GraphError(
                        f"implementation {impl.name!r} binds argument to "
                        f"{edge_name!r}, which is not an explicit edge"
                    )
                edge = self.graph.edge(edge_name)
                if impl.actor not in (edge.src, edge.dst):
                    raise GraphError(
                        f"implementation {impl.name!r} binds argument to "
                        f"edge {edge_name!r} not connected to actor "
                        f"{impl.actor!r}"
                    )

        for edge in self.graph.explicit_edges():
            if edge.token_size <= 0:
                raise GraphError(
                    f"explicit edge {edge.name!r} needs a positive token "
                    "size (it crosses the interconnect)"
                )

        functional = [
            i.actor for i in self.implementations if i.function is not None
        ]
        if functional and set(functional) != {a.name for a in self.graph}:
            missing = {a.name for a in self.graph} - set(functional)
            raise GraphError(
                "application is only partially functional; actors without "
                f"a functional model: {sorted(missing)}"
            )

    def is_functional(self) -> bool:
        """True when every actor has a functional implementation."""
        return all(
            any(i.function is not None for i in self.implementations_of(a.name))
            for a in self.graph
        )
