"""The SDF3-style mapping flow (paper Section 5.1).

Maps a throughput-constrained application onto a MAMPS architecture:

1. **Binding** (:mod:`repro.mapping.binding`) -- assign each actor to a tile
   using generic cost functions over "processing, memory usage,
   communication, and latency".
2. **Routing** (:mod:`repro.mapping.routing`) -- allocate interconnect
   resources for every inter-tile channel.
3. **Buffer allocation** (:mod:`repro.mapping.buffer_alloc`) -- choose
   source/destination buffer capacities.
4. **Scheduling** (:mod:`repro.mapping.scheduling`) -- derive a static-order
   schedule per tile from a resource-constrained self-timed execution.
5. **Analysis** (:mod:`repro.mapping.bound_graph`) -- build the bound graph
   (binding + schedules + Fig. 4 communication models) and compute the
   *guaranteed* worst-case throughput.

:func:`repro.mapping.pipeline.map_application` runs all five steps and
iterates buffer sizes until the application's throughput constraint is met
(or reports the best mapping found); :class:`MappingEffort` sizes the run.
"""

from repro.mapping.spec import ChannelMapping, Mapping, MappingResult
from repro.mapping.costs import CostWeights, binding_cost
from repro.mapping.binding import bind_actors
from repro.mapping.routing import route_channels
from repro.mapping.buffer_alloc import allocate_buffers
from repro.mapping.scheduling import build_static_orders
from repro.mapping.bound_graph import BoundGraph, build_bound_graph
from repro.mapping.pipeline import (
    DEFAULT_STRATEGIES,
    EFFORT_LEVELS,
    BindingStrategy,
    BufferPolicy,
    MappingEffort,
    MappingPipeline,
    RoutingStrategy,
    SchedulingStrategy,
    StrategyTuple,
    map_application,
    register_strategy,
    registered,
    resolve,
)

__all__ = [
    "DEFAULT_STRATEGIES",
    "EFFORT_LEVELS",
    "BindingStrategy",
    "BufferPolicy",
    "MappingEffort",
    "MappingPipeline",
    "RoutingStrategy",
    "SchedulingStrategy",
    "StrategyTuple",
    "register_strategy",
    "registered",
    "resolve",
    "Mapping",
    "ChannelMapping",
    "MappingResult",
    "CostWeights",
    "binding_cost",
    "bind_actors",
    "route_channels",
    "allocate_buffers",
    "build_static_orders",
    "BoundGraph",
    "build_bound_graph",
    "map_application",
]
