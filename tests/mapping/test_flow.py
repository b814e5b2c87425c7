"""Tests for routing, scheduling, the bound graph and the end-to-end flow."""

from fractions import Fraction

import pytest

from repro.arch import architecture_from_template
from repro.comm.serialization import CASerialization
from repro.exceptions import (
    DeadlockError,
    RoutingError,
    ThroughputConstraintError,
)
from repro.mapping import (
    MappingPipeline,
    allocate_buffers,
    bind_actors,
    build_bound_graph,
    build_static_orders,
    map_application,
    route_channels,
)
from repro.mapping.bound_graph import BoundGraph, ca_resource_name
from repro.mapping.buffer_alloc import buffer_bytes_on_tile
from repro.sdf import SDFGraph, analyze_throughput
from repro.sdf.buffers import BufferDistribution, add_buffer_edges
from repro.sdf.repetition import repetition_vector


def prepared(app, arch, **kwargs):
    binding, impls = bind_actors(app, arch, **kwargs)
    channels = route_channels(app, arch, binding)
    allocate_buffers(app, channels)
    return binding, impls, channels


class TestRouting:
    def test_intra_tile_channels_have_no_parameters(self, small_app):
        arch = architecture_from_template(1)
        binding, _, channels = prepared(small_app, arch)
        assert all(c.intra_tile for c in channels.values())
        assert all(c.parameters is None for c in channels.values())

    def test_inter_tile_channels_have_parameters(self, small_app):
        arch = architecture_from_template(3)
        _, _, channels = prepared(small_app, arch)
        inter = [c for c in channels.values() if not c.intra_tile]
        assert inter
        assert all(c.parameters is not None for c in inter)

    def test_routing_is_idempotent(self, small_app):
        arch = architecture_from_template(3)
        binding, _impls, _ = prepared(small_app, arch)
        channels_again = route_channels(small_app, arch, binding)
        assert set(channels_again) == {"a2b", "a2c", "b2c"}

    def test_noc_congestion_raises(self, chain_app):
        arch = architecture_from_template(
            3, "noc", noc_wires_per_link=8, noc_connection_wires=8
        )
        binding = {"P": "tile0", "Q": "tile1", "R": "tile2"}
        # tile0->tile1 and tile1->tile2 use disjoint links; force overlap
        binding2 = {"P": "tile0", "Q": "tile2", "R": "tile1"}
        try:
            route_channels(chain_app, arch, binding2)
        except RoutingError:
            return  # overlap detected, as expected for some placements
        # otherwise saturate one link explicitly
        with pytest.raises(RoutingError):
            for i in range(4):
                arch.connect(f"extra{i}", "tile0", "tile1")


class TestBufferAllocation:
    def test_capacities_meet_liveness_bounds(self, small_app):
        arch = architecture_from_template(3)
        _, _, channels = prepared(small_app, arch)
        for channel in channels.values():
            edge = small_app.graph.edge(channel.edge)
            if channel.intra_tile:
                assert channel.capacity >= max(edge.production,
                                               edge.consumption)
            else:
                assert channel.alpha_src >= edge.production
                assert channel.alpha_dst >= edge.consumption

    def test_buffer_bytes_on_tile(self, chain_app):
        arch = architecture_from_template(2)
        binding = {"P": "tile0", "Q": "tile0", "R": "tile1"}
        channels = route_channels(chain_app, arch, binding)
        allocate_buffers(chain_app, channels)
        src_bytes = buffer_bytes_on_tile(chain_app, channels, "tile0")
        dst_bytes = buffer_bytes_on_tile(chain_app, channels, "tile1")
        assert src_bytes > 0 and dst_bytes > 0
        pq = channels["pq"]
        qr = channels["qr"]
        assert src_bytes == pq.capacity * 32 + qr.alpha_src * 32
        assert dst_bytes == qr.alpha_dst * 32


class TestBoundGraph:
    def test_app_actors_preserved_with_wcets(self, small_app):
        arch = architecture_from_template(3)
        binding, impls, channels = prepared(small_app, arch)
        bound = build_bound_graph(small_app, arch, binding, impls, channels)
        dispatch = arch.tile(binding["A"]).processor.context_switch_cycles
        assert bound.graph.actor("A").execution_time == 400 + dispatch
        assert set(bound.app_actors) == {"A", "B", "C"}

    def test_time_overrides_replace_wcets(self, small_app):
        arch = architecture_from_template(3)
        binding, impls, channels = prepared(small_app, arch)
        bound = build_bound_graph(
            small_app, arch, binding, impls, channels,
            time_overrides={"A": 100},
        )
        dispatch = arch.tile(binding["A"]).processor.context_switch_cycles
        assert bound.graph.actor("A").execution_time == 100 + dispatch
        assert bound.graph.actor("B").execution_time == 300 + dispatch

    def test_inter_tile_edges_expanded(self, small_app):
        arch = architecture_from_template(3)
        binding, impls, channels = prepared(small_app, arch)
        bound = build_bound_graph(small_app, arch, binding, impls, channels)
        for channel in channels.values():
            if channel.intra_tile:
                continue
            names = bound.comm_names[channel.edge]
            assert bound.graph.has_actor(names.s1)
            assert not bound.graph.has_edge(channel.edge)

    def test_serialization_bound_to_pe(self, small_app):
        arch = architecture_from_template(3)
        binding, impls, channels = prepared(small_app, arch)
        bound = build_bound_graph(small_app, arch, binding, impls, channels)
        for channel in channels.values():
            if channel.intra_tile:
                continue
            names = bound.comm_names[channel.edge]
            assert bound.processor_of[names.s1] == channel.src_tile
            assert bound.processor_of[names.d1] == channel.dst_tile

    def test_ca_tiles_offload_serialization(self, small_app):
        arch = architecture_from_template(3, with_ca=True)
        binding, impls, channels = prepared(small_app, arch)
        bound = build_bound_graph(small_app, arch, binding, impls, channels)
        for channel in channels.values():
            if channel.intra_tile:
                continue
            names = bound.comm_names[channel.edge]
            assert bound.processor_of[names.s1] == ca_resource_name(
                channel.src_tile
            )

    def test_serialization_overrides(self, small_app):
        arch = architecture_from_template(3)
        binding, impls, channels = prepared(small_app, arch)
        overrides = {t: CASerialization() for t in arch.tile_names()}
        bound = build_bound_graph(
            small_app, arch, binding, impls, channels,
            serialization_overrides=overrides,
        )
        for channel in channels.values():
            if channel.intra_tile:
                continue
            names = bound.comm_names[channel.edge]
            assert bound.processor_of[names.s1].endswith("__ca")

    def test_bound_graph_is_consistent(self, small_app):
        arch = architecture_from_template(3)
        binding, impls, channels = prepared(small_app, arch)
        bound = build_bound_graph(small_app, arch, binding, impls, channels)
        q = repetition_vector(bound.graph)
        base = repetition_vector(small_app.graph)
        for actor in small_app.graph:
            assert q[actor.name] == base[actor.name]


class TestScheduling:
    def test_orders_cover_repetition_vector(self, small_app):
        arch = architecture_from_template(2)
        binding, impls, channels = prepared(small_app, arch)
        bound = build_bound_graph(small_app, arch, binding, impls, channels)
        orders = build_static_orders(bound)
        q = repetition_vector(small_app.graph)
        counted = {}
        for order in orders.values():
            for actor in order:
                counted[actor] = counted.get(actor, 0) + 1
        assert counted == {a.name: q[a.name] for a in small_app.graph}

    def test_orders_respect_dependencies(self, chain_app):
        """On a single tile the order must be a topological-ish P,Q,R."""
        arch = architecture_from_template(1)
        binding, impls, channels = prepared(chain_app, arch)
        bound = build_bound_graph(chain_app, arch, binding, impls, channels)
        orders = build_static_orders(bound)
        assert orders["tile0"] == ["P", "Q", "R"]

    def test_too_small_credit_edge_raises_deadlock(self):
        """Capacity 3 holds one burst of A (2) or B (3) but is below the
        liveness bound 2 + 3 - 1: A fires once, then both starve."""
        g = SDFGraph("starved")
        g.add_actor("A", execution_time=1)
        g.add_actor("B", execution_time=1)
        g.add_edge("ab", "A", "B", production=2, consumption=3)
        bound = BoundGraph(
            graph=add_buffer_edges(g, BufferDistribution({"ab": 3})),
            processor_of={"A": "tile0", "B": "tile1"},
            app_actors=("A", "B"),
            comm_names={},
        )
        with pytest.raises(DeadlockError, match="blocked at t=1"):
            build_static_orders(bound)


class TestMapApplication:
    def test_guarantee_is_positive(self, small_app):
        arch = architecture_from_template(3)
        result = map_application(small_app, arch)
        assert result.guaranteed_throughput > 0
        assert result.constraint_met  # no constraint set

    def test_more_tiles_do_not_hurt(self, small_app):
        t1 = map_application(
            small_app, architecture_from_template(1)
        ).guaranteed_throughput
        t3 = map_application(
            small_app, architecture_from_template(3)
        ).guaranteed_throughput
        assert t3 >= t1

    def test_fsl_at_least_as_fast_as_noc(self, small_app):
        fsl = map_application(
            small_app, architecture_from_template(3, "fsl")
        ).guaranteed_throughput
        noc = map_application(
            small_app, architecture_from_template(3, "noc")
        ).guaranteed_throughput
        assert fsl >= noc

    def test_constraint_met_via_buffer_growth(self, chain_app):
        arch = architecture_from_template(3)
        # Q (700 cycles) bounds throughput near 1/700; ask for a rate that
        # needs pipelining but is achievable.
        constraint = Fraction(1, 1200)
        result = map_application(chain_app, arch, constraint=constraint)
        assert result.constraint_met
        assert result.guaranteed_throughput >= constraint

    def test_impossible_constraint_strict_raises(self, chain_app):
        arch = architecture_from_template(3)
        with pytest.raises(ThroughputConstraintError, match="unreachable"):
            map_application(
                chain_app, arch,
                constraint=Fraction(1, 100),  # faster than Q alone
                strict=True, effort="low",
            )

    def test_impossible_constraint_lenient_reports(self, chain_app):
        arch = architecture_from_template(3)
        result = map_application(
            chain_app, arch, constraint=Fraction(1, 100), effort="low",
        )
        assert not result.constraint_met
        assert result.guaranteed_throughput < Fraction(1, 100)

    @pytest.mark.parametrize(
        "override", ("max_iterations", "max_buffer_rounds")
    )
    def test_effort_is_the_only_budget(self, small_app, override):
        arch = architecture_from_template(2)
        with pytest.raises(TypeError):
            map_application(small_app, arch, **{override: 10})
        with pytest.raises(TypeError):
            MappingPipeline().run(small_app, arch, **{override: 10})

    def test_pipeline_module_is_the_entry_point(self):
        import importlib

        from repro.mapping import pipeline

        assert map_application is pipeline.map_application
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.mapping.flow")

    def test_mapping_describe(self, small_app):
        arch = architecture_from_template(2)
        result = map_application(small_app, arch)
        text = result.mapping.describe()
        assert "figure2" in text
        assert "tile0" in text

    def test_ca_overrides_improve_throughput(self, chain_app):
        """The Section 6.3 experiment mechanism: same mapping, CA
        serialization times -> throughput goes up (or stays equal)."""
        arch = architecture_from_template(3)
        base = map_application(chain_app, arch).guaranteed_throughput
        with_ca = map_application(
            chain_app, arch,
            serialization_overrides={
                t: CASerialization() for t in arch.tile_names()
            },
        ).guaranteed_throughput
        assert with_ca >= base

    def test_throughput_guarantee_matches_unordered_analysis(self, small_app):
        """Static orders can only restrict the greedy execution."""
        arch = architecture_from_template(3)
        binding, impls, channels = prepared(small_app, arch)
        bound = build_bound_graph(small_app, arch, binding, impls, channels)
        greedy = analyze_throughput(
            bound.graph, processor_of=bound.processor_of,
            reference_actor="A",
        )
        ordered = map_application(small_app, arch).throughput
        assert ordered.throughput <= greedy.throughput
