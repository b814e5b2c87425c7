"""Property-based tests for the mapping flow.

Random consistent applications (chains and fan-out trees with arbitrary
rates, WCETs and token sizes) are mapped onto random template platforms;
the flow's structural invariants must hold every time:

* every actor is bound to a tile whose PE type has an implementation;
* the static orders cover exactly one iteration per tile;
* the guarantee never exceeds the processing bound of the busiest tile;
* the guarantee is positive (the mapped system is live);
* re-running the flow is deterministic.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from repro.appmodel import (
    ActorImplementation,
    ApplicationModel,
    ImplementationMetrics,
    MemoryRequirements,
)
from repro.arch import architecture_from_template
from repro.mapping import map_application
from repro.sdf import SDFGraph, repetition_vector


@st.composite
def applications(draw):
    """Random chain-with-fanout applications, consistent by construction."""
    n = draw(st.integers(min_value=2, max_value=5))
    g = SDFGraph("prop_app")
    wcets = {}
    for i in range(n):
        wcet = draw(st.integers(min_value=50, max_value=800))
        g.add_actor(f"a{i}", execution_time=wcet)
        wcets[f"a{i}"] = wcet
    for i in range(n - 1):
        production = draw(st.integers(min_value=1, max_value=3))
        consumption = draw(st.integers(min_value=1, max_value=3))
        token_size = draw(st.integers(min_value=2, max_value=64))
        g.add_edge(
            f"e{i}", f"a{i}", f"a{i + 1}",
            production=production, consumption=consumption,
            token_size=token_size,
        )
    implementations = [
        ActorImplementation(
            actor=name, pe_type="microblaze",
            metrics=ImplementationMetrics(
                wcet=wcet,
                memory=MemoryRequirements(2048, 1024),
            ),
        )
        for name, wcet in wcets.items()
    ]
    return ApplicationModel(graph=g, implementations=implementations)


@st.composite
def platforms(draw):
    tiles = draw(st.integers(min_value=1, max_value=4))
    interconnect = draw(st.sampled_from(["fsl", "noc"]))
    return architecture_from_template(tiles, interconnect)


@given(applications(), platforms())
@settings(max_examples=25, deadline=None)
def test_mapping_invariants(app, arch):
    result = map_application(app, arch, effort="normal+it4000")
    mapping = result.mapping
    q = repetition_vector(app.graph)

    # Binding is total and well-typed.
    for actor in app.graph:
        tile = arch.tile(mapping.tile_of(actor.name))
        impl = mapping.implementations[actor.name]
        assert impl.pe_type == tile.pe_type

    # Static orders fire each actor exactly q times per cycle through.
    fired = {}
    for tile, order in mapping.static_orders.items():
        for actor in order:
            assert mapping.tile_of(actor) == tile
            fired[actor] = fired.get(actor, 0) + 1
    assert fired == {a.name: q[a.name] for a in app.graph}

    # The guarantee is positive and bounded by the busiest tile's work.
    assert result.guaranteed_throughput > 0
    loads = {}
    for actor in app.graph:
        tile = mapping.tile_of(actor.name)
        dispatch = arch.tile(tile).processor.context_switch_cycles
        impl = mapping.implementations[actor.name]
        loads[tile] = loads.get(tile, 0) + q[actor.name] * (
            impl.wcet + dispatch
        )
    processing_bound = Fraction(1, max(loads.values()))
    assert result.guaranteed_throughput <= processing_bound


@given(applications())
@settings(max_examples=10, deadline=None)
def test_mapping_is_deterministic(app):
    arch1 = architecture_from_template(3, "fsl")
    arch2 = architecture_from_template(3, "fsl")
    first = map_application(app, arch1, effort="normal+it4000")
    second = map_application(app, arch2, effort="normal+it4000")
    assert first.mapping.actor_binding == second.mapping.actor_binding
    assert first.mapping.static_orders == second.mapping.static_orders
    assert first.guaranteed_throughput == second.guaranteed_throughput


@given(applications())
@settings(max_examples=10, deadline=None)
def test_single_tile_guarantee_is_serial_execution(app):
    """On one tile the bound graph is fully serialized: the guarantee
    equals one iteration of total work (including dispatch)."""
    arch = architecture_from_template(1)
    result = map_application(app, arch, effort="normal+it4000")
    q = repetition_vector(app.graph)
    dispatch = arch.tiles[0].processor.context_switch_cycles
    serial_work = sum(
        q[a.name] * (result.mapping.implementations[a.name].wcet + dispatch)
        for a in app.graph
    )
    assert result.guaranteed_throughput == Fraction(1, serial_work)