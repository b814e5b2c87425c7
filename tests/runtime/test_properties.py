"""Property-based fuzzing of the run-time platform manager.

Seeded random admit/depart/migrate sequences over scenario-generated
applications must uphold three invariants, checked from first
principles (never through the manager's own bookkeeping):

1. **no over-commitment** -- re-deriving every placed application's
   resource usage from its placement (XY routes on the NoC, port
   counts on FSL, per-tile memory sums) never exceeds any tile, link,
   or port capacity, and always agrees with the residual snapshot;
2. **guarantees are real** -- re-running the full mapping analysis
   with every actor pinned to its placed tile reproduces at least the
   admitted throughput guarantee;
3. **restart is byte-identical** -- replaying the journal into a fresh
   manager yields the same ``state_digest()`` as the live one.
"""

import random

import pytest

from repro.arch.interconnect import FSLInterconnect
from repro.arch.noc import SDMNoC, xy_route
from repro.artifacts import ArtifactStore
from repro.exceptions import AdmissionError
from repro.mapping import MappingEffort, map_application
from repro.runtime import PlatformManager, build_library
from repro.runtime.residual import mesh_links

from tests.runtime.conftest import ARCH_FSL, ARCH_NOC, flow_specs

ARCHES = {"fsl": ARCH_FSL, "noc": ARCH_NOC}


@pytest.fixture(scope="module")
def corpora():
    """Per-interconnect scenario specs + libraries (built once)."""
    out = {}
    for kind, arch in ARCHES.items():
        specs = flow_specs("all", 4, 11, arch)
        out[kind] = [(spec, build_library(spec)) for spec in specs]
    return out


def assert_never_overcommitted(manager):
    """Invariant 1, re-derived from placements alone."""
    arch = manager.arch
    fabric = arch.interconnect
    placed = manager.apps()

    # tiles: exclusive ownership, free list is exactly the complement
    owned = [tile for app in placed for tile in app.claim.tiles]
    assert len(owned) == len(set(owned)), "two apps share a tile"
    assert set(manager.residual.free_tiles()) == \
        set(arch.tile_names()) - set(owned)

    # memory: per placed tile, the point's footprint fits the tile
    for app in placed:
        for canonical, real in app.placement.items():
            need = app.point.tile_memory.get(canonical, (0, 0))
            tile = arch.tile(real)
            assert need[0] <= tile.instruction_memory.capacity_bytes
            assert need[1] <= tile.data_memory.capacity_bytes

    if isinstance(fabric, SDMNoC):
        used = {
            link: 0 for link in mesh_links(fabric.columns, fabric.rows)
        }
        for app in placed:
            for channel in app.point.channels:
                src = app.placement[channel.src]
                dst = app.placement[channel.dst]
                # relocation preserved the analyzed hop count
                assert fabric.hop_distance(src, dst) == channel.hops
                path = xy_route(
                    fabric.position_of(src), fabric.position_of(dst)
                )
                for link in zip(path, path[1:]):
                    used[link] += channel.wires
        for link, wires in used.items():
            assert wires <= fabric.wires_per_link
            assert manager.residual._free_wires[link] == \
                fabric.wires_per_link - wires
    elif isinstance(fabric, FSLInterconnect):
        out_ports, in_ports = {}, {}
        for app in placed:
            for channel in app.point.channels:
                src = app.placement[channel.src]
                dst = app.placement[channel.dst]
                out_ports[src] = out_ports.get(src, 0) + 1
                in_ports[dst] = in_ports.get(dst, 0) + 1
        for tile, count in out_ports.items():
            assert count <= fabric.max_links_per_tile
        for tile, count in in_ports.items():
            assert count <= fabric.max_links_per_tile


def assert_guarantee_is_real(manager, spec, app):
    """Invariant 2: one full re-analysis with the placement pinned."""
    binding = app.point.result.mapping.actor_binding
    fixed = {
        actor: app.placement[tile] for actor, tile in binding.items()
    }
    result = map_application(
        spec.build_app(spec.app),
        manager.arch,
        constraint=app.constraint,
        fixed=fixed,
        effort=MappingEffort.of(spec.effort),
        pipeline=spec.strategies.build_pipeline(),
    )
    assert result.guaranteed_throughput >= app.guarantee


@pytest.mark.parametrize("kind", sorted(ARCHES))
def test_random_churn_never_overcommits(kind, corpora, tmp_path):
    builds = corpora[kind]
    store = ArtifactStore(tmp_path / "artifacts")
    manager = PlatformManager(ARCHES[kind], store=store)
    for _, build in builds:
        manager.register_library(build.key, build.library)

    rng = random.Random(20110314)
    by_id = {}  # app_id -> spec
    rejections = 0
    for _ in range(30):
        if by_id and rng.random() < 0.4:
            app_id = rng.choice(sorted(by_id))
            manager.depart(app_id, migrate=rng.random() < 0.5)
            del by_id[app_id]
        else:
            spec, _ = rng.choice(builds)
            try:
                decision = manager.admit(spec)
                by_id[decision["app_id"]] = spec
            except AdmissionError:
                rejections += 1
        assert_never_overcommitted(manager)
    assert manager.counters.snapshot()["rejections"] == rejections

    # invariant 2 on whatever survived the churn (bounded for speed)
    for app in manager.apps()[:2]:
        assert_guarantee_is_real(manager, by_id[app.app_id], app)

    # invariant 3: the journaled history replays byte-identically
    replayed = PlatformManager.open(store=store)
    assert replayed.state_digest() == manager.state_digest()


@pytest.mark.parametrize("kind", sorted(ARCHES))
def test_constrained_admissions_pick_satisfying_points(
    kind, corpora, tmp_path
):
    """Constraint-carrying libraries only ever admit meeting points."""
    base = corpora[kind][0][0]
    build0 = corpora[kind][0][1]
    throughputs = [p.throughput for p in build0.library.points]
    best = max(throughputs)
    if best <= throughputs[0]:
        pytest.skip("one-point front: no constraint can discriminate")
    constraint = (throughputs[0] + best) / 2
    spec = flow_specs(
        "all", 4, 11, ARCHES[kind], constraint=constraint
    )[0]
    assert spec.name == base.name
    build = build_library(spec)

    manager = PlatformManager(ARCHES[kind])
    manager.register_library(build.key, build.library)
    decision = manager.admit(spec)
    app = manager.apps()[0]
    assert app.point.constraint_met
    assert app.guarantee >= constraint
    assert decision["analyses"] == 0
    assert_never_overcommitted(manager)
