"""Residual capacity bookkeeping and point relocation."""

from fractions import Fraction

import pytest

from repro.arch.noc import xy_route
from repro.runtime import (
    ChannelFootprint,
    OperatingPoint,
    ResidualPlatform,
    find_placement,
)

from tests.runtime.conftest import ARCH_FSL, ARCH_NOC


def point(tiles, channels=(), interconnect="fsl", memory=None):
    return OperatingPoint(
        label=f"{len(tiles)}t/test",
        tiles=tuple(tiles),
        interconnect=interconnect,
        throughput=Fraction(1, 100),
        constraint_met=True,
        area_slices=100,
        tile_memory=(
            memory
            if memory is not None
            else {t: (1024, 512) for t in tiles}
        ),
        channels=tuple(channels),
    )


@pytest.fixture
def fsl_platform():
    return ResidualPlatform(ARCH_FSL.build())


@pytest.fixture
def noc_platform():
    return ResidualPlatform(ARCH_NOC.build())


class TestClaims:
    def test_claim_and_release_round_trip(self, fsl_platform):
        before = fsl_platform.snapshot()
        p = point(
            ["tile0", "tile1"],
            [ChannelFootprint("e0", "tile0", "tile1")],
        )
        claim = fsl_platform.claim_for(p, {t: t for t in p.tiles})
        fsl_platform.claim(claim)
        assert fsl_platform.free_tiles() == ("tile2", "tile3")
        assert fsl_platform.snapshot()["out_ports_used"] == {"tile0": 1}
        fsl_platform.release(claim)
        assert fsl_platform.snapshot() == before

    def test_occupied_tile_is_inadmissible(self, fsl_platform):
        p = point(["tile0"])
        claim = fsl_platform.claim_for(p, {"tile0": "tile0"})
        fsl_platform.claim(claim)
        again = fsl_platform.claim_for(p, {"tile0": "tile0"})
        assert "occupied" in fsl_platform.admissible(again)
        with pytest.raises(ValueError, match="inadmissible"):
            fsl_platform.claim(again)

    def test_memory_overflow_is_inadmissible(self, fsl_platform):
        huge = point(["tile0"], memory={"tile0": (1 << 30, 512)})
        claim = fsl_platform.claim_for(huge, {"tile0": "tile0"})
        assert "memory" in fsl_platform.admissible(claim)

    def test_link_wire_overcommit_is_inadmissible(self, noc_platform):
        wires = noc_platform._noc.wires_per_link
        p = point(
            ["tile0", "tile1"],
            [
                ChannelFootprint(
                    "e0", "tile0", "tile1", hops=1, wires=wires + 1
                )
            ],
            interconnect="noc",
        )
        claim = noc_platform.claim_for(p, {t: t for t in p.tiles})
        assert "free wires" in noc_platform.admissible(claim)


class TestFindPlacement:
    def test_relocates_onto_the_free_tiles(self, fsl_platform):
        blocker = point(["tile0"])
        fsl_platform.claim(
            fsl_platform.claim_for(blocker, {"tile0": "tile0"})
        )
        found = find_placement(point(["tile0"]), fsl_platform)
        assert found is not None
        placement, claim = found
        assert placement == {"tile0": "tile1"}
        assert claim.tiles == ("tile1",)

    def test_pinned_tiles_are_placed_identically(self, fsl_platform):
        found = find_placement(
            point(["tile0", "tile1"]), fsl_platform, pinned=["tile1"]
        )
        assert found is not None
        assert found[0]["tile1"] == "tile1"
        blocker = point(["tile0"])
        fsl_platform.claim(
            fsl_platform.claim_for(blocker, {"tile0": "tile1"})
        )
        assert find_placement(
            point(["tile0", "tile1"]), fsl_platform, pinned=["tile1"]
        ) is None

    def test_noc_relocation_preserves_hop_counts(self, noc_platform):
        p = point(
            ["tile0", "tile1"],
            [ChannelFootprint("e0", "tile0", "tile1", hops=1, wires=4)],
            interconnect="noc",
        )
        blocker = point(["tile0"], interconnect="noc")
        noc_platform.claim(
            noc_platform.claim_for(blocker, {"tile0": "tile0"})
        )
        found = find_placement(p, noc_platform)
        assert found is not None
        placement, _ = found
        assert noc_platform._noc.hop_distance(
            placement["tile0"], placement["tile1"]
        ) == 1

    def test_no_fit_returns_none(self, fsl_platform):
        assert find_placement(
            point([f"tile{i}" for i in range(5)]), fsl_platform
        ) is None


class TestResidualArchitecture:
    def test_none_when_no_tile_is_free(self, fsl_platform):
        for tile in ("tile0", "tile1", "tile2", "tile3"):
            p = point([tile], memory={tile: (64, 64)})
            fsl_platform.claim(fsl_platform.claim_for(p, {tile: tile}))
        assert fsl_platform.residual_architecture() is None

    def test_noc_release_all_restores_the_residual_baseline(
        self, noc_platform
    ):
        p = point(
            ["tile0", "tile1"],
            [ChannelFootprint("e0", "tile0", "tile1", hops=1, wires=4)],
            interconnect="noc",
        )
        noc_platform.claim(
            noc_platform.claim_for(p, {t: t for t in p.tiles})
        )
        residual = noc_platform.residual_architecture()
        fabric = residual.interconnect
        baseline = dict(fabric._free_wires)
        assert baseline == noc_platform._free_wires
        # the routing stage resets the fabric before every attempt;
        # the wrapper must restore the residual, not the pristine mesh
        fabric.release_all()
        assert fabric._free_wires == baseline

    def test_xy_route_matches_recorded_hops(self, noc_platform):
        # the invariant find_placement's pruning relies on
        noc = noc_platform._noc
        path = xy_route(
            noc.position_of("tile0"), noc.position_of("tile3")
        )
        assert len(path) - 1 == noc.hop_distance("tile0", "tile3")
