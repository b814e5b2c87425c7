"""Tests for the power model: scaling, interconnect energy, counters."""

from fractions import Fraction

import pytest

from repro import counters
from repro.arch import architecture_from_template, master_tile, slave_tile
from repro.arch.area import tile_area
from repro.exceptions import PowerError, ReproError
from repro.power import (
    BASE_TECH_NM,
    TECH_NODES,
    PowerModel,
    platform_power,
    words_per_token,
)
from repro.power.model import (
    FSL_WORD_PJ,
    NOC_HOP_PJ_PER_WORD,
    NOC_INJECTION_PJ_PER_WORD,
    STATIC_UW_PER_BRAM,
    STATIC_UW_PER_SLICE,
)


class TestWordsPerToken:
    def test_rounds_up_to_word_granularity(self):
        assert words_per_token(1) == 1
        assert words_per_token(4) == 1
        assert words_per_token(5) == 2
        assert words_per_token(16) == 4

    def test_degenerate_sizes(self):
        assert words_per_token(0) == 0
        assert words_per_token(-3) == 0


class TestPowerModel:
    def test_default_is_base_node(self):
        model = PowerModel()
        assert model.tech_nm == BASE_TECH_NM
        assert model.dynamic_scale == 1
        assert model.static_scale == 1

    def test_unknown_node_rejected_with_typed_error(self):
        with pytest.raises(PowerError, match="unknown technology node"):
            PowerModel(tech_nm=7)
        assert issubclass(PowerError, ReproError)

    def test_invalid_clock_rejected(self):
        with pytest.raises(PowerError, match="clock period"):
            PowerModel(clock_ns=0)

    def test_scaling_trends_are_monotone(self):
        """Post-Dennard: smaller nodes switch cheaper but leak more."""
        nodes = sorted(TECH_NODES, reverse=True)  # 45 -> 16
        dynamic = [PowerModel(tech_nm=nm).dynamic_scale for nm in nodes]
        static = [PowerModel(tech_nm=nm).static_scale for nm in nodes]
        assert all(b < a for a, b in zip(dynamic, dynamic[1:]))
        assert all(b > a for a, b in zip(static, static[1:]))

    def test_values_are_exact_fractions(self):
        model = PowerModel(tech_nm=32)
        tile = slave_tile("s")
        static = model.tile_static_uw(tile)
        assert isinstance(static, Fraction)
        area = tile_area(tile)
        expected = (
            STATIC_UW_PER_SLICE * area.slices
            + STATIC_UW_PER_BRAM * area.brams
        ) * Fraction(4, 3)
        assert static == expected

    def test_master_draws_more_than_slave(self):
        model = PowerModel()
        assert model.tile_dynamic_uw(
            master_tile("m")
        ) > model.tile_dynamic_uw(slave_tile("s"))

    def test_ca_adds_dynamic_power(self):
        model = PowerModel()
        plain = model.tile_dynamic_uw(slave_tile("s"))
        with_ca = model.tile_dynamic_uw(slave_tile("s", with_ca=True))
        assert with_ca > plain

    def test_cache_token_is_deterministic_and_distinct(self):
        assert PowerModel().cache_token() == PowerModel().cache_token()
        assert (
            PowerModel(tech_nm=22).cache_token()
            != PowerModel().cache_token()
        )
        assert (
            PowerModel(clock_ns=5).cache_token()
            != PowerModel().cache_token()
        )


class TestInterconnectEnergy:
    def test_same_tile_transfer_is_free(self):
        arch = architecture_from_template(2, "fsl")
        model = PowerModel()
        assert (
            model.word_energy_pj(arch.interconnect, "tile0", "tile0")
            == 0
        )

    def test_fsl_word_cost_is_flat(self):
        arch = architecture_from_template(3, "fsl")
        model = PowerModel()
        assert (
            model.word_energy_pj(arch.interconnect, "tile0", "tile2")
            == FSL_WORD_PJ
        )

    def test_noc_cost_grows_with_hop_distance(self):
        arch = architecture_from_template(4, "noc")
        model = PowerModel()
        near = model.word_energy_pj(arch.interconnect, "tile0", "tile1")
        far = model.word_energy_pj(arch.interconnect, "tile0", "tile3")
        assert near < far
        hops = arch.interconnect.hop_distance("tile0", "tile1")
        assert near == (
            NOC_INJECTION_PJ_PER_WORD + NOC_HOP_PJ_PER_WORD * hops
        )

    def test_transfer_energy_counts_tokens_and_words(self):
        arch = architecture_from_template(2, "fsl")
        model = PowerModel()
        one_word = model.transfer_energy_pj(
            arch.interconnect, "tile0", "tile1", tokens=1, token_size=4
        )
        # 8-byte tokens need two words; 3 tokens triple it
        assert model.transfer_energy_pj(
            arch.interconnect, "tile0", "tile1", tokens=3, token_size=8
        ) == 6 * one_word

    def test_technology_scales_transfer_energy(self):
        arch = architecture_from_template(2, "fsl")
        base = PowerModel().transfer_energy_pj(
            arch.interconnect, "tile0", "tile1", 10, 4
        )
        scaled = PowerModel(tech_nm=22).transfer_energy_pj(
            arch.interconnect, "tile0", "tile1", 10, 4
        )
        assert scaled == base / 2


class TestCounters:
    def test_record_and_snapshot(self):
        power = counters.Counters(("platform", "application"))
        power.add("platform")
        power.add("application")
        power.add("application")
        assert power.snapshot() == {
            "platform": 1,
            "application": 2,
        }

    def test_estimates_count_into_collector_scopes(self):
        arch = architecture_from_template(1, "fsl")
        with counters.collect() as outer:
            with counters.collect() as inner:
                platform_power(arch)
            platform_power(arch)
        assert inner.snapshot("power") == {"platform": 1, "application": 0}
        assert outer.snapshot("power") == {"platform": 2, "application": 0}
