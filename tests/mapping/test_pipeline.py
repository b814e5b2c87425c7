"""Tests for the pluggable mapping pipeline: registry, strategies,
backward compatibility of the thin ``map_application`` wrapper."""

import pytest

from repro.arch import architecture_from_template
from repro.exceptions import MappingError
from repro.mapping import (
    MappingPipeline,
    StrategyTuple,
    map_application,
    register_strategy,
    registered,
    resolve,
)
from repro.mapping.pipeline import (
    DEFAULT_STRATEGIES,
    ExponentialBufferGrowth,
    LinearBufferGrowth,
    _spiral_tile_order,
)


class TestRegistry:
    def test_builtin_strategies_registered(self):
        assert set(registered("binding")) >= {"greedy", "spiral", "ga"}
        assert "xy" in registered("routing")
        assert set(registered("buffer")) >= {"linear", "exponential"}
        assert "static-order" in registered("scheduling")

    def test_unknown_name_lists_registered_options(self):
        with pytest.raises(ValueError) as excinfo:
            resolve("binding", "quantum")
        message = str(excinfo.value)
        assert "quantum" in message
        for name in registered("binding"):
            assert name in message

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown stage kind"):
            resolve("placement", "greedy")
        with pytest.raises(ValueError, match="unknown stage kind"):
            registered("placement")

    def test_duplicate_registration_raises(self):
        @register_strategy("buffer", "test-dup-probe")
        class Probe:
            def allocate(self, app, channels):
                pass

            def grow(self, channels, round_index):
                pass

        try:
            with pytest.raises(ValueError, match="duplicate registration"):
                register_strategy("buffer", "test-dup-probe")(Probe)
        finally:
            from repro.mapping.pipeline import _REGISTRY

            del _REGISTRY["buffer"]["test-dup-probe"]

    def test_decorator_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown stage kind"):
            register_strategy("nonsense", "x")

    def test_registered_classes_carry_identity(self):
        strategy = resolve("binding", "spiral")
        assert strategy.kind == "binding"
        assert strategy.name == "spiral"


class TestBackwardCompatibility:
    def test_wrapper_matches_explicit_default_pipeline(self, small_app):
        arch = architecture_from_template(3)
        legacy = map_application(small_app, arch)
        piped = MappingPipeline().run(small_app, arch)
        assert legacy.guaranteed_throughput == piped.guaranteed_throughput
        assert legacy.mapping.actor_binding == piped.mapping.actor_binding
        assert legacy.mapping.static_orders == piped.mapping.static_orders
        assert legacy.buffer_growth_rounds == piped.buffer_growth_rounds
        for name, channel in legacy.mapping.channels.items():
            other = piped.mapping.channels[name]
            assert (channel.capacity, channel.alpha_src,
                    channel.alpha_dst) == (
                other.capacity, other.alpha_src, other.alpha_dst
            )

    def test_default_strategy_tuple_is_default(self):
        assert MappingPipeline().strategies == DEFAULT_STRATEGIES
        assert DEFAULT_STRATEGIES.is_default
        assert DEFAULT_STRATEGIES.label_suffix() == ""

    def test_best_snapshot_isolated_from_later_growth(self, chain_app):
        """The saved-best channels must not alias the live ones (the
        historic ``_copy_channel`` shared the parameters object)."""
        arch = architecture_from_template(3)
        result = map_application(chain_app, arch)
        inter = [
            c for c in result.mapping.channels.values()
            if not c.intra_tile
        ]
        assert inter
        assert all(c.parameters is not None for c in inter)


class TestSpiralBinding:
    def test_spiral_completes_and_is_valid(self, small_app):
        arch = architecture_from_template(3)
        result = map_application(small_app, arch, binding="spiral")
        assert result.guaranteed_throughput > 0
        assert set(result.mapping.actor_binding) == {"A", "B", "C"}

    def test_spiral_respects_pins(self, chain_app):
        arch = architecture_from_template(3)
        result = map_application(
            chain_app, arch, binding="spiral", fixed={"R": "tile2"}
        )
        assert result.mapping.actor_binding["R"] == "tile2"

    def test_spiral_infeasible_pin_raises(self, chain_app):
        arch = architecture_from_template(2)
        with pytest.raises(MappingError, match="pinned"):
            map_application(
                chain_app, arch, binding="spiral",
                fixed={"P": "tile9"},
            )

    def test_spiral_tile_order_starts_at_master(self):
        fsl = architecture_from_template(4, "fsl")
        assert _spiral_tile_order(fsl)[0] == "tile0"
        noc = architecture_from_template(5, "noc")
        order = _spiral_tile_order(noc)
        assert order[0] == "tile0"
        distances = [
            noc.interconnect.hop_distance("tile0", t) for t in order
        ]
        assert distances == sorted(distances)


class TestGABinding:
    def test_deterministic_under_fixed_seed(self, small_app):
        arch = architecture_from_template(3)
        first = map_application(
            small_app, arch, binding="ga", seed=11
        ).mapping.actor_binding
        second = map_application(
            small_app, arch, binding="ga", seed=11
        ).mapping.actor_binding
        assert first == second

    def test_unseeded_defaults_to_seed_zero(self, small_app):
        arch = architecture_from_template(3)
        unseeded = map_application(
            small_app, arch, binding="ga"
        ).mapping.actor_binding
        zero = map_application(
            small_app, arch, binding="ga", seed=0
        ).mapping.actor_binding
        assert unseeded == zero

    def test_ga_respects_pins(self, chain_app):
        arch = architecture_from_template(3)
        result = map_application(
            chain_app, arch, binding="ga", seed=5, fixed={"P": "tile1"}
        )
        assert result.mapping.actor_binding["P"] == "tile1"

    def test_ga_produces_runnable_mapping(self, chain_app):
        arch = architecture_from_template(3)
        result = map_application(chain_app, arch, binding="ga", seed=1)
        assert result.guaranteed_throughput > 0
        assert set(result.mapping.actor_binding) == {"P", "Q", "R"}


class TestBufferPolicies:
    def _channels(self, app):
        from repro.mapping import allocate_buffers, bind_actors, \
            route_channels

        arch = architecture_from_template(2)
        binding, _ = bind_actors(app, arch)
        channels = route_channels(app, arch, binding)
        allocate_buffers(app, channels)
        return channels

    def test_linear_growth_adds_one_per_round(self, chain_app):
        channels = self._channels(chain_app)
        before = {
            n: c.total_buffer_tokens() for n, c in channels.items()
        }
        policy = LinearBufferGrowth()
        policy.grow(channels, 0)
        policy.grow(channels, 1)
        for name, channel in channels.items():
            per_round = 2 if not channel.intra_tile else 1
            assert channel.total_buffer_tokens() == \
                before[name] + 2 * per_round

    def test_exponential_outgrows_linear(self, chain_app):
        linear = self._channels(chain_app)
        exponential = self._channels(chain_app)
        for round_index in range(4):
            LinearBufferGrowth().grow(linear, round_index)
            ExponentialBufferGrowth().grow(exponential, round_index)
        for name in linear:
            assert exponential[name].total_buffer_tokens() > \
                linear[name].total_buffer_tokens()

    def test_exponential_step_is_capped(self, chain_app):
        channels = self._channels(chain_app)
        before = {
            n: c.total_buffer_tokens() for n, c in channels.items()
        }
        ExponentialBufferGrowth().grow(channels, 99)
        cap = ExponentialBufferGrowth.max_step
        for name, channel in channels.items():
            per_round = 2 if not channel.intra_tile else 1
            assert channel.total_buffer_tokens() == \
                before[name] + cap * per_round

    def test_exponential_flow_still_meets_constraint(self, chain_app):
        from fractions import Fraction

        arch = architecture_from_template(3)
        result = map_application(
            chain_app, arch, constraint=Fraction(1, 1200),
            buffer_policy="exponential",
        )
        assert result.constraint_met


class TestStrategyTuple:
    def test_cache_tokens_distinguish_strategies(self):
        default = StrategyTuple()
        spiral = StrategyTuple(binding="spiral")
        seeded = StrategyTuple(binding="ga", seed=3)
        reseeded = StrategyTuple(binding="ga", seed=4)
        tokens = {
            t.cache_token() for t in (default, spiral, seeded, reseeded)
        }
        assert len(tokens) == 4

    def test_seed_ignored_for_deterministic_binders(self):
        # greedy/spiral ignore the seed, so it must not split cache
        # entries or change labels
        assert StrategyTuple(seed=7).cache_token() == \
            StrategyTuple().cache_token()
        assert StrategyTuple(seed=7).is_default
        assert StrategyTuple(seed=7).label_suffix() == ""
        assert StrategyTuple(binding="spiral", seed=7).cache_token() == \
            StrategyTuple(binding="spiral").cache_token()

    def test_unseeded_ga_canonicalizes_to_seed_zero(self):
        # the GA runs seed=None as seed 0; identical runs share an entry
        assert StrategyTuple(binding="ga").cache_token() == \
            StrategyTuple(binding="ga", seed=0).cache_token()
        assert StrategyTuple(binding="ga", seed=0).cache_token() != \
            StrategyTuple(binding="ga", seed=1).cache_token()

    def test_label_suffix_names_the_deviation(self):
        assert StrategyTuple(binding="spiral").label_suffix() == \
            "#binding=spiral"
        assert "seed=7" in StrategyTuple(
            binding="ga", seed=7
        ).label_suffix()

    def test_validate_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="registered"):
            StrategyTuple(binding="nope").validate()

    def test_build_pipeline_round_trips(self):
        tuple_ = StrategyTuple(
            binding="spiral", buffer_policy="exponential", seed=9
        )
        assert tuple_.build_pipeline().strategies == tuple_

    def test_pipeline_accepts_instances(self, small_app):
        arch = architecture_from_template(2)
        pipeline = MappingPipeline(
            binding=resolve("binding", "greedy"),
            buffer_policy=ExponentialBufferGrowth(),
        )
        assert pipeline.strategies.binding == "greedy"
        assert pipeline.strategies.buffer_policy == "exponential"
        result = pipeline.run(small_app, arch)
        assert result.guaranteed_throughput > 0


@pytest.mark.parametrize("interconnect", ("fsl", "noc"))
def test_mapping_rounds_make_no_untimed_liveness_check(
    interconnect, monkeypatch
):
    """Each buffer round decides liveness by its static-order derivation
    and its timed analysis only: mapping MJPEG onto the 5-tile Fig. 6
    platforms calls neither ``deadlock_report`` nor ``is_deadlock_free``,
    wherever either name was imported."""
    import sys

    from repro.flow.spec import build_case_study_app
    from repro.sdf import deadlock

    calls = []
    for name in ("deadlock_report", "is_deadlock_free"):
        real = getattr(deadlock, name)

        def spy(graph, _real=real, _name=name):
            calls.append(_name)
            return _real(graph)

        for module in list(sys.modules.values()):
            if (module is not None
                    and module.__name__.startswith("repro")
                    and getattr(module, name, None) is real):
                monkeypatch.setattr(module, name, spy)

    app = build_case_study_app("gradient", frames=1)
    result = map_application(
        app, architecture_from_template(5, interconnect),
        fixed={"VLD": "tile0"},
    )
    assert result.mapping.static_orders
    assert calls == []
