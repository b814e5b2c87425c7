"""The constraint loop's round memo: what its key covers, that a hit
hands out private static orders, and that each repetition vector is
computed once per use."""

import dataclasses
from fractions import Fraction

import pytest

from repro.arch import architecture_from_template
from repro.mapping import (
    DEFAULT_STRATEGIES,
    MappingPipeline,
    StrategyTuple,
    allocate_buffers,
    bind_actors,
    build_bound_graph,
    route_channels,
)
from repro.mapping import binding as binding_module
from repro.mapping import bound_graph as bound_graph_module
from repro.mapping import costs as costs_module
from repro.mapping.pipeline import StaticOrderScheduling, round_key

FIXED = {"VLD": "tile0"}
#: The 5-tile Fig. 6 worst case: keeps the buffer-growth loop busy.
CONSTRAINT = Fraction(1, 4231920)


@pytest.fixture(scope="module")
def mjpeg():
    from repro.flow.spec import build_case_study_app

    return build_case_study_app("gradient")


@pytest.fixture
def bound(small_app):
    arch = architecture_from_template(2, "noc")
    binding, impls = bind_actors(small_app, arch)
    channels = route_channels(small_app, arch, binding)
    allocate_buffers(small_app, channels)
    return build_bound_graph(small_app, arch, binding, impls, channels)


def key_of(bound, max_iterations=10_000, strategies=DEFAULT_STRATEGIES):
    return round_key(bound, max_iterations, strategies)


class TestKeySensitivity:
    def test_key_is_a_pure_function_of_content(self, bound):
        assert key_of(bound) == key_of(bound)
        twin = dataclasses.replace(
            bound, graph=bound.graph.copy(), processor_of=dict(
                bound.processor_of
            )
        )
        assert key_of(twin) == key_of(bound)

    def test_credit_tokens_change_the_key(self, bound):
        before = key_of(bound)
        credit = next(
            e for e in bound.graph.edges if e.name.endswith("credit")
        )
        credit.initial_tokens += 1
        assert key_of(bound) != before
        credit.initial_tokens -= 1
        assert key_of(bound) == before

    def test_execution_time_changes_the_key(self, bound):
        before = key_of(bound)
        bound.graph.actor("A").execution_time += 1
        assert key_of(bound) != before

    def test_binding_insertion_order_changes_the_key(self, bound):
        before = key_of(bound)
        bound.processor_of = dict(reversed(bound.processor_of.items()))
        assert key_of(bound) != before

    def test_iteration_budget_changes_the_key(self, bound):
        assert key_of(bound, max_iterations=10_001) != key_of(bound)

    def test_scheduling_strategy_changes_the_key(self, bound):
        other = StrategyTuple(scheduling="another-scheduler")
        assert key_of(bound, strategies=other) != key_of(bound)

    def test_empty_extra_tiles_give_equal_keys(self, mjpeg, monkeypatch):
        """3t/noc and 4t/noc bind MJPEG to the same three tiles, so every
        round of the 4-tile run is a hit on the 3-tile run's memo."""
        memo = {}
        run_3 = MappingPipeline().run(
            mjpeg, architecture_from_template(3, "noc"),
            fixed=FIXED, memo=memo,
        )
        keys_3 = list(memo)
        memo_4 = {}
        MappingPipeline().run(
            mjpeg, architecture_from_template(4, "noc"),
            fixed=FIXED, memo=memo_4,
        )
        assert list(memo_4) == keys_3

        def no_derivation(self, bound):
            raise AssertionError("a round missed the memo")

        monkeypatch.setattr(StaticOrderScheduling, "build", no_derivation)
        run_4 = MappingPipeline().run(
            mjpeg, architecture_from_template(4, "noc"),
            fixed=FIXED, memo=memo,
        )
        assert run_4.throughput == run_3.throughput
        assert run_4.buffer_growth_rounds == run_3.buffer_growth_rounds


class TestNoAliasing:
    def test_hits_hand_out_private_static_orders(self, mjpeg):
        memo = {}
        results = [
            MappingPipeline().run(
                mjpeg, architecture_from_template(tiles, "noc"),
                fixed=FIXED, memo=memo,
            )
            for tiles in (3, 4)
        ]
        first, second = (r.mapping.static_orders for r in results)
        assert first == second
        assert first is not second
        for tile, order in first.items():
            assert order is not second[tile]
        stored = [entry[0] for entry in memo.values() if entry is not None]
        for orders in (first, second):
            assert all(orders is not kept for kept in stored)
        # mutating one result leaves the other and the memo untouched
        tile = next(iter(first))
        snapshot = {t: list(o) for t, o in second.items()}
        first[tile].append("intruder")
        assert second == snapshot
        assert all("intruder" not in o for s in stored for o in s.values())


def counting(monkeypatch, module, calls):
    real = module.repetition_vector

    def spy(graph):
        calls.append(module.__name__)
        return real(graph)

    monkeypatch.setattr(module, "repetition_vector", spy)


class TestRepetitionVectorOncePerUse:
    def test_binder_computes_the_vector_once(self, mjpeg, monkeypatch):
        calls = []
        counting(monkeypatch, binding_module, calls)
        counting(monkeypatch, costs_module, calls)
        bind_actors(mjpeg, architecture_from_template(6, "fsl"), fixed=FIXED)
        assert calls == ["repro.mapping.binding"]

    def test_bound_graph_vector_is_computed_once_per_mapping(
        self, mjpeg, monkeypatch
    ):
        calls = []
        counting(monkeypatch, bound_graph_module, calls)
        result = MappingPipeline().run(
            mjpeg, architecture_from_template(2, "fsl"), fixed=FIXED,
            constraint=CONSTRAINT,
        )
        assert result.buffer_growth_rounds > 1
        assert calls == ["repro.mapping.bound_graph"]
