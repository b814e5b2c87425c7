"""Tests for the parallel, cached design-space exploration engine."""

from fractions import Fraction

import pytest

from repro.appmodel import (
    ActorImplementation,
    ApplicationModel,
    ImplementationMetrics,
    MemoryRequirements,
)
from repro.arch import architecture_from_template
from repro.flow.dse import (
    COMPACT_MIX,
    UNIFORM_MIX,
    CandidatePoint,
    DesignSpace,
    EvaluationCache,
    Evaluator,
    ParallelExplorer,
    ParetoFront,
    TileMix,
    explore_design_space,
)
from repro.flow.fingerprint import (
    application_fingerprint,
    architecture_fingerprint,
)
from repro.flow.report import exploration_csv, format_exploration_report
from repro.mapping import EFFORT_LEVELS, MappingEffort
from repro.sdf import SDFGraph


def build_chain_app(name="engine_chain", wcets=(500, 700, 300)):
    g = SDFGraph(name)
    names = [chr(ord("P") + i) for i in range(len(wcets))]
    for actor, t in zip(names, wcets):
        g.add_actor(actor, execution_time=t)
    for src, dst in zip(names, names[1:]):
        g.add_edge(f"{src.lower()}{dst.lower()}", src, dst, token_size=16)
    return ApplicationModel(
        graph=g,
        implementations=[
            ActorImplementation(
                actor=actor, pe_type="microblaze",
                metrics=ImplementationMetrics(
                    wcet=t, memory=MemoryRequirements(4096, 2048)
                ),
            )
            for actor, t in zip(names, wcets)
        ],
    )


@pytest.fixture
def app():
    return build_chain_app()


@pytest.fixture
def space():
    return DesignSpace(tile_counts=(1, 2, 3), interconnects=("fsl", "noc"))


class TestDesignSpace:
    def test_enumeration_order_is_deterministic(self, space):
        assert [c.label for c in space.points()] == [
            "1t/fsl", "2t/fsl", "2t/noc", "3t/fsl", "3t/noc"
        ]
        assert space.points() == space.points()

    def test_single_tile_dedupes_interconnects(self):
        space = DesignSpace(tile_counts=(1,), interconnects=("fsl", "noc"))
        assert len(space) == 1

    def test_heterogeneous_mix_adds_points_only_beyond_one_tile(self):
        space = DesignSpace(
            tile_counts=(1, 2), interconnects=("fsl",),
            mixes=(UNIFORM_MIX, COMPACT_MIX),
        )
        labels = [c.label for c in space.points()]
        # the compact mix collapses onto uniform for the single tile
        assert labels == ["1t/fsl", "2t/fsl", "2t/fsl@compact"]

    def test_ca_axis(self):
        space = DesignSpace(
            tile_counts=(2,), interconnects=("fsl",),
            ca_options=(False, True),
        )
        assert [c.label for c in space.points()] == ["2t/fsl", "2t/fsl+CA"]

    def test_candidate_builds_heterogeneous_architecture(self):
        candidate = CandidatePoint(
            tiles=3, interconnect="fsl", mix=COMPACT_MIX
        )
        arch = candidate.build_architecture()
        master, slave = arch.tile("tile0"), arch.tile("tile1")
        assert master.memory_capacity == 256 * 1024
        assert slave.memory_capacity == 128 * 1024


class TestFingerprints:
    def test_application_fingerprint_is_content_addressed(self):
        a, b = build_chain_app(), build_chain_app()
        assert a is not b
        assert application_fingerprint(a) == application_fingerprint(b)

    def test_application_fingerprint_sees_wcet_changes(self):
        a = build_chain_app()
        b = build_chain_app(wcets=(500, 700, 301))
        assert application_fingerprint(a) != application_fingerprint(b)

    def test_architecture_fingerprint_ignores_name(self):
        a = architecture_from_template(3, "fsl", name="one")
        b = architecture_from_template(3, "fsl", name="two")
        assert architecture_fingerprint(a) == architecture_fingerprint(b)

    def test_architecture_fingerprint_sees_structure(self):
        base = architecture_from_template(3, "fsl")
        other_mem = architecture_from_template(3, "fsl", data_kb=64)
        other_kind = architecture_from_template(3, "noc")
        fp = architecture_fingerprint
        assert fp(base) != fp(other_mem)
        assert fp(base) != fp(other_kind)


class TestParetoFront:
    def test_incremental_matches_posthoc(self, app, space):
        result = explore_design_space(
            app, tile_counts=(1, 2, 3, 4), interconnects=("fsl", "noc")
        )
        posthoc = sorted(
            (
                p for p in result.points
                if not any(q.dominates(p) for q in result.points)
            ),
            key=lambda p: p.area.slices,
        )
        assert result.pareto_frontier() == posthoc

    def test_dominated_newcomer_rejected_and_evicts(self, app):
        result = explore_design_space(
            app, tile_counts=(1, 2), interconnects=("fsl",)
        )
        front = ParetoFront()
        for point in result.points:
            front.add(point)
        # re-adding an existing member must not grow the front
        size = len(front)
        front.add(result.points[0])
        assert len(front) == size


class TestParallelMatchesSerial:
    def test_pareto_sets_byte_identical(self, app, space):
        serial = ParallelExplorer(Evaluator(app), jobs=1).explore(space)
        parallel = ParallelExplorer(Evaluator(app), jobs=4).explore(space)
        assert serial.points == parallel.points
        assert serial.failures == parallel.failures
        assert serial.pareto_frontier() == parallel.pareto_frontier()
        assert serial.as_table() == parallel.as_table()

    def test_report_and_csv_render(self, app, space):
        result = ParallelExplorer(Evaluator(app), jobs=2).explore(space)
        report = format_exploration_report(result)
        assert "Pareto frontier" in report
        assert "engine:" in report
        csv = exploration_csv(result)
        assert csv.splitlines()[0].startswith("label,tiles,")
        assert len(csv.splitlines()) == len(result.points) + 1

    def test_bad_jobs_rejected(self, app):
        with pytest.raises(ValueError):
            ParallelExplorer(Evaluator(app), jobs=0)


class TestCaching:
    def test_cache_hits_skip_reevaluation(self, app, space):
        evaluator = Evaluator(app)
        explorer = ParallelExplorer(evaluator, jobs=1)
        first = explorer.explore(space)
        ran = evaluator.evaluations
        assert ran == len(space)
        second = explorer.explore(space)
        assert evaluator.evaluations == ran  # nothing re-analyzed
        assert second.cache_stats.hits >= len(space)
        assert second.points == first.points
        assert second.as_table() == first.as_table()

    def test_cache_shared_across_equal_applications(self, space):
        cache = EvaluationCache()
        ParallelExplorer(
            Evaluator(build_chain_app(), cache=cache), jobs=1
        ).explore(space)
        twin = Evaluator(build_chain_app(), cache=cache)
        ParallelExplorer(twin, jobs=1).explore(space)
        assert twin.evaluations == 0  # fingerprint matched; all hits

    def test_cache_keys_distinguish_applications(self, space):
        cache = EvaluationCache()
        ParallelExplorer(
            Evaluator(build_chain_app(), cache=cache), jobs=1
        ).explore(space)
        other = Evaluator(
            build_chain_app(wcets=(100, 100, 100)), cache=cache
        )
        ParallelExplorer(other, jobs=1).explore(space)
        assert other.evaluations == len(space)

    def test_cache_hits_are_rebranded_to_the_asking_candidate(self):
        # The single-tile platform is physically identical under either
        # interconnect kind, so the two sweeps share a cache entry -- but
        # each must see its own labels back.
        cache = EvaluationCache()
        fsl = ParallelExplorer(
            Evaluator(build_chain_app(), cache=cache), jobs=1
        ).explore(DesignSpace(tile_counts=(1,), interconnects=("fsl",)))
        noc_evaluator = Evaluator(build_chain_app(), cache=cache)
        noc = ParallelExplorer(noc_evaluator, jobs=1).explore(
            DesignSpace(tile_counts=(1,), interconnects=("noc",))
        )
        assert noc_evaluator.evaluations == 0  # shared the analysis
        assert [p.label for p in fsl.points] == ["1t/fsl"]
        assert [p.label for p in noc.points] == ["1t/noc"]
        assert noc.points[0].throughput == fsl.points[0].throughput

    def test_cache_keys_distinguish_strategies(self, app):
        # Same candidate platform, different mapping strategy: the second
        # sweep must re-evaluate every point (no false cache hit).
        from repro.mapping import StrategyTuple

        cache = EvaluationCache()
        for strategy in (
            StrategyTuple(),
            StrategyTuple(binding="spiral"),
            StrategyTuple(buffer_policy="exponential"),
            StrategyTuple(binding="ga", seed=1),
            StrategyTuple(binding="ga", seed=2),
        ):
            evaluator = Evaluator(app, cache=cache)
            space = DesignSpace(
                tile_counts=(1, 2), interconnects=("fsl",),
                strategy=strategy,
            )
            ParallelExplorer(evaluator, jobs=1).explore(space)
            assert evaluator.evaluations == len(space)

    def test_same_strategy_still_hits(self, app):
        from repro.mapping import StrategyTuple

        cache = EvaluationCache()
        space = DesignSpace(
            tile_counts=(1, 2), interconnects=("fsl",),
            strategy=StrategyTuple(binding="spiral"),
        )
        ParallelExplorer(Evaluator(app, cache=cache), jobs=1).explore(space)
        twin = Evaluator(app, cache=cache)
        ParallelExplorer(twin, jobs=1).explore(space)
        assert twin.evaluations == 0

    def test_strategy_shows_up_in_labels_and_csv(self, app):
        from repro.mapping import StrategyTuple

        space = DesignSpace(
            tile_counts=(2,), interconnects=("fsl",),
            strategy=StrategyTuple(binding="spiral"),
        )
        result = ParallelExplorer(Evaluator(app), jobs=1).explore(space)
        assert [p.label for p in result.points] == [
            "2t/fsl#binding=spiral"
        ]
        csv = exploration_csv(result)
        assert csv.splitlines()[0].endswith(",strategy")
        assert "binding=spiral" in csv.splitlines()[1]

    def test_promoted_point_keeps_its_strategy(self, app):
        from repro.flow import DesignFlow
        from repro.mapping import StrategyTuple

        result = explore_design_space(
            app, tile_counts=(2,), interconnects=("fsl",),
            binding="spiral", buffer_policy="exponential",
        )
        point = result.points[0]
        assert point.strategy == StrategyTuple(
            binding="spiral", buffer_policy="exponential"
        )
        flow = DesignFlow.from_design_point(app, point)
        assert flow.pipeline is not None
        assert flow.pipeline.strategies == point.strategy

    def test_cache_keys_distinguish_effort(self, app):
        cache = EvaluationCache()
        for effort in ("low", "normal"):
            evaluator = Evaluator(app, cache=cache)
            space = DesignSpace(
                tile_counts=(1, 2), interconnects=("fsl",), effort=effort
            )
            ParallelExplorer(evaluator, jobs=1).explore(space)
            assert evaluator.evaluations == len(space)

    def test_failures_are_cached_too(self):
        # 1 kB of data memory cannot hold the buffers: mapping fails
        tiny = TileMix("tiny", master_kb=(1, 1), slave_kb=(1, 1))
        space = DesignSpace(
            tile_counts=(2,), interconnects=("fsl",), mixes=(tiny,)
        )
        evaluator = Evaluator(build_chain_app())
        explorer = ParallelExplorer(evaluator, jobs=1)
        first = explorer.explore(space)
        assert first.failures and not first.points
        ran = evaluator.evaluations
        second = explorer.explore(space)
        assert evaluator.evaluations == ran
        assert second.failures == first.failures


class TestEarlyExit:
    CONSTRAINT = Fraction(1, 1500)

    def test_stops_at_first_feasible_point(self, app, space):
        evaluator = Evaluator(app, constraint=self.CONSTRAINT)
        result = ParallelExplorer(evaluator, jobs=1).explore(
            space, early_exit=True
        )
        assert result.points[-1].constraint_met
        assert all(not p.constraint_met for p in result.points[:-1])
        assert result.skipped > 0
        assert evaluator.evaluations < len(space)

    def test_truncation_independent_of_jobs(self, app, space):
        serial = ParallelExplorer(
            Evaluator(app, constraint=self.CONSTRAINT), jobs=1
        ).explore(space, early_exit=True)
        parallel = ParallelExplorer(
            Evaluator(app, constraint=self.CONSTRAINT), jobs=4
        ).explore(space, early_exit=True)
        assert serial.points == parallel.points

    def test_unmeetable_constraint_evaluates_everything(self, app, space):
        result = ParallelExplorer(
            Evaluator(app, constraint=Fraction(1, 10)), jobs=1
        ).explore(space, early_exit=True)
        assert result.skipped == 0
        assert result.best_meeting_constraint() is None

    def test_early_exit_without_constraint_rejected(self, app, space):
        with pytest.raises(ValueError):
            ParallelExplorer(Evaluator(app), jobs=1).explore(
                space, early_exit=True
            )


class TestFlowHandOff:
    def test_from_design_point_accepts_evaluated_point(self, app):
        from repro.flow import DesignFlow

        result = explore_design_space(
            app, tile_counts=(1, 2), interconnects=("fsl",)
        )
        best = result.best_meeting_constraint()
        flow = DesignFlow.from_design_point(app, best)
        assert flow.arch.tile_names()[0] == "tile0"
        assert len(flow.arch.tiles) == best.tiles

    def test_from_design_point_accepts_candidate(self, app):
        from repro.flow import DesignFlow

        candidate = CandidatePoint(tiles=2, interconnect="fsl")
        flow = DesignFlow.from_design_point(app, candidate)
        assert len(flow.arch.tiles) == 2

    def test_bare_point_without_candidate_rejected(self, app):
        from repro.flow import DesignFlow
        from repro.arch.area import AreaEstimate
        from repro.flow.dse import DesignPoint

        bare = DesignPoint(
            tiles=1, interconnect="fsl", with_ca=False,
            throughput=Fraction(1), area=AreaEstimate(1, 1),
            constraint_met=True,
        )
        with pytest.raises(ValueError):
            DesignFlow.from_design_point(app, bare)


class TestMappingEffort:
    def test_presets_resolve(self):
        assert MappingEffort.of("low") is EFFORT_LEVELS["low"]
        assert MappingEffort.of(EFFORT_LEVELS["high"]).name == "high"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            MappingEffort.of("heroic")

    def test_levels_are_ordered(self):
        low, normal, high = (
            EFFORT_LEVELS[k] for k in ("low", "normal", "high")
        )
        assert low.max_buffer_rounds < normal.max_buffer_rounds
        assert normal.max_buffer_rounds < high.max_buffer_rounds
        assert low.max_iterations < normal.max_iterations


class TestCLI:
    def test_explore_command_with_flags(self, capsys):
        from repro.cli import main

        code = main(
            ["explore", "gradient", "--max-tiles", "2", "--jobs", "2",
             "--effort", "low", "--heterogeneous"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "2t/fsl@compact" in out
        assert "engine:" in out

    def test_explore_csv_output(self, capsys):
        from repro.cli import main

        assert main(
            ["explore", "gradient", "--max-tiles", "2", "--csv"]
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("label,tiles,")


class TestUseCaseEvaluator:
    def make_pair(self):
        return [
            build_chain_app("uc_video", (500, 700, 300)),
            build_chain_app("uc_audio", (150, 250)),
        ]

    def test_combined_point_reports_bottleneck_guarantee(self):
        from repro.flow.dse import UseCaseEvaluator

        apps = self.make_pair()
        space = DesignSpace(tile_counts=(2,), interconnects=("fsl",))
        candidate = space.points()[0]
        shared = EvaluationCache()
        combined = UseCaseEvaluator(apps, cache=shared).evaluate(candidate)
        singles = [
            Evaluator(app, cache=shared).evaluate(candidate)
            for app in apps
        ]
        assert combined.feasible
        assert combined.point.throughput == min(
            s.point.throughput for s in singles
        )

    def test_multi_app_explore_shares_the_cache_per_app(self):
        from repro.flow.dse import UseCaseEvaluator

        apps = self.make_pair()
        space = DesignSpace(tile_counts=(1, 2), interconnects=("fsl",))
        cache = EvaluationCache()
        evaluator = UseCaseEvaluator(apps, cache=cache)
        ParallelExplorer(evaluator).explore(space)
        assert evaluator.evaluations == len(apps) * len(space)
        # a later single-app sweep re-uses the per-app entries
        single = Evaluator(apps[0], cache=cache)
        ParallelExplorer(single).explore(space)
        assert single.evaluations == 0

    def test_explore_design_space_accepts_a_sequence(self):
        result = explore_design_space(
            self.make_pair(),
            tile_counts=(1, 2),
            interconnects=("fsl",),
        )
        assert len(result.points) == 2
        assert all(p.constraint_met for p in result.points)

    def test_infeasible_app_names_the_culprit(self):
        from repro.flow.dse import UseCaseEvaluator

        apps = self.make_pair()
        evaluator = UseCaseEvaluator(
            apps, fixed={"uc_audio": {"P": "tile9"}}
        )
        candidate = DesignSpace(
            tile_counts=(2,), interconnects=("fsl",)
        ).points()[0]
        outcome = evaluator.evaluate(candidate)
        assert not outcome.feasible
        assert "uc_audio" in outcome.reason

    def test_duplicate_names_rejected(self):
        from repro.flow.dse import UseCaseEvaluator

        app = build_chain_app("same")
        with pytest.raises(ValueError, match="distinct"):
            UseCaseEvaluator([app, build_chain_app("same")])

    def test_constraint_gates_every_app(self):
        from repro.flow.dse import UseCaseEvaluator

        apps = self.make_pair()
        # achievable for audio, hopeless for the video chain
        evaluator = UseCaseEvaluator(
            apps,
            constraints={"uc_video": Fraction(1, 100),
                         "uc_audio": Fraction(1, 100000)},
        )
        candidate = DesignSpace(
            tile_counts=(2,), interconnects=("fsl",)
        ).points()[0]
        outcome = evaluator.evaluate(candidate)
        assert outcome.feasible
        assert not outcome.point.constraint_met
