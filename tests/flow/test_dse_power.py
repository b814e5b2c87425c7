"""Tests for the power/energy objective of the exploration engine.

Covers the three-objective dominance relation, budget pruning, the
energy columns of the reports, and -- most importantly -- the
byte-identity regression: runs without budgets must produce the exact
cache keys and artifact bytes they produced before the power subsystem
existed.
"""

from fractions import Fraction

from repro.arch.area import AreaEstimate
from repro.artifacts import canonical_json, from_payload, to_payload
from repro.flow.dse import (
    OBJECTIVES,
    DesignPoint,
    EvaluationOutcome,
    Evaluator,
    ParetoFront,
    UseCaseEvaluator,
    _front_sort_key,
    dominates,
    explore_design_space,
)
from repro.flow.fingerprint import evaluation_key
from repro.flow.report import exploration_csv
from repro.power import EnergyEstimate, PowerEstimate, PowerModel
from repro.scenarios import generate_scenarios, scenario_flow_spec


def _point(throughput, slices, energy_pj=None, **kwargs):
    energy = None
    if energy_pj is not None:
        energy = EnergyEstimate(
            compute_pj=Fraction(energy_pj),
            communication_pj=Fraction(0),
            static_pj=Fraction(0),
            tech_nm=45,
        )
    defaults = dict(
        tiles=2,
        interconnect="fsl",
        with_ca=False,
        throughput=Fraction(throughput),
        area=AreaEstimate(slices=slices, brams=4),
        constraint_met=True,
        energy=energy,
    )
    defaults.update(kwargs)
    return DesignPoint(**defaults)


def _app(seed=7, index=0, family="chain"):
    spec = generate_scenarios(family, index + 1, seed=seed)[index]
    return scenario_flow_spec(spec).build_application()


class TestDominance:
    def test_three_objectives_are_registered(self):
        assert [o.name for o in OBJECTIVES] == [
            "throughput", "slices", "energy",
        ]

    def test_energy_breaks_two_objective_dominance(self):
        """A bigger-but-thriftier point survives under 3 objectives."""
        fast_big = _point("1/100", 2000, energy_pj=500)
        slow_small_thrifty = _point("1/200", 1000, energy_pj=100)
        slow_small_hungry = _point("1/200", 1000, energy_pj=900)
        fast_hungry = _point("1/100", 1000, energy_pj=900)
        # equal on two axes, better energy -> dominates
        assert dominates(slow_small_thrifty, slow_small_hungry)
        # worse energy blocks what 2-objective dominance would allow:
        # fast_hungry beats slow_small_thrifty on throughput at equal
        # area, but spends 9x the energy
        assert not dominates(fast_hungry, slow_small_thrifty)
        assert dominates(
            fast_hungry, slow_small_thrifty, OBJECTIVES[:2]
        )
        assert not dominates(fast_big, slow_small_thrifty)

    def test_none_energy_objective_is_skipped(self):
        """Mixed fronts (some points estimated, some not) compare only
        the objectives both sides carry."""
        plain = _point("1/100", 1000)
        estimated = _point("1/200", 2000, energy_pj=100)
        assert dominates(plain, estimated)  # on throughput and slices
        assert not dominates(estimated, plain)
        # both None: energy contributes nothing either way
        assert dominates(_point("1/100", 1000), _point("1/200", 2000))

    def test_identical_points_do_not_dominate(self):
        a = _point("1/100", 1000, energy_pj=100)
        b = _point("1/100", 1000, energy_pj=100)
        assert not dominates(a, b)
        assert not dominates(b, a)

    def test_front_grows_with_the_third_objective(self):
        """Adding an objective can only weaken dominance: every
        2-objective front member stays on the 3-objective front."""
        points = [
            _point("1/100", 2000, energy_pj=500),
            _point("1/200", 1000, energy_pj=100),
            _point("1/150", 1500, energy_pj=50),
            _point("1/300", 900, energy_pj=800),
        ]
        two = ParetoFront(OBJECTIVES[:2])
        three = ParetoFront()
        for p in points:
            two.add(p)
            three.add(p)
        assert len(three) >= len(two)
        assert all(p in three for p in two.points())


class TestTieBreakOrdering:
    def test_sort_key_orders_slices_brams_then_throughput(self):
        a = _point("1/100", 1000, area=AreaEstimate(1000, 2))
        b = _point("1/100", 1000, area=AreaEstimate(1000, 4))
        c = _point("1/50", 1000, area=AreaEstimate(1000, 4))
        assert _front_sort_key(a) < _front_sort_key(b)
        # same slices and brams: faster point first
        assert _front_sort_key(c) < _front_sort_key(b)

    def test_front_points_are_deterministically_ordered(self):
        # equal-slice incomparable points (differing brams/throughput)
        a = _point("1/100", 1000, energy_pj=500,
                   area=AreaEstimate(1000, 3))
        b = _point("1/50", 1000, energy_pj=900,
                   area=AreaEstimate(1000, 3))
        front_ab = ParetoFront()
        front_ba = ParetoFront()
        for front, order in ((front_ab, [a, b]), (front_ba, [b, a])):
            for p in order:
                front.add(p)
        assert front_ab.points() == front_ba.points()
        assert front_ab.points()[0] is b  # faster first on ties


class TestEvaluatorBudgets:
    def test_budget_prunes_over_budget_points(self):
        app = _app()
        result = explore_design_space(
            app,
            tile_counts=(1, 2, 3),
            interconnects=("noc",),
            power_budget=Fraction(300),
        )
        labels = {label for label, _ in result.failures}
        assert "3t/noc" in labels
        reasons = dict(result.failures)
        assert "over power budget" in reasons["3t/noc"]
        assert all(
            p.power.total_mw <= 300 for p in result.points
        )

    def test_energy_budget_prunes_everything_when_tiny(self):
        app = _app()
        result = explore_design_space(
            app,
            tile_counts=(1, 2),
            interconnects=("fsl",),
            energy_budget=Fraction(1, 1000),
        )
        assert not result.points
        assert all(
            "over energy budget" in reason
            for _, reason in result.failures
        )

    def test_tech_node_rides_the_model(self):
        app = _app()
        result = explore_design_space(
            app,
            tile_counts=(2,),
            interconnects=("fsl",),
            power_model=PowerModel(tech_nm=16),
        )
        (point,) = result.points
        assert point.power.tech_nm == 16
        assert point.energy.tech_nm == 16

    def test_rebrand_carries_power_and_energy(self):
        app = _app()
        evaluator = Evaluator(app, power_model=PowerModel())
        from repro.flow.dse import CandidatePoint

        fsl = CandidatePoint(tiles=1, interconnect="fsl")
        noc = CandidatePoint(tiles=1, interconnect="noc")
        outcome = evaluator.evaluate(fsl)
        rebranded = outcome.rebrand(noc)
        assert rebranded.point.power == outcome.point.power
        assert rebranded.point.energy == outcome.point.energy
        assert rebranded.label == "1t/noc"

    def test_use_case_energy_fold_is_worst_application(self):
        apps = [_app(seed=7), _app(seed=11, family="splitjoin")]
        evaluator = UseCaseEvaluator(apps, power_model=PowerModel())
        from repro.flow.dse import CandidatePoint

        outcome = evaluator.evaluate(
            CandidatePoint(tiles=2, interconnect="fsl")
        )
        assert outcome.point is not None
        per_app = [
            e.evaluate(CandidatePoint(tiles=2, interconnect="fsl"))
            for e in evaluator._evaluators
        ]
        worst = max(
            (o.point.energy for o in per_app), key=lambda e: e.total_pj
        )
        assert outcome.point.energy == worst
        assert outcome.point.power is not None


class TestByteIdentity:
    """Runs without budgets must be indistinguishable from a build
    without the power subsystem."""

    def test_evaluation_key_unchanged_without_budgets(self):
        legacy = evaluation_key("a", "b", None, None, "normal", "s")
        explicit = evaluation_key(
            "a", "b", None, None, "normal", "s", budgets=None
        )
        assert legacy == explicit
        assert legacy != evaluation_key(
            "a", "b", None, None, "normal", "s",
            budgets="tech=45,clk=10,power=None,energy=None",
        )

    def test_budget_token_changes_the_key(self):
        app = _app()
        plain = Evaluator(app)
        powered = Evaluator(app, power_budget=Fraction(300))
        assert plain._budget_token() is None
        assert powered._budget_token() is not None
        # different budgets never share a token
        assert powered._budget_token() != Evaluator(
            app, power_budget=Fraction(200)
        )._budget_token()
        assert powered._budget_token() != Evaluator(
            app,
            power_budget=Fraction(300),
            power_model=PowerModel(tech_nm=22),
        )._budget_token()

    def test_budgetless_payload_omits_power_keys(self):
        app = _app()
        result = explore_design_space(
            app, tile_counts=(1, 2), interconnects=("fsl",)
        )
        for point in result.points:
            payload = to_payload(point)
            assert "power" not in payload
            assert "energy" not in payload
            clone = from_payload(payload)
            assert clone.power is None and clone.energy is None
            assert canonical_json(to_payload(clone)) == canonical_json(
                payload
            )
        text = canonical_json(to_payload(result))
        assert '"power"' not in text and '"energy"' not in text

    def test_budgetless_table_and_csv_are_unchanged(self):
        app = _app()
        plain = explore_design_space(
            app, tile_counts=(1, 2), interconnects=("fsl",)
        )
        assert "nJ/iter" not in plain.as_table()
        header, *rows = exploration_csv(plain).splitlines()
        assert header.endswith(",strategy")
        assert "power_mw,energy_nj_per_iter" in header
        for row in rows:
            # empty cells, not zeros, when estimation was off
            assert ",,," in row or row.split(",")[-3:-1] == ["", ""]

    def test_powered_payload_round_trips(self):
        app = _app()
        result = explore_design_space(
            app,
            tile_counts=(1, 2),
            interconnects=("fsl",),
            power_model=PowerModel(),
        )
        assert "nJ/iter" in result.as_table()
        for point in result.points:
            payload = to_payload(point)
            clone = from_payload(payload)
            assert clone.power == point.power
            assert clone.energy == point.energy
            assert canonical_json(to_payload(clone)) == canonical_json(
                payload
            )
        rows = exploration_csv(result).splitlines()[1:]
        assert all(row.split(",")[-2] != "" for row in rows)


class TestOutcomeTypes:
    def test_failure_outcome_has_no_point(self):
        outcome = EvaluationOutcome(label="x", reason="nope")
        assert not outcome.feasible

    def test_power_estimate_payload_kinds(self):
        power = PowerEstimate(
            static_mw=Fraction(1), dynamic_mw=Fraction(2), tech_nm=45
        )
        payload = to_payload(power)
        assert payload["kind"] == "power-estimate"
        energy = EnergyEstimate(
            compute_pj=Fraction(1),
            communication_pj=Fraction(2),
            static_pj=Fraction(3),
            tech_nm=45,
        )
        assert to_payload(energy)["kind"] == "energy-estimate"
