"""Round reuse in design-space exploration: a sweep whose evaluation
cache memoizes mapping rounds equals mapping every point afresh, both
backends agree, and a point that outruns its iteration budget is a
failure of that point, not of the sweep."""

import sys
from fractions import Fraction

import pytest

from repro import counters
from repro.arch import architecture_from_template
from repro.cli import main
from repro.flow.dse import EvaluationCache, explore_design_space
from repro.mapping import MappingPipeline, StrategyTuple, map_application
from repro.mapping import pipeline as pipeline_module
from repro.sdf.throughput import UnboundedExecutionError

#: The explore-mjpeg space: 1-6 tiles x {fsl, noc} x CA, VLD pinned,
#: the 5-tile Fig. 6 worst case as constraint.
SPACE = dict(
    tile_counts=range(1, 7),
    interconnects=("fsl", "noc"),
    ca_options=(False, True),
)
CONSTRAINT = Fraction(1, 4231920)
FIXED = {"VLD": "tile0"}

#: Every point of the default-effort sweep of that space, as
#: label: (throughput, constraint met) -- the outcomes perfbench checks.
SWEEP_POINTS = {
    "1t/fsl": ("1/4958332", False),
    "1t/fsl+CA": ("1/4958332", False),
    "2t/fsl": ("1/4865570", False),
    "2t/fsl+CA": ("1/4861570", False),
    "2t/noc": ("1/4867811", False),
    "2t/noc+CA": ("1/4861866", False),
    "3t/fsl": ("1/4231920", True),
    "3t/fsl+CA": ("1/4228120", True),
    "3t/noc": ("1/4234020", False),
    "3t/noc+CA": ("1/4228120", True),
    "4t/fsl": ("1/4231920", True),
    "4t/fsl+CA": ("1/4228120", True),
    "4t/noc": ("1/4234020", False),
    "4t/noc+CA": ("1/4228120", True),
    "5t/fsl": ("1/4231920", True),
    "5t/fsl+CA": ("1/4228120", True),
    "5t/noc": ("1/4234020", False),
    "5t/noc+CA": ("1/4228120", True),
    "6t/fsl": ("1/4231920", True),
    "6t/fsl+CA": ("1/4228120", True),
    "6t/noc": ("1/4234020", False),
    "6t/noc+CA": ("1/4228120", True),
}
#: The simulator's counts over that sweep (cold cache): the instants its
#: lean loops handle, those in word runs, and the channel passes'
#: firings.  Every start is the event-by-event one, so a simulator change
#: that adds or drops an instant shows here.
SWEEP_SIM_COUNTS = {
    "instants": 190_699,
    "run_instants": 167_993,
    "channel_firings": 342_983,
}


@pytest.fixture(scope="module")
def mjpeg():
    from repro.flow.spec import build_case_study_app

    return build_case_study_app("gradient")


@pytest.mark.parametrize(
    "effort, strategy, pinned",
    [
        ("normal", StrategyTuple(), True),
        ("low", StrategyTuple(binding="spiral",
                              buffer_policy="exponential"), False),
    ],
    ids=["default", "spiral-exponential-low"],
)
def test_memoized_sweep_equals_fresh_mappings(
    mjpeg, monkeypatch, effort, strategy, pinned
):
    """Every memoized round equals a fresh mapping of its point.  The
    default sweep is the explore-mjpeg benchmark's: it is also pinned
    point by point and by its simulator counts."""
    runs = []
    keys = []
    real_run = MappingPipeline.run
    real_key = pipeline_module.round_key

    def recording_run(self, app, arch, **kwargs):
        result = real_run(self, app, arch, **kwargs)
        runs.append((arch, kwargs["memo"], result))
        return result

    def recording_key(*args):
        keys.append(real_key(*args))
        return keys[-1]

    monkeypatch.setattr(MappingPipeline, "run", recording_run)
    monkeypatch.setattr(pipeline_module, "round_key", recording_key)
    cache = EvaluationCache()
    with counters.collect() as scope:
        swept = explore_design_space(
            mjpeg, constraint=CONSTRAINT, fixed=FIXED, effort=effort,
            strategy=strategy, cache=cache, **SPACE,
        )
    monkeypatch.undo()
    if pinned:
        assert swept.failures == []
        assert {
            point.label: (str(point.throughput), point.constraint_met)
            for point in swept.points
        } == SWEEP_POINTS
        assert scope.snapshot("sim") == SWEEP_SIM_COUNTS

    assert len(runs) == len(swept.points) + len(swept.failures) > 1
    # rounds were shared, and only the memo holds them
    assert len(cache.rounds) == len(set(keys)) < len(keys)
    assert cache.stats.hits == 0
    for arch, memo, memoized in runs:
        assert memo is cache.rounds
        fresh = map_application(
            mjpeg, arch, constraint=CONSTRAINT, fixed=FIXED, effort=effort,
            pipeline=strategy.build_pipeline(),
        )
        assert memoized.throughput == fresh.throughput
        assert memoized.throughput.tier == fresh.throughput.tier
        assert memoized.mapping.static_orders == fresh.mapping.static_orders
        assert memoized.mapping.channels == fresh.mapping.channels
        assert memoized.buffer_growth_rounds == fresh.buffer_growth_rounds

    cache.clear()
    assert cache.rounds == {}


def test_process_backend_matches_thread_backend(mjpeg):
    """Process workers keep their own round memos (and see fewer hits);
    the points and failures are the same."""
    sweeps = [
        explore_design_space(
            mjpeg, constraint=CONSTRAINT, fixed=FIXED,
            jobs=jobs, backend=backend, **SPACE,
        )
        for jobs, backend in ((1, "thread"), (2, "process"))
    ]
    thread, process = sweeps
    assert thread.points == process.points
    assert thread.failures == process.failures
    assert thread.points  # the comparison is not vacuous


def test_threads_sharing_one_memo_agree_with_a_serial_sweep(mjpeg):
    """Four threads (more than the cores) race on one round memo with a
    shortened switch interval: every point and every memo entry equals
    the serial sweep's."""
    space = dict(tile_counts=(2, 3, 4, 5), interconnects=("fsl", "noc"))
    serial_cache = EvaluationCache()
    serial = explore_design_space(
        mjpeg, constraint=CONSTRAINT, fixed=FIXED, effort="low",
        cache=serial_cache, **space,
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        racing_cache = EvaluationCache()
        racing = explore_design_space(
            mjpeg, constraint=CONSTRAINT, fixed=FIXED, effort="low",
            jobs=4, cache=racing_cache, **space,
        )
    finally:
        sys.setswitchinterval(interval)
    assert racing.points == serial.points
    assert racing.failures == serial.failures
    assert racing_cache.rounds == serial_cache.rounds


class TestIterationBudget:
    def test_over_budget_points_are_failures(self, mjpeg):
        for backend, jobs in (("thread", 1), ("process", 2)):
            result = explore_design_space(
                mjpeg, tile_counts=(1, 2, 3), fixed=FIXED,
                effort="normal+it2", backend=backend, jobs=jobs,
            )
            assert [p.label for p in result.points] == [
                "1t/fsl", "2t/fsl", "2t/noc"
            ]
            assert [label for label, _ in result.failures] == [
                "3t/fsl", "3t/noc"
            ]
            for _, reason in result.failures:
                assert "2-iteration budget" in reason
                assert "--max-iterations" in reason
                assert "--effort" in reason
                assert "back-edge" not in reason

    def test_other_callers_keep_the_exception(self, mjpeg):
        with pytest.raises(UnboundedExecutionError):
            map_application(
                mjpeg, architecture_from_template(3, "fsl"), fixed=FIXED,
                effort="normal+it2",
            )

    def test_cli_sweep_reports_over_budget_points(self, capsys):
        code = main([
            "explore", "gradient", "--max-tiles", "3",
            "--max-iterations", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "3t/fsl       infeasible:" in out
        assert "3t/noc       infeasible:" in out
