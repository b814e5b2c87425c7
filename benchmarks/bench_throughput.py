"""Throughput engine: Fig. 6 analysis cost and buffer-sizing call counts.

Two measurements of :class:`repro.sdf.engine.ThroughputEngine`:

* **Fig. 6 workloads** -- the MJPEG decoder mapped onto the 5-tile FSL
  (fig6a) and NoC (fig6b) templates: the flow's real hot analyses,
  timed and checked field for field against the test oracle
  (:func:`tests.sdf.simulation_reference.reference_analyze_throughput`);
  a mismatch is a hard failure;
* **buffer-sizing calls** -- engine analyses consumed by the monotone
  capacity search of :func:`repro.sdf.buffers.
  minimal_buffer_distribution` vs. an inline replica of the historic
  greedy steepest-ascent search (one analysis per edge per round).  The
  monotone search must need fewer.

Emits ``benchmarks/results/BENCH_throughput.json`` (wired into CI's
bench-smoke job).
"""

import json
import time
from fractions import Fraction

from benchmarks.conftest import RESULTS_DIR, write_results
from repro import counters
from repro.arch import architecture_from_template
from repro.mapping import map_application
from repro.mapping.bound_graph import build_bound_graph
from repro.mjpeg import build_mjpeg_application
from repro.sdf import SDFGraph
from repro.sdf.buffers import (
    BufferDistribution,
    add_buffer_edges,
    bufferable_edges,
    minimal_buffer_distribution,
    minimal_capacity_bound,
    retune_buffer_capacity,
)
from repro.sdf.deadlock import is_deadlock_free
from repro.sdf.engine import ThroughputEngine
from tests.sdf.simulation_reference import reference_analyze_throughput

PLATFORMS = (("fig6a", "fsl"), ("fig6b", "noc"))
TIMING_ROUNDS = 3


def _best_of(fn, rounds=TIMING_ROUNDS):
    """(best seconds, last result) over a few repetitions."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _fig6_sweep(workloads):
    app = build_mjpeg_application(workloads["gradient"])
    records = {}
    for figure, interconnect in PLATFORMS:
        arch = architecture_from_template(5, interconnect)
        result = map_application(app, arch, fixed={"VLD": "tile0"})
        mapping = result.mapping
        bound = build_bound_graph(
            app,
            arch,
            mapping.actor_binding,
            mapping.implementations,
            mapping.channels,
        )
        kwargs = dict(
            processor_of=bound.processor_of,
            static_order=mapping.static_orders,
            reference_actor=bound.app_actors[0],
        )
        engine = ThroughputEngine(bound.graph, **kwargs)
        seconds, result = _best_of(engine.analyze)
        oracle = reference_analyze_throughput(bound.graph, **kwargs)
        # ThroughputResult equality is field for field (period,
        # transient, ...), not just the throughput value
        assert result == oracle, (
            f"{figure}: the engine diverged from the oracle "
            f"({result} vs {oracle})"
        )
        records[figure] = {
            "interconnect": interconnect,
            "actors": len(bound.graph),
            "edges": len(bound.graph.edges),
            "throughput": str(result.throughput),
            "period": result.period,
            "transient_iterations": result.transient_iterations,
            "engine_s": seconds,
        }
    return records


# ----------------------------------------------------------------------
# buffer-sizing analysis-call counts
# ----------------------------------------------------------------------
def _sizing_chain():
    """An 8-stage pipeline whose constraint needs several growth steps.

    Deep chains are where per-edge trial resimulation hurts: every
    greedy round re-analyzes once per edge, while the monotone search
    grows all constraining edges from one analysis.
    """
    g = SDFGraph("sizing")
    times = (10, 20, 35, 60, 50, 40, 25, 15)
    names = [chr(ord("A") + i) for i in range(len(times))]
    for name, t in zip(names, times):
        g.add_actor(name, execution_time=t)
    for i in range(len(times) - 1):
        g.add_edge(f"e{i}", names[i], names[i + 1], token_size=4)
    return g, Fraction(1, 60)


def _greedy_sizing_calls(graph, constraint, max_rounds=200, step=1):
    """Analysis count of the historic greedy steepest-ascent search
    (replicated from the pre-engine ``minimal_buffer_distribution``)."""
    distribution = {
        e.name: minimal_capacity_bound(e) for e in bufferable_edges(graph)
    }
    bounded = add_buffer_edges(graph, BufferDistribution(dict(distribution)))

    def set_capacity(name, capacity):
        distribution[name] = capacity
        retune_buffer_capacity(bounded, name, capacity)

    for _ in range(max_rounds):
        if is_deadlock_free(bounded):
            break
        for name in distribution:
            set_capacity(name, distribution[name] + step)

    calls = 0
    engine = ThroughputEngine(bounded)
    result = engine.analyze()
    calls += 1
    for _ in range(max_rounds):
        if result.throughput >= constraint:
            return calls, distribution
        best_name = None
        best_result = result
        for name in list(distribution):
            current = distribution[name]
            set_capacity(name, current + step)
            trial = engine.analyze()
            calls += 1
            set_capacity(name, current)
            if trial.throughput > best_result.throughput:
                best_result = trial
                best_name = name
        if best_name is None:
            for name in distribution:
                set_capacity(name, distribution[name] + step)
            result = engine.analyze()
            calls += 1
        else:
            set_capacity(best_name, distribution[best_name] + step)
            result = best_result
    raise AssertionError("greedy sizing did not converge")


def _sizing_calls():
    graph, constraint = _sizing_chain()
    greedy_calls, greedy_dist = _greedy_sizing_calls(graph, constraint)
    with counters.collect() as scope:
        distribution, result = minimal_buffer_distribution(
            graph, throughput_constraint=constraint
        )
    monotone_calls = scope.snapshot("engine")["analyses"]
    assert result.throughput >= constraint
    # Same quality: the monotone search must not gold-plate capacities.
    assert (
        sum(distribution.capacities.values())
        <= sum(greedy_dist.values())
    )
    return {
        "graph": graph.name,
        "edges": len(greedy_dist),
        "constraint": str(constraint),
        "greedy_calls": greedy_calls,
        "monotone_calls": monotone_calls,
        "total_tokens": sum(distribution.capacities.values()),
    }


def test_throughput(benchmark, workloads):
    payload = {}

    def run_all():
        payload["fig6"] = _fig6_sweep(workloads)
        payload["buffer_sizing"] = _sizing_calls()
        return payload

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    sizing = payload["buffer_sizing"]
    payload["summary"] = {
        "sizing_call_ratio": (
            sizing["greedy_calls"] / sizing["monotone_calls"]
        ),
    }

    header = f"{'workload':<10} {'actors':>7} {'engine [ms]':>12}"
    rows = [header, "-" * len(header)]
    for figure, rec in payload["fig6"].items():
        rows.append(
            f"{figure:<10} {rec['actors']:>7} "
            f"{rec['engine_s'] * 1e3:>12.3f}"
        )
    rows.append("")
    rows.append(
        f"buffer sizing: {sizing['monotone_calls']} engine calls vs "
        f"{sizing['greedy_calls']} greedy "
        f"({payload['summary']['sizing_call_ratio']:.1f}x fewer)"
    )
    table = "\n".join(rows)
    path = write_results("throughput.txt", table)

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_throughput.json"
    json_path.write_text(
        json.dumps(
            {
                "bench": "throughput engine: Fig. 6 analyses, "
                         "buffer-sizing call counts",
                "unit": f"seconds per analysis (best of {TIMING_ROUNDS})",
                **payload,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"\n{table}\n-> {path}\n-> {json_path}")

    assert sizing["monotone_calls"] < sizing["greedy_calls"], (
        "monotone buffer sizing should need fewer analyses than the "
        "greedy search"
    )
