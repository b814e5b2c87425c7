"""Tiered throughput engine: per-tier analysis cost and sizing call counts.

Three measurements of :class:`repro.sdf.engine.ThroughputEngine`:

* **corpus sweep** -- per-analysis wall clock of the engine's adaptive
  policy vs. the state-space tier called directly
  (:meth:`~repro.sdf.simulation.SelfTimedSimulator.run_throughput`, the
  engine's own call), over every committed
  ``examples/corpus/`` scenario.  Both must equal the test oracle
  (:func:`tests.sdf.simulation_reference.reference_analyze_throughput`)
  in the exact ``Fraction``; a mismatch is a hard failure.
  Short-state-space scenarios stay on the vectorized probe (parity with
  the direct call is the *win*: the engine did not pay for the HSDF
  transform); the stress band (``diamond-s7-*``: long state spaces, the
  regime the analytic tier exists for) escalates, and the median
  speedup over those escalated analyses is gated (relax on noisy shared
  runners via ``BENCH_TIERS_MIN_SPEEDUP``);
* **Fig. 6 workloads** -- the MJPEG decoder mapped onto the 5-tile FSL
  (fig6a) and NoC (fig6b) templates.  Mapped graphs carry static orders,
  so the engine falls back to the vectorized tier; this times it
  against the direct simulator call on the flow's real hot analyses and
  checks both field for field against the oracle;
* **buffer-sizing calls** -- engine analyses consumed by the monotone
  capacity search of :func:`repro.sdf.buffers.
  minimal_buffer_distribution` vs. an inline replica of the historic
  greedy steepest-ascent search (one analysis per edge per round).

Emits ``benchmarks/results/BENCH_throughput.json`` (wired into CI's
bench-smoke job) so later PRs have a tier-cost trajectory to regress
against.
"""

import json
import os
import statistics
import time
from fractions import Fraction
from pathlib import Path

from benchmarks.conftest import RESULTS_DIR, write_results
from repro import counters
from repro.arch import architecture_from_template
from repro.flow.spec import load_flow_spec
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
from repro.sdf.repetition import repetition_vector
from repro.sdf.simulation import SelfTimedSimulator
from tests.sdf.simulation_reference import reference_analyze_throughput

CORPUS = sorted(
    (Path(__file__).resolve().parents[1] / "examples" / "corpus").glob(
        "*.toml"
    )
)
PLATFORMS = (("fig6a", "fsl"), ("fig6b", "noc"))
TIMING_ROUNDS = 3
#: Median speedup gate over the corpus analyses where the adaptive
#: policy escalated to the analytic tier (locally it lands far beyond
#: this).  CI's shared runners relax it via the env knob.
SPEEDUP_TARGET = float(os.environ.get("BENCH_TIERS_MIN_SPEEDUP", "5.0"))


def _best_of(fn, rounds=TIMING_ROUNDS):
    """(best seconds, last result) over a few repetitions."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _simulator_call(graph, reference_actor=None, **kwargs):
    """The state-space tier as the engine calls it: one simulator, reset
    and re-run per analysis."""
    sim = SelfTimedSimulator(graph, **kwargs)
    ref = reference_actor or graph.actors[0].name
    q_ref = repetition_vector(graph)[ref]

    def analyze():
        sim.reset()
        return sim.run_throughput(ref, q_ref, 10_000)

    return analyze


def _bounded(graph):
    """Analysis form: liveness-bound capacities plus headroom (mirrors
    buffer-sizing phase 1 and the fuzz suite)."""
    capacities = {
        edge.name: minimal_capacity_bound(edge)
        + max(edge.production, edge.consumption)
        for edge in bufferable_edges(graph)
    }
    bounded = add_buffer_edges(graph, BufferDistribution(capacities))
    for _ in range(4):
        if is_deadlock_free(bounded):
            break
        for name in capacities:
            edge = graph.edge(name)
            capacities[name] += max(edge.production, edge.consumption)
        bounded = add_buffer_edges(graph, BufferDistribution(capacities))
    return bounded


def _corpus_sweep():
    records = {}
    for spec_path in CORPUS:
        graph = load_flow_spec(spec_path).build_application().graph
        bounded = _bounded(graph)
        auto = ThroughputEngine(bounded)
        fast_s, fast = _best_of(auto.analyze)
        slow_s, slow = _best_of(_simulator_call(bounded))
        oracle = reference_analyze_throughput(bounded)
        assert slow == oracle, (
            f"{spec_path.stem}: vectorized tier diverged from the "
            f"oracle ({slow} vs {oracle})"
        )
        assert fast.throughput == oracle.throughput, (
            f"{spec_path.stem}: {fast.tier} tier diverged from the "
            f"oracle ({fast.throughput} vs {oracle.throughput})"
        )
        records[spec_path.stem] = {
            "actors": len(bounded),
            "tier": fast.tier,
            "tier_reason": fast.tier_reason,
            "tier_s": fast_s,
            "vectorized_s": slow_s,
            "speedup": slow_s / fast_s if fast_s else float("inf"),
        }
    return records


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
        auto = ThroughputEngine(bound.graph, **kwargs)
        fast_s, fast = _best_of(auto.analyze)
        slow_s, slow = _best_of(_simulator_call(bound.graph, **kwargs))
        oracle = reference_analyze_throughput(bound.graph, **kwargs)
        assert fast == slow == oracle, (
            f"{figure}: the engine diverged from the oracle "
            f"(auto {fast}, vectorized {slow}, oracle {oracle})"
        )
        records[figure] = {
            "interconnect": interconnect,
            "actors": len(bound.graph),
            "edges": len(bound.graph.edges),
            "tier": fast.tier,
            "fallback_reason": auto.analytic_decline_reason,
            "throughput": str(fast.throughput),
            "tier_s": fast_s,
            "vectorized_s": slow_s,
            "speedup": slow_s / fast_s if fast_s else float("inf"),
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
    tiers = scope.snapshot("engine")
    monotone_calls = sum(tiers.values())
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
        "tiers": tiers,
    }


def test_throughput_tiers(benchmark, workloads):
    payload = {}

    def run_all():
        payload["corpus"] = _corpus_sweep()
        payload["fig6"] = _fig6_sweep(workloads)
        payload["buffer_sizing"] = _sizing_calls()
        return payload

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    corpus = payload["corpus"]
    analytic_speedups = [
        rec["speedup"] for rec in corpus.values()
        if rec["tier"] == "analytic"
    ]
    assert analytic_speedups, (
        "no corpus scenario escalated to the analytic tier; the stress "
        "band (diamond-s7-*) no longer exercises the fast path"
    )
    median_speedup = statistics.median(analytic_speedups)
    sizing = payload["buffer_sizing"]
    payload["summary"] = {
        "analytic_median_speedup": median_speedup,
        "analytic_engaged": len(analytic_speedups),
        "corpus_tiers": {
            tier: sum(1 for r in corpus.values() if r["tier"] == tier)
            for tier in ("analytic", "vectorized")
        },
        "sizing_call_ratio": (
            sizing["greedy_calls"] / sizing["monotone_calls"]
        ),
    }

    header = (
        f"{'scenario':<18} {'tier':<10} {'tier [ms]':>10} "
        f"{'vec [ms]':>10} {'speedup':>8}"
    )
    rows = [header, "-" * len(header)]
    for name, rec in sorted(corpus.items()):
        rows.append(
            f"{name:<18} {rec['tier']:<10} {rec['tier_s'] * 1e3:>10.3f} "
            f"{rec['vectorized_s'] * 1e3:>10.3f} {rec['speedup']:>7.1f}x"
        )
    for figure, rec in payload["fig6"].items():
        rows.append(
            f"{figure:<18} {rec['tier']:<10} {rec['tier_s'] * 1e3:>10.3f} "
            f"{rec['vectorized_s'] * 1e3:>10.3f} {rec['speedup']:>7.1f}x"
        )
    rows.append("")
    rows.append(
        f"median speedup over {len(analytic_speedups)} "
        f"analytic-escalated analyses: {median_speedup:.1f}x  |  buffer "
        f"sizing: {sizing['monotone_calls']} engine calls vs "
        f"{sizing['greedy_calls']} greedy "
        f"({payload['summary']['sizing_call_ratio']:.1f}x fewer)"
    )
    table = "\n".join(rows)
    path = write_results("throughput_tiers.txt", table)

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_throughput.json"
    json_path.write_text(
        json.dumps(
            {
                "bench": "tiered throughput engine: corpus + Fig. 6 "
                         "analyses, buffer-sizing call counts",
                "unit": f"seconds per analysis (best of {TIMING_ROUNDS})",
                **payload,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"\n{table}\n-> {path}\n-> {json_path}")

    assert median_speedup >= SPEEDUP_TARGET, (
        f"median speedup over analytic-escalated corpus analyses "
        f"{median_speedup:.1f}x below the {SPEEDUP_TARGET}x floor"
    )
    assert sizing["monotone_calls"] < sizing["greedy_calls"], (
        "monotone buffer sizing should need fewer analyses than the "
        "greedy search"
    )
