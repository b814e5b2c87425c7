"""Simulation-core hot path: incremental vs. reference state-space analysis.

Every throughput guarantee of the flow funnels through the self-timed
simulator, and every DSE point / buffer-sizing round re-runs the
state-space analysis.  This bench times that analysis on the Fig. 6
workloads -- the MJPEG decoder mapped onto the 5-tile FSL (fig6a) and
NoC (fig6b) template platforms -- with both engines:

* ``before``: the retained full-rescan reference engine
  (:mod:`tests.sdf.simulation_reference`);
* ``after``: the incremental dirty-set engine behind
  :func:`repro.sdf.throughput.analyze_throughput`.

It asserts exact ``Fraction`` equality of the two analyses (throughput,
period, transient) and the headline speedup target of the incremental
rebuild (>= 3x), and emits ``benchmarks/results/BENCH_simcore.json`` --
before/after seconds-per-analysis per workload -- so later PRs have a
perf trajectory to regress against.
"""

import json
import os
import time

from benchmarks.conftest import RESULTS_DIR, write_results
from repro.arch import architecture_from_template
from repro.mapping import map_application
from repro.mapping.bound_graph import build_bound_graph
from repro.mjpeg import build_mjpeg_application
from tests.sdf.simulation_reference import reference_analyze_throughput
from repro.sdf.throughput import analyze_throughput

#: (figure, interconnect) of the two Fig. 6 platforms.
PLATFORMS = (("fig6a", "fsl"), ("fig6b", "noc"))
TIMING_ROUNDS = 3
#: The headline target (locally ~7-9x).  Exact result equality is always
#: a hard failure; the wall-clock ratio gate can be relaxed on noisy
#: shared runners via BENCH_SIMCORE_MIN_SPEEDUP (CI sets 1.5).
SPEEDUP_TARGET = float(os.environ.get("BENCH_SIMCORE_MIN_SPEEDUP", "3.0"))


def _mapped_analysis_inputs(app, interconnect):
    """Map the decoder and return the bound graph + schedule to analyze."""
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
    return dict(
        graph=bound.graph,
        processor_of=bound.processor_of,
        static_order=mapping.static_orders,
        reference_actor=bound.app_actors[0],
    )


def _best_of(fn, rounds=TIMING_ROUNDS):
    """(best seconds, last result) over a few repetitions."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_sim_hotpath_speedup(benchmark, workloads):
    app = build_mjpeg_application(workloads["gradient"])

    records = {}

    def run_all():
        for figure, interconnect in PLATFORMS:
            inputs = _mapped_analysis_inputs(app, interconnect)
            after_s, after = _best_of(lambda: analyze_throughput(**inputs))
            before_s, before = _best_of(
                lambda: reference_analyze_throughput(**inputs)
            )
            assert after == before, (
                f"{figure}: incremental analysis diverged from the "
                f"reference ({after} vs {before})"
            )
            records[figure] = {
                "interconnect": interconnect,
                "actors": len(inputs["graph"]),
                "edges": len(inputs["graph"].edges),
                "throughput": str(after.throughput),
                "period_cycles": after.period,
                "before_s": before_s,
                "after_s": after_s,
                "speedup": before_s / after_s if after_s else float("inf"),
            }
        return records

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    header = (
        f"{'workload':<8} {'ic':<4} {'actors':>6} {'edges':>6} "
        f"{'before [ms]':>12} {'after [ms]':>11} {'speedup':>8}"
    )
    rows = [header, "-" * len(header)]
    for figure, rec in records.items():
        rows.append(
            f"{figure:<8} {rec['interconnect']:<4} {rec['actors']:>6} "
            f"{rec['edges']:>6} {rec['before_s'] * 1e3:>12.2f} "
            f"{rec['after_s'] * 1e3:>11.2f} {rec['speedup']:>7.1f}x"
        )
    table = "\n".join(rows)
    path = write_results("sim_hotpath.txt", table)

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_simcore.json"
    json_path.write_text(
        json.dumps(
            {
                "bench": "state-space throughput analysis, Fig. 6 "
                         "workloads (5-tile template)",
                "unit": "seconds per analysis (best of "
                        f"{TIMING_ROUNDS})",
                "workloads": records,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"\n{table}\n-> {path}\n-> {json_path}")

    for figure, rec in records.items():
        assert rec["speedup"] >= SPEEDUP_TARGET, (
            f"{figure}: incremental engine is only "
            f"{rec['speedup']:.1f}x faster than the reference "
            f"(target {SPEEDUP_TARGET}x)"
        )
