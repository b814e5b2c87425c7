"""Benchmark: run-time admission latency and platform churn throughput.

The run-time manager's pitch is that admission of a library-covered
application is *selection*, not *analysis*: scanning stored operating
points for one that relocates onto the free tiles.  This benchmark
quantifies the claim against the same applications admitted cold,
where the manager must fall back to a spiral mapping over the residual
platform -- and measures sustained churn (admit/depart sequences with
occasional migrations) against a warm library set.

Emits ``benchmarks/results/BENCH_platform.json`` (wired into CI's
bench-smoke job) and a human-readable table next to it.
"""

import json
import random
import time

from benchmarks.conftest import RESULTS_DIR, write_results
from repro.exceptions import AdmissionError
from repro.flow.spec import ArchSpec
from repro.runtime import PlatformManager, build_library
from repro.scenarios import generate_scenarios, scenario_flow_spec

#: The managed platform every sequence runs against.
ARCH = ArchSpec(tiles=4, interconnect="fsl")
#: Applications in the workload mix.
APPS = 4
#: Admit/depart transitions of the churn phase.
CHURN_OPS = 40


def test_platform_admission_and_churn(benchmark):
    # splitjoin scenarios parallelize, so their Pareto fronts hold
    # multi-tile points and the churn phase can exercise migration
    specs = [
        scenario_flow_spec(s, architecture=ARCH)
        for s in generate_scenarios("splitjoin", APPS, seed=3)
    ]
    builds = [(spec, build_library(spec)) for spec in specs]
    records = {}

    def run_all():
        # --- warm: library selection, zero analyses -------------------
        # each admission lands on an empty platform (admit, then
        # depart), so warm and cold time the same residual state
        manager = PlatformManager(ARCH)
        for _, build in builds:
            manager.register_library(build.key, build.library)
        start = time.perf_counter()
        for spec, _ in builds:
            manager.depart(manager.admit(spec)["app_id"])
        warm_s = time.perf_counter() - start
        assert manager.counters.snapshot()["analyses"] == 0

        # --- cold: no libraries, every admission analyzes -------------
        cold_manager = PlatformManager(ARCH)
        start = time.perf_counter()
        for spec, _ in builds:
            cold_manager.depart(cold_manager.admit(spec)["app_id"])
        cold_s = time.perf_counter() - start
        assert cold_manager.counters.snapshot()["analyses"] == len(builds)

        # --- churn: random admit/depart against warm libraries --------
        rng = random.Random(17)
        running = []
        transitions = rejections = 0
        start = time.perf_counter()
        while transitions < CHURN_OPS:
            if running and rng.random() < 0.45:
                app_id = running.pop(rng.randrange(len(running)))
                manager.depart(app_id, migrate=rng.random() < 0.5)
                transitions += 1
            else:
                spec, _ = builds[rng.randrange(len(builds))]
                try:
                    running.append(manager.admit(spec)["app_id"])
                    transitions += 1
                except AdmissionError:
                    rejections += 1
                    if not running:  # cannot happen; defensive
                        break
        churn_s = time.perf_counter() - start

        records.update(
            {
                "apps": len(builds),
                "library_points": sum(
                    len(b.library) for _, b in builds
                ),
                "warm_admit_s": warm_s,
                "warm_admit_ms_per_app": warm_s * 1e3 / len(builds),
                "cold_admit_s": cold_s,
                "cold_admit_ms_per_app": cold_s * 1e3 / len(builds),
                "cold_over_warm": cold_s / warm_s,
                "churn_transitions": transitions,
                "churn_rejections": rejections,
                "churn_s": churn_s,
                "churn_transitions_per_s": transitions / churn_s,
                "churn_migrations": manager.counters.snapshot()["migrations"],
            }
        )
        return records

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    table = "\n".join(
        [
            f"{'metric':<28} {'value':>14}",
            "-" * 43,
            f"{'warm admit [ms/app]':<28} "
            f"{records['warm_admit_ms_per_app']:>14.3f}",
            f"{'cold admit [ms/app]':<28} "
            f"{records['cold_admit_ms_per_app']:>14.3f}",
            f"{'cold / warm':<28} {records['cold_over_warm']:>13.1f}x",
            f"{'churn [transitions/s]':<28} "
            f"{records['churn_transitions_per_s']:>14.1f}",
            f"{'churn migrations':<28} "
            f"{records['churn_migrations']:>14}",
        ]
    )
    path = write_results("platform.txt", table)

    RESULTS_DIR.mkdir(exist_ok=True)
    json_path = RESULTS_DIR / "BENCH_platform.json"
    json_path.write_text(
        json.dumps(
            {
                "bench": "run-time platform manager: warm-library vs "
                         "cold-spiral admission latency + churn "
                         f"throughput over {CHURN_OPS} transitions",
                "unit": "seconds",
                "platform": {
                    "tiles": ARCH.tiles,
                    "interconnect": ARCH.interconnect,
                },
                "results": records,
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    print(f"\n{table}\n-> {path}\n-> {json_path}")

    # the claim the subsystem exists for: warm admission is selection,
    # not analysis, so it must beat the cold path comfortably
    assert records["cold_over_warm"] > 2.0
    assert records["churn_transitions"] == CHURN_OPS
