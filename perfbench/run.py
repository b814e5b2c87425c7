"""The repository benchmark: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload explore-mjpeg --seed 1 \\
        --seconds 20 --trace 0

Workloads (see each module's docstring for why it was chosen):

* ``explore-mjpeg`` (:mod:`explore`) -- cold-cache DSE sweeps, in process;
* ``fig6-flow`` (:mod:`fig6`) -- the Fig. 6 flows with platform
  simulation, in process;
* ``serve-mixed`` (:mod:`serve`) -- a ``repro serve`` process under a
  closed-loop mix of flow requests and platform admissions.

A run sets up the workload several times (``setup_s`` is the median),
then repeats fixed *rounds* of work for about ``--seconds``.
``ops_per_s`` is the median over the rounds; the latency quantiles are
taken over all the run's ops when it has at least 1000 (ten beyond
p99), otherwise they are medians over the rounds of each round's
quantile.  Every time in the end-to-end figures is
host-normalized (:class:`common.HostClock`): the work is cut into
segments of a fraction of a second by short reference slices, and each
segment is scaled by how fast the host ran the slices around it, so
that a shared host whose speed drifts does not show as a regression.
The print-out gives each round's wall time on the host as well.  The
run and every process it starts are pinned to one core.
With ``--trace 0`` it reports the end-to-end metrics.  With
``--trace 1`` it spends the first half untraced and the second half
with every layer boundary wrapped (:mod:`tracing`), and reports the
per-layer metrics: self times and exact counts per round, client-side
service figures, and the tracing overhead.  Per-layer times are host
seconds (with the clock's slices left out), not normalized.  Every
op's output is checked; a mismatch counts as a failed op.  The last
line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Tuple

from common import (
    ROOT,
    SRC,
    HostClock,
    Round,
    calibration_seconds,
    fresh_import_seconds,
    median,
    nearest_rank,
)

sys.path.insert(0, str(SRC))

import explore  # noqa: E402
import fig6  # noqa: E402
import serve  # noqa: E402
from tracing import LAYERS, Tracer, layer_of, merge  # noqa: E402

WORKLOADS = {module.NAME: module for module in (explore, fig6, serve)}
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
WORK = ROOT / ".bench_work"
#: Exact counts of earlier runs, keyed by code digest, workload and seed.
COUNTS_FILE = WORK / "exact-counts.json"
#: Counts that must repeat exactly for the same code and seed.
EXACT_COUNTS = (
    "engine.tier.analytic", "engine.tier.vectorized",
    "engine.tier.reference", "engine.analyze.calls",
    "sdf.repetition_vector.calls", "mapping.buffer.rounds",
    "mapping.schedule.calls", "sim.simulated_cycles", "service.computed",
)
#: Spans reported as ``<span>.s``: self seconds per round.
SELF_TIMES = (
    "dse.evaluate", "mapping.run", "mapping.bind", "mapping.route",
    "mapping.buffer", "mapping.bound_graph", "mapping.schedule",
    "engine.setup", "engine.analyze", "sdf.repetition_vector",
    "sdf.deadlock", "power.estimate", "mamps.generate",
    "mamps.synthesize", "sim.measure", "store.read", "store.write",
    "service.submit",
)
#: Span call counts reported as ``<metric>``, per round.
CALL_COUNTS = (
    ("mapping.schedule.calls", "mapping.schedule"),
    ("engine.analyze.calls", "engine.analyze"),
    ("sdf.repetition_vector.calls", "sdf.repetition_vector"),
    ("dse.points", "dse.evaluate"),
)
#: Counts the tracer records, per round.
TRACE_COUNTS = (
    "mapping.buffer.rounds", "mapping.deadlock_retries",
    "engine.tier.analytic", "engine.tier.vectorized",
    "engine.tier.reference", "dse.cache_hits", "sim.simulated_cycles",
)
#: Client-side medians of the served workload, in ms.
CLIENT_MEDIANS = (
    "service.hit.ms", "service.compute.ms", "service.queue_wait.ms",
    "runtime.admit.ms", "runtime.depart.ms",
)
#: Client-side counts of the served workload, per round.
CLIENT_COUNTS = (
    "service.computed", "service.artifact_hits", "service.coalesced",
    "service.rejected", "session.stages_computed", "session.stages_resumed",
    "runtime.analyses", "runtime.journal_events", "store.files_written",
    "store.bytes_written",
)


def run_phase(module, state, seed: int, seconds: float,
              traced: bool) -> List[Round]:
    """Whole rounds filling about ``seconds`` (at least one)."""
    rounds: List[Round] = []
    start = time.perf_counter()
    while True:
        rounds.append(
            module.run_round(state, seed, Tracer() if traced else None)
        )
        elapsed = time.perf_counter() - start
        # start another round only if it ends nearer to the deadline
        if elapsed * (1 + 0.5 / len(rounds)) >= seconds:
            return rounds


def ops_per_s(rounds: List[Round]) -> float:
    """Median over rounds of ops completed per second."""
    return median([len(r.latencies) / r.wall for r in rounds])


def end_to_end(rounds: List[Round], setups: List[float]) -> Dict[str, Any]:
    """The end-to-end figures of the untraced rounds."""
    n = sum(len(r.latencies) for r in rounds)
    rss = [r.rss_mb for r in rounds if r.rss_mb is not None]
    if not rss:  # the work ran in this process (ru_maxrss is in KiB)
        rss = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]

    def latency_ms(q: float) -> float:
        # pooled when the run leaves at least ten ops beyond p99;
        # otherwise p99 would be the single slowest op of the run
        if n >= 1000:
            pooled = [s for r in rounds for s in r.latencies]
            return nearest_rank(pooled, q) * 1e3
        return median([nearest_rank(r.latencies, q) * 1e3 for r in rounds])

    return {
        "setup_s": (median(setups), "s", len(setups)),
        "ops_per_s": (ops_per_s(rounds), "1/s", len(rounds)),
        "latency_p50_ms": (latency_ms(0.50), "ms", n),
        "latency_p99_ms": (latency_ms(0.99), "ms", n),
        "peak_rss_mb": (max(rss), "MB", len(rss)),
    }


def per_round_counts(r: Round) -> Dict[str, int]:
    """A traced round's exact counts (missing ones are zero)."""
    counts = Counter(r.counts)
    if r.trace is not None:
        counts.update(r.trace["counts"])
        for metric, span in CALL_COUNTS:
            counts[metric] = int(r.trace["spans"].get(span, [0])[0])
    return {name: int(counts[name]) for name in EXACT_COUNTS}


def per_layer(plain: List[Round], traced: List[Round],
              extra: Dict[str, Tuple[float, str, int]]) -> Dict[str, Any]:
    n = len(traced)
    trace = merge([r.trace for r in traced])
    spans, counts = trace["spans"], trace["counts"]
    metrics: Dict[str, Tuple[float, str, int]] = dict(extra)
    for span in SELF_TIMES:
        calls, _, self_s = spans.get(span, [0, 0.0, 0.0])
        metrics[f"{span}.s"] = (self_s / n, "s", int(calls))
    for metric, span in CALL_COUNTS:
        metrics[metric] = (spans.get(span, [0])[0] / n, "count", n)
    for metric in TRACE_COUNTS:
        metrics[metric] = (counts.get(metric, 0) / n, "count", n)
    busy = spans.get("sim.measure", [0, 0.0])[1]
    metrics["sim.cycles_per_host_s"] = (
        counts.get("sim.simulated_cycles", 0) / busy if busy else 0.0,
        "1/s", int(spans.get("sim.measure", [0])[0]),
    )
    samples: Dict[str, List[float]] = {}
    client = Counter()
    for r in plain:
        client.update(r.counts)
        for name, values in r.samples.items():
            samples.setdefault(name, []).extend(values)
    for name in CLIENT_MEDIANS:
        values = samples.get(name, [])
        metrics[name] = (median(values), "ms", len(values))
    stage_s = samples.get("session.execute.s", [])
    metrics["session.execute.s"] = (sum(stage_s) / len(plain), "s",
                                    len(stage_s))
    for name in CLIENT_COUNTS:
        metrics[name] = (client[name] / len(plain), "count", len(plain))
    return metrics


def layer_split(traced: List[Round]) -> List[Tuple[str, float]]:
    """Each layer's self time as a share of op time (traced rounds);
    both are host seconds, with the clock's slices left out."""
    op_time = sum(s for r in traced for s in r.raw_latencies)
    spans = merge([r.trace for r in traced])["spans"]
    shares: Counter = Counter()
    for span, (_, _, self_s) in spans.items():
        shares[layer_of(span)] += self_s / op_time
    order = [layer for layer, _ in LAYERS]
    rows = sorted(shares.items(), key=lambda kv: (
        order.index(kv[0]) if kv[0] in order else len(order), kv[0]))
    rows.append(("(outside traced layers)", 1.0 - sum(shares.values())))
    return rows


def code_digest() -> str:
    digest = hashlib.sha256()
    here = Path(__file__).resolve().parent
    files = sorted(SRC.rglob("*.py")) + sorted(here.glob("*.py")) + [
        here / "references.json"]
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def check_exact_counts(workload: str, seed: int,
                       traced: List[Round]) -> List[str]:
    """Exact counts must agree across rounds and across runs of the
    same code and seed; returns the disagreements."""
    problems = []
    counts = [per_round_counts(r) for r in traced]
    for index, other in enumerate(counts[1:], start=1):
        if other != counts[0]:
            problems.append(f"round {index} counts {other} != round 0 "
                            f"counts {counts[0]}")
    digest = code_digest()
    try:
        recorded = json.loads(COUNTS_FILE.read_text())
    except (OSError, ValueError):
        recorded = {}
    runs = recorded.get(digest, {})
    key = f"{workload}:{seed}"
    if key in runs and runs[key] != counts[0]:
        problems.append(f"counts {counts[0]} != an earlier run's "
                        f"{runs[key]}")
    runs.setdefault(key, counts[0])
    temporary = COUNTS_FILE.with_suffix(f".{os.getpid()}.tmp")
    temporary.write_text(json.dumps({digest: runs}, sort_keys=True))
    os.replace(temporary, COUNTS_FILE)
    return problems


def show(metrics: Dict[str, Tuple[float, str, int]]) -> None:
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<30} {value:>16.6g} {unit:<6} (n={n})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    module = WORKLOADS[args.workload]
    # One core for the workload and every process it starts: the host
    # clock's slices then measure the core that does the work.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    WORK.mkdir(exist_ok=True)
    work = WORK / f"{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        calibration = calibration_seconds()
        module.prepare()
        setups, imports = [], []
        for _ in range(SETUP_REPEATS):
            # no timer: its slices would share the core with the child
            # interpreters that set-up waits for
            clock = HostClock()
            imports.append(fresh_import_seconds())
            clock.lap()
            state = module.setup(work, args.seed)
            clock.stop()
            setups.append(clock.wall())
        if args.trace:
            plain = run_phase(module, state, args.seed, args.seconds / 2,
                              traced=False)
            traced = run_phase(module, state, args.seed, args.seconds / 2,
                               traced=True)
        else:
            plain = run_phase(module, state, args.seed, args.seconds,
                              traced=False)
            traced = []
    finally:
        shutil.rmtree(work, ignore_errors=True)

    rounds = plain + traced
    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(r.failed for r in rounds)
    problems = [p for r in rounds for p in r.problems]
    e2e = end_to_end(plain, setups)
    print(f"{args.workload}: seed {args.seed}, {len(plain)} untraced + "
          f"{len(traced)} traced round(s), {attempted} {module.OP}s, "
          f"{failed} failed")
    for index, r in enumerate(rounds):
        print(f"  round {index}{' (traced)' if r.trace else ''}: "
              f"{len(r.latencies)} ops in {r.wall:.3f} s "
              f"({r.raw_wall:.3f} s on this host), "
              f"p50 {nearest_rank(r.latencies, 0.5) * 1e3:.3f} ms, "
              f"p99 {nearest_rank(r.latencies, 0.99) * 1e3:.3f} ms")
    print("end to end (untraced, host-normalized):")
    show(e2e)
    print(f"  {'error_rate':<30} {failed / attempted:>16.6g} ratio  "
          f"(n={attempted})")
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit, _) in e2e.items()}
    if traced:
        problems += check_exact_counts(args.workload, args.seed, traced)
        extra = {
            "startup.import.s": (median(imports), "s", len(imports)),
            "host.calibration.s": (calibration, "s", 1),
            "trace.overhead": (
                ops_per_s(plain) / ops_per_s(traced) - 1, "ratio",
                len(traced)),
            "error_rate": (failed / attempted, "ratio", attempted),
        }
        layers = per_layer(plain, traced, extra)
        print(f"per layer (per round; traced ops_per_s "
              f"{ops_per_s(traced):.6g} vs untraced "
              f"{ops_per_s(plain):.6g}):")
        show(layers)
        print(f"where the time went ({module.OP} time, traced rounds):")
        for layer, share in layer_split(traced):
            print(f"  {layer:<30} {share:>8.1%}")
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit, _) in layers.items()}
    else:
        print(f"  {'host.calibration.s':<30} {calibration:>16.6g} s      "
              "(n=1)")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
