"""Shared pieces of the benchmark: rounds, statistics, references."""

from __future__ import annotations

import bisect
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: The checkout the benchmark runs in (parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references.json"


#: Terms of the reference computation :func:`reference_slice` times.
SLICE_TERMS = 2000
#: What one reference slice takes on the reference host, in seconds.
REFERENCE_SLICE_S = 0.005
#: Seconds between timer laps of an in-process workload's clock.
LAP_S = 0.2


def reference_slice() -> float:
    """Seconds a fixed exact-arithmetic computation takes right now.

    It runs no ``repro`` code, so a change to the program does not move
    it, but it stresses the interpreter the way the flow's ``Fraction``
    arithmetic does: on a shared host whose speed drifts by a factor of
    two within seconds, it slows down with the workload.
    """
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, SLICE_TERMS + 1):
        total += Fraction(i % 97 + 1, i % 13 + 1)
    if total <= 0:
        raise RuntimeError("reference slice miscomputed")
    return time.perf_counter() - start


class HostClock:
    """Host-normalized time: work cut into segments by reference slices.

    Each :meth:`lap` ends a segment of work by timing a reference
    slice; the segment is scaled by ``REFERENCE_SLICE_S`` over the mean
    of the slices at its two ends.  Times are kept in *work seconds*
    (:meth:`now`, which leaves slice time out) and reported normalized,
    as seconds on the reference host, so runs at different host speeds
    compare.  With ``every`` set, a timer signal laps every ``every``
    seconds wherever the main thread is, so an op of any length spans
    several short segments; otherwise the caller laps between ops.
    ``probe`` replaces the reference slice, and ``reference`` is what
    the probe takes on the reference host.
    """

    def __init__(self, every: Optional[float] = None,
                 probe: Callable[[], float] = reference_slice,
                 reference: float = REFERENCE_SLICE_S) -> None:
        self._probe, self._reference = probe, reference
        self._slice = probe()
        self._origin = time.perf_counter()
        self._excluded = 0.0
        self._busy = False
        #: Work time at each lap, and the scale of the segment it ends.
        self._ends: List[float] = []
        self._scales: List[float] = []
        #: Work times at which each op started and ended.
        self.ops: List[Tuple[float, float]] = []
        self._every = every
        if every:
            self._previous = signal.signal(signal.SIGALRM, self._on_timer)
            signal.setitimer(signal.ITIMER_REAL, every, every)

    def now(self) -> float:
        """Work seconds since the clock started (slices left out)."""
        return time.perf_counter() - self._origin - self._excluded

    def last_lap(self) -> float:
        """Work time of the latest lap (0 before the first)."""
        return self._ends[-1] if self._ends else 0.0

    def _on_timer(self, signum, frame) -> None:
        self.lap()

    def lap(self) -> None:
        """End the current segment with a reference slice."""
        if self._busy:  # the timer fired inside an explicit lap
            return
        self._busy = True
        end = self.now()
        start = time.perf_counter()
        current = self._probe()
        self._excluded += time.perf_counter() - start
        self._ends.append(end)
        self._scales.append(self._reference / ((self._slice + current) / 2))
        self._slice = current
        self._busy = False

    def op(self, start: float) -> None:
        """An op ran from work time ``start`` until now."""
        self.ops.append((start, self.now()))

    def stop(self) -> None:
        """Stop the timer and end the last segment."""
        if self._every:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._every = None
        self.lap()

    def wall(self) -> float:
        """Normalized seconds of all the work up to the last lap."""
        return self.normalized(0.0, self.last_lap())

    def latencies(self) -> List[float]:
        """Normalized seconds of every op, in the order they ended."""
        return [self.normalized(start, end) for start, end in self.ops]

    def normalized(self, start: float, end: float) -> float:
        """Normalized seconds of the work between two work times."""
        total, begin = 0.0, 0.0
        for index in range(bisect.bisect_right(self._ends, start),
                           len(self._ends)):
            low, high = max(start, begin), min(end, self._ends[index])
            if high <= low:
                break
            total += (high - low) * self._scales[index]
            begin = self._ends[index]
        return total


@dataclass
class Round:
    """One fixed unit of work of a workload, measured."""

    #: Host-normalized time of the round's timed phase, in seconds.
    wall: float = 0.0
    #: Wall time of the same phase as the host ran it, in seconds.
    raw_wall: float = 0.0
    #: Host-normalized per-op latencies in seconds, in completion order.
    latencies: List[float] = field(default_factory=list)
    #: The same latencies as the host ran them (slices left out).
    raw_latencies: List[float] = field(default_factory=list)
    #: Ops whose output check failed (or that errored).
    failed: int = 0
    #: A few human-readable failure descriptions.
    problems: List[str] = field(default_factory=list)
    #: Client-side per-layer samples (ms latencies, stage seconds, ...).
    samples: Dict[str, List[float]] = field(default_factory=dict)
    #: Client-side per-layer counts.
    counts: Counter = field(default_factory=Counter)
    #: Span statistics of a traced round (``Tracer.snapshot`` form).
    trace: Optional[Dict[str, Any]] = None
    #: Peak RSS in MB of a worker process, when the work ran in one.
    rss_mb: Optional[float] = None

    def timed_by(self, clock: HostClock) -> None:
        """Take the wall time and op latencies of a clock; stops it."""
        clock.stop()
        self.wall, self.raw_wall = clock.wall(), clock.last_lap()
        self.latencies = clock.latencies()
        self.raw_latencies = [end - start for start, end in clock.ops]

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(message)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)


def repro_env() -> Dict[str, str]:
    """Environment for child interpreters that import ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def fresh_import_seconds() -> float:
    """Wall time of a fresh interpreter importing ``repro.cli``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"],
        env=repro_env(), check=True, timeout=120,
    )
    return time.perf_counter() - start


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop: a slow or busy host shows here."""
    start = time.perf_counter()
    total = 0
    for i in range(1_500_000):
        total += i * i % 7
    if total != 2_999_999:
        raise RuntimeError(f"calibration loop miscomputed: {total}")
    return time.perf_counter() - start


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q`` quantile (``q`` in (0, 1])."""
    ordered = sorted(values)
    index = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[index]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def load_references(workload: str) -> Dict[str, Any]:
    with REFERENCES.open(encoding="utf-8") as handle:
        return json.load(handle)[workload]
