"""Designer-effort accounting (Table 1).

The top half of Table 1 is human work (parallelizing the code, creating
the SDF graph, gathering metrics, writing the application model) -- those
entries are constants quoted from the paper.  The bottom half is what the
tool flow automates; :class:`EffortReport` collects measured wall-clock
timings for those steps so the benchmark can regenerate the table.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, List, Tuple

#: The manual steps of Table 1 with the paper's reported effort.
TABLE1_MANUAL_STEPS: Tuple[Tuple[str, str], ...] = (
    ("Parallelizing the MJPEG code", "< 3 days"),
    ("Creating the SDF graph", "5 minutes"),
    ("Gathering required actor metrics", "1 day"),
    ("Creating application model", "1 hour"),
)

#: The automated steps of Table 1, in flow order.
TABLE1_AUTOMATED_STEPS: Tuple[str, ...] = (
    "Generating architecture model",
    "Mapping the design (SDF3)",
    "Generating Xilinx project (MAMPS)",
    "Synthesis of the system",
)


@dataclass
class StepTiming:
    """One automated step's measured duration."""

    name: str
    seconds: float

    def human(self) -> str:
        if self.seconds < 1.0:
            return f"{self.seconds * 1000:.0f} ms"
        if self.seconds < 120.0:
            return f"{self.seconds:.1f} s"
        return f"{self.seconds / 60.0:.1f} min"


@dataclass
class EffortReport:
    """Timings of the automated flow steps (Table 1, bottom half)."""

    timings: List[StepTiming] = field(default_factory=list)

    @contextmanager
    def step(self, name: str) -> Iterator[None]:
        """Context manager measuring one named step."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.timings.append(
                StepTiming(name=name, seconds=time.perf_counter() - start)
            )

    def seconds_of(self, name: str) -> float:
        for timing in self.timings:
            if timing.name == name:
                return timing.seconds
        raise KeyError(f"no timing recorded for step {name!r}")

    def total_automated_seconds(self) -> float:
        return sum(t.seconds for t in self.timings)

    def as_table(self) -> str:
        """Render the full Table 1: manual rows (paper constants) then the
        measured automated rows."""
        width = max(
            [len(name) for name, _ in TABLE1_MANUAL_STEPS]
            + [len(t.name) for t in self.timings]
        )
        lines = [f"{'Step':<{width}}  Time spent"]
        lines.append("-" * (width + 14))
        for name, effort in TABLE1_MANUAL_STEPS:
            lines.append(f"{name:<{width}}  {effort}")
        for timing in self.timings:
            lines.append(
                f"{timing.name:<{width}}  {timing.human()} (automated)"
            )
        return "\n".join(lines)
