"""One registry of named monotonic counts.

:data:`PROCESS` holds this process's analysis counts, which every layer
records through :func:`count` and ``GET /v1/healthz`` reads:
``engine.analyses`` (:class:`~repro.sdf.engine.ThroughputEngine`
throughput analyses), ``power.platform`` / ``power.application``
(power and energy estimates), and ``sim.instants`` /
``sim.run_instants`` (the stamps the simulator's lean loops handle, and
those of them handled in word runs) and ``sim.channel_firings`` (the
firings they resolve in Fig. 4 channel passes; see
:mod:`repro.sdf.simulation`).
:func:`collect` opens a nesting scope that also records every count
made in its context; worker threads started inside it keep their own
context.  The execution backend
(:mod:`repro.flow.backend`) runs every registered task inside a scope
and merges a worker process's counts into the parent's.
"""

from __future__ import annotations

import contextvars
import threading
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Tuple

#: The names the process-wide counts are declared with.
PROCESS_COUNTS = (
    "engine.analyses", "power.platform", "power.application",
    "sim.instants", "sim.run_instants", "sim.channel_firings",
)


class Counters:
    """Named monotonic counts (thread-safe).

    Names are declared up front, so a snapshot lists zero counts too
    and a misspelt name raises :class:`KeyError`.
    """

    __slots__ = ("_lock", "_counts")

    def __init__(self, names: Iterable[str]) -> None:
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = dict.fromkeys(names, 0)

    def add(self, name: str, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counts only grow; cannot add {amount}")
        with self._lock:
            if name not in self._counts:
                raise KeyError(f"undeclared counter {name!r}")
            self._counts[name] += amount

    def snapshot(self, prefix: str = "") -> Dict[str, int]:
        """The counts in declaration order; with ``prefix``, only the
        ``<prefix>.*`` ones, keyed by the rest of their name."""
        head = prefix + "." if prefix else ""
        with self._lock:
            return {
                name[len(head):]: value
                for name, value in self._counts.items()
                if name.startswith(head)
            }


#: This process's counts; record into them through :func:`count`.
PROCESS = Counters(PROCESS_COUNTS)

_scopes: "contextvars.ContextVar[Tuple[Counters, ...]]" = (
    contextvars.ContextVar("repro_counter_scopes", default=())
)


def count(name: str, amount: int = 1) -> None:
    """Record ``amount`` of ``name`` in :data:`PROCESS` and in every
    open :func:`collect` scope of this context."""
    PROCESS.add(name, amount)
    for scope in _scopes.get():
        scope.add(name, amount)


@contextmanager
def collect() -> Iterator[Counters]:
    """Yield a :class:`Counters` of what is counted inside the block."""
    scope = Counters(PROCESS_COUNTS)
    token = _scopes.set(_scopes.get() + (scope,))
    try:
        yield scope
    finally:
        _scopes.reset(token)
