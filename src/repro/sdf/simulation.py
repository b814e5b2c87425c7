"""Self-timed execution of SDF graphs.

*Self-timed* execution fires every actor as soon as it is ready (and, when
resource constraints are given, as soon as its processor is free and the
static-order schedule designates it).  For consistent, deadlock-free SDF
graphs self-timed execution reaches a periodic regime whose rate equals the
maximal achievable throughput [Ghamarian et al. 2006].  This class is the
one production simulator: the state-space analysis of the throughput engine
(:meth:`SelfTimedSimulator.run_throughput`, driven by
:mod:`repro.sdf.engine`), static-order schedule construction
(:mod:`repro.mapping.scheduling`), the latency scans and the platform
simulator all run it.

Semantics follow SDF3: tokens are consumed at firing *start* and produced at
firing *end*.  Concurrent firings of one actor ("auto-concurrency") are
limited by ``auto_concurrency`` (default 1, matching a software actor bound
to a processor); pass ``None`` for the unlimited theoretical semantics, in
which case every actor must have at least one input edge.

Implementation notes (the hot path of every throughput guarantee)
-----------------------------------------------------------------
The engine is *incremental*: instead of re-scanning every actor after each
event, it keeps a dirty-set of actors whose inputs, concurrency slots or
processors changed since they were last examined.  This is sound because a
firing *start* only consumes tokens and occupies resources -- it can never
enable another firing -- so enabling events are exactly: token production
at a firing *end*, a concurrency slot freeing at a firing end, and a
processor freeing at a firing end.  Each of those marks precisely the
affected actors (the consuming endpoint of each produced-on edge, the
finishing actor, the processor's actors).  All per-step state lives in
integer-indexed arrays precomputed once from the graph in ``__init__``;
name-keyed views (:attr:`tokens`, :attr:`completed`, ...) are derived on
demand for callers.

Two lean loops run on token arrays, the completion heap and the dirty sets
only: :meth:`SelfTimedSimulator.run_throughput` (the engine) and
:meth:`SelfTimedSimulator.run_until` (the platform simulator and
static-order derivation, counting target firings down as they finish;
with ``record_trace`` it also appends one :class:`Firing` per completion).
:meth:`SelfTimedSimulator.step` adds token peaks and the trace on top of
the same start and finish code.  Duration hooks are per actor, so only the
platform simulator's application actors pay for one.

Instants and passes.  Every heap entry is keyed by a *stamp*, ``time <<
_PASS_BITS | pass``: a firing of positive duration ends in pass 1 of its
end time, a zero-time firing started in pass ``p`` ends in pass ``p + 1``
of the same instant (pass 0 is time 0 before its first instant).  One
loop iteration handles one stamp: it finishes what ends then and starts
what that enables.

Arithmetic firings.  In the two lean loops, an actor with no processor and
no duration hook that the loop does not observe (not the reference actor,
not a ``run_until`` target, no trace) never arbitrates for anything, so
each of its firings starts at the stamp where its input tokens and a
concurrency slot are available and ends its static time later.
:class:`_UnboundRun` computes those stamps directly from per-edge queues
of token stamps -- the Fig. 4 model's ``s2``/``s3``/``c1``/``c2``/``d3``
actors never enter the heap.  Only the tokens they deliver to other actors
become heap entries; one aimed at an actor whose processor stays busy past
it waits for that processor to free instead.  A *fed* actor -- bound,
positive static duration, every input from an unbound actor, every bound
consumer taking several of its firings at once: the Fig. 4 ``d1`` of a
token of ``_MIN_WORDS`` words or more -- gets each firing's tokens in one
wake-up, and while it wins its processor the loop advances it through
its words in a *word run*, its instants held off the heap (see
:meth:`_UnboundRun._run`).  One loop carries a run word by word up to
its *horizon*, the earliest instant of anything else, taken once per
stretch and again only after a step that can bring it forward; the
batch check and the start are part of that loop.  The ``s2``, ``c1``
and ``c2`` of a Fig. 4 channel pass each word through in one step
(:meth:`_UnboundRun._channel`, a generator that keeps the channel's
queues and records bound between passes) rather than one work-stack
visit per actor, and a word run's ``d1`` hands each credit it returns
straight to that pass.  At every
iteration boundary and on return the arithmetic state is read back at the
current stamp, so :meth:`SelfTimedSimulator.state_key` and every public
counter equal the event-by-event execution's.

The dirty-set engine starts firings in the same deterministic order as the
naive full rescan (static-order processors in declaration order, then the
remaining actors in graph insertion order), so recorded traces, hook-call
order and tie-breaking among simultaneous completions are identical to the
retained reference implementation (the test oracle
``tests/sdf/simulation_reference.py``), which the differential test
suite checks on randomized graphs.
"""

from __future__ import annotations

import heapq
import sys
from bisect import bisect_right, insort
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.counters import count
from repro.exceptions import DeadlockError, GraphError, SimulationError
from repro.sdf.graph import SDFGraph
from repro.sdf.throughput import ThroughputResult, UnboundedExecutionError

# Bits of a stamp that count passes within one instant (see the module
# docstring); 2**40 passes at one time is far beyond any finite run.
_PASS_BITS = 40
# The time part of a stamp.
_TIME_PART = -1 << _PASS_BITS
# Firings of a fed actor (see :class:`_UnboundPlan`) that each firing of
# its bound consumers takes, at least.  Batching its tokens and running
# it through its words repay their set-up only over several words: on
# channels of 1-4 words a token they made analyses slower, on the MJPEG
# case study's 17- and 33-word tokens faster (docs/performance.md).
_MIN_WORDS = 8
# Later than every stamp: the horizon of a word run with nothing else
# to come (see :meth:`_UnboundRun._run`).
_NEVER = float("inf")
# The end stamp of a firing record (start, end).
_END = itemgetter(1)


@dataclass(frozen=True)
class Firing:
    """One completed (or ongoing) actor firing."""

    actor: str
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class SimulationTrace:
    """Recorded execution: firings plus per-edge occupancy statistics.

    ``completed_count`` is a *snapshot* taken when :meth:`SelfTimedSimulator.run`
    returns (and at reset); it does not mutate retroactively if the simulator
    keeps stepping after the trace was handed out.
    """

    firings: List[Firing] = field(default_factory=list)
    max_tokens: Dict[str, int] = field(default_factory=dict)
    completed_count: Dict[str, int] = field(default_factory=dict)

    def firings_of(self, actor: str) -> List[Firing]:
        return [f for f in self.firings if f.actor == actor]

    def makespan(self) -> int:
        return max((f.end for f in self.firings), default=0)


class SelfTimedSimulator:
    """Discrete-event self-timed executor for an SDF graph.

    Parameters
    ----------
    graph:
        The graph to execute.
    auto_concurrency:
        Maximum simultaneous firings per actor; ``None`` for unlimited.
    processor_of:
        Optional binding of actor name to processor name.  Actors bound to
        the same processor exclude one another in time.
    static_order:
        Optional per-processor cyclic firing order (actor names).  When
        given for a processor, that processor only starts the next actor in
        its order (blocking until it is ready), exactly like the lookup-table
        scheduler MAMPS generates (Section 6.3).  Actors bound to the
        processor but absent from its order are *interleaved work*: they may
        run whenever the processor is idle (the model of the communication
        library's (de)serialization calls, which happen inside the actor
        wrappers rather than as scheduled entities).  Interleaved actors get
        priority over the order head when both are ready, mirroring the
        wrapper servicing communication before dispatching the next actor.
    execution_time_of:
        Optional per-actor hooks ``{actor: fn(k) -> cycles}`` giving the
        duration of that actor's *k*-th firing (k counts from 0); other
        actors keep their static ``execution_time``.  The platform
        simulator hooks its application actors to run their code.
    record_trace:
        Keep a full firing list, in completion order (memory-heavy for
        long runs).

    Duration hooks apply in every loop; ``record_trace`` in
    :meth:`step`/:meth:`run` and :meth:`run_until`.

    :meth:`reset` re-reads every edge's ``initial_tokens`` from the graph,
    so callers may mutate initial token counts in place (the buffer-sizing
    warm path does) and re-analyze without rebuilding the simulator.
    """

    def __init__(
        self,
        graph: SDFGraph,
        auto_concurrency: Optional[int] = 1,
        processor_of: Optional[Dict[str, str]] = None,
        static_order: Optional[Dict[str, Sequence[str]]] = None,
        execution_time_of: Optional[
            Mapping[str, Callable[[int], int]]
        ] = None,
        record_trace: bool = False,
    ) -> None:
        if auto_concurrency is not None and auto_concurrency < 1:
            raise GraphError("auto_concurrency must be >= 1 or None")
        self.graph = graph
        self.auto_concurrency = auto_concurrency
        self.processor_of = dict(processor_of or {})
        self.static_order = {
            proc: list(order) for proc, order in (static_order or {}).items()
        }
        self.record_trace = record_trace
        # The lean loops' plans, per observed set (see _UnboundRun).
        self._plans: Dict[frozenset, _UnboundPlan] = {}

        for proc, order in self.static_order.items():
            if not order:
                raise GraphError(f"static order for {proc!r} is empty")
            for actor in order:
                if actor not in graph:
                    raise GraphError(
                        f"static order for {proc!r} names unknown actor "
                        f"{actor!r}"
                    )
                if self.processor_of.get(actor) != proc:
                    raise GraphError(
                        f"actor {actor!r} appears in the static order of "
                        f"{proc!r} but is not bound to it"
                    )
        # Actors bound to a static-order processor but not listed in its
        # order run interleaved (communication-library work).
        in_some_order = {
            a for order in self.static_order.values() for a in order
        }
        self._interleaved: Dict[str, List[str]] = {}
        for actor, proc in self.processor_of.items():
            if proc in self.static_order and actor not in in_some_order:
                self._interleaved.setdefault(proc, []).append(actor)

        for actor in graph:
            cap = (
                actor.concurrency
                if actor.concurrency is not None
                else auto_concurrency
            )
            if cap is None and not graph.in_edges(actor.name):
                raise GraphError(
                    f"actor {actor.name!r} has no input edges; unlimited "
                    "auto-concurrency would fire it infinitely often at "
                    "time 0 (add a self-edge or set a concurrency cap)"
                )

        # ---- integer-indexed adjacency, precomputed once ----
        actors = graph.actors
        edges = graph.edges
        self._actor_names: List[str] = [a.name for a in actors]
        self._actor_index: Dict[str, int] = {
            name: i for i, name in enumerate(self._actor_names)
        }
        # Edge *objects* are kept so reset() can re-read initial tokens
        # mutated in place by the buffer-sizing warm path.
        self._edge_objs: Tuple = edges
        self._edge_names: List[str] = [e.name for e in edges]
        edge_index = {name: i for i, name in enumerate(self._edge_names)}

        # A hooked actor's static time is None: its duration comes from
        # its hook, found by the same lookup an unhooked start makes.
        self._exec_time: List[Optional[int]] = [
            a.execution_time for a in actors
        ]
        self._duration_hook: Dict[int, Callable[[int], int]] = {}
        for name, hook in (execution_time_of or {}).items():
            idx = self._actor_index.get(name)
            if idx is None:
                raise GraphError(f"duration hook for unknown actor {name!r}")
            self._duration_hook[idx] = hook
            self._exec_time[idx] = None
        self._cap: List[Optional[int]] = [
            a.concurrency if a.concurrency is not None else auto_concurrency
            for a in actors
        ]
        # Per-actor (edge index, rate) arrays and the per-edge consumer.
        self._in_rates: List[List[Tuple[int, int]]] = [
            [(edge_index[e.name], e.consumption)
             for e in graph.in_edges(a.name)]
            for a in actors
        ]
        self._out_rates: List[List[Tuple[int, int]]] = [
            [(edge_index[e.name], e.production)
             for e in graph.out_edges(a.name)]
            for a in actors
        ]
        self._consumer_of: List[int] = [
            self._actor_index[e.dst] for e in edges
        ]

        # Processors as small integers; static-order processors keep their
        # declaration order (it fixes the deterministic start order).
        proc_index: Dict[str, int] = {}
        proc_names: List[str] = []

        def proc_id(name: str) -> int:
            pid = proc_index.get(name)
            if pid is None:
                pid = len(proc_names)
                proc_index[name] = pid
                proc_names.append(name)
            return pid

        self._static_proc_ids: List[int] = [
            proc_id(proc) for proc in self.static_order
        ]
        self._proc_of: List[int] = [-1] * len(actors)
        for i, name in enumerate(self._actor_names):
            proc = self.processor_of.get(name)
            if proc is not None:
                self._proc_of[i] = proc_id(proc)
        self._proc_names: List[str] = proc_names
        n_procs = len(proc_names)
        self._proc_is_static: List[bool] = [False] * n_procs
        self._static_rank: List[int] = [-1] * n_procs
        for rank, pid in enumerate(self._static_proc_ids):
            self._proc_is_static[pid] = True
            self._static_rank[pid] = rank
        self._proc_members: List[List[int]] = [[] for _ in range(n_procs)]
        for i, pid in enumerate(self._proc_of):
            if pid >= 0:
                self._proc_members[pid].append(i)
        self._order_idx: Dict[int, List[int]] = {
            proc_index[proc]: [self._actor_index[a] for a in order]
            for proc, order in self.static_order.items()
        }
        self._interleaved_idx: Dict[int, List[int]] = {
            proc_index[proc]: [self._actor_index[a] for a in names]
            for proc, names in self._interleaved.items()
        }
        # Actors the greedy (non-static-order) section may start, in graph
        # insertion order.
        self._greedy_actors: List[int] = [
            i for i in range(len(actors))
            if self._proc_of[i] < 0
            or not self._proc_is_static[self._proc_of[i]]
        ]

        self.reset()

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Return to the graph's initial state at time 0.

        Initial token counts are re-read from the edge objects, so in-place
        mutations of ``initial_tokens`` take effect on the next reset.
        """
        self.now = 0
        # Stamp of the current instant (pass 0 only before the first).
        self._stamp = 0
        self._tokens: List[int] = [
            e.initial_tokens for e in self._edge_objs
        ]
        n = len(self._actor_names)
        self._ongoing: List[int] = [0] * n
        self._completed: List[int] = [0] * n
        self._started: List[int] = [0] * n
        # (end stamp, seq, actor index, start time)
        self._queue: List[Tuple[int, int, int, int]] = []
        self._seq = 0
        self._proc_busy: List[int] = [0] * len(self._proc_names)
        self._order_pos: List[int] = [0] * len(self._proc_names)
        self._max_tokens: List[int] = list(self._tokens)
        self._trace = SimulationTrace(
            max_tokens={
                name: self._tokens[i]
                for i, name in enumerate(self._edge_names)
            },
            completed_count={name: 0 for name in self._actor_names},
        )
        # Everything is potentially startable at time 0.
        self._actor_dirty: List[bool] = [False] * n
        self._dirty_actors: List[int] = []
        self._proc_dirty: List[bool] = [False] * len(self._proc_names)
        self._dirty_procs: List[int] = []
        for pid in self._static_proc_ids:
            self._proc_dirty[pid] = True
            self._dirty_procs.append(pid)
        for idx in self._greedy_actors:
            self._actor_dirty[idx] = True
            self._dirty_actors.append(idx)

    @property
    def trace(self) -> SimulationTrace:
        """The recorded trace, with ``completed_count`` refreshed.

        Refreshing on access (rather than on every firing) keeps the hot
        loop free of dict writes while step()-driven callers still read
        current counts; a ``completed_count`` dict obtained earlier is a
        snapshot and does not mutate retroactively.
        """
        return self._finalize_trace()

    @property
    def tokens(self) -> Dict[str, int]:
        """Current token counts per edge name (snapshot dict)."""
        t = self._tokens
        return {name: t[i] for i, name in enumerate(self._edge_names)}

    @property
    def completed(self) -> Dict[str, int]:
        """Completed firing counts per actor."""
        c = self._completed
        return {name: c[i] for i, name in enumerate(self._actor_names)}

    @property
    def started(self) -> Dict[str, int]:
        """Started firing counts per actor (>= completed)."""
        s = self._started
        return {name: s[i] for i, name in enumerate(self._actor_names)}

    def completed_of(self, actor: str) -> int:
        """Completed firing count of one actor (O(1); the hot-loop form)."""
        return self._completed[self._index_of(actor)]

    def _index_of(self, actor: str) -> int:
        idx = self._actor_index.get(actor)
        if idx is None:
            raise GraphError(
                f"graph {self.graph.name!r} has no actor {actor!r}"
            )
        return idx

    def ongoing_firings(self) -> List[Tuple[str, int]]:
        """(actor, remaining cycles) for every firing in flight, sorted.

        Remaining time is relative to :attr:`now`, which makes the tuple a
        time-shift-invariant component of the execution state -- exactly
        what recurrent-state detection needs.
        """
        names = self._actor_names
        now = self.now
        return sorted(
            (names[idx], (end >> _PASS_BITS) - now)
            for end, _seq, idx, _start in self._queue
        )

    def state_key(self) -> Tuple:
        """Hashable, time-normalized execution state.

        Two equal keys mean the executions will evolve identically from this
        point on, which is the foundation of the periodic-phase detection in
        :mod:`repro.sdf.throughput`.  The key is built from the preallocated
        index arrays (token counts in edge declaration order, in-flight
        firings as sorted (actor index, remaining) pairs, static-order
        positions in declaration order); it is an opaque value -- only
        equality and hashing are meaningful.
        """
        now = self.now
        firing_part = tuple(sorted(
            (idx, (end >> _PASS_BITS) - now)
            for end, _seq, idx, _start in self._queue
        ))
        return (tuple(self._tokens), firing_part, self._order_part())

    def _order_part(self) -> Tuple[int, ...]:
        order_pos = self._order_pos
        order_idx = self._order_idx
        return tuple(
            order_pos[pid] % len(order_idx[pid])
            for pid in self._static_proc_ids
        )

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _is_ready_idx(self, idx: int) -> bool:
        cap = self._cap[idx]
        if cap is not None and self._ongoing[idx] >= cap:
            return False
        tokens = self._tokens
        for e, c in self._in_rates[idx]:
            if tokens[e] < c:
                return False
        return True

    # -- dirty-set bookkeeping -----------------------------------------
    def _mark_actor(self, idx: int) -> None:
        """Record that ``idx`` may have become startable."""
        pid = self._proc_of[idx]
        if pid >= 0 and self._proc_is_static[pid]:
            if not self._proc_dirty[pid]:
                self._proc_dirty[pid] = True
                self._dirty_procs.append(pid)
        elif not self._actor_dirty[idx]:
            self._actor_dirty[idx] = True
            self._dirty_actors.append(idx)

    def _mark_proc_free(self, pid: int) -> None:
        """Record that processor ``pid`` just went idle."""
        if self._proc_is_static[pid]:
            if not self._proc_dirty[pid]:
                self._proc_dirty[pid] = True
                self._dirty_procs.append(pid)
        else:
            dirty = self._actor_dirty
            stack = self._dirty_actors
            for idx in self._proc_members[pid]:
                if not dirty[idx]:
                    dirty[idx] = True
                    stack.append(idx)

    # -- firing start and finish (shared by every run loop) ------------
    def _start_firing(self, idx: int) -> None:
        tokens = self._tokens
        for e, c in self._in_rates[idx]:
            tokens[e] -= c
        # Static times were validated non-negative with the graph.
        duration = self._exec_time[idx]
        if duration is None:
            duration = self._duration_hook[idx](self._started[idx])
            if duration < 0:
                raise SimulationError(
                    f"negative execution time for firing "
                    f"{self._started[idx]} of {self._actor_names[idx]!r}"
                )
        now = self.now
        end = (
            (now + duration) << _PASS_BITS | 1 if duration
            else self._stamp + 1
        )
        self._started[idx] += 1
        self._ongoing[idx] += 1
        heapq.heappush(self._queue, (end, self._seq, idx, now))
        self._seq += 1
        pid = self._proc_of[idx]
        if pid >= 0:
            self._proc_busy[pid] = now + duration

    def _finish_firing(self, idx: int) -> None:
        """Produce the firing's tokens and mark what it may enable."""
        tokens = self._tokens
        consumer = self._consumer_of
        mark = self._mark_actor
        for e, p in self._out_rates[idx]:
            tokens[e] += p
            mark(consumer[e])
        self._ongoing[idx] -= 1
        self._completed[idx] += 1
        mark(idx)
        pid = self._proc_of[idx]
        if pid >= 0:
            # The firing that just ended is the one that made the
            # processor busy (starts require a free processor), so the
            # processor is idle again as of now.
            self._mark_proc_free(pid)

    def _run_static_proc(self, pid: int) -> None:
        """Start everything a static-order processor may start right now:
        interleaved (communication-library) work first, then the
        lookup-table head."""
        order = self._order_idx[pid]
        interleaved = self._interleaved_idx.get(pid, ())
        is_ready = self._is_ready_idx
        while self._proc_busy[pid] <= self.now:
            for i in interleaved:
                if is_ready(i):
                    self._start_firing(i)
                    break
            else:
                idx = order[self._order_pos[pid] % len(order)]
                if not is_ready(idx):
                    break
                self._start_firing(idx)
                self._order_pos[pid] += 1

    def _start_all_ready(self) -> None:
        """Start every firing allowed right now.

        Only dirty actors/processors are examined.  A firing start consumes
        tokens and occupies resources but never enables another firing
        (tokens are produced at firing *end*), so one pass over the dirty
        sets reaches the same fixpoint as a full rescan -- and in the same
        order: static-order processors in declaration order, then the
        remaining actors in graph insertion order.
        """
        if self._dirty_procs:
            dirty_procs = self._dirty_procs
            self._dirty_procs = []
            if len(dirty_procs) > 1:
                dirty_procs.sort(key=self._static_rank.__getitem__)
            for pid in dirty_procs:
                self._proc_dirty[pid] = False
                self._run_static_proc(pid)
        if self._dirty_actors:
            dirty = self._dirty_actors
            self._dirty_actors = []
            if len(dirty) > 1:
                dirty.sort()
            is_ready = self._is_ready_idx
            proc_busy = self._proc_busy
            now = self.now
            for idx in dirty:
                self._actor_dirty[idx] = False
                pid = self._proc_of[idx]
                if pid >= 0:
                    while proc_busy[pid] <= now and is_ready(idx):
                        self._start_firing(idx)
                else:
                    while is_ready(idx):
                        self._start_firing(idx)

    def step(self) -> List[Tuple[str, int]]:
        """Advance to the next completion instant.

        Starts any firings enabled at the current time first, then jumps to
        the earliest completion, finishes every firing ending then, and
        starts newly enabled firings.  Returns the list of (actor, end_time)
        completions, or an empty list when the execution is quiescent
        (deadlocked or finished).
        """
        self._start_all_ready()
        queue = self._queue
        if not queue:
            return []
        stamp = queue[0][0]
        self._stamp = stamp
        end = self.now = stamp >> _PASS_BITS
        finished: List[Tuple[str, int]] = []
        names = self._actor_names
        tokens = self._tokens
        maxes = self._max_tokens
        while queue and queue[0][0] == stamp:
            _end, _seq, idx, start = heapq.heappop(queue)
            self._finish_firing(idx)
            # What the lean path skips: token peaks and the trace.
            for e, _p in self._out_rates[idx]:
                value = tokens[e]
                if value > maxes[e]:
                    maxes[e] = value
                    # Dict write only on a fresh peak: rare after the
                    # warm-up phase of a bounded graph, so the live trace
                    # dict stays current at array speed.
                    self._trace.max_tokens[self._edge_names[e]] = value
            actor = names[idx]
            if self.record_trace:
                self._trace.firings.append(Firing(actor, start, end))
            finished.append((actor, end))
        self._start_all_ready()
        return finished

    def run_throughput(
        self, reference_actor: str, repetitions: int, max_iterations: int
    ) -> ThroughputResult:
        """State-space throughput analysis from the current state.

        Graph iterations are counted in completions of
        ``reference_actor`` (``repetitions`` per iteration).  At every
        iteration boundary the time-normalized :meth:`state_key` is
        recorded; the first recurring key closes the periodic phase, whose
        throughput is exact: iterations in the period over its length.

        The loop is :meth:`step` fused with the detection, on the lean
        path: it keeps no token peaks and no trace, and fires every
        unobserved unbound actor by arithmetic (see the module
        docstring).  The result is the one the step()-driven analysis
        (the oracle ``reference_analyze_throughput`` in
        ``tests/sdf/simulation_reference.py``) returns, field for field.

        Raises :class:`~repro.exceptions.DeadlockError` when the execution
        blocks, :class:`~repro.sdf.throughput.UnboundedExecutionError`
        when no state recurs within ``max_iterations`` iterations and
        :class:`~repro.exceptions.SimulationError` when ``repetitions`` or
        ``max_iterations`` is below 1.
        """
        name = self.graph.name
        if repetitions < 1 or max_iterations < 1:
            raise SimulationError(
                f"run_throughput of {name!r} needs at least 1 repetition "
                f"and 1 iteration, not {repetitions} and {max_iterations}"
            )
        ref_idx = self._index_of(reference_actor)
        completed = self._completed
        seen: Dict[tuple, Tuple[int, int]] = {}
        iterations_done = 0

        run = _UnboundRun(self, frozenset((ref_idx,)))
        try:
            while iterations_done < max_iterations:
                # Only the reference actor's completions matter here, and
                # a word run's instants have none.
                if not run.advance(sys.maxsize):
                    raise DeadlockError(
                        f"mapped graph {name!r} blocked after "
                        f"{iterations_done} iteration(s) at t={self.now}; "
                        "the static-order schedule or buffer sizes admit "
                        "no execution"
                    )
                completed_iterations = completed[ref_idx] // repetitions
                if completed_iterations > iterations_done:
                    iterations_done = completed_iterations
                    end = self.now
                    key = run.state_key()
                    previous = seen.get(key)
                    if previous is not None:
                        prev_iterations, prev_time = previous
                        period = end - prev_time
                        iter_count = iterations_done - prev_iterations
                        if period <= 0:
                            raise SimulationError(
                                f"graph {name!r} completes {iter_count} "
                                "iteration(s) in zero time; all cycle "
                                "times are zero -- throughput is unbounded"
                            )
                        return ThroughputResult(
                            throughput=Fraction(iter_count, period),
                            period=period,
                            iterations_per_period=iter_count,
                            transient_iterations=prev_iterations,
                            tier="vectorized",
                        )
                    seen[key] = (iterations_done, end)
        finally:
            run.close()

        raise UnboundedExecutionError(
            f"no periodic phase within {max_iterations} iterations of "
            f"{name!r}; channels likely grow without bound -- add "
            "buffer back-edges (repro.sdf.buffers.add_buffer_edges) before "
            "analyzing"
        )

    def run_until(
        self,
        targets: Mapping[str, int],
        max_steps: int,
        completion_order: Optional[List[str]] = None,
    ) -> int:
        """Run until each actor in ``targets`` has completed at least its
        target number of firings, or for ``max_steps`` instants; returns
        :attr:`now` (callers read the completed counts to tell the two
        apart).

        Like :meth:`step`, each instant finishes every firing ending then
        and starts what that enables.  Outstanding target firings are
        counted down as they finish; no token peaks.  With
        ``completion_order``, the name of every counted-down completion
        is appended to it, in completion order.

        ``max_steps`` bounds the instants the loop handles, and counts
        every handled stamp, word runs' included.  Without
        ``record_trace`` the unobserved unbound actors fire by
        arithmetic and fed actors take their tokens in batches, so an
        instant is one in which an observed actor completes or receives
        tokens, a fed actor completes or is woken, or parked arithmetic
        firings of an all-unbound cycle start.  With ``record_trace``
        every actor is observed and an instant is a completion instant,
        as in :meth:`step`.
        Raises :class:`~repro.exceptions.DeadlockError` when the execution
        blocks first.
        """
        index_of = self._index_of
        wanted = [(index_of(actor), n) for actor, n in targets.items()]
        remaining = [0] * len(self._actor_names)
        for idx, target in wanted:
            remaining[idx] = max(0, target - self._completed[idx])
        outstanding = sum(remaining)
        names = self._actor_names
        firings = self._trace.firings if self.record_trace else None
        observed = (
            frozenset(range(len(names))) if firings is not None
            else frozenset(idx for idx, _target in wanted)
        )

        run = _UnboundRun(self, observed)
        steps = 0
        try:
            while steps < max_steps and outstanding:
                handled = run.advance(max_steps - steps)
                if not handled:
                    raise DeadlockError(
                        f"execution of {self.graph.name!r} blocked at "
                        f"t={self.now} with {outstanding} target firing(s) "
                        "outstanding"
                    )
                steps += handled
                for end, _seq, idx, start in run.finished:
                    if remaining[idx]:
                        remaining[idx] -= 1
                        outstanding -= 1
                        if completion_order is not None:
                            completion_order.append(names[idx])
                    if firings is not None:
                        firings.append(
                            Firing(names[idx], start, end >> _PASS_BITS)
                        )
        finally:
            run.close()
        return self.now

    def _finalize_trace(self) -> SimulationTrace:
        """Hand out the trace with a private ``completed_count`` snapshot.

        Each handout is a fresh :class:`SimulationTrace` owning its own
        completed-count dict, so a trace obtained earlier never mutates
        retroactively -- not even when the trace is finalized again by a
        later ``run()`` or property access.  ``firings`` and
        ``max_tokens`` are shared live views of the ongoing recording
        (their historic semantics).
        """
        completed = self._completed
        return SimulationTrace(
            firings=self._trace.firings,
            max_tokens=self._trace.max_tokens,
            completed_count={
                name: completed[i]
                for i, name in enumerate(self._actor_names)
            },
        )

    def run(
        self,
        max_time: Optional[int] = None,
        max_firings: Optional[int] = None,
        stop_when: Optional[Callable[["SelfTimedSimulator"], bool]] = None,
    ) -> SimulationTrace:
        """Run until quiescence or until a stop condition triggers.

        ``max_time`` bounds simulated time; ``max_firings`` bounds the total
        number of completed firings; ``stop_when`` is checked after every
        step.  At least one bound (or a graph that quiesces) is required,
        otherwise the call would not terminate.
        """
        if max_time is None and max_firings is None and stop_when is None:
            raise SimulationError(
                "run() needs max_time, max_firings or stop_when; self-timed "
                "execution of a live graph never quiesces on its own"
            )
        while True:
            finished = self.step()
            if not finished:
                return self._finalize_trace()
            if max_time is not None and self.now >= max_time:
                return self._finalize_trace()
            if max_firings is not None and (
                sum(self._completed) >= max_firings
            ):
                return self._finalize_trace()
            if stop_when is not None and stop_when(self):
                return self._finalize_trace()

    def is_quiescent(self) -> bool:
        """True when nothing is running and nothing can start."""
        if self._queue:
            return False
        for idx in range(len(self._actor_names)):
            pid = self._proc_of[idx]
            if pid >= 0 and self._proc_is_static[pid]:
                order = self._order_idx[pid]
                head = order[self._order_pos[pid] % len(order)]
                is_interleaved = idx in self._interleaved_idx.get(pid, ())
                if (head == idx or is_interleaved) and self._is_ready_idx(
                    idx
                ):
                    return False
            elif self._is_ready_idx(idx) and (
                pid < 0 or self._proc_busy[pid] <= self.now
            ):
                return False
        return True


class _UnboundPlan:
    """Which actors the lean loops fire by arithmetic for one observed
    set, and where the tokens of every actor go.

    An actor is *unbound* here when it has no processor, no duration hook
    and is not observed.  Such an actor never arbitrates, so its firings
    are fixed by its input stamps alone.
    """

    def __init__(self, sim: SelfTimedSimulator, observed: frozenset) -> None:
        n = len(sim._actor_names)
        consumer = sim._consumer_of
        producer = [sim._actor_index[e.src] for e in sim._edge_objs]
        is_u = [
            sim._proc_of[i] < 0
            and sim._exec_time[i] is not None
            and i not in observed
            for i in range(n)
        ]
        self.actors: List[int] = [i for i in range(n) if is_u[i]]
        self.unbound_inputs: List[int] = [
            e for e, v in enumerate(consumer) if is_u[v]
        ]
        # A *fed* actor is a bound actor of positive static duration whose
        # every input comes from an unbound actor and whose every bound
        # consumer takes at least _MIN_WORDS of its firings per firing
        # (the Fig. 4 ``d1`` of a token of that many words).  Its inputs
        # are stamp queues too, and it is woken once per firing, when
        # its next batch of tokens is complete (see
        # :meth:`_UnboundRun._refill`).  On its processor it runs at most
        # one firing at a time.
        edges = sim._edge_objs
        is_fed = [
            not is_u[i] and sim._proc_of[i] >= 0
            and bool(sim._exec_time[i]) and bool(sim._in_rates[i])
            and all(is_u[producer[e]] for e, _c in sim._in_rates[i])
            and all(edges[e].consumption >= _MIN_WORDS * p
                    for e, p in sim._out_rates[i] if not is_u[consumer[e]])
            for i in range(n)
        ]
        self.fed: List[int] = [i for i in range(n) if is_fed[i]]
        queued = [u or f for u, f in zip(is_u, is_fed)]
        rate_in = [e.consumption for e in sim._edge_objs]
        # Per actor: outputs to bound consumers as (edge, rate, consumer),
        # to unbound and fed ones as (edge, rate, consumer, tokens that
        # wake a consumer blocked on the edge: any one for a fed actor).
        self.to_bound: List[List[Tuple[int, int, int]]] = [
            [(e, p, consumer[e]) for e, p in outs if not queued[consumer[e]]]
            for outs in sim._out_rates
        ]
        self.to_unbound: List[List[Tuple[int, int, int, int]]] = [
            [(e, p, consumer[e], rate_in[e] if is_u[consumer[e]] else 1)
             for e, p in outs if queued[consumer[e]]]
            for outs in sim._out_rates
        ]
        # Per fed actor that may fire in a word run (see
        # :meth:`_UnboundRun._run`): its processor; the members that win
        # that processor before it (``higher``) or after it (``lower``),
        # and the processor's static order, whose head is a lower
        # member; its outputs to bound consumers as (edge, rate,
        # consumer, consumption, whether the consumer is a member that
        # does not win before it).  Only an unobserved fed actor that the
        # processor runs greedily or as interleaved work qualifies.
        self.runner: List[Optional[tuple]] = [None] * n
        for f in self.fed:
            if f in observed:
                continue
            pid = sim._proc_of[f]
            if not sim._proc_is_static[pid]:
                members = sim._proc_members[pid]
                higher = tuple(m for m in members if m < f)
                lower = tuple(m for m in members if m > f)
                order = None
            elif f in sim._interleaved_idx.get(pid, ()):
                interleaved = sim._interleaved_idx[pid]
                k = interleaved.index(f)
                higher = tuple(interleaved[:k])
                lower = tuple(interleaved[k + 1:])
                order = sim._order_idx[pid]
            else:
                continue
            consumers = tuple(
                (e, p, v, rate_in[e],
                 sim._proc_of[v] == pid and v not in higher)
                for e, p, v in self.to_bound[f]
            )
            self.runner[f] = (pid, higher, lower, order, consumers)
        # Per fed actor in a word run: the processors its completion may
        # disturb, its own and its consumers', and the other runs on
        # them.
        for f in self.fed:
            if self.runner[f] is None:
                continue
            touched = {sim._proc_of[f]}
            touched.update(sim._proc_of[v] for _e, _p, v in self.to_bound[f])
            self.runner[f] += (frozenset(
                g for g in self.fed
                if g != f and self.runner[g] is not None
                and self.runner[g][0] in touched
            ), frozenset(touched))
        # An unbound actor is *autonomous* when it could fire forever on
        # tokens of unbound actors alone (no inputs, or an all-unbound
        # cycle feeding it); every other one is held back by the tokens
        # observed actors have produced so far.
        autonomous = set(self.actors)
        changed = True
        while changed:
            held = {
                u for u in autonomous
                if any(producer[e] not in autonomous
                       for e, _c in sim._in_rates[u])
            }
            autonomous -= held
            changed = bool(held)
        # Per unbound actor, for :meth:`_UnboundRun._resolve`: its
        # concurrency cap (0 for none); what a positive duration adds to
        # a start stamp to give the end stamp (pass 1 of the end time), or
        # 0 for zero time; ``None`` without bound consumers, else their
        # one processor or -1 (see :attr:`_UnboundRun.pending`); whether
        # it is autonomous.
        self.shape: List[Optional[tuple]] = [None] * n
        for u in self.actors:
            procs = {sim._proc_of[v] for _e, _p, v in self.to_bound[u]}
            duration = sim._exec_time[u]
            self.shape[u] = (
                sim._cap[u] or 0,
                (duration << _PASS_BITS) + 1 if duration else 0,
                None if not procs
                else procs.pop() if len(procs) == 1 else -1,
                u in autonomous,
            )
        # Fig. 4 channels, for :meth:`_UnboundRun._channel`: per ``c``
        # (c2) fed by ``b`` (c1) alone, as (a, b, c, ser, tx, inj, nc,
        # chan), where ``a`` (s2) and ``b`` trade words (``inj``) for
        # credits (``tx``), ``ser`` is ``a``'s other input, ``nc``
        # ``b``'s, both from outside the three, and ``chan`` is ``b``'s
        # words to ``c``.  ``a`` takes no time and ``b`` and ``c`` do;
        # ``a`` and ``b`` run one firing at a time and ``a`` has no bound
        # consumer; every edge among the three, ``ser`` and ``nc`` move
        # one token a firing at their consumer, and the internal edges
        # one at their producer too.
        rate = [(e.production, e.consumption) for e in edges]
        free = set(self.actors) - autonomous
        self.channels: List[Tuple[int, ...]] = []
        for c in self.actors:
            ins_c = sim._in_rates[c]
            if c not in free or len(ins_c) != 1 or not sim._exec_time[c]:
                continue
            chan = ins_c[0][0]
            b = producer[chan]
            tx = [e for e, _p in sim._out_rates[b] if e != chan]
            if len(tx) != 1:
                continue
            (tx,) = tx
            a = consumer[tx]
            ins_a = [e for e, _c in sim._in_rates[a] if e != tx]
            inj = [e for e, _c in sim._in_rates[b] if producer[e] == a]
            nc = [e for e, _c in sim._in_rates[b] if producer[e] != a]
            counts = (len(ins_a), len(inj), len(nc))
            if len({a, b, c}) < 3 or counts != (1, 1, 1):
                continue
            (ser,), (inj,), (nc,) = ins_a, inj, nc
            if (free.issuperset((a, b)) and not sim._exec_time[a]
                    and sim._exec_time[b] and sim._cap[a] == 1
                    and sim._cap[b] == 1 and self.shape[a][2] is None
                    and {producer[ser], producer[nc]}.isdisjoint((a, b, c))
                    and rate[tx] == rate[inj] == rate[chan] == (1, 1)
                    and rate[ser][1] == rate[nc][1] == 1):
                self.channels.append((a, b, c, ser, tx, inj, nc, chan))
        # Per fed actor in a word run whose one output to a stamp queue
        # is one token on a channel's ``nc`` (the Fig. 4 ``d1`` and its
        # ``__ncredit``): that channel's index in ``channels``, whose
        # pass its completions hand their credit to (see
        # :meth:`_UnboundRun._run`); else ``None``.
        credited = {channel[6]: k for k, channel in enumerate(self.channels)}
        self.credit: List[Optional[int]] = [None] * n
        for f in self.fed:
            outs = self.to_unbound[f]
            if (self.runner[f] is not None and len(outs) == 1
                    and outs[0][1] == 1):
                self.credit[f] = credited.get(outs[0][0])
        # Edges with an unbound endpoint, as (edge, production, producer,
        # consumption, consumer): their token counts are read back from
        # firing counts.
        index = sim._actor_index
        self.edges: List[Tuple[int, int, int, int, int]] = [
            (e, edge.production, index[edge.src], edge.consumption,
             index[edge.dst])
            for e, edge in enumerate(sim._edge_objs)
            if is_u[index[edge.src]] or is_u[index[edge.dst]]
        ]


class _UnboundRun:
    """One lean-loop call's arithmetic firings (see the module docstring).

    Unbound firings are *resolved* -- their start and end stamps fixed and
    their tokens sent on -- as soon as every input token they consume has
    a stamp.  That is exact whenever it happens, and it is finite unless
    the actor is *autonomous* (see :class:`_UnboundPlan`): only tokens of
    observed actors, which arrive one heap stamp at a time, can feed the
    others.  An autonomous actor's firing is resolved only once the loop
    has reached its start stamp; until then it is *parked*, and the loop
    visits the earliest parked start as an instant of its own when no
    heap stamp comes first.  So an all-unbound cycle never runs ahead of
    the loop.  Tokens between unbound actors live as stamp queues;
    tokens for bound actors become *deliveries*, heap entries whose actor
    field is ``~producer``, or wait in :attr:`pending` for a busy
    consumer processor to free.

    A *fed* actor's tokens stay in stamp queues as well.  It receives a
    whole batch at once -- the tokens of its next firing -- at the stamp
    where the last of them arrives: at once when they are all there as
    its previous firing ends, else through a *wake-up*, a heap entry
    whose actor field is ``~(n + actor)`` (or a :attr:`pending` entry
    ``n + actor``), ``n`` being the actor count.  A wake-up sits where
    the delivery of the batch's last token sat, so every start is the
    event-by-event one; only the instants in which tokens reached the
    fed actor without letting it start are gone.

    While the run lasts, ``_started`` of an unbound actor counts every
    resolved firing, its ``_completed`` and the token counts of edges
    with an unbound end are stale; :meth:`state_key` and :meth:`close`
    read the state back as of the current stamp, leaving out firings
    resolved for a later start.  :meth:`close` writes it into the
    generic arrays and the heap, which stay the canonical state between
    calls.
    """

    # ``state`` of an unbound actor: queued for resolution, parked at a
    # known start, or else the stamp queue of the input edge it is
    # blocked on -- only tokens on that edge can unblock it.  A fed
    # actor's is the stamp queue it is blocked on, or anything else.
    _QUEUED, _PARKED = 1, 2

    def __init__(self, sim: SelfTimedSimulator, observed: frozenset) -> None:
        # The plan depends on the structure, the binding, the static
        # orders and ``observed`` alone, so the simulator keeps it across
        # calls and resets; everything below is built per call.
        plan = sim._plans.get(observed)
        if plan is None:
            plan = sim._plans[observed] = _UnboundPlan(sim, observed)
        n = len(sim._actor_names)
        self.sim = sim
        self.plan = plan
        self.n = n
        self.pos = pos = sim._stamp
        self.finished: List[Tuple[int, int, int, int]] = []
        self.deferred: List[Tuple[int, int]] = []
        self.pending: List[List[int]] = [[] for _ in sim._proc_names]
        self.state: List[object] = [None] * n
        # Instants handled outside word runs and in them.
        self.steps = self.run_instants = 0
        # The word runs (see :meth:`_run`): each one's next instant, its
        # fed actor's completion or wake-up, kept off the heap in a heap
        # of its own, and, per fed actor in a run, whether a member that
        # wins its processor before it, or after it, is ready.
        self.runner: List[Optional[tuple]] = [None] * n
        self.held: List[Tuple[int, int, int, int]] = []
        self.higher_ready: List[Optional[bool]] = [None] * n
        self.lower_ready: List[Optional[bool]] = [None] * n
        tokens = sim._tokens
        completed = sim._completed
        # Token count of each unbound-touching edge with no firing done.
        self.base: List[int] = [
            tokens[e] - p * completed[src] + c * sim._started[dst]
            for e, p, src, c, dst in plan.edges
        ]
        # Stamps of the tokens on each edge into an unbound actor, oldest
        # first, and each unbound actor's resolved firings not yet known
        # to be over, as (start, end).  Tokens already on an edge into a
        # fed actor are delivered: its queue starts empty.
        stamps: List[Optional[deque]] = [None] * len(tokens)
        for e in plan.unbound_inputs:
            stamps[e] = deque(repeat(pos, tokens[e]))
        for f in plan.fed:
            for e, _c in sim._in_rates[f]:
                stamps[e] = deque()
        self.fired: List[Optional[deque]] = [None] * n
        # Outputs to unbound and fed actors as (stamp queue, rate,
        # consumer, tokens that wake it), per actor.
        self.to_unbound = [
            [(stamps[e], p, v, c) for e, p, v, c in outs]
            for outs in plan.to_unbound
        ]
        # Per fed actor: inputs as (edge, stamp queue, rate).
        self.fed_ins: List[Optional[tuple]] = [None] * n
        for f in plan.fed:
            self.fed_ins[f] = tuple(
                (e, stamps[e], c) for e, c in sim._in_rates[f]
            )
            if not sim._ongoing[f]:
                self._refill(f)
        # Per unbound actor, for :meth:`_resolve`: inputs as (stamp queue,
        # rate, rate - 1), the plan's shape, outputs and firing records;
        # per member of a channel, instead, the ``send`` of the channel's
        # pass (see :meth:`_channel`), made from its entry: (a, b, c),
        # the stamp queues of (ser, tx, inj, nc, chan), the members'
        # firing records, ``a``'s outputs but ``inj``, ``b``'s shape
        # advance, ``c``'s cap, advance and fold, ``c``'s outputs.
        self.spec: List[Optional[tuple]] = [None] * n
        self.channel: List[Optional[Callable]] = [None] * n
        fired = self.fired
        for u in plan.actors:
            fl = fired[u] = deque()
            cap, advance, fold, autonomous = plan.shape[u]
            self.spec[u] = (
                tuple((stamps[e], c, c - 1) for e, c in sim._in_rates[u]),
                cap, advance, self.to_unbound[u], fold, fl, autonomous,
            )
        started = sim._started
        self.channel_started = 0
        entries = []
        self.passes = []
        for a, b, c, *channel_edges in plan.channels:
            # A member's firings end in the order they start, so its
            # records are a list the pass cuts at the current stamp.
            fired[a], fired[b], fired[c] = [], [], []
            entry = (a, b, c, *(stamps[e] for e in channel_edges),
                     fired[a], fired[b], fired[c],
                     [out for out in self.to_unbound[a] if out[2] != b],
                     plan.shape[b][1], *plan.shape[c][:3],
                     self.to_unbound[c])
            entries.append(entry)
            channel_pass = self._channel(entry)
            self.passes.append(channel_pass)
            for u in (a, b, c):
                self.spec[u] = None
                self.channel[u] = channel_pass.send
                self.channel_started += started[u]
        # Per fed actor in a word run, what its run segments hold fixed
        # (see :meth:`_run`): the plan's entry; outputs to stamp queues;
        # the channel entry its credits go to, that channel's pass, the
        # credit queue and whether the pass's ``c`` has bound consumers
        # (``None``, ``None``, ``None``, ``False`` without one); inputs,
        # duration and :attr:`pending` list.
        for f in plan.fed:
            if plan.runner[f] is not None:
                k = plan.credit[f]
                if k is None:
                    credit = (None, None, None, False)
                else:
                    entry = entries[k]
                    credit = (entry, self.channel[entry[0]], entry[6],
                              entry[15] is not None)
                self.runner[f] = plan.runner[f] + (
                    self.to_unbound[f], *credit, self.fed_ins[f],
                    sim._exec_time[f], self.pending[plan.runner[f][0]],
                )
        self.work: List[int] = list(plan.actors)
        if plan.actors:
            dirty = sim._actor_dirty
            for u in plan.actors:
                self.state[u] = self._QUEUED
                dirty[u] = False
            # Unbound actors leave the dirty set and the heap: their
            # firings in flight are resolved already.
            sim._dirty_actors = [
                i for i in sim._dirty_actors if fired[i] is None
            ]
            queue = sim._queue
            pulled = [
                entry for entry in queue if fired[entry[2]] is not None
            ]
            if pulled:
                queue[:] = [
                    entry for entry in queue if fired[entry[2]] is None
                ]
                heapq.heapify(queue)
                shape = plan.shape
                to_unbound = self.to_unbound
                for end, _seq, u, start in sorted(pulled):
                    fired[u].append((start << _PASS_BITS, end))
                    self._emit(to_unbound[u], shape[u][2], u, end)
        # The passes start once the firings in flight are recorded.
        for channel_pass in self.passes:
            next(channel_pass)
        sim._start_all_ready()
        self._resolve()

    # -- the hot path ---------------------------------------------------
    def advance(self, budget: int) -> int:
        """Handle the next instants, at most ``budget`` of them, and
        return how many: 0, after letting every resolved firing end,
        when there is none as the execution blocks.

        One instant is the next heap stamp or, if earlier, the next
        parked start, unless word runs (:meth:`_run`) take it: only they
        hand over more than one instant.  Their instants finish nothing
        but unobserved fed actors, so :attr:`finished` is empty after
        them.
        """
        queue = self.sim._queue
        if self.held:
            handled = self._run(budget)
            if handled:
                return handled
        elif queue:
            top = queue[0]
            idx = top[2]
            f = idx if idx >= 0 else ~idx - self.n
            if f >= 0 and self.runner[f] is not None:
                # A fed actor's instant may open a run (see :meth:`_run`)
                # if it is alone at its stamp.
                stamp = top[0]
                size = len(queue)
                if not ((size > 1 and queue[1][0] <= stamp)
                        or (size > 2 and queue[2][0] <= stamp)):
                    handled = self._run(budget)
                    if handled:
                        return handled
        deferred = self.deferred
        self.steps += 1
        if deferred and (not queue or deferred[0][0] < queue[0][0]):
            self.finished = []
            self._move_to(deferred[0][0])
            self._resolve()
            return 1
        if queue:
            self._step()
            return 1
        self.steps -= 1
        fired = self.fired
        last = max(
            (fired[u][-1][1] for u in self.plan.actors if fired[u]),
            default=self.pos,
        )
        if last > self.pos:
            self._move_to(last)
        return 0

    def _move_to(self, stamp: int) -> None:
        self.pos = self.sim._stamp = stamp
        self.sim.now = stamp >> _PASS_BITS

    def _step(self) -> None:
        """Handle the next heap stamp: its completions (collected in
        :attr:`finished`), deliveries and wake-ups, the starts they
        enable, then the unbound firings that follow."""
        sim = self.sim
        plan = self.plan
        queue = sim._queue
        stamp = queue[0][0]
        self._move_to(stamp)
        finished = self.finished = []
        heappop = heapq.heappop
        tokens = sim._tokens
        mark = sim._mark_actor
        to_bound = plan.to_bound
        n = self.n
        while queue and queue[0][0] == stamp:
            entry = heappop(queue)
            idx = entry[2]
            if idx < 0:
                u = ~idx
                if u < n:
                    for e, p, v in to_bound[u]:
                        tokens[e] += p
                        mark(v)
                else:
                    self._deliver(u - n)
                    mark(u - n)
                continue
            # A bound actor's firing ends: _finish_firing, except that
            # tokens for unbound and fed actors go to their stamp queues.
            finished.append(entry)
            for e, p, v in to_bound[idx]:
                tokens[e] += p
                mark(v)
            outs = self.to_unbound[idx]
            if outs:
                state = self.state
                for stamp_queue, p, v, c in outs:
                    if p == 1:
                        stamp_queue.append(stamp)
                    else:
                        stamp_queue.extend(repeat(stamp, p))
                    if state[v] is stamp_queue and len(stamp_queue) >= c:
                        state[v] = self._QUEUED
                        self.work.append(v)
            sim._ongoing[idx] -= 1
            sim._completed[idx] += 1
            mark(idx)
            pid = sim._proc_of[idx]
            if pid >= 0:
                waiting = self.pending[pid]
                if waiting:
                    for u in waiting:
                        if u < n:
                            for e, p, v in to_bound[u]:
                                tokens[e] += p
                                mark(v)
                        else:
                            self._deliver(u - n)
                            mark(u - n)
                    waiting.clear()
                sim._mark_proc_free(pid)
                if self.fed_ins[idx] is not None:
                    self._refill(idx)
        sim._start_all_ready()
        self._resolve()

    # -- fed actors -------------------------------------------------------
    def _batch_stamp(self, f: int) -> int:
        """The stamp at which fed ``f``'s next batch is complete (0 when
        its token counts hold it already); -1, with ``f`` set to wait on
        a stamp queue, without enough tokens."""
        tokens = self.sim._tokens
        at = 0
        for e, stamp_queue, c in self.fed_ins[f]:
            need = c - tokens[e]
            if need > 0:
                if len(stamp_queue) < need:
                    self.state[f] = stamp_queue
                    return -1
                t = stamp_queue[need - 1]
                if t > at:
                    at = t
        return at

    def _refill(self, f: int) -> None:
        """Give fed ``f``, which has no firing in flight, its next batch:
        now if its tokens have all arrived, else by a wake-up (see
        :meth:`_schedule`).  Without enough tokens ``f`` waits on a
        stamp queue."""
        at = self._batch_stamp(f)
        if at >= 0:
            self._schedule(f, at)

    def _schedule(self, f: int, at: int) -> None:
        """Deliver fed ``f``'s batch, complete at stamp ``at``: now if
        that has passed, else by a wake-up at ``at`` -- on the heap, or
        pending while the processor is busy past it, as a delivery of
        the batch's last token would be."""
        if at <= self.pos:
            self._deliver(f)
            return
        sim = self.sim
        pid = sim._proc_of[f]
        if sim._proc_busy[pid] > at >> _PASS_BITS:
            self.pending[pid].append(self.n + f)
            return
        heapq.heappush(sim._queue, (at, sim._seq, ~(self.n + f), 0))
        sim._seq += 1

    def _deliver(self, f: int) -> None:
        """Move fed ``f``'s next batch from its stamp queues to its
        token counts."""
        tokens = self.sim._tokens
        for e, stamp_queue, c in self.fed_ins[f]:
            need = c - tokens[e]
            if need > 0:
                tokens[e] = c
                for _ in range(need):
                    stamp_queue.popleft()

    # -- word runs ----------------------------------------------------------
    def _run(self, budget: int) -> int:
        """Handle word-run instants, at most ``budget``; return how many.

        A word run follows one fed actor ``f`` that wins its processor:
        its completion and, when its next batch is late, its wake-up,
        each kept off the heap (in :attr:`held` while another run goes
        on).  A run opens at a heap stamp that holds nothing but ``f``'s
        completion, or its wake-up while its processor is free.  The
        earliest held instant is handled while it comes strictly before
        the heap top, the earliest parked start and every other run's
        next instant and, for a completion, while nothing waits in
        :attr:`pending` for the processor it frees.  Otherwise every
        held instant goes onto the heap with the sequence number it was
        given, and the runs end.

        One run's instants, for as long as they come first, form a
        *segment*: one loop carries ``f`` through them word by word,
        with what stays fixed while it lasts (``f``'s inputs, duration,
        processor, consumers and channel) bound once.  The loop also
        keeps the segment's *horizon*, the earliest of the heap top,
        the parked starts and the held instants.  Only a resolution with
        work queued and a channel pass whose ``c`` has bound consumers
        can move it (a completion that hands its processor on ends the
        segment anyway), so it is taken again only after those.

        At a completion :meth:`_step` would finish ``f``, refill it and
        arbitrate for its processor among ``f``, the other members and
        ``f``'s bound consumers.  With no consumer ready that may start
        elsewhere or before ``f``, and no member ready that wins before
        ``f``, that arbitration starts ``f`` if its batch is there and,
        if not, nothing as long as no member that wins after ``f`` is
        ready either: ``f`` then starts here or at its wake-up, with
        nothing else to arbitrate.  A run's wake-up comes only after
        such a completion, and one that opens a run finds the processor
        free, where every member that could start has.  Members change
        readiness only through heap events and the instants of the runs
        whose fed actor or consumers share their processor (a run's
        instant ends those runs), so what a run learns of them
        (:attr:`higher_ready`, :attr:`lower_ready`; ``None`` until
        asked) holds for as long as it runs.  Otherwise the stamp ends
        as :meth:`_step` ends it, and so do the runs.

        A completion whose one token for a stamp queue is a channel's
        credit (:attr:`_UnboundPlan.credit`: the Fig. 4 ``d1`` and its
        ``__ncredit``) runs the channel's pass itself, where
        :meth:`_resolve` would have run it: after ``f`` starts if its
        batch is there, before its wake-up if the batch is late, and
        before ``f`` looks for a batch again if a word is not resolved
        yet.  Between instants the work stack is empty and the channel's
        ``b`` waits on the credit queue, so the credit would have put
        ``b`` alone on the stack and the pass would have come first.  A
        stamp that ends in the generic arbitration puts ``b`` on the
        stack instead, for the pass to follow the arbitration's starts.
        """
        sim = self.sim
        queue = sim._queue
        deferred = self.deferred
        held = self.held
        pending = self.pending
        runners = self.runner
        higher_ready = self.higher_ready
        lower_ready = self.lower_ready
        state = self.state
        tokens = sim._tokens
        ongoing = sim._ongoing
        completed = sim._completed
        started = sim._started
        busy = sim._proc_busy
        is_ready = sim._is_ready_idx
        work = self.work
        resolve = self._resolve
        horizon_of = self._horizon
        n = self.n
        heappop = heapq.heappop
        heappush = heapq.heappush
        self.finished = []
        count = 0
        arbitrated = False
        while count != budget:
            if queue and (not held or queue[0][0] < held[0][0]):
                # The heap top opens a run if nothing else happens at
                # its stamp.
                entry = queue[0]
                stamp = entry[0]
                idx = entry[2]
                f = idx if idx >= 0 else ~idx - n
                runner = runners[f] if f >= 0 else None
                size = len(queue)
                if (runner is None
                        or (size > 1 and queue[1][0] <= stamp)
                        or (size > 2 and queue[2][0] <= stamp)
                        or (deferred and deferred[0][0] <= stamp)):
                    break
                if idx >= 0:
                    if pending[runner[0]]:
                        break
                    higher_ready[f] = lower_ready[f] = None
                elif busy[runner[0]] > stamp >> _PASS_BITS:
                    break
                else:
                    # Every member that could start on the free
                    # processor has, so none is ready.
                    higher_ready[f] = lower_ready[f] = False
                heappop(queue)
            elif held:
                entry = held[0]
                stamp = entry[0]
                idx = entry[2]
                f = idx if idx >= 0 else ~idx - n
                runner = runners[f]
                size = len(held)
                if ((deferred and deferred[0][0] <= stamp)
                        or (idx >= 0 and pending[runner[0]])):
                    break
                if ((queue and queue[0][0] <= stamp)
                        or (size > 1 and held[1][0] <= stamp)
                        or (size > 2 and held[2][0] <= stamp)):
                    # Several runs' instants at one stamp.
                    group = self._group(stamp)
                    if group is None:
                        break
                    count += 1
                    if self._run_group(group, stamp):
                        arbitrated = True
                        break
                    continue
                heappop(held)
            else:
                break
            # ``f``'s segment: its instants, for as long as they come
            # first.  Runs that share its processors end at the first.
            (pid, higher, lower, order, consumers, conflicts, _touched, outs,
             channel, channel_pass, credits, folds, ins, duration,
             waiting) = runner
            if conflicts and held:
                self._end_runs(conflicts)
            horizon = horizon_of()
            while True:
                count += 1
                self.pos = stamp
                # The channel pass a completion's credit is handed to,
                # until it has run.
                credit = None
                if idx >= 0:
                    # The completion: _step's finish.
                    full = False
                    for e, p, _v, c, _lower in consumers:
                        t = tokens[e] + p
                        tokens[e] = t
                        if t >= c:
                            full = True
                    if credits is None:
                        self._emit(outs, None, f, stamp)
                    else:
                        credits.append(stamp)
                        credit = channel_pass
                    completed[f] += 1
                    arbitrated = higher_ready[f]
                    if arbitrated is None:
                        for m in higher:
                            if is_ready(m):
                                arbitrated = True
                                break
                        else:
                            arbitrated = False
                        higher_ready[f] = arbitrated
                    if full and not arbitrated:
                        # A consumer that may start now ends the runs,
                        # unless it waits on the processor behind ``f``.
                        for e, _p, v, c, lower_member in consumers:
                            if tokens[e] >= c:
                                if not lower_member:
                                    if is_ready(v):
                                        arbitrated = True
                                        break
                                elif not lower_ready[f] and is_ready(v):
                                    lower_ready[f] = True
                    # The stamp at which ``f``'s next batch is complete
                    # (0 when its token counts hold it already; -1, with
                    # ``f`` waiting on a stamp queue, without enough
                    # tokens), looked for again once if the tokens are
                    # not there.
                    looked = False
                    while True:
                        at = 0
                        for e, stamp_queue, c in ins:
                            need = c - tokens[e]
                            if need > 0:
                                if len(stamp_queue) < need:
                                    state[f] = stamp_queue
                                    at = -1
                                    break
                                t = stamp_queue[need - 1]
                                if t > at:
                                    at = t
                        if looked:
                            break
                        looked = True
                        if not arbitrated and not 0 <= at <= stamp:
                            arbitrated = lower_ready[f]
                            if arbitrated is None:
                                for m in lower:
                                    if is_ready(m):
                                        arbitrated = True
                                        break
                                else:
                                    arbitrated = order is not None and (
                                        is_ready(order[
                                            sim._order_pos[pid] % len(order)
                                        ])
                                    )
                                lower_ready[f] = arbitrated
                        if arbitrated or at >= 0:
                            break
                        # Nothing starts now.  The tokens ``f`` waits
                        # for may be resolved below: it stays out of
                        # that, and waits on a stamp queue only if they
                        # do not come.
                        state[f] = None
                        if credit is not None:
                            credit(stamp)
                            credit = None
                            if folds:
                                horizon = horizon_of()
                        if work:
                            resolve()
                            horizon = horizon_of()
                    if arbitrated:
                        ongoing[f] -= 1
                        if at >= 0:
                            self._schedule(f, at)
                        if credit is not None:
                            # What _emit would do: the pass waits on
                            # the work stack for the arbitration's
                            # starts.
                            state[channel[1]] = self._QUEUED
                            work.append(channel[1])
                        self._move_to(stamp)
                        self._arbitrate(f, pid, consumers)
                        break
                    if at < 0:
                        ongoing[f] -= 1
                        break
                    if at > stamp:
                        # On to the wake-up, the next instant unless
                        # something comes first.
                        if credit is not None:
                            credit(stamp)
                            credit = None
                            if folds:
                                horizon = horizon_of()
                        if work:
                            resolve()
                            horizon = horizon_of()
                        if at >= horizon or count == budget:
                            ongoing[f] -= 1
                            heappush(held, (at, sim._seq, ~(n + f), 0))
                            sim._seq += 1
                            break
                        # The wake-up: ``f``, alone ready on its free
                        # processor, starts.
                        count += 1
                        self.pos = stamp = at
                else:
                    # The wake-up that opened the segment.
                    ongoing[f] += 1
                # ``f`` starts now, on its batch.  It takes its processor
                # before the credit's words are resolved: a delivery they
                # make to it waits in ``pending``.
                for e, stamp_queue, c in ins:
                    need = c - tokens[e]
                    if need > 0:
                        tokens[e] = 0
                        while need:
                            stamp_queue.popleft()
                            need -= 1
                    else:
                        tokens[e] = -need
                now = stamp >> _PASS_BITS
                end = now + duration
                started[f] += 1
                busy[pid] = end
                seq = sim._seq
                sim._seq = seq + 1
                if credit is not None:
                    credit(stamp)
                    if folds:
                        horizon = horizon_of()
                if work:
                    resolve()
                    horizon = horizon_of()
                # On to the completion.
                stamp = end << _PASS_BITS | 1
                idx = f
                if stamp >= horizon or count == budget or waiting:
                    heappush(held, (stamp, seq, f, now))
                    break
            if arbitrated:
                break
        else:
            self._move_to(self.pos)
            self.run_instants += count
            return count
        for entry in held:
            heappush(queue, entry)
        held.clear()
        self._move_to(self.pos)
        self.run_instants += count
        return count

    def _horizon(self) -> int:
        """The earliest stamp of anything a word run's next instant must
        not reach: the heap top, the earliest parked start and the other
        runs' held instants (:data:`_NEVER` without any)."""
        queue = self.sim._queue
        horizon = queue[0][0] if queue else _NEVER
        deferred = self.deferred
        if deferred and deferred[0][0] < horizon:
            horizon = deferred[0][0]
        held = self.held
        if held and held[0][0] < horizon:
            horizon = held[0][0]
        return horizon

    def _group(self, stamp: int) -> Optional[list]:
        """The run instants at ``stamp``, taken off the held heap and the
        heap in (stamp, sequence) order, when they may form one instant
        of their own: each is one a run may handle, nothing else happens
        then, and no two of their fed actors touch each other's
        processor.  ``None``, with both heaps as they were, otherwise."""
        sim = self.sim
        queue = sim._queue
        held = self.held
        runners = self.runner
        n = self.n
        top = None
        if queue and queue[0][0] == stamp:
            size = len(queue)
            if ((size > 1 and queue[1][0] <= stamp)
                    or (size > 2 and queue[2][0] <= stamp)):
                return None
            top = queue[0]
        group = []
        while held and held[0][0] == stamp:
            group.append(heapq.heappop(held))
        if top is not None:
            insort(group, top)
        members = []
        for entry in group:
            idx = entry[2]
            f = idx if idx >= 0 else ~idx - n
            runner = runners[f] if f >= 0 else None
            if runner is None:
                break
            pid, touched = runner[0], runner[6]
            if (self.pending[pid] if idx >= 0
                    else sim._proc_busy[pid] > stamp >> _PASS_BITS):
                break
            clash = False
            for g_pid, g_touched in members:
                if g_pid in touched or pid in g_touched:
                    clash = True
                    break
            if clash:
                break
            members.append((pid, touched))
        if len(members) < len(group):
            for entry in group:
                if entry is not top:
                    heapq.heappush(held, entry)
            return None
        if top is not None:
            heapq.heappop(queue)
            idx = top[2]
            f = idx if idx >= 0 else ~idx - n
            # A run opens here (see :meth:`_run`).
            fresh = None if idx >= 0 else False
            self.higher_ready[f] = self.lower_ready[f] = fresh
        return group

    def _run_group(self, group: list, stamp: int) -> bool:
        """Handle one stamp of several independent runs' instants as
        :meth:`_step` would: every completion finished and every wake-up
        delivered, one arbitration, one resolution.  Each run's fed actor
        is handled as in :meth:`_run`, except that a blocked one waits
        for a wake-up from the heap.  Returns whether an actor needed
        the generic arbitration, which ends the runs."""
        sim = self.sim
        held = self.held
        runners = self.runner
        higher_ready = self.higher_ready
        lower_ready = self.lower_ready
        tokens = sim._tokens
        ongoing = sim._ongoing
        is_ready = sim._is_ready_idx
        n = self.n
        self.pos = sim._stamp = stamp
        sim.now = now = stamp >> _PASS_BITS
        marked = False
        for entry in group:
            idx = entry[2]
            f = idx if idx >= 0 else ~idx - n
            (pid, higher, lower, order, consumers, conflicts, _touched, outs,
             _entry, _pass, _credits, _folds, ins, duration,
             _waiting) = runners[f]
            if conflicts and held:
                self._end_runs(conflicts)
            if idx >= 0:
                # The completion, as in :meth:`_run`.
                for e, p, _v, _c, _lower in consumers:
                    tokens[e] += p
                self._emit(outs, None, f, stamp)
                sim._completed[f] += 1
                ongoing[f] -= 1
                generic = higher_ready[f]
                if generic is None:
                    generic = higher_ready[f] = any(
                        is_ready(m) for m in higher
                    )
                if not generic:
                    for e, _p, v, c, lower_member in consumers:
                        if tokens[e] >= c and is_ready(v):
                            if not lower_member:
                                generic = True
                                break
                            lower_ready[f] = True
                at = self._batch_stamp(f)
                if not generic and not 0 <= at <= stamp:
                    generic = lower_ready[f]
                    if generic is None:
                        generic = lower_ready[f] = any(
                            is_ready(m) for m in lower
                        ) or (
                            order is not None
                            and is_ready(
                                order[sim._order_pos[pid] % len(order)]
                            )
                        )
                    if not generic:
                        if at > 0:
                            heapq.heappush(
                                held, (at, sim._seq, ~(n + f), 0)
                            )
                            sim._seq += 1
                        continue
                if generic:
                    if at >= 0:
                        self._schedule(f, at)
                    mark = sim._mark_actor
                    for _e, _p, v, _c, _lower in consumers:
                        mark(v)
                    mark(f)
                    sim._mark_proc_free(pid)
                    marked = True
                    continue
            # ``f`` starts now, on its batch.
            ongoing[f] += 1
            self._deliver(f)
            for e, _stamp_queue, c in ins:
                tokens[e] -= c
            end = now + duration
            sim._started[f] += 1
            sim._proc_busy[pid] = end
            heapq.heappush(held, (end << _PASS_BITS | 1, sim._seq, f, now))
            sim._seq += 1
        if marked:
            sim._start_all_ready()
        self._resolve()
        return marked

    def _end_runs(self, actors: frozenset) -> None:
        """End the word runs of ``actors``: their held instants go onto
        the heap."""
        held = self.held
        n = self.n
        kept = []
        ended = []
        for entry in held:
            idx = entry[2]
            if (idx if idx >= 0 else ~idx - n) in actors:
                ended.append(entry)
            else:
                kept.append(entry)
        if ended:
            held[:] = kept
            heapq.heapify(held)
            queue = self.sim._queue
            for entry in ended:
                heapq.heappush(queue, entry)

    def _arbitrate(self, f: int, pid: int, consumers: tuple) -> None:
        """End a word run's completion stamp as :meth:`_step` ends it."""
        sim = self.sim
        mark = sim._mark_actor
        for _e, _p, v, _c, _lower in consumers:
            mark(v)
        mark(f)
        sim._mark_proc_free(pid)
        sim._start_all_ready()
        self._resolve()

    def _emit(self, outs: list, fold: Optional[int], u: int,
              end: int) -> None:
        """Send the tokens of ``u``'s firing ending at ``end``: onto the
        stamp queues ``outs`` (its :attr:`to_unbound`), queueing every
        consumer they unblock for :meth:`_resolve`, and, unless ``fold``
        is ``None``, to its bound consumers, whose one processor is
        ``fold`` (see :attr:`_UnboundPlan.shape`)."""
        state = self.state
        for stamp_queue, p, v, c in outs:
            if p == 1:
                stamp_queue.append(end)
            else:
                stamp_queue.extend(repeat(end, p))
            if state[v] is stamp_queue and len(stamp_queue) >= c:
                state[v] = self._QUEUED
                self.work.append(v)
        if fold is not None:
            sim = self.sim
            if fold >= 0 and sim._proc_busy[fold] > end >> _PASS_BITS:
                # The consumer's processor is busy past the delivery;
                # its firing ending frees it and applies the tokens (see
                # :meth:`_step`).
                self.pending[fold].append(u)
            else:
                heapq.heappush(sim._queue, (end, sim._seq, ~u, 0))
                sim._seq += 1

    def _resolve(self) -> None:
        """Resolve every unbound firing whose tokens have stamps, those of
        autonomous actors only if they start by the current stamp, and
        refill every fed actor those tokens unblock."""
        horizon = self.pos + 1
        deferred = self.deferred
        work = self.work
        state = self.state
        heappop = heapq.heappop
        queued = self._QUEUED
        while deferred and deferred[0][0] < horizon:
            u = heappop(deferred)[1]
            state[u] = queued
            work.append(u)
        if not work:
            return
        pos = self.pos
        spec = self.spec
        channel = self.channel
        emit = self._emit
        started = self.sim._started
        while work:
            u = work.pop()
            sp = spec[u]
            if sp is None:
                if channel[u] is None:
                    self._refill(u)
                else:
                    channel[u](pos)
                continue
            ins, cap, advance, outs, fold, fl, autonomous = sp
            while True:
                start = pos
                for stamp_queue, c, last in ins:
                    if len(stamp_queue) < c:
                        state[u] = stamp_queue
                        break
                    t = stamp_queue[last]
                    if t > start:
                        start = t
                else:
                    if cap and len(fl) >= cap:
                        t = fl[-cap][1]
                        if t > start:
                            start = t
                    if autonomous and start >= horizon:
                        state[u] = self._PARKED
                        heapq.heappush(deferred, (start, u))
                        break
                    for stamp_queue, c, last in ins:
                        if last:
                            for _ in range(c):
                                stamp_queue.popleft()
                        else:
                            stamp_queue.popleft()
                    end = (
                        (start & _TIME_PART) + advance if advance
                        else start + 1
                    )
                    if len(fl) > 16:
                        # Keep the records of firings not yet over.
                        while fl and fl[0][1] <= pos:
                            fl.popleft()
                    fl.append((start, end))
                    started[u] += 1
                    emit(outs, fold, u, end)
                    continue
                break

    def _channel(self, entry: tuple):
        """The pass of one Fig. 4 channel (see
        :attr:`_UnboundPlan.channels`), as a generator: once started,
        each ``send(pos)``, ``pos`` the current stamp, resolves every
        firing of the channel that :meth:`_resolve` would: ``a`` on each
        ``ser`` token and ``tx`` credit, ``b`` on each of ``a``'s words
        and ``nc`` credit, and ``c`` from each of ``b``'s end stamps,
        after the ``chan`` tokens there before this run or from a firing
        of ``b`` in flight at its start.  Each member keeps its firing
        records and count; only ``ser`` and ``nc`` tokens wake the
        channel again.  The tokens ``a`` and ``c`` send to stamp queues
        are sent as :meth:`_emit` sends them, inline.  The queues and
        records stay bound between passes, and so do the end stamps of
        ``a``'s and ``b``'s last firings: only the pass fires them, and
        a record it drops has ended by the stamp of every later pass."""
        (a, b, c, ser, tx, inj, nc, chan, fa, fb, fc, outs_a, advance_b,
         cap, advance_c, fold, outs_c) = entry
        state = self.state
        work = self.work
        queued = self._QUEUED
        started = self.sim._started
        emit = self._emit
        end_a = fa[-1][1] if fa else 0
        end_b = fb[-1][1] if fb else 0
        pos = yield
        while True:
            while True:
                while ser and tx:
                    start = ser.popleft()
                    t = tx.popleft()
                    if t > start:
                        start = t
                    if end_a > start:
                        start = end_a
                    if pos > start:
                        start = pos
                    end_a = start + 1
                    fa.append((start, end_a))
                    started[a] += 1
                    for stamp_queue, p, v, w in outs_a:
                        if p == 1:
                            stamp_queue.append(end_a)
                        else:
                            stamp_queue.extend(repeat(end_a, p))
                        if state[v] is stamp_queue and len(stamp_queue) >= w:
                            state[v] = queued
                            work.append(v)
                    inj.append(end_a)
                if chan:
                    start = chan.popleft()
                elif inj and nc:
                    start = inj.popleft()
                    t = nc.popleft()
                    if t > start:
                        start = t
                    if end_b > start:
                        start = end_b
                    if pos > start:
                        start = pos
                    end_b = (start & _TIME_PART) + advance_b
                    fb.append((start, end_b))
                    started[b] += 1
                    tx.append(end_b)
                    start = end_b
                else:
                    break
                if cap and len(fc) >= cap and fc[-cap][1] > start:
                    start = fc[-cap][1]
                end = (start & _TIME_PART) + advance_c
                fc.append((start, end))
                started[c] += 1
                for stamp_queue, p, v, w in outs_c:
                    if p == 1:
                        stamp_queue.append(end)
                    else:
                        stamp_queue.extend(repeat(end, p))
                    if state[v] is stamp_queue and len(stamp_queue) >= w:
                        state[v] = queued
                        work.append(v)
                if fold is not None:
                    emit((), fold, c, end)
            if len(fc) > 32:
                # Keep the records of firings not yet over.  ``b`` fires
                # at most as often as ``c``, and ``a`` at most its
                # credits more.
                del fa[:bisect_right(fa, pos, key=_END)]
                del fb[:bisect_right(fb, pos, key=_END)]
                del fc[:bisect_right(fc, pos, key=_END)]
            state[a] = ser
            state[b] = nc
            state[c] = None
            pos = yield

    # -- reading the state back -------------------------------------------
    def _state_at_pos(self):
        """(started, completed, tokens, in-flight unbound firings as
        (actor, start, end)) as of the current stamp."""
        sim = self.sim
        plan = self.plan
        pos = self.pos
        started = list(sim._started)
        completed = list(sim._completed)
        live: List[Tuple[int, int, int]] = []
        for u in plan.actors:
            # Every firing of u ever started is over unless recorded with
            # a later end; one recorded with a later start is not begun.
            ahead = not_over = 0
            for start, end in self.fired[u]:
                if start > pos:
                    ahead += 1
                elif end > pos:
                    not_over += 1
                    live.append((u, start, end))
            started[u] -= ahead
            completed[u] = started[u] - not_over
        tokens = list(sim._tokens)
        for (e, p, src, c, dst), base in zip(plan.edges, self.base):
            tokens[e] = base + p * completed[src] - c * started[dst]
        return started, completed, tokens, live

    def state_key(self) -> Tuple:
        """:meth:`SelfTimedSimulator.state_key` of the event-by-event
        execution at the current stamp."""
        sim = self.sim
        now = sim.now
        _started, _completed, tokens, live = self._state_at_pos()
        firings = [
            (u, (end >> _PASS_BITS) - now) for u, _start, end in live
        ]
        firings.extend(
            (idx, (end >> _PASS_BITS) - now)
            for end, _seq, idx, _start in sim._queue + self.held
            if idx >= 0
        )
        firings.sort()
        return (tuple(tokens), tuple(firings), sim._order_part())

    def close(self) -> None:
        """Write the state at the current stamp into the simulator: counts,
        tokens, and the firings in flight as heap entries; count the
        instants handled (``sim.instants``, ``sim.run_instants``)."""
        count("sim.instants", self.steps + self.run_instants)
        count("sim.run_instants", self.run_instants)
        for channel_pass in self.passes:
            channel_pass.close()
        sim = self.sim
        # Held wake-ups are dropped with the deliveries: the tokens are
        # read back below.
        for entry in self.held:
            if entry[2] >= 0:
                heapq.heappush(sim._queue, entry)
        self.held.clear()
        if not self.plan.actors:
            return
        started, completed, tokens, live = self._state_at_pos()
        count("sim.channel_firings", sum(
            started[u] for channel in self.plan.channels
            for u in channel[:3]
        ) - self.channel_started)
        sim._started[:] = started
        sim._completed[:] = completed
        sim._tokens[:] = tokens
        ongoing = sim._ongoing
        for u in self.plan.actors:
            ongoing[u] = 0
        queue = [entry for entry in sim._queue if entry[2] >= 0]
        for u, start, end in sorted(live, key=lambda f: (f[1], f[0])):
            ongoing[u] += 1
            queue.append((end, sim._seq, u, start >> _PASS_BITS))
            sim._seq += 1
        heapq.heapify(queue)
        sim._queue[:] = queue
