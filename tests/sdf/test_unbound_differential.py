"""Differential tests of the arithmetic firings against the reference.

The lean loops of :class:`~repro.sdf.simulation.SelfTimedSimulator`
(``run_throughput`` and ``run_until`` without a trace) fire every unbound,
unhooked, unobserved actor by arithmetic instead of through the
completion heap.  These tests drive them over graphs built for that path
and compare with the full-rescan oracle
(:mod:`tests.sdf.simulation_reference`) after every return: ``now``, the
completed and started counts, tokens, firings in flight and quiescence.
The state-space analysis is also checked key by key: every
:meth:`state_key` the lean loop takes at an iteration boundary must equal
the one the event-by-event :meth:`step` loop shows there.

Graph families:

* Fig. 4 expansions (:func:`repro.comm.model.expand_channel`) of random
  multi-rate applications on one to three tiles, with PE and CA
  (de)serialization, ``words_in_flight`` 1-3, tokens of 1-40 words and
  static orders in which the PE's serialization work interleaves;
* the random bounded graphs of ``test_simulation_differential.py``,
  partly bound: zero-time unbound chains, multi-rate unbound actors,
  unlimited auto-concurrency and cycles of unbound actors only;
* three-tile rings of Fig. 4 channels over the ranges the one-pass
  channel resolution must cover (``channel_case``);
* random word-run set-ups whose ``d1`` hands each credit straight to its
  channel's pass (``credit_case``), checked also against the same run
  with every credit on the work stack.

The seed count per family follows ``FUZZ_SCENARIOS`` (tier-1: 25).
"""

import heapq
import os
import random
import sys
from functools import partial

import pytest

from repro import counters
from repro.comm.model import expand_channel
from repro.comm.params import ChannelParameters
from repro.comm.serialization import CASerialization, PESerialization
from repro.exceptions import DeadlockError, ReproError
from repro.sdf import simulation
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector
from repro.sdf.simulation import SelfTimedSimulator
from tests.sdf.simulation_reference import (
    ReferenceSelfTimedSimulator,
    reference_analyze_throughput,
)
from tests.sdf.static_orders import derive_static_orders
from tests.sdf.test_simulation_differential import (
    random_binding,
    random_bounded_graph,
)

SEEDS = range(max(5, int(os.environ.get("FUZZ_SCENARIOS", "25"))))
MAX_ITERATIONS = 2_000


def random_comm_graph(rng: random.Random):
    """A random application mapped onto 1-3 tiles, every inter-tile edge
    expanded into the Fig. 4 model.  Returns (graph, processor_of,
    application actors)."""
    n = rng.randint(2, 4)
    q = [rng.randint(1, 3) for _ in range(n)]
    g = SDFGraph(f"comm{rng.randrange(1 << 16)}")
    apps = [f"a{i}" for i in range(n)]
    for name in apps:
        g.add_actor(name, execution_time=rng.randint(1, 30))
    pairs = [(i, i + 1) for i in range(n - 1)]
    if n > 2 and rng.random() < 0.5:
        pairs.append((0, n - 1))
    for k, (src, dst) in enumerate(pairs):
        m = rng.randint(1, 2)
        g.add_edge(
            f"e{k}", apps[src], apps[dst],
            production=m * q[dst], consumption=m * q[src],
            initial_tokens=rng.choice((0, 0, m * q[src])),
            token_size=4 * rng.randint(1, 40),
        )
    tiles = [f"t{i}" for i in range(rng.randint(1, 3))]
    tile_of = {name: rng.choice(tiles) for name in apps}
    uses_ca = {tile: rng.random() < 0.4 for tile in tiles}

    def model(tile):
        if uses_ca[tile]:
            return CASerialization(rng.randint(0, 8), rng.randint(0, 2))
        return PESerialization(rng.randint(0, 12), rng.randint(0, 3))

    def resource(tile):
        return f"ca_{tile}" if uses_ca[tile] else tile

    processor_of = dict(tile_of)
    for edge in list(g.explicit_edges()):
        p, c, d0 = edge.production, edge.consumption, edge.initial_tokens
        src_tile, dst_tile = tile_of[edge.src], tile_of[edge.dst]
        if src_tile == dst_tile:
            capacity = p + c + d0 + rng.randint(0, 2)
            g.add_edge(
                f"buf__{edge.name}", edge.dst, edge.src,
                production=c, consumption=p,
                initial_tokens=capacity - d0, implicit=True,
            )
            continue
        names = expand_channel(
            g, edge.name,
            ChannelParameters(
                words_in_flight=rng.randint(1, 3),
                network_buffer_words=rng.randint(0, 2),
                injection_cycles_per_word=rng.randint(0, 3),
                channel_latency=rng.randint(0, 6),
            ),
            model(src_tile),
            alpha_src=p + rng.randint(0, 2),
            alpha_dst=max(c, d0) + c + rng.randint(0, 2),
            deserialization=model(dst_tile),
        )
        processor_of[names.s1] = resource(src_tile)
        processor_of[names.d1] = resource(dst_tile)
        processor_of[names.d2] = resource(dst_tile)
    return g, processor_of, apps


def comm_case(seed, with_orders):
    rng = random.Random(7000 + seed)
    graph, processor_of, apps = random_comm_graph(rng)
    kwargs = {"processor_of": processor_of}
    if with_orders:
        # Orders list application actors only: the PE's serialization
        # work runs interleaved.
        kwargs["static_order"] = derive_static_orders(
            graph, processor_of, apps
        )
    return graph, kwargs, apps


def bounded_case(seed):
    rng = random.Random(8000 + seed)
    graph = random_bounded_graph(rng)
    kwargs = {"auto_concurrency": rng.choice((1, 2, None))}
    if rng.random() < 0.5:
        kwargs["processor_of"] = random_binding(rng, graph)
    return graph, kwargs, rng


def autonomous_case(seed):
    """An all-unbound cycle nothing observed feeds -- it could fire
    forever on its own tokens -- driving an observed consumer ``C`` that
    keeps up with it (so the graph stays bounded), and an unbound tail."""
    rng = random.Random(10_000 + seed)
    k = rng.randint(1, 3)
    g = SDFGraph(f"auto{seed}")
    times = [rng.randint(0, 5) for _ in range(k)]
    times[rng.randrange(k)] += 1  # no zero-time cycle
    tokens = rng.randint(1, k)
    for i, t in enumerate(times):
        g.add_actor(f"x{i}", execution_time=t)
    for i in range(k):
        g.add_edge(f"x{i}x{(i + 1) % k}", f"x{i}", f"x{(i + 1) % k}",
                   initial_tokens=tokens if i == k - 1 else 0)
    g.add_actor("C", execution_time=rng.randint(0, sum(times) // tokens))
    g.add_actor("T", execution_time=rng.randint(0, 3))
    g.add_edge("xC", f"x{k - 1}", "C")
    g.add_edge("CT", "C", "T")
    g.add_edge("TC", "T", "C", initial_tokens=rng.randint(1, 2))
    # The reference actor first: graph.actors[0] is the analysis's.
    order = ["C"] + [a.name for a in g if a.name != "C"]
    ordered = SDFGraph(g.name)
    for name in order:
        actor = g.actor(name)
        ordered.add_actor(name, execution_time=actor.execution_time)
    for edge in g.edges:
        ordered.add_edge(edge.name, edge.src, edge.dst,
                         initial_tokens=edge.initial_tokens)
    kwargs = {"auto_concurrency": rng.choice((1, 2))}
    if rng.random() < 0.5:
        kwargs["processor_of"] = {"C": "p"}
    return ordered, kwargs


def assert_same_state(fast, slow):
    assert fast.now == slow.now
    assert fast.completed == slow.completed
    assert fast.started == slow.started
    assert fast.tokens == slow.tokens
    assert fast.ongoing_firings() == slow.ongoing_firings()
    assert fast.is_quiescent() == slow.is_quiescent()


# -- the state-space analysis ----------------------------------------------
def check_throughput(graph, kwargs, monkeypatch):
    """Result, every boundary key and the final state against the
    step()-driven execution; the result also against the oracle."""
    ref = graph.actors[0].name
    reps = repetition_vector(graph)[ref]
    keys = []
    lean_key = simulation._UnboundRun.state_key

    def recorded(run):
        key = lean_key(run)
        keys.append(key)
        return key

    monkeypatch.setattr(simulation._UnboundRun, "state_key", recorded)
    fast = SelfTimedSimulator(graph, **kwargs)
    try:
        result = fast.run_throughput(ref, reps, MAX_ITERATIONS)
    except ReproError as error:
        result = type(error)
    try:
        expected = reference_analyze_throughput(
            graph, max_iterations=MAX_ITERATIONS, **kwargs
        )
    except ReproError as error:
        expected = type(error)
    if result is DeadlockError and expected is DeadlockError:
        # The oracle runs an untimed deadlock check first; the lean loop
        # must block all the same, at the instant step() blocks.
        pass
    else:
        assert result == expected

    stepped = SelfTimedSimulator(graph, **kwargs)
    boundaries = 0
    stepped_keys = []
    while len(stepped_keys) < len(keys):
        assert stepped.step(), "step() blocked before the lean loop did"
        done = stepped.completed_of(ref) // reps
        if done > boundaries:
            boundaries = done
            stepped_keys.append(stepped.state_key())
    assert keys == stepped_keys
    if result is DeadlockError:
        while stepped.step():
            pass
    assert_same_state(fast, stepped)


@pytest.mark.parametrize("with_orders", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_comm_throughput_matches(seed, with_orders, monkeypatch):
    graph, kwargs, _apps = comm_case(seed, with_orders)
    check_throughput(graph, kwargs, monkeypatch)


@pytest.mark.parametrize("seed", SEEDS)
def test_bounded_throughput_matches(seed, monkeypatch):
    graph, kwargs, _rng = bounded_case(seed)
    check_throughput(graph, kwargs, monkeypatch)


@pytest.mark.parametrize("seed", SEEDS)
def test_autonomous_throughput_matches(seed, monkeypatch):
    graph, kwargs = autonomous_case(seed)
    check_throughput(graph, kwargs, monkeypatch)


# -- the countdown loop ------------------------------------------------------
def oracle_until(slow, targets, max_steps=1_000_000):
    """Step the oracle until every target is met; False if it blocks."""
    for _ in range(max_steps):
        completed = slow.completed
        if all(completed[a] >= n for a, n in targets.items()):
            return True
        if not slow.step():
            return False
    raise AssertionError("oracle did not reach the targets")


def series_hooks(rng, graph, actors):
    """Data-dependent durations for ``actors``, in the production form
    ``{actor: fn(k)}`` and the oracle form ``fn(actor, k)``."""
    series = {a: [rng.randint(0, 9) for _ in range(4)] for a in actors}

    def duration(actor, k):
        values = series.get(actor)
        if values is None:
            return graph.actor(actor).execution_time
        return values[k % len(values)]

    return {a: partial(duration, a) for a in actors}, duration


def check_run_until(graph, kwargs, hooks, target_sets):
    """Consecutive run_until calls on one simulator (the platform's
    warm-up, then measure) against the oracle stepped to the same
    targets, with the counted-down completion order."""
    production_hooks, oracle_hooks = hooks
    fast = SelfTimedSimulator(
        graph, execution_time_of=production_hooks, **kwargs
    )
    slow = ReferenceSelfTimedSimulator(
        graph, execution_time_of=oracle_hooks, record_trace=True, **kwargs
    )
    for targets in target_sets:
        order = []
        counted = {a: n - slow.completed[a] for a, n in targets.items()}
        seen = len(slow.trace.firings)
        reached = oracle_until(slow, targets)
        if reached:
            fast.run_until(targets, 1_000_000, order)
        else:
            with pytest.raises(DeadlockError):
                fast.run_until(targets, 1_000_000, order)
        assert_same_state(fast, slow)
        expected = []
        for firing in slow.trace.firings[seen:]:
            if counted.get(firing.actor, 0) > 0:
                counted[firing.actor] -= 1
                expected.append(firing.actor)
        assert order == expected
        if not reached:
            return
    # The state a lean call leaves is the one step() continues from.
    for _ in range(20):
        assert sorted(fast.step()) == sorted(slow.step())
    assert_same_state(fast, slow)


@pytest.mark.parametrize("with_orders", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_comm_run_until_matches(seed, with_orders):
    graph, kwargs, apps = comm_case(seed, with_orders)
    rng = random.Random(9000 + seed)
    hooked = [a for a in apps if rng.random() < 0.5]
    q = repetition_vector(graph)
    warmup = rng.randint(1, 3)
    target_sets = [
        {a: q[a] * warmup for a in apps},
        {a: q[a] * (warmup + rng.randint(1, 4)) for a in apps},
    ]
    check_run_until(
        graph, kwargs, series_hooks(rng, graph, hooked), target_sets
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_bounded_run_until_matches(seed):
    graph, kwargs, rng = bounded_case(seed)
    observed = rng.sample([a.name for a in graph], rng.randint(1, 2))
    target_sets = [
        {a: rng.randint(1, 6) for a in observed},
        {a: rng.randint(4, 12) for a in observed},
    ]
    check_run_until(graph, kwargs, series_hooks(rng, graph, ()), target_sets)


@pytest.mark.parametrize("seed", SEEDS)
def test_autonomous_run_until_matches(seed):
    graph, kwargs = autonomous_case(seed)
    rng = random.Random(11_000 + seed)
    target_sets = [{"C": rng.randint(1, 5)}, {"C": rng.randint(6, 12)}]
    check_run_until(graph, kwargs, series_hooks(rng, graph, ()), target_sets)


def test_zero_time_unbound_cycle_stays_bounded_by_max_steps():
    """A zero-time all-unbound cycle fires forever at t=0; the lean loop
    must spend its instants on it one pass at a time, as step() does,
    not resolve it without end."""
    g = SDFGraph("spin")
    g.add_actor("C", execution_time=3)
    g.add_actor("x0", execution_time=0)
    g.add_actor("x1", execution_time=0)
    g.add_edge("x0x1", "x0", "x1")
    g.add_edge("x1x0", "x1", "x0", initial_tokens=1)
    g.add_edge("x1C", "x1", "C")
    sim = SelfTimedSimulator(g)
    assert sim.run_until({"C": 1}, max_steps=50) == 0
    assert sim.completed["C"] == 0
    assert 0 < sim.completed["x0"] <= 50


# -- passes ------------------------------------------------------------------
def credit_race(interleaved_hops: int) -> SDFGraph:
    """``S`` ends at t=5 and feeds two chains of zero-time actors: two
    unbound hops to ``X``, the head of tile ``t``'s static order, and
    ``interleaved_hops`` hops on processor ``r`` (fired event by event) to
    ``I``, interleaved serialization work on ``t``.  ``X``'s token
    arrives in pass 2 of t=5 and ``I``'s in pass ``interleaved_hops``.
    Interleaved work wins a tie, so with two hops ``I`` runs first and
    with three ``X`` does: a delivery one pass early or late flips one of
    the two."""
    g = SDFGraph(f"race{interleaved_hops}")
    g.add_actor("S", execution_time=5)
    g.add_actor("X", execution_time=4)
    g.add_actor("I", execution_time=3)
    for chain, target, hops in (("u", "X", 2), ("w", "I", interleaved_hops)):
        previous = "S"
        for k in range(hops):
            g.add_actor(f"{chain}{k}", execution_time=0)
            g.add_edge(f"{previous}_{chain}{k}", previous, f"{chain}{k}")
            previous = f"{chain}{k}"
        g.add_edge(f"{previous}_{target}", previous, target)
        g.add_edge(f"{target}_back", target, "S", initial_tokens=1)
    return g


def race_binding(hops):
    processor_of = {"S": "q", "X": "t", "I": "t"}
    processor_of.update({f"w{k}": "r" for k in range(hops)})
    return {
        "processor_of": processor_of,
        "static_order": {"q": ["S"], "t": ["X"]},
    }


@pytest.mark.parametrize("hops, first", [(2, "I"), (3, "X")])
def test_zero_time_chain_reaches_its_consumer_in_the_right_pass(
    hops, first
):
    graph = credit_race(hops)
    race = race_binding(hops)
    # Stop at X's first completion: t=9 if X won the tile, t=12 if not.
    targets = {"X": 1}
    fast = SelfTimedSimulator(graph, **race)
    fast.run_until(targets, 1_000)
    slow = ReferenceSelfTimedSimulator(graph, record_trace=True, **race)
    assert oracle_until(slow, targets)
    assert_same_state(fast, slow)
    winner = min(
        (f for f in slow.trace.firings if f.actor in "XI"),
        key=lambda f: f.start,
    )
    assert (winner.actor, winner.start) == (first, 5)
    result = SelfTimedSimulator(graph, **race).run_throughput("S", 1, 100)
    assert result == reference_analyze_throughput(
        graph, reference_actor="S", max_iterations=100, **race
    )


# -- word runs ---------------------------------------------------------------
def word_run_case(layout, rival, x_time, back_channel=0, twin=False,
                  words=10, times=(9, 7, 13), tap=False, spill=False,
                  flight=2, latency=2, tap_on=None, echo=None):
    """One Fig. 4 channel from ``A`` on ``p0`` to ``B`` on ``p1``, whose
    ``d1`` (6 cycles a word) runs words back to back, plus:

    * ``rival``: ``R`` on ``p1``, fed by ``X`` on ``px`` (``x_time``
      cycles a firing, its completions foreign to the run), added
      before the expansion (``"higher"``: it wins ``p1`` before ``d1``)
      or after it (``"lower"``);
    * ``back_channel``: if positive, a second channel from ``B`` back
      to ``C`` on ``p0`` (``back_channel`` cycles a firing), whose ``s3``
      credits land on ``p1`` as pending deliveries while ``d1`` holds it
      -- with a slow ``C`` they are what ``B`` waits for;
    * ``twin``: a second channel into ``B``, from ``A2`` on ``p0``: its
      ``d1`` shares ``d1``'s resource, and its wake-ups wait as pending
      entries while ``d1`` holds it;
    * ``tap``: ``T`` on ``d1``'s resource (or on ``tap_on``) also
      takes the channel's words, a token's worth a firing, and returns
      credits to ``A``: the one-pass channel resolution then delivers to
      the resource ``d1`` holds (or to another one, onto the heap);
    * ``echo``: if not ``None``, ``s2`` also sends each word to the
      unbound ``Y`` (``echo`` cycles), which passes it to ``W`` on a
      processor of its own; ``W`` returns credits to ``A``: a second
      stamp-queue output of ``s2`` whose consumer delivers to a bound
      actor;
    * ``spill``: ``d1`` also sends each word to the unbound ``Z``, which
      passes it to ``d2``: a second output to a stamp queue;
    * ``flight`` and ``latency``: the channels' words in flight and
      cycles a word;
    * ``layout``: ``greedy`` (as static-order derivation runs it),
      ``orders`` (``p1`` in a static order of its application actors,
      ``d1`` interleaved), ``ca`` (``d1``/``d2`` on a communication
      assist) or ``split`` (``d1`` on the assist, ``d2`` on ``p1``).

    Returns (graph, simulator keyword arguments, application actors)."""
    g = SDFGraph(f"run-{layout}-{rival}-{x_time}-{back_channel}")
    a_time, b_time, a2_time = times
    g.add_actor("A", execution_time=a_time)
    g.add_actor("B", execution_time=b_time)
    apps = ["A", "B"]

    def add_rival():
        g.add_actor("X", execution_time=x_time)
        g.add_actor("R", execution_time=4)
        g.add_edge("AX", "A", "X")
        g.add_edge("XR", "X", "R")
        g.add_edge("RA", "R", "A", initial_tokens=2)
        apps.extend(["X", "R"])

    if rival == "higher":
        add_rival()
    g.add_edge("AB", "A", "B", token_size=4 * words)
    if twin:
        g.add_actor("A2", execution_time=a2_time)
        g.add_edge("A2B", "A2", "B", token_size=4 * (words - 2))
        apps.append("A2")
    if back_channel:
        g.add_actor("C", execution_time=back_channel)
        g.add_edge("BC", "B", "C", token_size=8)
        g.add_edge("CA", "C", "A", initial_tokens=2)
        apps.append("C")
    deserialization = (
        PESerialization(5, 6) if layout in ("greedy", "orders")
        else CASerialization(2, 6)
    )
    params = ChannelParameters(
        words_in_flight=flight, network_buffer_words=1,
        injection_cycles_per_word=1, channel_latency=latency,
    )
    names = expand_channel(
        g, "AB", params, PESerialization(5, 2),
        alpha_src=2, alpha_dst=2, deserialization=deserialization,
    )
    processor_of = {"A": "p0", "B": "p1", names.s1: "p0"}
    channels = [names]
    if twin:
        channels.append(expand_channel(
            g, "A2B", params, PESerialization(5, 2),
            alpha_src=1, alpha_dst=1, deserialization=deserialization,
        ))
        processor_of.update({"A2": "p0", channels[1].s1: "p0"})
    if rival == "lower":
        add_rival()
    for channel in channels:
        processor_of[channel.d1] = (
            "p1" if layout in ("greedy", "orders") else "ca1"
        )
        processor_of[channel.d2] = "ca1" if layout == "ca" else "p1"
    if tap:
        g.add_actor("T", execution_time=3)
        g.add_edge("tap", names.c2, "T", consumption=words)
        g.add_edge("TA", "T", "A", initial_tokens=2)
        processor_of["T"] = tap_on or processor_of[names.d1]
        apps.append("T")
    if echo is not None:
        g.add_actor("Y", execution_time=echo)
        g.add_actor("W", execution_time=1)
        g.add_edge("echo", names.s2, "Y")
        g.add_edge("YW", "Y", "W")
        g.add_edge("WA", "W", "A", consumption=words,
                   initial_tokens=2 * words)
        processor_of["W"] = "pw"
        apps.append("W")
    if spill:
        g.add_actor("Z", execution_time=0)
        g.add_edge("spill", names.d1, "Z")
        g.add_edge("Zd2", "Z", names.d2, consumption=words)
    if rival:
        processor_of.update({"X": "px", "R": "p1"})
    if back_channel:
        back = expand_channel(
            g, "BC", params, PESerialization(3, 2), alpha_src=1, alpha_dst=2,
        )
        processor_of.update({
            "C": "p0", back.s1: "p1", back.d1: "p0", back.d2: "p0",
        })
    kwargs = {"processor_of": processor_of}
    if layout == "orders":
        kwargs["static_order"] = derive_static_orders(
            g, processor_of, apps
        )
    return g, kwargs, apps


WORD_RUN_CASES = [
    (layout, rival, x_time, back, twin)
    for layout in ("greedy", "orders", "ca", "split")
    for rival, x_times in (
        (None, (0,)), ("higher", (6, 8, 11, 12, 17)), ("lower", (5, 12, 23)),
    )
    for x_time in x_times
    for back, twin in ((0, False), (3, False), (40, False), (0, True))
]


@pytest.mark.parametrize("layout, rival, x_time, back, twin", WORD_RUN_CASES)
def test_word_run_cases_match(layout, rival, x_time, back, twin,
                              monkeypatch):
    """Each exit of a word run -- a member that wins before ``d1`` made
    ready by a foreign completion at ``d1``'s stamp, one that waits
    behind it, ``d2`` made ready inside a run, pending deliveries for the
    processor, ``s3`` credits resolved inside the run, iteration
    boundaries -- against the oracle and key by key against step()."""
    graph, kwargs, apps = word_run_case(layout, rival, x_time, back, twin)
    with counters.collect() as scope:
        check_throughput(graph, kwargs, monkeypatch)
    assert scope.snapshot("sim")["run_instants"] > 0
    q = repetition_vector(graph)
    check_run_until(
        graph, kwargs, series_hooks(random.Random(x_time), graph, ()),
        [{a: q[a] * 3 for a in apps}, {a: q[a] * 7 for a in apps}],
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_twin_word_runs_match(seed, monkeypatch):
    """Two channels into ``B``: their ``d1`` runs share a resource (or,
    split, ``d2``'s), so their instants at one stamp must not be taken
    apart."""
    rng = random.Random(12_000 + seed)
    graph, kwargs, apps = word_run_case(
        rng.choice(("greedy", "ca", "split")), None, 0,
        twin=True, words=rng.randint(10, 13),
        times=(rng.randint(1, 12), rng.randint(1, 9), rng.randint(1, 12)),
    )
    check_throughput(graph, kwargs, monkeypatch)
    q = repetition_vector(graph)
    check_run_until(
        graph, kwargs, series_hooks(rng, graph, ()),
        [{a: q[a] * 2 for a in apps}, {a: q[a] * 5 for a in apps}],
    )


@pytest.mark.parametrize("back", [3, 40])
@pytest.mark.parametrize("layout", ["greedy", "orders", "ca", "split"])
def test_max_steps_expires_inside_word_runs(layout, back):
    """Stopped after any number of instants, in or out of a run, the
    lean loop leaves the state step() has at that stamp, and goes on
    from it to the same end."""
    graph, kwargs, apps = word_run_case(layout, "lower", 12, back)
    targets = {a: 4 for a in apps}
    final = SelfTimedSimulator(graph, **kwargs)
    final.run_until(targets, 1_000_000)
    for budget in range(1, 160, 3):
        fast = SelfTimedSimulator(graph, **kwargs)
        fast.run_until(targets, budget)
        stepped = SelfTimedSimulator(graph, **kwargs)
        while stepped._stamp < fast._stamp:
            assert stepped.step()
        assert stepped._stamp == fast._stamp
        assert_same_state(fast, stepped)
        fast.run_until(targets, 1_000_000)
        assert_same_state(fast, final)


@pytest.mark.parametrize("seed", [46, 60, 92])
def test_word_runs_that_meet_share_no_processor(seed, monkeypatch):
    """Comm graphs whose word runs meet at one stamp: runs touching each
    other's processors there must not be handled as one group instant
    (beyond tier-1's seed range, so pinned here)."""
    graph, kwargs, apps = comm_case(seed, False)
    check_throughput(graph, kwargs, monkeypatch)
    q = repetition_vector(graph)
    check_run_until(
        graph, kwargs, series_hooks(random.Random(seed), graph, ()),
        [{a: q[a] * 2 for a in apps}, {a: q[a] * 5 for a in apps}],
    )


def test_short_tokens_feed_no_word_runs(monkeypatch):
    """A channel of fewer than ``_MIN_WORDS`` words a token keeps its
    ``d1`` on heap deliveries: no run instants, the same execution."""
    graph, kwargs, apps = word_run_case(
        "orders", "lower", 12, words=simulation._MIN_WORDS - 1
    )
    with counters.collect() as scope:
        check_throughput(graph, kwargs, monkeypatch)
    assert scope.snapshot("sim")["run_instants"] == 0
    q = repetition_vector(graph)
    check_run_until(
        graph, kwargs, series_hooks(random.Random(1), graph, ()),
        [{a: q[a] * 3 for a in apps}],
    )


def test_word_runs_carry_the_mjpeg_mapping():
    """The 2-tile FSL MJPEG mapping hands most of its instants to word
    runs, in the analysis and in static-order derivation."""
    from repro.arch.template import architecture_from_template
    from repro.flow.design_flow import DesignFlow
    from repro.flow.spec import build_case_study_app

    with counters.collect() as scope:
        DesignFlow(
            build_case_study_app("gradient"),
            architecture_from_template(2, "fsl"),
        ).run(measure=False)
    sim = scope.snapshot("sim")
    assert sim["run_instants"] > sim["instants"] // 2 > 0


@pytest.mark.parametrize("tiles, interconnect, expected", [
    (2, "fsl", {"instants": 1521, "run_instants": 1328,
                "channel_firings": 3990}),
    (5, "noc", {"instants": 2845, "run_instants": 2552,
                "channel_firings": 4467}),
])
def test_mjpeg_flow_instant_counts_are_pinned(tiles, interconnect, expected):
    """How many instants the lean loops handle, in word runs and in all,
    and how many firings the channel passes make, for one MJPEG flow's
    static orders and analysis.  Every start is the event-by-event one,
    so a change of the loops that adds or drops an instant must show
    here, as a deliberate change of these figures."""
    from repro.arch.template import architecture_from_template
    from repro.flow.design_flow import DesignFlow
    from repro.flow.spec import build_case_study_app

    with counters.collect() as scope:
        DesignFlow(
            build_case_study_app("gradient"),
            architecture_from_template(tiles, interconnect),
        ).run(measure=False)
    assert scope.snapshot("sim") == expected


@pytest.mark.parametrize("u1_time", [1, 2, 3])
def test_pending_delivery_ends_a_word_run(u1_time, monkeypatch):
    """``F`` (fed, on ``P``) sends through the unbound ``U1`` to ``M``,
    which wins ``P`` before it: the delivery waits as a pending entry
    while ``F`` holds ``P``, and ``F``'s next completion must hand ``P``
    to ``M`` instead of going on with the run."""
    g = SDFGraph(f"pending{u1_time}")
    g.add_actor("S", execution_time=2)
    g.add_actor("M", execution_time=3)
    g.add_actor("U0", execution_time=1)
    g.add_actor("F", execution_time=6)
    g.add_actor("U1", execution_time=u1_time)
    g.add_edge("SU0", "S", "U0")
    g.add_edge("U0F", "U0", "F")
    g.add_edge("FU1", "F", "U1")
    g.add_edge("U1M", "U1", "M")
    g.add_edge("MS", "M", "S", initial_tokens=4)
    kwargs = {"processor_of": {"S": "ps", "M": "p", "F": "p"}}
    with counters.collect() as scope:
        check_throughput(g, kwargs, monkeypatch)
    assert scope.snapshot("sim")["run_instants"] > 0
    check_run_until(
        g, kwargs, series_hooks(random.Random(u1_time), g, ()),
        [{"S": 5, "M": 5}, {"S": 12, "M": 12}],
    )


# -- Fig. 4 channels in one pass -----------------------------------------------
def channel_case(seed):
    """``A -> B -> C -> A`` on three tiles, every edge one Fig. 4
    channel, over the ranges the channel pass must cover: 1-4 words of
    network buffering and in flight, tokens of 1-33 words (so ``d1`` is
    fed and not), ``c1`` of 0 cycles a word (the pass declines) or more,
    PE and CA (de)serialization.  Returns (graph, simulator keyword
    arguments, application actors, the (s2, c1, c2) of the channels the
    pass takes)."""
    rng = random.Random(13_000 + seed)
    g = SDFGraph(f"chan{seed}")
    apps = ["A", "B", "C"]
    for name in apps:
        g.add_actor(name, execution_time=rng.randint(1, 40))
    for src, dst in zip(apps, apps[1:] + apps[:1]):
        g.add_edge(src + dst, src, dst, token_size=4 * rng.randint(1, 33),
                   initial_tokens=rng.randint(1, 2) if dst == "A" else 0)
    uses_ca = [rng.random() < 0.4 for _ in apps]

    def model(tile):
        if uses_ca[tile]:
            return CASerialization(rng.randint(0, 8), rng.randint(0, 2))
        return PESerialization(rng.randint(0, 12), rng.randint(1, 3))

    def resource(tile):
        return f"ca{tile}" if uses_ca[tile] else f"t{tile}"

    processor_of = {name: f"t{tile}" for tile, name in enumerate(apps)}
    passed = set()
    for src_tile in range(3):
        dst_tile = (src_tile + 1) % 3
        edge = g.edge(apps[src_tile] + apps[dst_tile])
        injection = rng.choice((0, 0, 1, 2, 3))
        names = expand_channel(
            g, edge.name,
            ChannelParameters(
                words_in_flight=rng.randint(1, 4),
                network_buffer_words=rng.randint(1, 4),
                injection_cycles_per_word=injection,
                channel_latency=rng.randint(1, 6),
            ),
            model(src_tile),
            alpha_src=1 + rng.randint(0, 2),
            alpha_dst=2 + rng.randint(0, 2),
            deserialization=model(dst_tile),
        )
        processor_of[names.s1] = resource(src_tile)
        processor_of[names.d1] = resource(dst_tile)
        processor_of[names.d2] = resource(dst_tile)
        if injection:
            passed.add((names.s2, names.c1, names.c2))
    kwargs = {"processor_of": processor_of}
    if rng.random() < 0.5:
        kwargs["static_order"] = derive_static_orders(
            g, processor_of, apps
        )
    return g, kwargs, apps, passed


@pytest.mark.parametrize("seed", SEEDS)
def test_channel_passes_match(seed, monkeypatch):
    """The analysis key by key, and the countdown loop over many small
    targets (each return reads the channels back, ``__chan`` and
    ``__inj`` tokens included, and the next call starts from that),
    against the oracle.  Only channels whose ``c1`` takes time are
    passed in one piece."""
    graph, kwargs, apps, passed = channel_case(seed)
    sim = SelfTimedSimulator(graph, **kwargs)
    assert detected_channels(sim, {sim._actor_index["A"]}) == passed
    with counters.collect() as scope:
        check_throughput(graph, kwargs, monkeypatch)
        rng = random.Random(14_000 + seed)
        check_run_until(
            graph, kwargs, series_hooks(rng, graph, apps[1:]),
            [{a: k for a in apps} for k in range(1, 13)],
        )
    assert bool(scope.snapshot("sim")["channel_firings"]) == bool(passed)


@pytest.mark.parametrize("seed", SEEDS)
def test_channel_passes_stop_anywhere(seed):
    """Stopped after a few instants at a time, the lean loop leaves the
    state step() has at that stamp -- words parked on ``__chan`` behind
    ``c2``'s in-flight bound or on ``__inj`` behind its credits -- and
    goes on from it to the same end."""
    graph, kwargs, apps, _passed = channel_case(seed)
    rng = random.Random(15_000 + seed)
    targets = {a: 6 for a in apps}
    final = SelfTimedSimulator(graph, **kwargs)
    if not oracle_until(ReferenceSelfTimedSimulator(graph, **kwargs),
                        targets):
        return
    final.run_until(targets, 1_000_000)
    fast = SelfTimedSimulator(graph, **kwargs)
    stepped = SelfTimedSimulator(graph, **kwargs)
    calls = 0
    while any(fast.completed[a] < n for a, n in targets.items()):
        fast.run_until(targets, rng.randint(1, 4))
        calls += 1
        while stepped._stamp < fast._stamp:
            assert stepped.step()
        assert stepped._stamp == fast._stamp
        assert_same_state(fast, stepped)
    assert calls > 1
    assert_same_state(fast, final)


def mjpeg_bound_graph(tiles, interconnect="fsl"):
    from repro.arch import architecture_from_template
    from repro.flow.spec import build_case_study_app
    from repro.mapping import (
        allocate_buffers,
        bind_actors,
        build_bound_graph,
        route_channels,
    )

    app = build_case_study_app("gradient")
    arch = architecture_from_template(tiles, interconnect)
    binding, impls = bind_actors(app, arch, fixed={"VLD": "tile0"})
    channels = route_channels(app, arch, binding)
    allocate_buffers(app, channels)
    return build_bound_graph(app, arch, binding, impls, channels)


def detected_channels(sim, observed):
    plan = simulation._UnboundPlan(sim, frozenset(observed))
    names = sim._actor_names
    return {tuple(names[u] for u in channel[:3]) for channel in plan.channels}


def test_every_mjpeg_channel_is_detected():
    """Each inter-tile channel of the 5-tile MJPEG mapping is found by
    structure as its (s2, c1, c2)."""
    bound = mjpeg_bound_graph(5)
    sim = SelfTimedSimulator(bound.graph, processor_of=bound.processor_of)
    reference = sim._actor_index[bound.app_actors[0]]
    expected = {
        (names.s2, names.c1, names.c2) for names in bound.comm_names.values()
    }
    assert len(expected) > 3
    assert detected_channels(sim, {reference}) == expected


def test_observed_c1_keeps_its_channel_generic():
    """A channel whose ``c1`` is a ``run_until`` target is not passed in
    one piece; the others still are, and the run matches the oracle."""
    graph, kwargs, apps = word_run_case("greedy", "lower", 12, back_channel=3)
    observed, other = "AB__c1", ("BC__s2", "BC__c1", "BC__c2")
    sim = SelfTimedSimulator(graph, **kwargs)
    index = sim._actor_index
    assert detected_channels(sim, {index["A"]}) == {
        ("AB__s2", "AB__c1", "AB__c2"), other,
    }
    targets = {observed: 12, "A": 4}
    with counters.collect() as scope:
        sim.run_until(targets, 1_000_000)
    assert {tuple(sim._actor_names[u] for u in channel[:3])
            for channel in sim._plans[
                frozenset(index[a] for a in targets)
            ].channels} == {other}
    assert scope.snapshot("sim")["channel_firings"] > 0
    slow = ReferenceSelfTimedSimulator(graph, **kwargs)
    assert oracle_until(slow, targets)
    assert_same_state(sim, slow)


# -- credit handoff ------------------------------------------------------------
def without_handoff(monkeypatch):
    """Plans in which no word run hands its credits to a channel pass:
    every ``d1`` completion's credit waits on the work stack instead."""
    plan_init = simulation._UnboundPlan.__init__

    def generic(plan, sim, observed):
        plan_init(plan, sim, observed)
        plan.credit = [None] * len(plan.credit)

    monkeypatch.setattr(simulation._UnboundPlan, "__init__", generic)


def credit_case(seed):
    """A random word_run_case set-up -- greedy PE, interleaved static
    order or communication assist -- with a rival, a back channel, a
    tap (deliveries from the pass to ``d1``'s resource), 1-3 words in
    flight and 1-12 cycles a word drawn at random, so that a ``d1``
    completion finds its next word there, late or not yet resolved.
    Returns (graph, kwargs, apps, rng)."""
    rng = random.Random(16_000 + seed)
    graph, kwargs, apps = word_run_case(
        rng.choice(("greedy", "orders", "ca")),
        rng.choice((None, "higher", "lower")), rng.randint(4, 24),
        back_channel=rng.choice((0, 3, 40)), words=rng.randint(8, 14),
        times=(rng.randint(1, 14), rng.randint(1, 14), 9),
        tap=rng.random() < 0.5, flight=rng.randint(1, 3),
        latency=rng.randint(1, 12),
    )
    return graph, kwargs, apps, rng


def credit_landings(monkeypatch):
    """Count, per place, the channel passes a word run's credit reaches:
    after ``d1`` starts on a batch that is there (``there``), before a
    late batch's wake-up (``late``), before ``d1`` looks again for a
    word not yet resolved (``absent``), or from the work stack after
    the generic arbitration of the completion stamp (``arbitrated``)."""
    places = {"there": 0, "late": 0, "absent": 0, "arbitrated": 0}
    channel = simulation._UnboundRun._channel

    def spy(run, entry):
        # A pass of its own around the real one: each send() is one pass.
        inner = channel(run, entry)
        next(inner)
        while True:
            pos = yield
            caller = sys._getframe(1)
            if caller.f_code.co_name == "_run":
                at, stamp = caller.f_locals["at"], caller.f_locals["stamp"]
                places["absent" if at < 0 else "late" if at > stamp
                       else "there"] += 1
            else:
                arbitration = sys._getframe(2)
                if (arbitration.f_code.co_name == "_arbitrate"
                        and run.runner[arbitration.f_locals["f"]][8]
                        is entry):
                    places["arbitrated"] += 1
            inner.send(pos)

    monkeypatch.setattr(simulation._UnboundRun, "_channel", spy)
    return places


def check_credit_case(graph, kwargs, apps, rng, monkeypatch):
    """The analysis key by key against step() and the oracle, and two
    countdowns against the oracle; then the same with every credit on
    the work stack, which must handle as many instants, in runs and
    out of them, and fire as many channel members."""
    q = repetition_vector(graph)
    targets = [{a: q[a] * k for a in apps} for k in (2, 5)]
    hooks = series_hooks(rng, graph, apps[1:2])
    seen = []
    for handoff in (True, False):
        with monkeypatch.context() as patch:
            if not handoff:
                without_handoff(patch)
            with counters.collect() as scope:
                check_throughput(graph, kwargs, patch)
                check_run_until(graph, kwargs, hooks, targets)
        seen.append(scope.snapshot("sim"))
    assert seen[0] == seen[1]
    assert seen[0]["run_instants"] > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_credit_handoff_matches(seed, monkeypatch):
    """Each ``d1`` completion of a word run runs its channel's pass where
    the work stack would have: the oracle and step() agree key by key,
    and the work-stack path handles the same instants."""
    graph, kwargs, apps, rng = credit_case(seed)
    check_credit_case(graph, kwargs, apps, rng, monkeypatch)


def test_credit_lands_in_every_place(monkeypatch):
    """The randomized set-ups reach the pass from each place a credit
    lands; the tap's deliveries to the resource ``d1`` holds make a
    pass run before ``d1`` starts show as an instant of its own."""
    places = credit_landings(monkeypatch)
    for seed in range(8):
        graph, kwargs, apps, rng = credit_case(seed)
        check_credit_case(graph, kwargs, apps, rng, monkeypatch)
    assert all(places.values()), places


@pytest.mark.parametrize("seed", SEEDS)
def test_credit_handoff_stops_anywhere(seed):
    """Stopped after one to four instants at a time -- so also right
    after a completion that handed its credit over -- the lean loop
    leaves the state step() has at that stamp, and goes on from it to
    the same end."""
    graph, kwargs, apps, rng = credit_case(seed)
    check_stops_anywhere(graph, kwargs, {a: 3 for a in apps}, rng)


def check_stops_anywhere(graph, kwargs, targets, rng):
    """run_until towards ``targets`` one to four instants at a time: the
    state after each call is step()'s at that stamp, and the last one
    that of a single call."""
    final = SelfTimedSimulator(graph, **kwargs)
    final.run_until(targets, 1_000_000)
    fast = SelfTimedSimulator(graph, **kwargs)
    stepped = SelfTimedSimulator(graph, **kwargs)
    while any(fast.completed[a] < n for a, n in targets.items()):
        fast.run_until(targets, rng.randint(1, 4))
        while stepped._stamp < fast._stamp:
            assert stepped.step()
        assert stepped._stamp == fast._stamp
        assert_same_state(fast, stepped)
    assert_same_state(fast, final)


def credited(sim, observed):
    """{d1: its channel's (s2, c1, c2)} for every word run that hands its
    credits to a channel pass, and the names of all word runs' ``d1``."""
    plan = simulation._UnboundPlan(
        sim, frozenset(sim._actor_index[a] for a in observed)
    )
    names = sim._actor_names
    return {
        names[f]: tuple(names[u] for u in plan.channels[k][:3])
        for f, k in enumerate(plan.credit) if k is not None
    }, {names[f] for f in plan.fed if plan.runner[f] is not None}


@pytest.mark.parametrize("tiles, interconnect", [(2, "fsl"), (5, "noc")])
def test_every_mjpeg_d1_run_hands_its_credit_over(tiles, interconnect):
    """Each ``d1`` of the MJPEG mapping that runs through its words is
    found by structure with the channel its ``__ncredit`` feeds."""
    bound = mjpeg_bound_graph(tiles, interconnect)
    sim = SelfTimedSimulator(bound.graph, processor_of=bound.processor_of)
    credit, runs = credited(sim, bound.app_actors[:1])
    assert len(runs) == 2
    assert credit == {
        names.d1: (names.s2, names.c1, names.c2)
        for names in bound.comm_names.values() if names.d1 in runs
    }


def test_d1_with_a_second_stamp_queue_output_keeps_the_work_stack(
    monkeypatch
):
    """A ``d1`` that also feeds an unbound actor runs through its words
    without handing its credits over, and still matches."""
    graph, kwargs, apps = word_run_case("greedy", "lower", 12)
    sim = SelfTimedSimulator(graph, **kwargs)
    assert credited(sim, ["A"]) == (
        {"AB__d1": ("AB__s2", "AB__c1", "AB__c2")}, {"AB__d1"},
    )
    graph, kwargs, apps = word_run_case("greedy", "lower", 12, spill=True)
    sim = SelfTimedSimulator(graph, **kwargs)
    assert credited(sim, ["A"]) == ({}, {"AB__d1"})
    check_credit_case(graph, kwargs, apps, random.Random(1), monkeypatch)


def test_observed_c1_takes_no_credit():
    """With its ``c1`` a ``run_until`` target the channel is not passed
    in one piece, and no ``d1`` hands it a credit: ``AB__d1``, whose
    credits now go to an observed actor, is not even fed."""
    graph, kwargs, _apps = word_run_case("greedy", "lower", 12)
    sim = SelfTimedSimulator(graph, **kwargs)
    assert credited(sim, ["A", "AB__c1"]) == ({}, set())


# -- run horizons --------------------------------------------------------------
def horizon_case(seed, source):
    """A random word_run_case set-up in which, while a ``d1`` run goes
    on, something lands on the heap before the run's next instant, so
    that the run's horizon comes earlier mid-run.  With ``source``
    ``"tap"`` the channel's ``c2`` also feeds ``T`` on a processor of its
    own: the pass delivers to it.  With ``"echo"`` ``s2`` also feeds the
    unbound ``Y``, which delivers each word to ``W`` on a processor of
    its own: a resolution with work queued does.  Returns (graph,
    kwargs, apps, rng)."""
    rng = random.Random(18_000 + seed)
    graph, kwargs, apps = word_run_case(
        rng.choice(("greedy", "orders", "ca")),
        rng.choice((None, "higher", "lower")), rng.randint(4, 24),
        back_channel=rng.choice((0, 3, 40)), words=rng.randint(8, 14),
        times=(rng.randint(1, 14), rng.randint(1, 14), 9),
        tap=source == "tap", tap_on="pt",
        echo=rng.randint(0, 5) if source == "echo" else None,
        flight=rng.randint(1, 3), latency=rng.randint(1, 12),
    )
    return graph, kwargs, apps, rng


def horizon_shrinks(monkeypatch):
    """Count the heap entries a word run's channel pass or resolution
    pushes before the horizon the run holds (see ``_UnboundRun._run``):
    each one must end the run's segment before its next instant."""
    shrinks = [0]
    push = heapq.heappush
    passing = ("_channel", "_resolve", "_emit", "_refill", "_schedule")

    def spy(heap, entry):
        frame = sys._getframe(1)
        while frame.f_code.co_name in passing:
            frame = frame.f_back
        if (frame.f_code.co_name == "_run"
                and heap is frame.f_locals["queue"]
                and entry[0] < frame.f_locals.get("horizon", entry[0])):
            shrinks[0] += 1
        push(heap, entry)

    monkeypatch.setattr(simulation.heapq, "heappush", spy)
    return shrinks


@pytest.mark.parametrize("source", ["tap", "echo"])
@pytest.mark.parametrize("seed", SEEDS)
def test_shrinking_horizons_match(seed, source, monkeypatch):
    """A word run whose horizon comes earlier mid-run -- a delivery from
    the channel pass or from a resolution lands before its next instant
    -- stops there: key by key against the oracle and step(), two
    countdowns against the oracle, and stopped every one to four
    instants against step()."""
    graph, kwargs, apps, rng = horizon_case(seed, source)
    q = repetition_vector(graph)
    with counters.collect() as scope:
        check_throughput(graph, kwargs, monkeypatch)
        check_run_until(
            graph, kwargs, series_hooks(rng, graph, ()),
            [{a: q[a] * k for a in apps} for k in (2, 5)],
        )
    assert scope.snapshot("sim")["run_instants"] > 0
    check_stops_anywhere(graph, kwargs, {a: 3 * q[a] for a in apps}, rng)


@pytest.mark.parametrize("source", ["tap", "echo"])
def test_horizons_shrink_mid_run(source, monkeypatch):
    """The randomized set-ups of each source do push heap entries before
    a running word run's horizon."""
    shrinks = horizon_shrinks(monkeypatch)
    for seed in range(8):
        graph, kwargs, apps, rng = horizon_case(seed, source)
        check_throughput(graph, kwargs, monkeypatch)
    assert shrinks[0] > 0
