"""SDF to homogeneous SDF (HSDF) conversion, for the MCM oracle.

The HSDF expansion creates ``q[a]`` copies of every actor ``a`` (``q`` the
repetition vector) and unit-rate edges expressing the exact firing-level
dependencies of the original multirate graph [Sriram & Bhattacharyya].  On
the HSDF graph, maximum-cycle-mean analysis (:mod:`tests.sdf.mcm`) yields
the self-timed throughput in closed form: an independent cross-check of
the state-space analysis in :mod:`repro.sdf.engine`.

Copy ``i`` of actor ``a`` is named ``f"{a}#{i}"`` and carries
``group=a`` so results can be folded back onto the original actors.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector


def hsdf_copy_name(actor: str, index: int) -> str:
    """Name of the *index*-th HSDF copy of *actor*."""
    return f"{actor}#{index}"


def to_hsdf(graph: SDFGraph, sequential_actors: bool = True) -> SDFGraph:
    """Expand ``graph`` into an equivalent HSDF graph.

    Parameters
    ----------
    sequential_actors:
        When True (default), the copies of each actor are chained into a
        cycle carrying one initial token, which forbids overlapping firings
        of the same actor -- the semantics of a software actor bound to a
        single processor (auto-concurrency 1).  Set False for the
        theoretical unlimited-concurrency semantics.

    The expansion keeps, for every (source copy, destination copy) pair, the
    *smallest* token delay implied by any transferred token; smaller delays
    subsume larger ones for timing analysis.
    """
    q = repetition_vector(graph)
    hsdf = SDFGraph(f"{graph.name}_hsdf")

    for actor in graph:
        for i in range(q[actor.name]):
            hsdf.add_actor(
                hsdf_copy_name(actor.name, i),
                execution_time=actor.execution_time,
                group=actor.name,
                concurrency=actor.concurrency,
            )

    # (src_copy, dst_copy) -> minimal delay in iterations
    delays: Dict[Tuple[str, str], int] = {}

    for edge in graph.edges:
        p = edge.production
        c = edge.consumption
        d = edge.initial_tokens
        q_src = q[edge.src]
        q_dst = q[edge.dst]
        for j in range(q_dst):  # destination firing within the iteration
            for l in range(c):  # each consumed token
                k = j * c + l  # global token index in FIFO order
                i_global = (k - d) // p  # producing global firing (floor div)
                src_copy = hsdf_copy_name(edge.src, i_global % q_src)
                dst_copy = hsdf_copy_name(edge.dst, j)
                # iteration distance between consumer (iteration 0) and
                # producer (iteration floor(i_global / q_src))
                delta = -(i_global // q_src)
                key = (src_copy, dst_copy)
                if key not in delays or delta < delays[key]:
                    delays[key] = delta

    if sequential_actors:
        for actor in graph:
            n = q[actor.name]
            cap = actor.concurrency if actor.concurrency is not None else 1
            for i in range(n):
                src_copy = hsdf_copy_name(actor.name, i)
                dst_copy = hsdf_copy_name(actor.name, (i + 1) % n)
                # `cap` tokens on the copy cycle admit `cap` overlapping
                # firings of the actor (auto-concurrency `cap`).
                delta = cap if i == n - 1 else 0
                key = (src_copy, dst_copy)
                if key not in delays or delta < delays[key]:
                    delays[key] = delta

    for index, ((src, dst), delta) in enumerate(sorted(delays.items())):
        assert delta >= 0, (
            f"negative HSDF delay {delta} on {src}->{dst}: conversion bug"
        )
        hsdf.add_edge(
            f"h{index}_{src}_{dst}",
            src,
            dst,
            production=1,
            consumption=1,
            initial_tokens=delta,
        )
    return hsdf


def is_strongly_connected(graph: SDFGraph) -> bool:
    """One SCC containing every actor (self-edges ignored).

    Off a strongly connected graph, channels without feedback grow
    without bound, and the MCM says nothing about the self-timed rate.
    """
    actors = [a.name for a in graph]
    if len(actors) <= 1:
        return True
    forward: Dict[str, List[str]] = {a: [] for a in actors}
    backward: Dict[str, List[str]] = {a: [] for a in actors}
    for e in graph.edges:
        if e.src != e.dst:
            forward[e.src].append(e.dst)
            backward[e.dst].append(e.src)

    def reaches_all(adjacency: Dict[str, List[str]]) -> bool:
        seen = {actors[0]}
        stack = [actors[0]]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(actors)

    return reaches_all(forward) and reaches_all(backward)
