"""Command-line interface: ``python -m repro <command>``.

Commands mirror the tool invocations of the original flow:

* ``analyze <graph.xml> [--json] [--tiles N]`` -- SDF3-style analysis of
  a graph file: repetition vector, liveness, throughput (the graph must
  be bounded, e.g. carry buffer back-edges); ``--json`` additionally
  maps the graph onto a template platform and emits the mapping result
  (binding, per-channel capacities, guaranteed throughput) as JSON for
  downstream tooling; ``--power-budget`` / ``--energy-budget`` /
  ``--tech-node`` additionally report platform power and application
  energy against the budgets (see docs/power.md);
* ``demo [sequence] [--tiles N] [--interconnect fsl|noc]`` -- run the
  MJPEG case study end to end and print the Fig. 6-style numbers plus
  Table 1;
* ``run --spec scenario.toml [--workspace DIR] [--json]`` -- execute
  a declarative FlowSpec scenario (see :mod:`repro.flow.spec`) through
  the full flow; with ``--workspace`` it runs as a resumable
  :class:`~repro.flow.session.FlowSession` (required for
  multi-application specs);
* ``batch <spec>... --workspace DIR [--jobs N] [--backend B]
  [--table]`` -- run many scenarios against one shared artifact
  workspace, resuming every stage whose input fingerprints are
  unchanged, and emit a machine-readable batch report; ``--backend
  process`` fans sessions out across worker processes with
  byte-identical artifacts;
* ``explore [sequence] [--max-tiles N] [--jobs N] [--effort LEVEL]
  [--binding NAME] [--buffer-policy NAME] [--seed N] [--heterogeneous]
  [--with-ca] [--early-exit] [--csv] [--power-budget MW]
  [--energy-budget NJ] [--tech-node NM]`` -- explore the template
  design space for the MJPEG decoder with the parallel, cached
  exploration engine and print the Pareto report; the power flags add
  energy as a third Pareto objective and prune over-budget points
  (``dse`` is the compatible alias);
* ``serve --workspace DIR [--host H] [--port P] [--jobs N]
  [--max-queue N] [--backend B] [--replica NAME]`` -- run the flow
  service (:mod:`repro.service`): an HTTP JSON API that accepts
  FlowSpec submissions, coalesces identical in-flight requests, and
  serves repeated requests straight from the workspace artifacts with
  zero re-analysis; ``--backend process`` computes flows on worker
  processes, and replicas sharing one workspace scale across cores
  (see docs/service.md);
* ``scenarios generate --seed N [--family F] [--count N] --out DIR`` --
  write a deterministic corpus of synthetic-workload FlowSpec TOML
  files (:mod:`repro.scenarios`); the same seed always produces
  byte-identical files, and the output runs through ``run``/``batch``/
  ``serve`` unchanged (``scenarios families`` lists the graph
  families; see docs/scenarios.md);
* ``platform build-library --spec S --workspace DIR`` /
  ``platform admit --spec S --url URL`` /
  ``platform depart APP_ID --url URL [--migrate]`` /
  ``platform status --url URL`` -- the run-time side
  (:mod:`repro.runtime`): precompute per-application operating-point
  libraries at design time -- one mapping per platform size ``1 ..``
  the spec's ``[architecture] tiles``, which alone bounds the sweep --
  then admit/depart applications against a live ``repro serve``
  platform with zero re-analysis (see docs/runtime.md).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional

from repro.arch import architecture_from_template
from repro.exceptions import ReproError
from repro.sdf import analyze_throughput, is_deadlock_free, repetition_vector
from repro.sdf.io_sdf3 import load_graph


def _map_template(
    graph,
    tiles: int,
    interconnect: str,
    max_iterations: Optional[int] = None,
):
    """Map a bare graph onto a template platform.

    Returns ``(app, arch, result)`` -- the synthesized application
    model, the template architecture and the mapping result -- so
    callers can both serialize the result and feed the triple to the
    power/energy estimators.

    Graph files carry no implementation metrics, so each actor gets a
    synthesized single-PE implementation whose WCET is its execution
    time (the conservative reading of an SDF3 graph file).  Pre-existing
    ``buf__`` credit back-edges are stripped first: they encode the
    capacities of the *analysis* form, and the mapping flow allocates
    its own buffer capacities (leaving them would also collide with the
    bound graph's modeling edges).
    """
    from repro.appmodel import (
        ActorImplementation,
        ApplicationModel,
        ImplementationMetrics,
        MemoryRequirements,
    )
    from repro.mapping import MappingEffort, map_application
    from repro.sdf.buffers import BUFFER_EDGE_PREFIX

    graph = graph.copy(graph.name)
    for edge in list(graph.edges):
        if edge.implicit and edge.name.startswith(BUFFER_EDGE_PREFIX):
            graph.remove_edge(edge.name)

    app = ApplicationModel(
        graph=graph,
        implementations=[
            ActorImplementation(
                actor=actor.name,
                pe_type="microblaze",
                metrics=ImplementationMetrics(
                    wcet=max(actor.execution_time or 1, 1),
                    memory=MemoryRequirements(
                        instruction_bytes=4096, data_bytes=2048
                    ),
                ),
            )
            for actor in graph
        ],
    )
    arch = architecture_from_template(tiles, interconnect)
    effort = MappingEffort.of("normal")
    if max_iterations is not None:
        effort = effort.with_iterations(max_iterations)
    result = map_application(app, arch, effort=effort)
    return app, arch, result


def _positive_fraction(value: Optional[str], flag: str) -> Optional[Fraction]:
    """Parse a positive flag value (a budget, a constraint) exactly."""
    if value is None:
        return None
    try:
        number = Fraction(value)
    except (ValueError, ZeroDivisionError):
        raise ReproError(
            f"invalid {flag} {value!r}; expected a number like 250, "
            "1.5 or 1/6000"
        ) from None
    if number <= 0:
        raise ReproError(f"{flag} must be > 0, got {value}")
    return number


def _power_model(args: argparse.Namespace):
    """A :class:`~repro.power.PowerModel` when any power flag is set,
    else ``None`` (estimation off; artifacts and cache keys unchanged).
    """
    from repro.power import BASE_TECH_NM, PowerModel

    power_budget = _positive_fraction(args.power_budget, "--power-budget")
    energy_budget = _positive_fraction(args.energy_budget, "--energy-budget")
    if (
        power_budget is None
        and energy_budget is None
        and args.tech_node is None
    ):
        return None, None, None
    tech = args.tech_node if args.tech_node is not None else BASE_TECH_NM
    return PowerModel(tech_nm=tech), power_budget, energy_budget


def _cmd_analyze(args: argparse.Namespace) -> int:
    if args.max_iterations is not None and args.max_iterations < 1:
        raise ReproError(
            f"--max-iterations must be >= 1, got {args.max_iterations}"
        )
    graph = load_graph(args.graph)
    q = repetition_vector(graph)
    live = is_deadlock_free(graph)
    throughput_kwargs = (
        {} if args.max_iterations is None
        else {"max_iterations": args.max_iterations}
    )
    result = (
        analyze_throughput(graph, **throughput_kwargs)
        if live else None
    )

    model, power_budget, energy_budget = _power_model(args)
    mapped = None
    mapping_error: Optional[ReproError] = None
    if result is not None and (args.json or model is not None):
        try:
            mapped = _map_template(
                graph, args.tiles, args.interconnect,
                max_iterations=args.max_iterations,
            )
        except ReproError as error:
            mapping_error = error

    power = energy = None
    if model is not None and mapped is not None:
        from repro.power import application_energy, platform_power

        app, arch, mapping_result = mapped
        power = platform_power(arch, model)
        energy = application_energy(app, mapping_result, arch, model)

    if args.json:
        from repro.artifacts import to_payload

        payload = {
            "graph": {
                "name": graph.name,
                "actors": len(graph),
                "edges": len(graph.edges),
            },
            "repetition_vector": dict(sorted(q.items())),
            "deadlock_free": live,
        }
        if result is not None:
            payload["throughput"] = {
                "iterations_per_cycle": str(result.throughput),
                "per_mega_cycle": result.per_mega_cycle(),
                "period_cycles": result.period,
            }
            payload["mapping"] = (
                {"error": str(mapping_error)}
                if mapped is None
                else to_payload(mapped[2])
            )
        # power section only when power flags were given, so default
        # invocations emit the exact document they always did
        if power is not None and energy is not None:
            section = {
                "platform": to_payload(power),
                "application": to_payload(energy),
            }
            if power_budget is not None:
                section["within_power_budget"] = (
                    power.within_budget(power_budget)
                )
            if energy_budget is not None:
                section["within_energy_budget"] = (
                    energy.within_budget(energy_budget)
                )
            payload["power"] = section
        print(json.dumps(payload, indent=2))
        return 0

    print(f"graph {graph.name!r}: {len(graph)} actors, "
          f"{len(graph.edges)} edges")
    print("repetition vector:")
    for name, count in sorted(q.items()):
        print(f"  {name}: {count}")
    print(f"deadlock-free: {'yes' if live else 'NO'}")
    if result is not None:
        print(
            f"throughput: {result.throughput} iterations/cycle "
            f"({result.per_mega_cycle():.4f} per Mcycle; period "
            f"{result.period} cycles)"
        )
    if model is not None:
        if mapped is None:
            reason = (
                str(mapping_error) if mapping_error is not None
                else "graph is not analyzable"
            )
            print(f"power: unavailable ({reason})")
        else:
            print(f"power: {power.describe()}")
            print(f"energy: {energy.describe()}")
            if power_budget is not None:
                verdict = (
                    "yes" if power.within_budget(power_budget) else "NO"
                )
                print(
                    f"within power budget "
                    f"({float(power_budget):.1f} mW): {verdict}"
                )
            if energy_budget is not None:
                verdict = (
                    "yes" if energy.within_budget(energy_budget)
                    else "NO"
                )
                print(
                    f"within energy budget "
                    f"({float(energy_budget):.2f} nJ/iter): {verdict}"
                )
    return 0


def _load_case_study(sequence: str, quality: Optional[int] = None):
    from repro.flow.spec import build_case_study_app

    return build_case_study_app(sequence, quality=quality)


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro.flow import DesignFlow

    app = _load_case_study(args.sequence)
    arch = architecture_from_template(args.tiles, args.interconnect)
    flow = DesignFlow(app, arch, fixed={"VLD": "tile0"})
    result = flow.run(iterations=args.iterations)
    print(result.summary())
    if args.output:
        try:
            root = result.project.write_to(args.output)
        except OSError as error:
            raise ReproError(f"cannot write {args.output}: {error}") from None
        print(f"\nproject written to {root}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.flow import DesignFlow, execute_spec, load_flow_spec

    spec = load_flow_spec(args.spec)
    if args.workspace or spec.multi:
        # the resumable session path (required for multi-app specs)
        if not args.workspace:
            raise ReproError(
                f"spec {spec.name!r} declares multiple applications; "
                "pass --workspace DIR (or use 'repro batch') to run it "
                "as a resumable session"
            )
        if args.output:
            raise ReproError(
                "--output needs the full flow (MAMPS generation), which "
                "the analysis-side session path does not run; drop "
                "--workspace to generate the project"
            )
        if args.iterations is not None:
            raise ReproError(
                "--iterations configures measurement, which the "
                "analysis-side session path does not run; drop "
                "--workspace to measure"
            )
        result = execute_spec(spec, args.workspace)
        if args.json:
            from repro.artifacts import canonical_json, to_payload

            print(canonical_json(to_payload(result)))
        else:
            print(spec.describe())
            print()
            print(result.summary())
            if result.use_cases is not None:
                print()
                print(result.use_cases.as_table())
        return 0

    flow = DesignFlow.from_spec(spec)
    result = flow.run(
        iterations=args.iterations if args.iterations is not None else 16
    )
    if args.json:
        from repro.artifacts import canonical_json, to_payload

        print(canonical_json(to_payload(result)))
    else:
        print(spec.describe())
        print()
        print(result.summary())
    if args.output:
        try:
            root = result.project.write_to(args.output)
        except OSError as error:
            raise ReproError(f"cannot write {args.output}: {error}") from None
        # keep --json stdout a single parseable document
        stream = sys.stderr if args.json else sys.stdout
        print(f"\nproject written to {root}", file=stream)
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.artifacts import canonical_json, to_payload
    from repro.flow import run_batch

    if args.jobs < 1:
        raise ReproError(f"--jobs must be >= 1, got {args.jobs}")
    report = run_batch(
        args.specs, args.workspace, jobs=args.jobs, backend=args.backend
    )
    if args.table:
        print(report.as_table())
    else:
        print(canonical_json(to_payload(report)))
    return 0 if report.ok else 1


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.flow import (
        COMPACT_MIX,
        UNIFORM_MIX,
        explore_design_space,
        exploration_csv,
        format_exploration_report,
    )

    if args.jobs < 1:
        raise ReproError(f"--jobs must be >= 1, got {args.jobs}")
    if args.max_tiles < 1:
        raise ReproError(f"--max-tiles must be >= 1, got {args.max_tiles}")
    if args.early_exit and not args.constraint:
        raise ReproError(
            "--early-exit needs --constraint (the case-study application "
            "carries no throughput constraint of its own)"
        )
    constraint = _positive_fraction(args.constraint, "--constraint")
    effort = args.effort
    if args.max_iterations is not None:
        if args.max_iterations < 1:
            raise ReproError(
                f"--max-iterations must be >= 1, got {args.max_iterations}"
            )
        # Derived effort preset: same retry budget, overridden state-space
        # iteration budget; survives the name-typed candidate plumbing.
        effort = f"{effort}+it{args.max_iterations}"
    power_model, power_budget, energy_budget = _power_model(args)
    app = _load_case_study(args.sequence)
    mixes = (UNIFORM_MIX, COMPACT_MIX) if args.heterogeneous \
        else (UNIFORM_MIX,)
    result = explore_design_space(
        app,
        tile_counts=tuple(range(1, args.max_tiles + 1)),
        interconnects=("fsl", "noc"),
        ca_options=(False, True) if args.with_ca else (False,),
        constraint=constraint,
        fixed={"VLD": "tile0"},
        mixes=mixes,
        effort=effort,
        jobs=args.jobs,
        backend=args.backend,
        early_exit=args.early_exit,
        binding=args.binding,
        routing=args.routing,
        buffer_policy=args.buffer_policy,
        seed=args.seed,
        power_budget=power_budget,
        energy_budget=energy_budget,
        power_model=power_model,
    )
    if args.csv:
        print(exploration_csv(result))
    elif args.json:
        from repro.artifacts import canonical_json, to_payload

        print(canonical_json(to_payload(result)))
    else:
        print(format_exploration_report(result))
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.scenarios import (
        FAMILIES,
        generate_scenarios,
        render_flow_spec_toml,
        scenario_flow_spec,
    )

    if args.action == "families":
        for family in FAMILIES:
            print(family)
        return 0

    specs = generate_scenarios(
        args.family,
        args.count,
        args.seed,
        actors=args.actors,
        max_rate=args.max_rate,
        wcet_profile=args.wcet_profile,
        token_bytes=args.token_bytes,
    )
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for spec in specs:
            flow_spec = scenario_flow_spec(spec)
            target = out / f"{spec.name}.toml"
            target.write_text(
                render_flow_spec_toml(flow_spec), encoding="utf-8"
            )
            print(target)
    except OSError as error:
        raise ReproError(f"cannot write {args.out}: {error}") from None
    return 0


def _cmd_platform(args: argparse.Namespace) -> int:
    if args.action == "build-library":
        from pathlib import Path

        from repro.artifacts.store import ArtifactStore
        from repro.flow.spec import load_flow_spec
        from repro.runtime import build_library

        spec = load_flow_spec(args.spec)
        # same layout FlowSession/serve use, so 'repro serve' on this
        # workspace admits straight from the libraries built here
        store = ArtifactStore(Path(args.workspace) / "artifacts")
        summaries = []
        for app_spec in spec.apps:
            build = build_library(spec, store=store, app_spec=app_spec)
            summaries.append(build.summary())
        if args.json:
            print(json.dumps(summaries, indent=2, sort_keys=True))
            return 0
        for summary in summaries:
            points = ", ".join(summary["points"]) or "none"
            print(f"{summary['app']}: {len(summary['points'])} "
                  f"operating point(s) [{points}]")
            print(f"  key       {summary['key']}")
            print(f"  analyses  {summary['analyses']} "
                  f"(resumed {summary['resumed']})")
            if summary["infeasible"]:
                sizes = ", ".join(str(n) for n in summary["infeasible"])
                print(f"  infeasible platform sizes: {sizes}")
        return 0

    from repro.service import FlowServiceClient

    client = FlowServiceClient(args.url)
    if args.action == "admit":
        decision = client.platform_admit(args.spec)
        if args.json:
            print(json.dumps(decision, indent=2, sort_keys=True))
        else:
            tiles = ", ".join(decision["tiles"])
            print(f"admitted {decision['app_id']} "
                  f"({decision['app']!r}) on [{tiles}]")
            print(f"  point      {decision['point']} "
                  f"(source {decision['source']}, "
                  f"{decision['analyses']} analyses)")
            print(f"  guarantee  {decision['guarantee']} "
                  f"iterations/cycle")
        return 0
    if args.action == "depart":
        outcome = client.platform_depart(args.app_id, migrate=args.migrate)
        if args.json:
            print(json.dumps(outcome, indent=2, sort_keys=True))
        else:
            freed = ", ".join(outcome["freed_tiles"]) or "none"
            print(f"departed {outcome['app_id']} "
                  f"({outcome['app']!r}); freed tiles: {freed}")
            for migration in outcome["migrations"]:
                print(f"  migrated {migration['app_id']} to point "
                      f"{migration['point']} (guarantee "
                      f"{migration['from_guarantee']} -> "
                      f"{migration['to_guarantee']}, downtime "
                      f"{migration['downtime_cycles']} cycles)")
        return 0
    status = client.platform_status()
    if args.json or not status.get("configured"):
        print(json.dumps(status, indent=2, sort_keys=True))
        return 0
    residual = status["residual"]
    print(f"platform: {len(status['apps'])} app(s) admitted, "
          f"free tiles: {', '.join(residual['free_tiles']) or 'none'}")
    for app in status["apps"]:
        tiles = ", ".join(app["tiles"])
        print(f"  {app['id']}  {app['app']!r}  point {app['point']} "
              f"on [{tiles}]  guarantee {app['guarantee']}")
    counters = status["counters"]
    print("counters: " + ", ".join(
        f"{name}={counters[name]}" for name in sorted(counters)
    ))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.service import serve

    if args.jobs < 1:
        raise ReproError(f"--jobs must be >= 1, got {args.jobs}")
    if args.max_queue < 1:
        raise ReproError(f"--max-queue must be >= 1, got {args.max_queue}")
    if not 0 <= args.port <= 65535:
        raise ReproError(f"--port must be in 0..65535, got {args.port}")
    try:
        server = serve(
            args.workspace,
            host=args.host,
            port=args.port,
            jobs=args.jobs,
            max_queue=args.max_queue,
            quiet=args.quiet,
            backend=args.backend,
            replica=args.replica or "",
        )
    except OSError as error:
        raise ReproError(
            f"cannot bind {args.host}:{args.port}: {error}"
        ) from None
    scheduler = server.scheduler
    print(
        f"flow service on {server.url} "
        f"(workspace {scheduler.workspace}, replica "
        f"{scheduler.replica}, {args.jobs} {args.backend} worker(s), "
        f"queue bound {args.max_queue})",
        flush=True,
    )
    # A SIGTERM (plain kill, service-manager stops) ends the server as
    # Ctrl-C does, through the clean-up below.
    previous = signal.signal(signal.SIGTERM, _interrupt)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        signal.signal(signal.SIGTERM, previous)
        # close() also terminates process-backend workers promptly, so
        # a stopped server leaves no orphaned children behind
        server.server_close()
        scheduler.close()
    return 0


def _interrupt(signum: int, frame: object) -> None:
    raise KeyboardInterrupt


def _add_power_arguments(
    parser: argparse.ArgumentParser, verb: str
) -> None:
    """The shared power/energy flags of ``analyze`` and ``explore``.

    Any of the three turns power estimation on; with all of them absent
    the flow computes no estimates and cache keys, artifacts and output
    stay byte-identical to a build without the power subsystem.
    """
    from repro.power import BASE_TECH_NM, TECH_NODES

    parser.add_argument(
        "--power-budget", metavar="MW", default=None,
        help=f"{verb} peak platform power against this budget "
             "in milliwatts (a number or fraction, e.g. 250 or 81/2); "
             "turns power/energy estimation on",
    )
    parser.add_argument(
        "--energy-budget", metavar="NJ", default=None,
        help=f"{verb} application energy per graph iteration against "
             "this budget in nanojoules; turns power/energy "
             "estimation on",
    )
    parser.add_argument(
        "--tech-node", type=int, choices=sorted(TECH_NODES),
        default=None,
        help="technology node of the power model in nm (default "
             f"{BASE_TECH_NM}); turns power/energy estimation on",
    )


def build_parser() -> argparse.ArgumentParser:
    # deferred: the strategy registry pulls in the whole mapping stack,
    # which commands like `analyze` never need at startup
    from repro.mapping.pipeline import registered

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Automated flow to map throughput-constrained applications "
            "to a MPSoC (Jordans et al., PPES 2011 -- reproduction)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser(
        "analyze", help="analyze an SDF3-style XML graph"
    )
    analyze.add_argument("graph", help="path to the graph XML file")
    analyze.add_argument(
        "--json", action="store_true",
        help="emit analysis plus a template-platform mapping result "
             "(binding, buffer capacities, throughput guarantee) as JSON",
    )
    analyze.add_argument(
        "--tiles", type=int, default=2,
        help="template tile count for the --json mapping (default 2)",
    )
    analyze.add_argument(
        "--interconnect", choices=("fsl", "noc"), default="fsl",
        help="template interconnect for the --json mapping",
    )
    analyze.add_argument(
        "--max-iterations", type=int, default=None, metavar="N",
        help="state-space iteration budget of the throughput analysis "
             "(default 10000); raise it for large bounded graphs whose "
             "periodic phase needs more iterations to appear",
    )
    _add_power_arguments(analyze, verb="report")
    analyze.set_defaults(handler=_cmd_analyze)

    demo = commands.add_parser(
        "demo", help="run the MJPEG case study end to end"
    )
    demo.add_argument("sequence", nargs="?", default="gradient")
    demo.add_argument("--tiles", type=int, default=5)
    demo.add_argument(
        "--interconnect", choices=("fsl", "noc"), default="fsl"
    )
    demo.add_argument("--iterations", type=int, default=16)
    demo.add_argument(
        "--output", help="write the generated project under this directory"
    )
    demo.set_defaults(handler=_cmd_demo)

    run = commands.add_parser(
        "run",
        help="execute a declarative FlowSpec scenario (TOML or JSON)",
    )
    run.add_argument(
        "--spec", required=True,
        help="path to the scenario document (see docs/mapping.md)",
    )
    run.add_argument(
        "--iterations", type=int, default=None,
        help="measurement iterations of the full flow (default 16; "
             "incompatible with --workspace)",
    )
    run.add_argument(
        "--output", help="write the generated project under this "
                         "directory (incompatible with --workspace)"
    )
    run.add_argument(
        "--workspace", metavar="DIR",
        help="run as a resumable analysis-side FlowSession against this "
             "workspace (stages with unchanged input fingerprints are "
             "skipped; required for multi-application specs)",
    )
    run.add_argument(
        "--json", action="store_true",
        help="emit the canonical artifact payload instead of the "
             "human-readable summary (see docs/artifacts.md)",
    )
    run.set_defaults(handler=_cmd_run)

    batch = commands.add_parser(
        "batch",
        help="run many FlowSpec scenarios against one shared workspace",
    )
    batch.add_argument(
        "specs", nargs="+",
        help="paths to scenario documents (TOML or JSON)",
    )
    batch.add_argument(
        "--workspace", required=True, metavar="DIR",
        help="shared artifact workspace; re-running the same batch "
             "against it resumes every unchanged stage",
    )
    batch.add_argument(
        "--jobs", type=int, default=1,
        help="concurrent sessions (default 1: serial; output and "
             "artifacts are identical either way)",
    )
    batch.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="execution backend; 'process' runs sessions on worker "
             "processes (true multi-core) with byte-identical artifacts",
    )
    batch.add_argument(
        "--table", action="store_true",
        help="human-readable table instead of the canonical JSON report",
    )
    batch.set_defaults(handler=_cmd_batch)

    scenarios = commands.add_parser(
        "scenarios",
        help="generate seeded synthetic FlowSpec scenarios "
             "(see docs/scenarios.md)",
    )
    scenario_actions = scenarios.add_subparsers(
        dest="action", required=True
    )
    families = scenario_actions.add_parser(
        "families", help="list the known graph families"
    )
    families.set_defaults(handler=_cmd_scenarios)
    generate = scenario_actions.add_parser(
        "generate",
        help="write a deterministic corpus of scenario TOML files "
             "(same seed => byte-identical files)",
    )
    generate.add_argument(
        "--seed", type=int, required=True,
        help="master seed; fully determines the corpus",
    )
    generate.add_argument(
        "--family",
        choices=("chain", "splitjoin", "diamond", "cyclic", "mixed",
                 "all"),
        default="all",
        help="graph family ('all' cycles through every family)",
    )
    generate.add_argument(
        "--count", type=int, default=5,
        help="number of scenarios to generate (default 5)",
    )
    generate.add_argument(
        "--out", required=True, metavar="DIR",
        help="directory the scenario TOML files are written into",
    )
    generate.add_argument(
        "--actors", type=int, default=None,
        help="target actor count (default: varied per scenario)",
    )
    generate.add_argument(
        "--max-rate", type=int, default=3,
        help="upper bound on rate skew (default 3)",
    )
    generate.add_argument(
        "--wcet-profile", choices=("uniform", "mixed", "wide"),
        default="mixed",
        help="execution-time draw range (default 'mixed')",
    )
    generate.add_argument(
        "--token-bytes", type=int, default=16,
        help="upper bound on per-edge token sizes in bytes (default 16)",
    )
    generate.set_defaults(handler=_cmd_scenarios)

    serve = commands.add_parser(
        "serve",
        help="serve FlowSpec scenarios over HTTP from a shared workspace",
    )
    serve.add_argument(
        "--workspace", required=True, metavar="DIR",
        help="artifact workspace the service computes into and serves "
             "from; a warm workspace (e.g. from 'repro batch') answers "
             "known requests with zero re-analysis",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8787,
        help="TCP port (default 8787; 0 picks an ephemeral port)",
    )
    serve.add_argument(
        "--jobs", type=int, default=2,
        help="concurrent flow computations (default 2)",
    )
    serve.add_argument(
        "--max-queue", type=int, default=32,
        help="max jobs queued or running before submissions are "
             "rejected with HTTP 429 (default 32)",
    )
    serve.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="execution backend; 'process' computes flows on worker "
             "processes so replicas scale across cores "
             "(see docs/service.md)",
    )
    serve.add_argument(
        "--replica", default="",
        help="replica name surfaced in health and job views (default: "
             "replica-<pid>); replicas sharing one workspace need no "
             "other coordination",
    )
    serve.add_argument(
        "--quiet", action="store_true",
        help="suppress per-request access logging on stderr",
    )
    serve.set_defaults(handler=_cmd_serve)

    platform = commands.add_parser(
        "platform",
        help="run-time platform management: operating-point libraries "
             "plus admission/departure against a live service "
             "(see docs/runtime.md)",
    )
    platform_actions = platform.add_subparsers(
        dest="action", required=True
    )
    build_lib = platform_actions.add_parser(
        "build-library",
        help="precompute the operating-point library for every "
             "application of a FlowSpec (warm workspaces resume with "
             "zero re-analysis)",
    )
    build_lib.add_argument(
        "--spec", required=True,
        help="path to the scenario document (TOML or JSON)",
    )
    build_lib.add_argument(
        "--workspace", required=True, metavar="DIR",
        help="artifact workspace the libraries (and per-size mapping "
             "results) are persisted into; point 'repro serve' at the "
             "same workspace to admit from them",
    )
    build_lib.add_argument(
        "--json", action="store_true",
        help="emit the per-app build summaries as JSON",
    )
    build_lib.set_defaults(handler=_cmd_platform)
    admit = platform_actions.add_parser(
        "admit",
        help="admit a FlowSpec's application onto the platform of a "
             "running service",
    )
    admit.add_argument(
        "--spec", required=True,
        help="path to the scenario document (TOML or JSON)",
    )
    admit.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="base URL of the running service "
             "(default http://127.0.0.1:8787)",
    )
    admit.add_argument(
        "--json", action="store_true",
        help="emit the raw admission decision as JSON",
    )
    admit.set_defaults(handler=_cmd_platform)
    depart = platform_actions.add_parser(
        "depart", help="depart one admitted application by id"
    )
    depart.add_argument(
        "app_id", help="application id reported at admission"
    )
    depart.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="base URL of the running service "
             "(default http://127.0.0.1:8787)",
    )
    depart.add_argument(
        "--migrate", action="store_true",
        help="rebalance survivors onto the freed capacity when the "
             "migration cost model says the downtime pays off",
    )
    depart.add_argument(
        "--json", action="store_true",
        help="emit the raw departure outcome as JSON",
    )
    depart.set_defaults(handler=_cmd_platform)
    pstatus = platform_actions.add_parser(
        "status",
        help="show admitted apps, placements and residual capacity",
    )
    pstatus.add_argument(
        "--url", default="http://127.0.0.1:8787",
        help="base URL of the running service "
             "(default http://127.0.0.1:8787)",
    )
    pstatus.add_argument(
        "--json", action="store_true",
        help="emit the raw platform state as JSON",
    )
    pstatus.set_defaults(handler=_cmd_platform)

    for alias in ("explore", "dse"):
        explore = commands.add_parser(
            alias,
            help=(
                "explore the template design space for the case study"
                + ("" if alias == "explore" else " (alias of 'explore')")
            ),
        )
        explore.add_argument("sequence", nargs="?", default="gradient")
        explore.add_argument("--max-tiles", type=int, default=5)
        explore.add_argument(
            "--jobs", type=int, default=1,
            help="concurrent evaluation workers (default 1: serial)",
        )
        explore.add_argument(
            "--backend", choices=("thread", "process"),
            default="thread",
            help="evaluation backend; 'process' evaluates design "
                 "points on worker processes (true multi-core) with "
                 "identical results",
        )
        explore.add_argument(
            "--effort", choices=("low", "normal", "high"),
            default="normal",
            help="mapping effort per design point",
        )
        explore.add_argument(
            "--max-iterations", type=int, default=None, metavar="N",
            help="override the effort preset's state-space iteration "
                 "budget for every design point (large bounded graphs "
                 "can need more than the preset to find their periodic "
                 "phase)",
        )
        explore.add_argument(
            "--binding", choices=registered("binding"), default="greedy",
            help="binding strategy for every design point",
        )
        explore.add_argument(
            "--routing", choices=registered("routing"), default="xy",
            help="routing strategy for every design point",
        )
        explore.add_argument(
            "--buffer-policy", choices=registered("buffer"),
            default="linear",
            help="buffer growth schedule for every design point",
        )
        explore.add_argument(
            "--seed", type=int, default=None,
            help="seed for randomized binding strategies (ga)",
        )
        explore.add_argument(
            "--heterogeneous", action="store_true",
            help="also sweep the compact heterogeneous tile mix "
                 "(half-size slave memories)",
        )
        explore.add_argument(
            "--with-ca", action="store_true",
            help="also sweep communication-assist variants",
        )
        explore.add_argument(
            "--constraint", metavar="FRACTION",
            help="throughput constraint in iterations/cycle, e.g. 1/6000",
        )
        explore.add_argument(
            "--early-exit", action="store_true",
            help="stop at the first point meeting the constraint",
        )
        explore.add_argument(
            "--csv", action="store_true",
            help="emit machine-readable CSV instead of the report",
        )
        explore.add_argument(
            "--json", action="store_true",
            help="emit the canonical exploration-result artifact "
                 "payload (see docs/artifacts.md)",
        )
        _add_power_arguments(explore, verb="prune design points by")
        explore.set_defaults(handler=_cmd_explore)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
