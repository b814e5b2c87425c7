"""Byte-stability pin: every artifact kind's canonical bytes, recorded.

For each registered kind one small deterministic object is built by
hand; the SHA-256 of ``canonical_json(to_payload(obj))`` must equal the
literal recorded below.  A codec change that alters a single byte of
any kind's payload -- a renamed key, a dropped field, a different
number format -- fails here, however the codec is written.  Decoding
the bytes and re-encoding must reproduce them exactly.

The kind list itself is pinned too, so a new kind cannot be registered
without recording its bytes here.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from repro.appmodel import (
    ActorImplementation,
    ApplicationModel,
    ImplementationMetrics,
    MemoryRequirements,
)
from repro.arch import architecture_from_template
from repro.arch.area import AreaEstimate
from repro.artifacts import (
    canonical_json,
    from_payload,
    registered_kinds,
    to_payload,
)
from repro.comm.params import ChannelParameters
from repro.flow.design_flow import FlowResult
from repro.flow.dse import (
    CacheStats,
    CandidatePoint,
    DesignPoint,
    EvaluationOutcome,
    ExplorationResult,
    ParetoFront,
    TileMix,
)
from repro.flow.effort import EffortReport, StepTiming
from repro.flow.session import (
    BatchEntry,
    BatchReport,
    SessionResult,
    StageRecord,
)
from repro.flow.usecases import UseCaseMapping
from repro.mamps.project import PlatformProject
from repro.mapping.pipeline import StrategyTuple
from repro.mapping.spec import ChannelMapping, Mapping, MappingResult
from repro.power import EnergyEstimate, PowerEstimate
from repro.runtime.points import (
    ChannelFootprint,
    OperatingPoint,
    OperatingPointLibrary,
)
from repro.scenarios.spec import ScenarioSpec
from repro.sdf import SDFGraph
from repro.sdf.throughput import ThroughputResult
from repro.service.scheduler import FlowResponse
from repro.sim.platform_sim import MeasuredThroughput


def graph():
    g = SDFGraph("golden")
    g.add_actor("src", execution_time=400)
    g.add_actor("dst", execution_time=0, group="chan", concurrency=2)
    g.add_edge("s2d", "src", "dst", production=2, consumption=1,
               initial_tokens=1, token_size=16)
    g.add_edge("selfsrc", "src", "src", initial_tokens=1, implicit=True)
    return g


def implementation(actor="src", wcet=400):
    return ActorImplementation(
        actor=actor, pe_type="microblaze",
        metrics=ImplementationMetrics(
            wcet=wcet, memory=MemoryRequirements(4096, 2048)
        ),
        argument_order=["s2d"],
        name=f"{actor}_impl",
    )


def application():
    return ApplicationModel(
        graph=graph(),
        implementations=[implementation("src"), implementation("dst", 7)],
        throughput_constraint=Fraction(1, 9000),
    )


def fsl_architecture():
    return architecture_from_template(
        3, "fsl", with_ca=True, slave_data_kb=64
    )


def noc_architecture():
    return architecture_from_template(4, "noc")


def channel_parameters():
    return ChannelParameters(
        words_in_flight=4, network_buffer_words=2,
        injection_cycles_per_word=4, channel_latency=3,
    )


def channel_mapping():
    return ChannelMapping(
        edge="s2d", src_tile="tile0", dst_tile="tile1",
        capacity=0, alpha_src=3, alpha_dst=5,
        parameters=channel_parameters(),
    )


def mapping():
    return Mapping(
        application="golden",
        architecture="golden_arch",
        actor_binding={"src": "tile0", "dst": "tile1"},
        implementations={
            "src": implementation("src"), "dst": implementation("dst", 7)
        },
        channels={
            "s2d": channel_mapping(),
            "selfsrc": ChannelMapping(
                edge="selfsrc", src_tile="tile0", dst_tile="tile0",
                capacity=1,
            ),
        },
        static_orders={"tile0": ["src"], "tile1": ["dst", "dst"]},
    )


def throughput():
    return ThroughputResult(
        throughput=Fraction(2, 1201), period=1201,
        iterations_per_period=2, transient_iterations=3,
        tier="analytic",
    )


def mapping_result():
    return MappingResult(
        mapping=mapping(), throughput=throughput(),
        constraint=Fraction(1, 9000), buffer_growth_rounds=2,
    )


def strategy():
    return StrategyTuple(binding="spiral", buffer_policy="exponential",
                         seed=9)


def tile_mix():
    return TileMix("lean", master_kb=(128, 64), slave_kb=(32, 16))


def candidate():
    return CandidatePoint(
        tiles=3, interconnect="noc", with_ca=True, mix=tile_mix(),
        effort="low", strategy=strategy(),
    )


def area():
    return AreaEstimate(slices=5120, brams=24)


def power():
    return PowerEstimate(
        static_mw=Fraction(301, 4), dynamic_mw=Fraction(1200, 7),
        tech_nm=65,
    )


def energy():
    return EnergyEstimate(
        compute_pj=Fraction(9, 2), communication_pj=Fraction(1, 3),
        static_pj=Fraction(17), tech_nm=65,
    )


def design_point(tiles=3, with_power=True):
    return DesignPoint(
        tiles=tiles, interconnect="noc", with_ca=True,
        throughput=Fraction(tiles, 7000), area=AreaEstimate(tiles * 1000,
                                                            tiles * 4),
        constraint_met=tiles > 1, mix="lean", effort="low",
        strategy=strategy(), candidate=candidate(),
        power=power() if with_power else None,
        energy=energy() if with_power else None,
    )


def pareto_front():
    front = ParetoFront()
    front.add(design_point(2, with_power=False))
    front.add(design_point(3, with_power=False))
    return front


def cache_stats():
    return CacheStats(hits=5, misses=7)


def evaluation_outcome():
    return EvaluationOutcome(label="3t/noc+CA", point=design_point(),
                             reason=None)


def exploration_result():
    return ExplorationResult(
        points=[design_point(2, with_power=False), design_point()],
        failures=[("1t/noc", "memory infeasible")],
        front=pareto_front(),
        cache_stats=cache_stats(),
        elapsed_seconds=1.25,
        jobs=2,
        early_exit=True,
        skipped=1,
    )


def effort_report():
    return EffortReport(
        timings=[
            StepTiming("Mapping the design (SDF3)", 0.125),
            StepTiming("Synthesis of the system", 2.5),
        ],
    )


def measured():
    return MeasuredThroughput(
        throughput=Fraction(3, 70000), iterations=30, cycles=700000,
        warmup_iterations=4,
    )


def project():
    return PlatformProject(
        "golden_project",
        files={"system.mhs": "PORT a\n", "src/tile0/main.c": "int x;\n"},
    )


def flow_result():
    return FlowResult(
        mapping_result=mapping_result(), project=project(),
        simulator=None, measured=measured(), effort=effort_report(),
    )


def use_case_mapping():
    return UseCaseMapping(
        results={"video": mapping_result(), "audio": mapping_result()},
        link_pairs=(("tile0", "tile1"), ("tile1", "tile2")),
        tiles_used=("tile0", "tile1", "tile2"),
    )


def stage_record(stage="map:video", status="computed"):
    return StageRecord(
        stage=stage, kind="mapping-result", key="ab12cd34",
        status=status, seconds=0.5, path="artifacts/mapping-result/ab.json",
    )


def session_result():
    return SessionResult(
        spec_name="golden_spec", workspace="ws",
        stages=[stage_record(), stage_record("use-cases", "resumed")],
        mappings={"video": mapping_result()},
        use_cases=use_case_mapping(),
    )


def batch_entry(ok=True):
    return BatchEntry(
        spec="specs/golden.toml", name="golden_spec", ok=ok,
        error=None if ok else "boom", stages_total=4,
        stages_resumed=3, elapsed_seconds=0.75,
        guarantees={"video": "2/1201"}, constraints_met=ok,
    )


def batch_report():
    return BatchReport(entries=[batch_entry(), batch_entry(False)],
                       jobs=2, elapsed_seconds=1.5)


def flow_response():
    return FlowResponse(
        spec_name="golden_spec", request_key="feedbeef",
        mappings={"video": mapping_result()},
        use_cases=use_case_mapping(),
    )


def scenario():
    return ScenarioSpec(family="splitjoin", seed=7, actors=8, max_rate=2,
                        wcet_profile="wide", token_bytes=32,
                        name="golden-scenario")


def operating_point(label="2t"):
    return OperatingPoint(
        label=label,
        tiles=("tile0", "tile1"),
        interconnect="noc",
        throughput=Fraction(2, 1201),
        constraint_met=True,
        area_slices=4242,
        tile_memory={"tile1": (9000, 4000), "tile0": (10000, 5000)},
        channels=(
            ChannelFootprint(edge="s2d", src="tile0", dst="tile1",
                             hops=1, wires=8),
        ),
        state_bytes=4096,
        result=mapping_result(),
    )


def operating_point_library():
    return OperatingPointLibrary(
        app_name="golden", app_fingerprint="0123abcd",
        constraint=Fraction(1, 9000),
        points=[operating_point("1t"), operating_point("2t")],
    )


#: kind -> builder of one deterministic representative object
BUILDERS = {
    "actor-implementation": implementation,
    "application": application,
    "architecture": fsl_architecture,
    "area-estimate": area,
    "batch-entry": batch_entry,
    "batch-report": batch_report,
    "cache-stats": cache_stats,
    "candidate-point": candidate,
    "channel-mapping": channel_mapping,
    "channel-parameters": channel_parameters,
    "design-point": design_point,
    "effort-report": effort_report,
    "energy-estimate": energy,
    "evaluation-outcome": evaluation_outcome,
    "exploration-result": exploration_result,
    "flow-response": flow_response,
    "flow-result": flow_result,
    "interconnect-fsl": lambda: fsl_architecture().interconnect,
    "interconnect-noc": lambda: noc_architecture().interconnect,
    "mapping": mapping,
    "mapping-result": mapping_result,
    "measured-throughput": measured,
    "operating-point": operating_point,
    "operating-point-library": operating_point_library,
    "pareto-front": pareto_front,
    "platform-project": project,
    "power-estimate": power,
    "scenario": scenario,
    "sdf-graph": graph,
    "session-result": session_result,
    "stage-record": stage_record,
    "strategy-tuple": strategy,
    "throughput-result": throughput,
    "tile": lambda: fsl_architecture().tiles[1],
    "tile-mix": tile_mix,
    "use-case-mapping": use_case_mapping,
}

#: kind -> SHA-256 of the builder's canonical bytes (recorded, never
#: regenerated: a change here is an artifact schema change)
DIGESTS = {
    "actor-implementation":
        "52473ad5b1a685e3422fe3205c25d3330e3f1eb5ae8e49a96dc42166ecd635a6",
    "application":
        "e8bc144a74bf5324e63164ea7052b48739a373160edea29d8e8ea55d0b97dafa",
    "architecture":
        "4d15462e067af089a1a1ccfecf83dac9381e2661d77b55cb63fc2c47d2a838bd",
    "area-estimate":
        "e87bebd37709ae2a58bfe1873474c4079ac1a8b70146a1abe6c2435306cd9621",
    "batch-entry":
        "b2c009438cc3d4042bfe274b0ce6904d71b9833473ed21933e1e29f93919edb1",
    "batch-report":
        "9c2ab47c67d6ebf6cfbccd6cb294569267038ce5eff4ae0e611052f1d561c557",
    "cache-stats":
        "e2b83777e46e0fef0cfeffb7a9878cb30e1b33aebdd17b5749f1712f9cc8fe39",
    "candidate-point":
        "18084b6d60ed4b156df17817102a4e85902bf7bad21c7c77865e6daa82d9251a",
    "channel-mapping":
        "c23e54eef7395c6aa5ba5404cf32c5b66c45398da19b66add42a0f476caffd70",
    "channel-parameters":
        "828fe2e4ce8b90c2b49723b329acbfef533e2cdc3ba839db04f12e3ae8e7d32b",
    "design-point":
        "04c1ce0103766f5fde0e754ced57b7472b975d4d1997c8cfc070e4c83f931e21",
    "effort-report":
        "3013a5f46b6bd023c2be26c13d8e70ff98f1708ae615ef6c7d64b59d0b1a3a02",
    "energy-estimate":
        "b49637a9945e3f6a34824952b4a4750d6fdfe02bf524a96f10b6f2a117be8d50",
    "evaluation-outcome":
        "fd8b2ce733d1fde0e75f00de46112a4ece22c28ed463f922ead373b6b7bbcf08",
    "exploration-result":
        "fda8e7677e33116c6c9a9c9f0c1c162113eb986f64f69791597845da9f9dca71",
    "flow-response":
        "ff0e5a96332f592fc6ee5fb2efa9dcca29e94e9820fbc41ba26bf7a5dacdf77d",
    "flow-result":
        "dce4193cee4ee37c3bc60e34d5045a629a2f83706efdca68594355df4a18bdca",
    "interconnect-fsl":
        "6ad07e1e797cc5dfe695c3e80dcdbb90216ba53d69973b79793818b29e9c89a6",
    "interconnect-noc":
        "b7adbd13845f84e2db94e9f7b3d58bdd4c11a1354e0241d42442a43c988cbdf3",
    "mapping":
        "115ef170e27a48e390beb16160476c1f35d5796bb8a053d1f212f54170ff50ca",
    "mapping-result":
        "bd63dc42a803619decb7ad86d55ff5250bb0342cd972bd5777ff51ddeef7599f",
    "measured-throughput":
        "f2a9a8d630396449c72a44859b4445d0b73f1b0e1d368e5b074c809e0c553ed8",
    "operating-point":
        "04f51a19891ab597538ef3e72d10302a950a6ad031777474bf9000efede127dc",
    "operating-point-library":
        "daa34fa3689a736f8cbda66ec858e046802f4fc76ee1ecf0ad9aa120a4e2c364",
    "pareto-front":
        "b3940074698379f45510ff9569883ff1489a839103099e37012498864b882654",
    "platform-project":
        "023712a115820514cc0680067b38b43519c71b7088b54fd02420091e8cc0066d",
    "power-estimate":
        "a4d16787b1dcef2ce6240d906a285c84d9348429503b4d45cc61bb60a7b1e775",
    "scenario":
        "c7ed12e88ab4278dbe485a6d828716c746cae1cd148f9a54c1bbda7ea5b7a342",
    "sdf-graph":
        "8f14a811555c65fcd3011b0c0fbd2a8030723acc3ff107dc6e3baa2c057d3870",
    "session-result":
        "25ee71cbb386ef3f8127d35bcfcf2046570b0a0af09e2707c2969d8030f12ae0",
    "stage-record":
        "6b8e397e06ab50c910d6039fc47403a7296ebb1f33af8ee928de7ae599faf9e7",
    "strategy-tuple":
        "3edbfc829f8d791eb285e3db4b252741eb64ef6a75c3d679bedcb1d23ba68720",
    "throughput-result":
        "117afa018312740b21ae8929592f77c55261127a0200417d6e0752b41afadda0",
    "tile": "1b3bab484e02741135b2a5ecd25e650cedb8704217084fbc1cecef5502e1890d",
    "tile-mix":
        "51496dc481c2112bd16e4ce1e477f159a575590b189e01b9f7f63b200b054d69",
    "use-case-mapping":
        "5f858f5471ae494f792b3cb4b28fc04859d6572f5839d75a915fbe14fa661d4b",
}

#: kind -> SHA-256 from before ``tier_reason`` (throughput-result) and
#: ``engine_tiers`` (effort-report) left the schema, for every kind that
#: embeds either (recorded, never regenerated)
PARENT_DIGESTS = {
    "effort-report":
        "6a18784d56ba597732f5d7df666e1a8bfef564a7ea34deecd258486b6fbabfb5",
    "flow-response":
        "271af28a28c7fc7c56d80bccec14f89a6d9f3044bf0f8591088fee94272361e5",
    "flow-result":
        "fd1772ab920c68790cf912b9de3eb17c9fc2a4ed1023fe480cfa5209f8b10577",
    "mapping-result":
        "c8075806b7ed8911b47c4e3cafccaf1ecc8fd9bf51e800fcdca7f77821b689ca",
    "operating-point":
        "646b4f17e97ed5d7141779f0fd936306fb3053ef990b48d3e49e639e5b940b03",
    "operating-point-library":
        "111989a45317ef17882b37f77c2016fd71e93dfe51832e54e5ad78f09a31b399",
    "session-result":
        "c2af4b15a275e0a4940c56e4bf020c9394fe23d548d3d65e477de157a071ad96",
    "throughput-result":
        "52cc706baa808e3734c46f7bce77e852b0ce5e571c3dcaa456aaeeb89f60e112",
    "use-case-mapping":
        "80c5cd532a5e12255fec4e60f0c1681c53d607de46eff034fc0b19c77c7fa088",
}


def golden_bytes(kind):
    payload = to_payload(BUILDERS[kind]())
    assert payload["kind"] == kind
    return canonical_json(payload)


def test_every_registered_kind_is_pinned():
    assert list(registered_kinds()) == sorted(BUILDERS) == sorted(DIGESTS)
    assert registered_kinds() == (
        "actor-implementation", "application", "architecture",
        "area-estimate", "batch-entry", "batch-report", "cache-stats",
        "candidate-point", "channel-mapping", "channel-parameters",
        "design-point", "effort-report", "energy-estimate",
        "evaluation-outcome", "exploration-result", "flow-response",
        "flow-result", "interconnect-fsl", "interconnect-noc", "mapping",
        "mapping-result", "measured-throughput", "operating-point",
        "operating-point-library", "pareto-front", "platform-project",
        "power-estimate", "scenario", "sdf-graph", "session-result",
        "stage-record", "strategy-tuple", "throughput-result", "tile",
        "tile-mix", "use-case-mapping",
    )


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_canonical_bytes_are_pinned(kind):
    text = golden_bytes(kind)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == DIGESTS[kind]


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_decoding_reencodes_the_same_bytes(kind):
    text = golden_bytes(kind)
    clone = from_payload(json.loads(text))
    assert canonical_json(to_payload(clone)) == text


def parent_era(payload):
    """``payload`` as the previous schema wrote it: every
    throughput-result with its ``tier_reason``, every effort-report with
    its ``engine_tiers``."""
    if isinstance(payload, list):
        return [parent_era(item) for item in payload]
    if not isinstance(payload, dict):
        return payload
    old = {key: parent_era(value) for key, value in payload.items()}
    if payload.get("kind") == "throughput-result":
        old["tier_reason"] = "single strongly connected cycle"
    elif payload.get("kind") == "effort-report":
        old["engine_tiers"] = {"analytic": 3, "vectorized": 1}
    return old


@pytest.mark.parametrize("kind", sorted(BUILDERS))
def test_only_the_dropped_keys_changed(kind):
    """Adding the two dropped keys back restores every previous digest."""
    old = canonical_json(parent_era(json.loads(golden_bytes(kind))))
    digest = hashlib.sha256(old.encode("utf-8")).hexdigest()
    assert digest == PARENT_DIGESTS.get(kind, DIGESTS[kind])


@pytest.mark.parametrize("kind", sorted(PARENT_DIGESTS))
def test_previous_schema_payloads_decode(kind):
    text = golden_bytes(kind)
    clone = from_payload(parent_era(json.loads(text)))
    assert canonical_json(to_payload(clone)) == text
