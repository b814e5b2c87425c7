"""Round-trip property tests for the SDF3-style XML serializer.

The XML dialect (:mod:`repro.sdf.io_sdf3`) is the flow's oldest
serializer and previously had no fuzz coverage: randomized graphs are
pushed through parse(serialize(parse(serialize(g)))) and compared
structurally, plus explicit malformed-document error paths.

The XML format intentionally carries less than the canonical artifact
schema: ``group`` and ``concurrency`` are artifact-only metadata, so the
generator below sticks to XML-representable graphs.
"""

import random
import xml.etree.ElementTree as ET

import pytest

from repro.exceptions import GraphError
from repro.sdf import SDFGraph
from repro.sdf.io_sdf3 import (
    graph_from_xml,
    graph_to_xml,
    load_graph,
    save_graph,
)


def random_graph(seed: int) -> SDFGraph:
    """A random well-formed SDF graph (XML-representable fields only)."""
    rng = random.Random(seed)
    graph = SDFGraph(f"fuzz{seed}")
    n_actors = rng.randint(1, 8)
    names = [f"a{i}" for i in range(n_actors)]
    for name in names:
        graph.add_actor(name, execution_time=rng.randint(0, 5000))
    n_edges = rng.randint(0, 12)
    for index in range(n_edges):
        src, dst = rng.choice(names), rng.choice(names)
        consumption = rng.randint(1, 6)
        initial_tokens = rng.randint(0, 4)
        if src == dst and initial_tokens < consumption:
            # build-time validation rejects a self-loop that could never
            # fire; keep the generated graph constructible
            initial_tokens = consumption + rng.randint(0, 2)
        graph.add_edge(
            f"e{index}",
            src,
            dst,
            production=rng.randint(1, 6),
            consumption=consumption,
            initial_tokens=initial_tokens,
            token_size=rng.choice((0, 1, 4, 12, 64)),
            implicit=rng.random() < 0.3,
        )
    return graph


def xml_roundtrip(graph: SDFGraph) -> SDFGraph:
    return graph_from_xml(graph_to_xml(graph))


class TestRandomizedRoundTrip:
    @pytest.mark.parametrize("seed", range(40))
    def test_parse_serialize_parse_equality(self, seed):
        graph = random_graph(seed)
        once = xml_roundtrip(graph)
        assert once == graph
        # idempotence: a reparsed graph serializes to the same document
        twice = xml_roundtrip(once)
        assert twice == once
        assert ET.tostring(graph_to_xml(once)) == \
            ET.tostring(graph_to_xml(twice))

    @pytest.mark.parametrize("seed", range(40, 50))
    def test_file_roundtrip(self, seed, tmp_path):
        graph = random_graph(seed)
        path = tmp_path / "g.xml"
        save_graph(graph, path)
        assert load_graph(path) == graph

    def test_every_field_class_survives(self):
        g = SDFGraph("fields")
        g.add_actor("A", execution_time=123)
        g.add_actor("B")  # zero execution time
        g.add_edge("ab", "A", "B", production=3, consumption=2,
                   initial_tokens=5, token_size=12)
        g.add_edge("state", "A", "A", initial_tokens=1, implicit=True)
        clone = xml_roundtrip(g)
        assert clone == g
        assert clone.edge("ab").token_size == 12
        assert clone.edge("state").implicit
        assert clone.actor("B").execution_time == 0


def _doc(body: str) -> ET.Element:
    return ET.fromstring(body)


class TestMalformedDocuments:
    def test_wrong_root_rejected(self):
        with pytest.raises(GraphError, match="sdf3"):
            graph_from_xml(_doc("<nonsense/>"))

    def test_missing_application_graph_rejected(self):
        with pytest.raises(GraphError, match="applicationGraph"):
            graph_from_xml(_doc('<sdf3 type="sdf"/>'))

    def test_missing_sdf_section_rejected(self):
        with pytest.raises(GraphError, match="<sdf>"):
            graph_from_xml(
                _doc('<sdf3><applicationGraph name="g"/></sdf3>')
            )

    def test_nameless_actor_rejected(self):
        with pytest.raises(GraphError, match="without name"):
            graph_from_xml(_doc(
                '<sdf3><applicationGraph name="g"><sdf name="g">'
                "<actor/></sdf></applicationGraph></sdf3>"
            ))

    def test_channel_missing_endpoints_rejected(self):
        with pytest.raises(GraphError, match="missing"):
            graph_from_xml(_doc(
                '<sdf3><applicationGraph name="g"><sdf name="g">'
                '<actor name="A"/><channel name="c"/>'
                "</sdf></applicationGraph></sdf3>"
            ))

    def test_channel_to_unknown_actor_rejected(self):
        with pytest.raises(GraphError, match="unknown actor"):
            graph_from_xml(_doc(
                '<sdf3><applicationGraph name="g"><sdf name="g">'
                '<actor name="A"/>'
                '<channel name="c" srcActor="A" dstActor="ghost"/>'
                "</sdf></applicationGraph></sdf3>"
            ))

    def test_duplicate_actor_rejected(self):
        with pytest.raises(GraphError, match="duplicate actor"):
            graph_from_xml(_doc(
                '<sdf3><applicationGraph name="g"><sdf name="g">'
                '<actor name="A"/><actor name="A"/>'
                "</sdf></applicationGraph></sdf3>"
            ))

    def test_unparseable_file_raises(self, tmp_path):
        path = tmp_path / "broken.xml"
        path.write_text("<sdf3><unclosed>", encoding="utf-8")
        with pytest.raises(GraphError, match="broken.xml is not an SDF3"):
            load_graph(path)

    def test_missing_file_raises_graph_error(self, tmp_path):
        with pytest.raises(GraphError, match="cannot read SDF graph"):
            load_graph(tmp_path / "absent.xml")
