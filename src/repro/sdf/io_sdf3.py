"""SDF3-style XML persistence for SDF graphs.

The paper's flow uses "a common input format for both the mapping and
platform generation tools" (Section 2) to remove the error-prone manual
translation step of CA-MPSoC.  This module provides that interchange format:
an XML dialect closely modelled on SDF3's ``<sdf3type="sdf">`` files, so
graphs round-trip between the mapping side and the generation side (and, for
simple graphs, remain recognizable to people who know the SDF3 schema).

Layout::

    <sdf3 type="sdf" version="1.0">
      <applicationGraph name="g">
        <sdf name="g">
          <actor name="A" type="A"> <port .../> ... </actor>
          <channel name="a2b" srcActor="A" srcPort="p0"
                   dstActor="B" dstPort="p1" initialTokens="0"/>
        </sdf>
        <sdfProperties>
          <actorProperties actor="A">
            <processor type="default" default="true">
              <executionTime time="100"/>
            </processor>
          </actorProperties>
          <channelProperties channel="a2b" tokenSize="4"/>
        </sdfProperties>
      </applicationGraph>
    </sdf3>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from pathlib import Path
from typing import Union

from repro.exceptions import GraphError
from repro.sdf.graph import SDFGraph


def graph_to_xml(graph: SDFGraph) -> ET.Element:
    """Serialize ``graph`` into an SDF3-style element tree."""
    root = ET.Element("sdf3", {"type": "sdf", "version": "1.0"})
    app = ET.SubElement(root, "applicationGraph", {"name": graph.name})
    sdf = ET.SubElement(app, "sdf", {"name": graph.name})

    port_counter = 0
    port_names = {}  # (edge, end) -> port name
    actor_elements = {}
    for actor in graph:
        actor_elements[actor.name] = ET.SubElement(
            sdf, "actor", {"name": actor.name, "type": actor.name}
        )

    for edge in graph.edges:
        src_port = f"p{port_counter}"
        dst_port = f"p{port_counter + 1}"
        port_counter += 2
        port_names[(edge.name, "src")] = src_port
        port_names[(edge.name, "dst")] = dst_port
        ET.SubElement(
            actor_elements[edge.src],
            "port",
            {"name": src_port, "type": "out", "rate": str(edge.production)},
        )
        ET.SubElement(
            actor_elements[edge.dst],
            "port",
            {"name": dst_port, "type": "in", "rate": str(edge.consumption)},
        )

    for edge in graph.edges:
        attrs = {
            "name": edge.name,
            "srcActor": edge.src,
            "srcPort": port_names[(edge.name, "src")],
            "dstActor": edge.dst,
            "dstPort": port_names[(edge.name, "dst")],
        }
        if edge.initial_tokens:
            attrs["initialTokens"] = str(edge.initial_tokens)
        if edge.implicit:
            attrs["implicit"] = "true"
        ET.SubElement(sdf, "channel", attrs)

    properties = ET.SubElement(app, "sdfProperties")
    for actor in graph:
        actor_props = ET.SubElement(
            properties, "actorProperties", {"actor": actor.name}
        )
        processor = ET.SubElement(
            actor_props, "processor", {"type": "default", "default": "true"}
        )
        ET.SubElement(
            processor, "executionTime", {"time": str(actor.execution_time)}
        )
    for edge in graph.edges:
        if edge.token_size:
            ET.SubElement(
                properties,
                "channelProperties",
                {"channel": edge.name, "tokenSize": str(edge.token_size)},
            )
    return root


def graph_from_xml(root: ET.Element) -> SDFGraph:
    """Parse an SDF3-style element tree into an :class:`SDFGraph`."""
    if root.tag != "sdf3":
        raise GraphError(f"expected <sdf3> root element, got <{root.tag}>")
    app = root.find("applicationGraph")
    if app is None:
        raise GraphError("missing <applicationGraph>")
    sdf = app.find("sdf")
    if sdf is None:
        raise GraphError("missing <sdf>")

    graph = SDFGraph(app.get("name", sdf.get("name", "sdf")))

    # Ports carry the rates; index them per actor.
    port_rates = {}  # (actor, port) -> rate
    for actor_el in sdf.findall("actor"):
        actor_name = actor_el.get("name")
        if actor_name is None:
            raise GraphError("<actor> without name")
        graph.add_actor(actor_name)
        for port_el in actor_el.findall("port"):
            port_name = port_el.get("name")
            rate = int(port_el.get("rate", "1"))
            port_rates[(actor_name, port_name)] = rate

    for channel_el in sdf.findall("channel"):
        name = channel_el.get("name")
        src = channel_el.get("srcActor")
        dst = channel_el.get("dstActor")
        if name is None or src is None or dst is None:
            raise GraphError("<channel> missing name/srcActor/dstActor")
        production = port_rates.get((src, channel_el.get("srcPort")), 1)
        consumption = port_rates.get((dst, channel_el.get("dstPort")), 1)
        graph.add_edge(
            name,
            src,
            dst,
            production=production,
            consumption=consumption,
            initial_tokens=int(channel_el.get("initialTokens", "0")),
            implicit=channel_el.get("implicit") == "true",
        )

    properties = app.find("sdfProperties")
    if properties is not None:
        for actor_props in properties.findall("actorProperties"):
            actor_name = actor_props.get("actor")
            for processor in actor_props.findall("processor"):
                exec_el = processor.find("executionTime")
                if exec_el is not None and actor_name in graph:
                    graph.actor(actor_name).execution_time = int(
                        exec_el.get("time", "0")
                    )
        for channel_props in properties.findall("channelProperties"):
            channel_name = channel_props.get("channel")
            if channel_name and graph.has_edge(channel_name):
                graph.edge(channel_name).token_size = int(
                    channel_props.get("tokenSize", "0")
                )
    return graph


def save_graph(graph: SDFGraph, path: Union[str, Path]) -> None:
    """Write ``graph`` to ``path`` as SDF3-style XML."""
    tree = ET.ElementTree(graph_to_xml(graph))
    try:
        ET.indent(tree)  # Python >= 3.9
    except AttributeError:  # pragma: no cover
        pass
    tree.write(str(path), encoding="unicode", xml_declaration=True)


def load_graph(path: Union[str, Path]) -> SDFGraph:
    """Read an SDF3-style XML file into an :class:`SDFGraph`.

    Raises :class:`GraphError` naming ``path`` when the file cannot be
    read or is not XML.
    """
    try:
        tree = ET.parse(str(path))
    except OSError as error:
        raise GraphError(
            f"cannot read SDF graph {path}: {error.strerror}"
        ) from None
    except ET.ParseError as error:
        raise GraphError(f"{path} is not an SDF3 XML file: {error}") from None
    return graph_from_xml(tree.getroot())
