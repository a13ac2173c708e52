"""Platform specification: a named topology plus its compute hosts.

dPerf feeds SimGrid a *platform description file*; we reproduce that
artifact with a small XML dialect (`write_platform_xml` /
`parse_platform_xml`) so predictions are driven by a serializable,
inspectable description — not by in-memory objects only.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Dict, List

from ..net import Host, NetNode, Router, Topology
from ..net.nodes import Dslam


@dataclass
class PlatformSpec:
    """A simulated execution platform.

    Attributes
    ----------
    name:
        Platform identifier (``grid5000``, ``xdsl``, ``lan``).
    topology:
        The network graph.
    hosts:
        Compute endpoints in deterministic order; experiment runners
        take the first *n* as the participating peers.
    attrs:
        Free-form metadata (builder parameters), recorded for
        EXPERIMENTS.md provenance.
    """

    name: str
    topology: Topology
    hosts: List[Host]
    attrs: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.hosts:
            raise ValueError(f"platform {self.name!r} has no hosts")

    def take_hosts(self, n: int) -> List[Host]:
        if n > len(self.hosts):
            raise ValueError(
                f"platform {self.name!r} has {len(self.hosts)} hosts, need {n}"
            )
        return self.hosts[:n]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<PlatformSpec {self.name!r}: {len(self.hosts)} hosts>"


def write_platform_xml(spec: PlatformSpec) -> str:
    """Serialize a platform to the dPerf platform-description dialect."""
    root = ET.Element("platform", {"name": spec.name, "version": "1"})
    for node in spec.topology.nodes:
        if isinstance(node, Host):
            ET.SubElement(root, "host", {"id": node.name, "speed": repr(node.speed)})
        elif isinstance(node, Dslam):
            ET.SubElement(root, "dslam", {"id": node.name})
        else:
            ET.SubElement(root, "router", {"id": node.name})
    seen = set()
    for u, v, link in spec.topology.edges():
        if (v, u) in seen:
            continue  # emitted as duplex already
        duplex = spec.topology.has_edge(v, u)
        seen.add((u, v))
        ET.SubElement(
            root,
            "link",
            {
                "src": u,
                "dst": v,
                "bandwidth": repr(link.bandwidth),
                "latency": repr(link.latency),
                "duplex": "true" if duplex else "false",
            },
        )
    ET.indent(root)
    return ET.tostring(root, encoding="unicode")


def parse_platform_xml(text: str) -> PlatformSpec:
    """Parse a platform description back into a :class:`PlatformSpec`."""
    root = ET.fromstring(text)
    if root.tag != "platform":
        raise ValueError(f"not a platform file (root tag {root.tag!r})")
    topo = Topology(root.get("name", "platform"))
    hosts: List[Host] = []
    for el in root:
        if el.tag == "host":
            h = Host(el.attrib["id"], speed=float(el.attrib["speed"]))
            topo.add_node(h)
            hosts.append(h)
        elif el.tag == "router":
            topo.add_node(Router(el.attrib["id"]))
        elif el.tag == "dslam":
            topo.add_node(Dslam(el.attrib["id"]))
    for el in root:
        if el.tag == "link":
            topo.add_link(
                topo.node(el.attrib["src"]),
                topo.node(el.attrib["dst"]),
                bandwidth=float(el.attrib["bandwidth"]),
                latency=float(el.attrib["latency"]),
                duplex=el.attrib.get("duplex", "true") == "true",
            )
    return PlatformSpec(root.get("name", "platform"), topo, hosts)
