"""Network topology: a directed graph of nodes and links.

Routing is static shortest-path by hop count, found by a breadth-first
search over an insertion-ordered adjacency map and cached per
(src, dst) pair — the platforms in the paper are trees/rings where
shortest paths are unique, and static routing matches SimGrid's
``Full``/``Floyd`` routing modes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .links import Link
from .nodes import Host, NetNode


class Topology:
    """Container for nodes + directed links, with route computation."""

    def __init__(self, name: str = "net") -> None:
        self.name = name
        #: src name → dst name → directed link, both levels in
        #: insertion order; ``_pred`` is the same map keyed dst-first
        self._adj: Dict[str, Dict[str, Link]] = {}
        self._pred: Dict[str, Dict[str, Link]] = {}
        self._nodes: Dict[str, NetNode] = {}
        self._route_cache: Dict[Tuple[str, str], List[Link]] = {}
        self._latency_cache: Dict[Tuple[str, str], float] = {}
        #: bumped whenever links change; route consumers (the fluid
        #: engine's interned per-pair route info) key their caches on it
        self.version = 0

    # -- construction ------------------------------------------------------
    def add_node(self, node: NetNode) -> NetNode:
        if node.name in self._nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self._nodes[node.name] = node
        self._adj[node.name] = {}
        self._pred[node.name] = {}
        return node

    def add_link(
        self,
        a: NetNode,
        b: NetNode,
        bandwidth: float,
        latency: float,
        duplex: bool = True,
    ) -> Tuple[Link, Optional[Link]]:
        """Connect ``a`` and ``b``.

        Returns ``(forward, backward)`` links; ``backward`` is ``None``
        for a simplex link.  Each direction gets its own capacity
        (full-duplex semantics).
        """
        self._require(a)
        self._require(b)
        fwd = Link(f"{a.name}--{b.name}", bandwidth, latency)
        self._adj[a.name][b.name] = self._pred[b.name][a.name] = fwd
        back: Optional[Link] = None
        if duplex:
            back = Link(f"{b.name}--{a.name}", bandwidth, latency)
            self._adj[b.name][a.name] = self._pred[a.name][b.name] = back
        self._route_cache.clear()
        self._latency_cache.clear()
        self.version += 1
        return fwd, back

    def _require(self, node: NetNode) -> None:
        if self._nodes.get(node.name) is not node:
            raise KeyError(f"node {node.name!r} not registered in topology")

    # -- lookup -------------------------------------------------------------
    def node(self, name: str) -> NetNode:
        return self._nodes[name]

    @property
    def nodes(self) -> Iterable[NetNode]:
        return self._nodes.values()

    @property
    def hosts(self) -> List[Host]:
        """Compute endpoints in deterministic insertion order."""
        return [n for n in self._nodes.values() if isinstance(n, Host)]

    def edges(self) -> List[Tuple[str, str, Link]]:
        """Directed ``(src, dst, link)`` triples: sources in node
        insertion order, each source's links in insertion order."""
        return [(u, v, link) for u, out in self._adj.items()
                for v, link in out.items()]

    def has_edge(self, src: str, dst: str) -> bool:
        return dst in self._adj.get(src, ())

    def links(self) -> List[Link]:
        return [link for out in self._adj.values() for link in out.values()]

    # -- routing --------------------------------------------------------------
    def route(self, src: NetNode, dst: NetNode) -> List[Link]:
        """Ordered directed links from ``src`` to ``dst``."""
        if src is dst:
            return []
        key = (src.name, dst.name)
        cached = self._route_cache.get(key)
        if cached is not None:
            return cached
        links = self._bfs(src.name, dst.name)
        if links is None:
            raise ValueError(f"no route {src.name!r} → {dst.name!r}")
        self._route_cache[key] = links
        return links

    def _bfs(self, src: str, dst: str) -> Optional[List[Link]]:
        """Links of a fewest-hop path ``src`` → ``dst``, or None.

        Bidirectional breadth-first search: whole levels are expanded
        from whichever side has the smaller frontier, and the first
        node reached from both sides joins a shortest path.
        """
        # node → (the node it was reached from, the link between them)
        fwd: Dict[str, Optional[Tuple[str, Link]]] = {src: None}
        back: Dict[str, Optional[Tuple[str, Link]]] = {dst: None}
        fwd_front, back_front = [src], [dst]
        meet = None
        while meet is None and fwd_front and back_front:
            if len(fwd_front) <= len(back_front):
                seen, other, adj = fwd, back, self._adj
                front, fwd_front = fwd_front, []
                grown = fwd_front
            else:
                seen, other, adj = back, fwd, self._pred
                front, back_front = back_front, []
                grown = back_front
            for u in front:
                for v, link in adj[u].items():
                    if v not in seen:
                        seen[v] = (u, link)
                        grown.append(v)
                        if v in other:
                            meet = v
                            break
                if meet is not None:
                    break
        if meet is None:
            return None
        head: List[Link] = []
        node = meet
        while fwd[node] is not None:
            node, link = fwd[node]
            head.append(link)
        head.reverse()
        node = meet
        while back[node] is not None:
            node, link = back[node]
            head.append(link)
        return head

    def route_latency(self, src: NetNode, dst: NetNode) -> float:
        key = (src.name, dst.name)
        lat = self._latency_cache.get(key)
        if lat is None:
            lat = sum(l.latency for l in self.route(src, dst))
            self._latency_cache[key] = lat
        return lat

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Topology {self.name!r}: {len(self._nodes)} nodes,"
            f" {len(self.links())} directed links>"
        )
