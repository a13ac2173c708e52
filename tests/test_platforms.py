"""Tests for the three paper platforms and the description-file dialect."""

import pytest

from repro.desim import Simulator
from repro.net import GBPS, MBPS, FluidNetwork
from repro.platforms import (
    PlatformSpec,
    build_cluster,
    build_daisy,
    build_lan,
    parse_platform_xml,
    write_platform_xml,
)


class TestCluster:
    def test_host_count_and_names(self):
        spec = build_cluster(8)
        assert len(spec.hosts) == 8
        assert spec.hosts[0].name == "node-0"

    def test_take_hosts(self):
        spec = build_cluster(4)
        assert len(spec.take_hosts(2)) == 2
        with pytest.raises(ValueError):
            spec.take_hosts(5)

    def test_route_crosses_backbone_between_leaves(self):
        spec = build_cluster(4)
        # node-0 (leaf a) → node-1 (leaf b) crosses the backbone.
        route = spec.topology.route(spec.hosts[0], spec.hosts[1])
        assert [l.name for l in route] == ["node-0--sw-a", "sw-a--sw-b", "sw-b--node-1"]
        # same-leaf route does not.
        route2 = spec.topology.route(spec.hosts[0], spec.hosts[2])
        assert [l.name for l in route2] == ["node-0--sw-a", "sw-a--node-2"]

    def test_paper_parameters(self):
        spec = build_cluster(2)
        nic = spec.topology.route(spec.hosts[0], spec.hosts[1])[0]
        assert nic.bandwidth == pytest.approx(1 * GBPS)
        assert nic.latency == pytest.approx(100e-6)
        backbone = spec.topology.route(spec.hosts[0], spec.hosts[1])[1]
        assert backbone.bandwidth == pytest.approx(10 * GBPS)

    def test_small_message_latency_budget(self):
        """Cross-leaf one-way latency is 3 hops × 100 µs."""
        spec = build_cluster(2)
        assert spec.topology.route_latency(
            spec.hosts[0], spec.hosts[1]
        ) == pytest.approx(300e-6)


class TestDaisy:
    def test_full_size_is_1024_nodes(self):
        spec = build_daisy()
        assert len(spec.hosts) == 1024
        assert spec.attrs["n_hosts"] == 1024

    def test_small_instance_shape(self):
        spec = build_daisy(
            petals=2, routers_per_petal=2, dslams_per_router=1,
            nodes_per_dslam=2, extra_nodes=1,
        )
        # 2 petals × 2 routers × 1 dslam × 2 nodes + 1 extra = 9
        assert len(spec.hosts) == 9

    def test_last_mile_bandwidth_in_range(self):
        spec = build_daisy(petals=2, routers_per_petal=2, dslams_per_router=1,
                           nodes_per_dslam=3, extra_nodes=0)
        for host in spec.hosts:
            link = spec.topology.route(host, spec.topology.node("core-0"))[0]
            assert 5 * MBPS <= link.bandwidth <= 10 * MBPS

    def test_last_mile_bandwidth_deterministic_per_seed(self):
        kw = dict(petals=1, routers_per_petal=1, dslams_per_router=1,
                  nodes_per_dslam=3, extra_nodes=0)
        s1 = build_daisy(seed=7, **kw)
        s2 = build_daisy(seed=7, **kw)
        s3 = build_daisy(seed=8, **kw)
        bw = lambda s: [
            s.topology.route(h, s.topology.node("dslam-0-0-0"))[0].bandwidth
            for h in s.hosts
        ]
        assert bw(s1) == bw(s2)
        assert bw(s1) != bw(s3)

    def test_same_dslam_peers_have_short_route(self):
        spec = build_daisy(petals=2, routers_per_petal=2, dslams_per_router=2,
                           nodes_per_dslam=2, extra_nodes=0)
        h0, h1 = spec.hosts[0], spec.hosts[1]  # same DSLAM
        route = spec.topology.route(h0, h1)
        assert len(route) == 2  # up to DSLAM, down to peer

    def test_cross_petal_route_traverses_core(self):
        spec = build_daisy(petals=2, routers_per_petal=1, dslams_per_router=1,
                           nodes_per_dslam=1, extra_nodes=0)
        h0, h1 = spec.hosts  # one per petal
        names = [l.name for l in spec.topology.route(h0, h1)]
        assert any(name.startswith("core-") for name in names)

    def test_transfer_between_dsl_peers_is_slow(self):
        """An xDSL exchange of 100 kB takes seconds, not milliseconds —
        the root cause of Stage-2A's poor scaling."""
        spec = build_daisy(petals=1, routers_per_petal=1, dslams_per_router=1,
                           nodes_per_dslam=2, extra_nodes=0)
        sim = Simulator()
        net = FluidNetwork(sim, spec.topology)
        done = net.send(spec.hosts[0], spec.hosts[1], 100e3)
        info = sim.run_until_triggered(done)
        assert info.duration > 0.08  # ≥ 100kB / 10Mbps


class TestLan:
    def test_host_count_default(self):
        spec = build_lan(16)
        assert len(spec.hosts) == 16

    def test_access_rate_paper_value(self):
        spec = build_lan(2)
        link = spec.topology.route(spec.hosts[0], spec.hosts[1])[0]
        assert link.bandwidth == pytest.approx(100 * MBPS)

    def test_backbone_is_shared_bottleneck(self):
        """Many cross-leaf flows contend on the 1 Gbps backbone."""
        spec = build_lan(40)
        sim = Simulator()
        net = FluidNetwork(sim, spec.topology)
        evens = [h for i, h in enumerate(spec.hosts) if i % 2 == 0]
        odds = [h for i, h in enumerate(spec.hosts) if i % 2 == 1]
        sigs = [net.send(a, b, 1e6) for a, b in zip(evens, odds)]
        sim.run()
        makespan = max(s.value.end for s in sigs)
        # 20 MB total over ≤1 Gbps backbone ⇒ ≥ 0.16 s even though each
        # access link alone would finish in 0.08 s.
        assert makespan >= 20e6 / (1 * GBPS)


class TestPlatformXml:
    def test_round_trip_cluster(self):
        spec = build_cluster(4)
        text = write_platform_xml(spec)
        spec2 = parse_platform_xml(text)
        assert spec2.name == spec.name
        assert [h.name for h in spec2.hosts] == [h.name for h in spec.hosts]
        # routes and latencies identical after round trip
        r1 = spec.topology.route_latency(spec.hosts[0], spec.hosts[1])
        r2 = spec2.topology.route_latency(spec2.hosts[0], spec2.hosts[1])
        assert r1 == pytest.approx(r2)

    def test_round_trip_preserves_bandwidths(self):
        spec = build_daisy(petals=1, routers_per_petal=1, dslams_per_router=1,
                           nodes_per_dslam=2, extra_nodes=0)
        spec2 = parse_platform_xml(write_platform_xml(spec))
        for h1, h2 in zip(spec.hosts, spec2.hosts):
            l1 = spec.topology.route(h1, spec.hosts[0])
            l2 = spec2.topology.route(h2, spec2.hosts[0])
            assert [l.bandwidth for l in l1] == pytest.approx(
                [l.bandwidth for l in l2]
            )

    def test_bad_root_rejected(self):
        with pytest.raises(ValueError, match="not a platform"):
            parse_platform_xml("<nonsense/>")

    def test_empty_platform_rejected(self):
        from repro.net import Topology

        with pytest.raises(ValueError, match="no hosts"):
            PlatformSpec("p", Topology(), [])


def _registry_plans():
    """Every distinct platform plan the scenario registry builds."""
    from repro.scenarios import SCENARIOS

    plans = {}
    for entry in SCENARIOS.values():
        for spec in entry.points():
            plans.setdefault(spec.platform, None)
    return list(plans)


def _fresh_platform(plan, monkeypatch):
    """Build ``plan`` uncached, recording the order of link calls."""
    from repro.net import Topology
    from repro.scenarios import platforms

    calls = []
    real = Topology.add_link

    def recording(self, a, b, bandwidth, latency, duplex=True):
        fwd, back = real(self, a, b, bandwidth, latency, duplex)
        calls.append((a.name, b.name, fwd))
        if back is not None:
            calls.append((b.name, a.name, back))
        return fwd, back

    monkeypatch.setattr(Topology, "add_link", recording)
    spec = platforms.build_platform.__wrapped__(plan)
    monkeypatch.setattr(Topology, "add_link", real)
    return spec, calls


class TestRoutingMatchesNetworkx:
    """networkx is the reference the in-house routing replaced: the
    same graph must give the same routes and the same link order."""

    @pytest.mark.parametrize("plan", _registry_plans(),
                             ids=lambda p: f"{p.kind}-{p.n_hosts}")
    def test_routes_and_link_order_equal_networkx(self, plan, monkeypatch):
        nx = pytest.importorskip("networkx")
        spec, calls = _fresh_platform(plan, monkeypatch)
        topo = spec.topology
        graph = nx.DiGraph()
        graph.add_nodes_from(n.name for n in topo.nodes)
        for u, v, link in calls:
            graph.add_edge(u, v, link=link)
        assert topo.links() == [d["link"] for _u, _v, d
                                in graph.edges(data=True)]
        # the first hosts (packed peers) plus an even spread across
        # the whole platform (spread peers cross its backbone)
        stride = max(1, len(spec.hosts) // 20)
        hosts = list(dict.fromkeys(spec.hosts[:20] + spec.hosts[::stride]))
        for src in hosts:
            for dst in hosts:
                if src is dst:
                    continue
                path = nx.shortest_path(graph, src.name, dst.name)
                expected = [graph.edges[u, v]["link"]
                            for u, v in zip(path, path[1:])]
                assert topo.route(src, dst) == expected

    def test_unreachable_pair_raises(self):
        from repro.net import Host, Topology

        topo = Topology()
        a, b = topo.add_node(Host("a")), topo.add_node(Host("b"))
        with pytest.raises(ValueError, match="no route"):
            topo.route(a, b)

    def test_simplex_link_routes_one_way(self):
        from repro.net import Host, Topology

        topo = Topology()
        a, b = topo.add_node(Host("a")), topo.add_node(Host("b"))
        fwd, back = topo.add_link(a, b, 1e6, 1e-3, duplex=False)
        assert back is None
        assert topo.route(a, b) == [fwd]
        with pytest.raises(ValueError, match="no route"):
            topo.route(b, a)
