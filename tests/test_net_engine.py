"""Tests for the fluid network engine and topology routing."""

import gc
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.desim import Simulator
from repro.net import (
    FluidNetwork,
    Host,
    Link,
    Router,
    TcpModel,
    Topology,
    TransferInfo,
)
from repro.net.sharing import progressive_fill


def two_host_net(bw=1e6, lat=0.01, tcp=TcpModel(bandwidth_factor=1.0, window=1e18)):
    sim = Simulator()
    topo = Topology()
    a = topo.add_node(Host("a", speed=1e9))
    b = topo.add_node(Host("b", speed=1e9))
    topo.add_link(a, b, bw, lat)
    return sim, FluidNetwork(sim, topo, tcp=tcp), a, b


class TestTopology:
    def test_route_direct(self):
        _sim, net, a, b = two_host_net()
        route = net.topology.route(a, b)
        assert [l.name for l in route] == ["a--b"]

    def test_route_self_is_empty(self):
        _sim, net, a, _b = two_host_net()
        assert net.topology.route(a, a) == []

    def test_route_via_router(self):
        topo = Topology()
        a = topo.add_node(Host("a"))
        r = topo.add_node(Router("r"))
        b = topo.add_node(Host("b"))
        topo.add_link(a, r, 1e6, 0.001)
        topo.add_link(r, b, 1e6, 0.002)
        route = topo.route(a, b)
        assert [l.name for l in route] == ["a--r", "r--b"]
        assert topo.route_latency(a, b) == pytest.approx(0.003)

    def test_no_route_raises(self):
        topo = Topology()
        a = topo.add_node(Host("a"))
        b = topo.add_node(Host("b"))
        with pytest.raises(ValueError, match="no route"):
            topo.route(a, b)

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node(Host("a"))
        with pytest.raises(ValueError, match="duplicate"):
            topo.add_node(Host("a"))

    def test_unregistered_node_link_rejected(self):
        topo = Topology()
        a = topo.add_node(Host("a"))
        with pytest.raises(KeyError):
            topo.add_link(a, Host("ghost"), 1e6, 0.0)

    def test_full_duplex_directions_independent(self):
        topo = Topology()
        a = topo.add_node(Host("a"))
        b = topo.add_node(Host("b"))
        fwd, back = topo.add_link(a, b, 1e6, 0.0)
        assert fwd is not back
        assert topo.route(a, b) == [fwd]
        assert topo.route(b, a) == [back]

    def test_simplex_link(self):
        topo = Topology()
        a = topo.add_node(Host("a"))
        b = topo.add_node(Host("b"))
        fwd, back = topo.add_link(a, b, 1e6, 0.0, duplex=False)
        assert back is None
        with pytest.raises(ValueError):
            topo.route(b, a)

    def test_hosts_ordered(self):
        topo = Topology()
        names = [f"h{i}" for i in range(5)]
        for n in names:
            topo.add_node(Host(n))
        assert [h.name for h in topo.hosts] == names


class TestLinkValidation:
    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            Link("bad", 0.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Link("bad", 1.0, -1.0)


class TestFluidTransfers:
    def test_finished_flow_leaves_no_cycle(self):
        # a flow's completion handle holds the flow in its args: a
        # finished flow drops it, so the network frees by refcount
        gc.collect()
        enabled = gc.isenabled()
        gc.disable()
        try:
            sim, net, a, b = two_host_net()
            done = []
            net.send(a, b, 1e5, callback=lambda: done.append(sim.now))
            net.send(b, a, 0, callback=lambda: done.append(sim.now))
            sim.run()
            assert len(done) == 2
            del sim, net, a, b
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_single_transfer_time(self):
        sim, net, a, b = two_host_net(bw=1e6, lat=0.01)
        done = net.send(a, b, 1e6)  # 1 MB over 1 MB/s + 10 ms
        info = sim.run_until_triggered(done)
        assert isinstance(info, TransferInfo)
        assert info.duration == pytest.approx(1.01, rel=1e-9)

    def test_zero_byte_message_is_latency_only(self):
        sim, net, a, b = two_host_net(bw=1e6, lat=0.01)
        done = net.send(a, b, 0)
        info = sim.run_until_triggered(done)
        assert info.duration == pytest.approx(0.01)

    def test_same_host_transfer_instant(self):
        sim, net, a, _b = two_host_net()
        done = net.send(a, a, 1e9)
        info = sim.run_until_triggered(done)
        assert info.duration == pytest.approx(0.0)

    def test_negative_size_rejected(self):
        _sim, net, a, b = two_host_net()
        with pytest.raises(ValueError):
            net.send(a, b, -1)

    def test_two_concurrent_transfers_share_link(self):
        sim, net, a, b = two_host_net(bw=1e6, lat=0.0)
        d1 = net.send(a, b, 1e6)
        d2 = net.send(a, b, 1e6)
        sim.run()
        # Both share 1 MB/s → each gets 0.5 MB/s → 2 s.
        assert d1.value.duration == pytest.approx(2.0, rel=1e-6)
        assert d2.value.duration == pytest.approx(2.0, rel=1e-6)

    def test_staggered_transfer_speeds_up_after_first_finishes(self):
        sim, net, a, b = two_host_net(bw=1e6, lat=0.0)
        d1 = net.send(a, b, 1e6)  # alone: would take 1s
        sim.run(until=0.5)
        d2 = net.send(a, b, 1e6)
        sim.run()
        # d1: 0.5 s alone, then shares; remaining 0.5 MB at 0.5 MB/s →
        # done at t=1.5.  d2 moved 0.5 MB during the shared phase, then
        # finishes its last 0.5 MB at full speed → done at t=2.0.
        assert d1.value.end == pytest.approx(1.5, rel=1e-6)
        assert d2.value.end == pytest.approx(2.0, rel=1e-6)

    def test_opposite_directions_do_not_contend(self):
        sim, net, a, b = two_host_net(bw=1e6, lat=0.0)
        d1 = net.send(a, b, 1e6)
        d2 = net.send(b, a, 1e6)
        sim.run()
        assert d1.value.duration == pytest.approx(1.0, rel=1e-6)
        assert d2.value.duration == pytest.approx(1.0, rel=1e-6)

    def test_tcp_window_caps_high_latency_path(self):
        tcp = TcpModel(bandwidth_factor=1.0, window=1e4)  # 10 kB window
        sim, net, a, b = two_host_net(bw=1e9, lat=0.1, tcp=tcp)
        done = net.send(a, b, 1e6)
        info = sim.run_until_triggered(done)
        # cap = 1e4 / (2*0.1) = 5e4 B/s → 20 s + 0.1 latency.
        assert info.duration == pytest.approx(20.1, rel=1e-6)

    def test_bandwidth_factor_applied(self):
        tcp = TcpModel(bandwidth_factor=0.5, window=1e18)
        sim, net, a, b = two_host_net(bw=1e6, lat=0.0, tcp=tcp)
        done = net.send(a, b, 1e6)
        info = sim.run_until_triggered(done)
        assert info.duration == pytest.approx(2.0, rel=1e-6)

    def test_contention_through_shared_backbone(self):
        # a0,a1 -- r0 --backbone-- r1 -- b0,b1 ; backbone narrower.
        sim = Simulator()
        topo = Topology()
        r0, r1 = topo.add_node(Router("r0")), topo.add_node(Router("r1"))
        topo.add_link(r0, r1, 1e6, 0.0)  # shared bottleneck
        srcs, dsts = [], []
        for i in range(2):
            s = topo.add_node(Host(f"a{i}"))
            d = topo.add_node(Host(f"b{i}"))
            topo.add_link(s, r0, 1e7, 0.0)
            topo.add_link(r1, d, 1e7, 0.0)
            srcs.append(s)
            dsts.append(d)
        net = FluidNetwork(sim, topo, tcp=TcpModel(1.0, 1e18))
        d0 = net.send(srcs[0], dsts[0], 1e6)
        d1 = net.send(srcs[1], dsts[1], 1e6)
        sim.run()
        assert d0.value.duration == pytest.approx(2.0, rel=1e-6)
        assert d1.value.duration == pytest.approx(2.0, rel=1e-6)

    def test_transfer_statistics(self):
        sim, net, a, b = two_host_net()
        net.send(a, b, 500.0)
        net.send(a, b, 1500.0)
        sim.run()
        assert net.transfers_completed == 2
        assert net.bytes_delivered == pytest.approx(2000.0)

    def test_transfer_time_estimate_matches_uncontended_run(self):
        sim, net, a, b = two_host_net(bw=1e6, lat=0.01)
        est = net.transfer_time_estimate(a, b, 1e6)
        done = net.send(a, b, 1e6)
        info = sim.run_until_triggered(done)
        assert info.duration == pytest.approx(est, rel=1e-9)

    def test_many_flows_conservation(self):
        """Aggregate throughput through one link never exceeds capacity:
        total bytes delivered / makespan <= bandwidth."""
        sim, net, a, b = two_host_net(bw=1e6, lat=0.0)
        n = 7
        sigs = [net.send(a, b, 2e5) for _ in range(n)]
        sim.run()
        makespan = max(s.value.end for s in sigs)
        assert n * 2e5 / makespan <= 1e6 * (1 + 1e-9)
        # equal flows, equal finish
        assert makespan == pytest.approx(n * 2e5 / 1e6, rel=1e-6)


class TestReplayHotPath:
    """Route interning, event-batched reshare, uncontended skip."""

    def test_uncontended_transfers_skip_the_solver(self):
        # two flows on disjoint links: no reshare is ever needed
        sim = Simulator()
        topo = Topology()
        hosts = [topo.add_node(Host(f"h{i}")) for i in range(4)]
        topo.add_link(hosts[0], hosts[1], 1e6, 0.0)
        topo.add_link(hosts[2], hosts[3], 1e6, 0.0)
        net = FluidNetwork(sim, topo, tcp=TcpModel(1.0, 1e18))
        d1 = net.send(hosts[0], hosts[1], 1e6)
        d2 = net.send(hosts[2], hosts[3], 1e6)
        sim.run()
        assert d1.value.duration == pytest.approx(1.0, rel=1e-6)
        assert d2.value.duration == pytest.approx(1.0, rel=1e-6)
        assert net.reshare_count == 0

    def test_contended_transfers_invoke_the_solver_once_per_instant(self):
        sim, net, a, b = two_host_net(bw=1e6, lat=0.0)
        for _ in range(5):
            net.send(a, b, 1e6)
        sim.run()
        # five same-instant arrivals coalesce into one reshare (plus
        # the reshares triggered as the equal flows complete together)
        assert 1 <= net.reshare_count <= 2

    def test_route_info_interned_per_pair(self):
        sim, net, a, b = two_host_net()
        net.send(a, b, 10.0)
        net.send(a, b, 20.0)
        assert len(net._routes) == 1
        info = net._routes[("a", "b")]
        assert [l.name for l in info.route] == ["a--b"]
        assert info.latency == pytest.approx(0.01)

    def test_binding_bookkeeping_resets_when_idle(self):
        sim, net, a, b = two_host_net(bw=1e6, lat=0.0)
        net.send(a, b, 1e5)
        net.send(a, b, 1e5)
        sim.run()
        assert net.active_flow_count == 0
        assert not net._binding
        assert not net._ceiling_load

    def test_route_intern_invalidated_by_topology_change(self):
        sim = Simulator()
        topo = Topology()
        a = topo.add_node(Host("a"))
        b = topo.add_node(Host("b"))
        r = topo.add_node(Router("r"))
        topo.add_link(a, r, 1e6, 0.001)
        topo.add_link(r, b, 1e6, 0.001)
        net = FluidNetwork(sim, topo, tcp=TcpModel(1.0, 1e18))
        d1 = net.send(a, b, 1e3)
        sim.run()
        assert d1.value.duration == pytest.approx(0.003, rel=1e-6)
        # a direct shortcut appears: later sends must use it
        topo.add_link(a, b, 1e6, 0.0001)
        d2 = net.send(a, b, 1e3)
        sim.run()
        assert d2.value.duration == pytest.approx(0.0011, rel=1e-6)


# -- solve cache keyed on the class multiset ---------------------------------

def _pose_components(poses):
    """Run ``(at, [(src, dst, size), ...])`` poses on one fresh engine:
    each pose's sends start at ``at`` in list order over equal-latency
    routes, so they activate in the same instant in that order.
    Returns, per pose, the rates just after its reshare and the
    completion times, each keyed by (src, dst)."""
    sim = Simulator()
    topo = Topology()
    r = topo.add_node(Router("r"))
    hosts = {}
    for name, bw in (("a", 1.25e6), ("b", 1e7), ("c", 2e6), ("d", 1e7)):
        hosts[name] = topo.add_node(Host(name))
        topo.add_link(hosts[name], r, bw, 1e-3)
    net = FluidNetwork(sim, topo, tcp=TcpModel(bandwidth_factor=0.92,
                                               window=1e18))
    rates = []
    ends = [{} for _ in poses]

    def snapshot():
        rates.append({(f.src.name, f.dst.name): f.rate
                      for f in net._active.values()})

    def start(k, src, dst, size):
        def arrived():
            ends[k][(src, dst)] = sim.now
        net.send(hosts[src], hosts[dst], size, callback=arrived)

    for k, (at, sends) in enumerate(poses):
        for src, dst, size in sends:
            sim.schedule(at, start, k, src, dst, size)
        sim.schedule(at + 0.01, snapshot)
    sim.run()
    return rates, ends


def test_solve_cache_hits_across_activation_orders(monkeypatch):
    """A binding component re-formed with its flows activated in the
    opposite order is the same class multiset: the second pose replays
    the first's memoized rates (one solver call in all), and each
    pose's rates and completion times equal a fresh engine's."""
    import repro.net.engine as engine_module

    calls = []
    solve = engine_module.progressive_fill

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(engine_module, "progressive_fill", counted)
    # a→c and a→d share a--r, a→c and b→c share r--c: one component
    # whose residual routes are not all single links; a→c finishes
    # first and leaves nothing binding
    forward = [("a", "c", 1e5), ("b", "c", 1e6), ("a", "d", 1e6)]
    backward = forward[::-1]
    rates, ends = _pose_components([(0.0, forward), (10.0, backward)])
    assert len(calls) == 1
    assert len(rates[0]) == 3
    assert rates[0] == rates[1]

    assert max(ends[0].values()) < 10.0
    for k, pose in enumerate([(0.0, forward), (10.0, backward)]):
        fresh_rates, fresh_ends = _pose_components([pose])
        assert rates[k] == fresh_rates[0]
        assert ends[k] == fresh_ends[0]


# -- incremental reshare ≡ full residual solve -------------------------------

def _full_residual_rates(net):
    """Every active flow's rate from one solve of the whole residual
    problem: every class crossing a binding link, grouped in activation
    order, in a single ``progressive_fill`` call; every other flow at
    its ceiling."""
    binding = net._binding
    counts = {}
    for flow in net._active.values():
        if not binding.isdisjoint(flow.info.route):
            counts[flow.info] = counts.get(flow.info, 0) + 1
    rates = progressive_fill(
        {info: [l for l in info.route if l in binding] for info in counts},
        {info: info.ceiling for info in counts},
        counts,
        bandwidth_factor=net.tcp.bandwidth_factor,
    ) if counts else {}
    return {fid: rates.get(flow.info, flow.info.ceiling)
            for fid, flow in net._active.items()}


class _CheckedNetwork(FluidNetwork):
    """The engine under test, held to the full solve after every
    reshare, bit for bit."""

    def _run_reshare(self):
        super()._run_reshare()
        rates = {fid: flow.rate for fid, flow in self._active.items()}
        assert rates == _full_residual_rates(self)


class _FullScanNetwork(FluidNetwork):
    """Reference: every reshare re-solves the full residual problem and
    re-rates every active flow in activation order."""

    def _run_reshare(self):
        self._reshare_pending = False
        self._dirty.clear()
        if not self._active:
            return
        if self.sim.now != self._last_update:
            self._advance_progress()
        self.reshare_count += 1
        rates = _full_residual_rates(self)
        for fid, flow in list(self._active.items()):
            self._set_rate(flow, rates[fid])


def _two_leaf_topology():
    """Three hosts on each of two leaf routers with mixed access
    bandwidths; the leaves share one backbone narrower than the access
    links feeding it, so access links and the backbone can all bind."""
    topo = Topology()
    r0 = topo.add_node(Router("r0"))
    r1 = topo.add_node(Router("r1"))
    topo.add_link(r0, r1, 1.5e6, 1e-3)
    hosts = []
    for leaf, router in enumerate((r0, r1)):
        for i, bw in enumerate((1e6, 2e6, 5e5)):
            host = topo.add_node(Host(f"h{leaf}{i}"))
            topo.add_link(host, router, bw, 1e-4)
            hosts.append(host)
    return topo, hosts


def _run_schedule(net_cls, schedule, window):
    sim = Simulator()
    topo, hosts = _two_leaf_topology()
    net = net_cls(sim, topo, tcp=TcpModel(bandwidth_factor=0.92,
                                          window=window))
    ends = [None] * len(schedule)
    arrivals = []  # completion order, same-instant ties included

    def start(k, src, dst, size):
        def arrived():
            ends[k] = sim.now
            arrivals.append(k)
        net.send(hosts[src], hosts[dst], size, callback=arrived)

    for k, (at, src, dst, size) in enumerate(schedule):
        sim.schedule(at, start, k, src, dst, size)
    sim.run()
    return net, ends, arrivals, sim.event_count


_SCHEDULES = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.05, 0.3, 1.0]),  # many simultaneous starts
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.one_of(st.sampled_from([1e3, 1e5, 1e6]),
                  st.floats(min_value=1.0, max_value=4e6)),
    ),
    min_size=1,
    max_size=16,
)


@given(_SCHEDULES, st.sampled_from([1.2e3, 1e18]))
@settings(max_examples=150, deadline=None)
def test_incremental_reshare_matches_full_residual_solve(schedule, window):
    """Re-solving only the binding components a change touched gives
    every active flow the full solve's rate after every reshare, and
    the same completion times and order, reshares and events as
    re-rating every flow each time.  The 1.2 kB window caps cross-leaf
    flows below their access links (mixed caps); 1e18 leaves them
    uncapped."""
    net, ends, arrivals, events = _run_schedule(
        _CheckedNetwork, schedule, window)
    ref, ref_ends, ref_arrivals, ref_events = _run_schedule(
        _FullScanNetwork, schedule, window)
    assert None not in ends
    assert ends == ref_ends
    assert arrivals == ref_arrivals
    assert net.reshare_count == ref.reshare_count
    assert events == ref_events
