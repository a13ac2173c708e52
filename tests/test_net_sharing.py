"""Unit + property tests for max-min fair bandwidth sharing."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import Link, maxmin_allocation, validate_allocation


def L(name, bw):
    return Link(name, bw, 0.0)


def test_single_flow_gets_full_capacity():
    l = L("a", 100.0)
    alloc = maxmin_allocation({"f": [l]})
    assert alloc["f"] == pytest.approx(100.0)


def test_two_flows_share_equally():
    l = L("a", 100.0)
    alloc = maxmin_allocation({"f1": [l], "f2": [l]})
    assert alloc["f1"] == pytest.approx(50.0)
    assert alloc["f2"] == pytest.approx(50.0)


def test_bandwidth_factor_scales_capacity():
    l = L("a", 100.0)
    alloc = maxmin_allocation({"f": [l]}, bandwidth_factor=0.92)
    assert alloc["f"] == pytest.approx(92.0)


def test_flow_bottlenecked_by_narrowest_link():
    wide, narrow = L("wide", 1000.0), L("narrow", 10.0)
    alloc = maxmin_allocation({"f": [wide, narrow]})
    assert alloc["f"] == pytest.approx(10.0)


def test_unused_capacity_redistributed():
    """Classic max-min example: one capped flow leaves room for others."""
    shared = L("shared", 100.0)
    thin = L("thin", 10.0)
    # f1 crosses thin+shared (bottlenecked at 10), f2 only shared.
    alloc = maxmin_allocation({"f1": [thin, shared], "f2": [shared]})
    assert alloc["f1"] == pytest.approx(10.0)
    assert alloc["f2"] == pytest.approx(90.0)


def test_rate_cap_respected_and_redistributed():
    shared = L("shared", 100.0)
    alloc = maxmin_allocation(
        {"f1": [shared], "f2": [shared]}, rate_caps={"f1": 20.0}
    )
    assert alloc["f1"] == pytest.approx(20.0)
    assert alloc["f2"] == pytest.approx(80.0)


def test_empty_route_is_infinite():
    alloc = maxmin_allocation({"local": []})
    assert math.isinf(alloc["local"])


def test_three_link_chain_parking_lot():
    """Parking-lot scenario: one long flow + per-hop short flows."""
    l0, l1, l2 = L("l0", 30.0), L("l1", 30.0), L("l2", 30.0)
    alloc = maxmin_allocation(
        {
            "long": [l0, l1, l2],
            "s0": [l0],
            "s1": [l1],
            "s2": [l2],
        }
    )
    # Every link: long + one short → fair share 15 each.
    for f in ("long", "s0", "s1", "s2"):
        assert alloc[f] == pytest.approx(15.0)


def test_no_flows():
    assert maxmin_allocation({}) == {}


def test_validate_allocation_catches_oversubscription():
    l = L("a", 10.0)
    with pytest.raises(AssertionError, match="oversubscribed"):
        validate_allocation({"f": [l]}, {"f": 20.0})


# -- property-based ---------------------------------------------------------

@st.composite
def random_networks(draw):
    n_links = draw(st.integers(min_value=1, max_value=6))
    links = [
        L(f"l{i}", draw(st.floats(min_value=1.0, max_value=1e4)))
        for i in range(n_links)
    ]
    n_flows = draw(st.integers(min_value=1, max_value=8))
    flows = {}
    caps = {}
    for f in range(n_flows):
        route_len = draw(st.integers(min_value=1, max_value=n_links))
        idx = draw(
            st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=route_len,
                max_size=route_len,
                unique=True,
            )
        )
        flows[f"f{f}"] = [links[i] for i in idx]
        if draw(st.booleans()):
            caps[f"f{f}"] = draw(st.floats(min_value=0.5, max_value=1e4))
    return flows, caps


@given(random_networks())
@settings(max_examples=150, deadline=None)
def test_maxmin_never_oversubscribes(net):
    flows, caps = net
    alloc = maxmin_allocation(flows, caps)
    validate_allocation(flows, alloc)


@given(random_networks())
@settings(max_examples=150, deadline=None)
def test_maxmin_every_flow_bottlenecked(net):
    """Pareto/bottleneck property: each flow is at its cap or crosses a
    saturated link."""
    flows, caps = net
    alloc = maxmin_allocation(flows, caps)
    # link loads
    load = {}
    for fid, route in flows.items():
        for link in route:
            load[link] = load.get(link, 0.0) + alloc[fid]
    for fid, route in flows.items():
        at_cap = fid in caps and alloc[fid] >= caps[fid] * (1 - 1e-9)
        saturated = any(load[l] >= l.bandwidth * (1 - 1e-6) for l in route)
        assert at_cap or saturated, f"flow {fid} not bottlenecked"


@given(random_networks())
@settings(max_examples=100, deadline=None)
def test_maxmin_rates_nonnegative_and_capped(net):
    flows, caps = net
    alloc = maxmin_allocation(flows, caps)
    for fid in flows:
        assert alloc[fid] >= 0.0
        if fid in caps:
            assert alloc[fid] <= caps[fid] * (1 + 1e-9)


@given(st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_maxmin_symmetric_flows_get_equal_shares(n):
    l = L("l", 1000.0)
    alloc = maxmin_allocation({f"f{i}": [l] for i in range(n)})
    rates = list(alloc.values())
    assert all(r == pytest.approx(1000.0 / n) for r in rates)


# -- grouped classes + reduced filling (the replay hot path) ----------------

from repro.net.sharing import maxmin_grouped, progressive_fill  # noqa: E402


def test_grouped_multiplicity_equals_expanded_flows():
    """One class of m identical flows must get the per-flow rate the
    expanded problem gives each of them."""
    shared = L("shared", 90.0)
    thin = L("thin", 10.0)
    expanded = maxmin_allocation(
        {"a0": [shared], "a1": [shared], "a2": [shared],
         "long": [thin, shared]}
    )
    grouped = maxmin_grouped(
        {"a": [shared], "long": [thin, shared]},
        class_sizes={"a": 3},
    )
    assert grouped["a"] == pytest.approx(expanded["a0"])
    assert grouped["long"] == pytest.approx(expanded["long"])
    # conservation: 3·a + long ≤ shared capacity
    assert 3 * grouped["a"] + grouped["long"] <= 90.0 * (1 + 1e-9)


def test_grouped_caps_apply_per_flow():
    link = L("l", 100.0)
    alloc = maxmin_grouped(
        {"capped": [link], "free": [link]},
        class_caps={"capped": 10.0},
        class_sizes={"capped": 2, "free": 1},
    )
    assert alloc["capped"] == pytest.approx(10.0)
    assert alloc["free"] == pytest.approx(80.0)


def test_backbone_pruning_is_exact():
    """A huge shared backbone must not disturb last-mile bottlenecks —
    the constraint-reduction path and the naive solve agree."""
    core = L("core", 1e9)
    miles = [L(f"mile{i}", 10.0 + i) for i in range(4)]
    flows = {f"f{i}": [miles[i], core] for i in range(4)}
    alloc = maxmin_allocation(flows)
    for i in range(4):
        assert alloc[f"f{i}"] == pytest.approx(10.0 + i)


def test_progressive_fill_single_link_waterfill():
    link = L("l", 100.0)
    alloc = progressive_fill(
        {"a": [link], "b": [link], "c": [link]},
        {"a": 10.0, "b": 1000.0, "c": 1000.0},
    )
    assert alloc["a"] == pytest.approx(10.0)
    assert alloc["b"] == pytest.approx(45.0)
    assert alloc["c"] == pytest.approx(45.0)


@given(random_networks())
@settings(max_examples=100, deadline=None)
def test_grouped_with_sizes_never_oversubscribes(net):
    flows, caps = net
    sizes = {fid: (i % 3) + 1 for i, fid in enumerate(flows)}
    alloc = maxmin_grouped(flows, caps, class_sizes=sizes)
    load = {}
    for fid, route in flows.items():
        rate = alloc[fid]
        if math.isinf(rate):
            continue
        for link in route:
            load[link] = load.get(link, 0.0) + rate * sizes[fid]
    for link, used in load.items():
        assert used <= link.bandwidth * (1 + 1e-6)


# -- separability (what the engine's dirty-component reshare relies on) -----

_BANDWIDTHS = st.one_of(st.sampled_from([1e6, 1.25e6, 2e6, 3e6]),
                        st.floats(min_value=1.0, max_value=1e9))
_CAPS = st.one_of(st.sampled_from([2.5e5, 5e5, 1e6]),
                  st.floats(min_value=0.5, max_value=1e9))


@st.composite
def separable_problems(draw):
    """Two to four link-disjoint components of classes (routes, caps
    with the narrowest link folded in, multiplicities), plus one
    global order that interleaves their classes.  Repeated bandwidths
    make exact share ties across components common."""
    components = []
    for c in range(draw(st.integers(min_value=2, max_value=4))):
        n_links = draw(st.integers(min_value=1, max_value=4))
        links = [L(f"c{c}l{i}", draw(_BANDWIDTHS)) for i in range(n_links)]
        classes = {}
        for k in range(draw(st.integers(min_value=1, max_value=5))):
            idx = draw(st.lists(
                st.integers(min_value=0, max_value=n_links - 1),
                min_size=1, max_size=n_links, unique=True))
            route = [links[i] for i in idx]
            cap = min(draw(_CAPS), min(l.bandwidth for l in route) * 0.92)
            classes[f"c{c}k{k}"] = (route, cap,
                                    draw(st.integers(min_value=1,
                                                     max_value=4)))
        components.append(classes)
    order = draw(st.permutations(
        [cid for classes in components for cid in classes]))
    return components, order


@given(separable_problems())
@settings(max_examples=200, deadline=None)
def test_progressive_fill_separates_over_disjoint_components(problem):
    """Solving link-disjoint components together gives, bit for bit,
    the rates of solving each alone — so the fluid engine may re-solve
    only the components a change touched."""
    components, order = problem
    spec = {cid: cls for classes in components for cid, cls in
            classes.items()}

    def solve(cids):
        return progressive_fill(
            {c: spec[c][0] for c in cids},
            {c: spec[c][1] for c in cids},
            {c: spec[c][2] for c in cids},
            bandwidth_factor=0.92,
        )

    parts = {}
    for classes in components:
        parts.update(solve([c for c in order if c in classes]))
    assert solve(order) == parts


# -- order-freedom (what the engine's multiset-keyed solve cache relies on) -

@st.composite
def shuffled_problems(draw):
    """Classes over a few shared links with repeated bandwidths, equal
    caps and multiplicities above 1 — exact share ties everywhere —
    plus several shuffled insertion orders of the same classes."""
    links = [L(f"l{i}", draw(st.sampled_from([1e6, 1.25e6, 2e6, 3e6])))
             for i in range(draw(st.integers(min_value=2, max_value=5)))]
    classes = {}
    for k in range(draw(st.integers(min_value=2, max_value=8))):
        idx = draw(st.lists(st.integers(min_value=0,
                                        max_value=len(links) - 1),
                            min_size=1, max_size=3, unique=True))
        route = [links[i] for i in idx]
        cap = draw(st.one_of(st.none(),
                             st.sampled_from([2.5e5, 3e5, 5e5, 1e6])))
        classes[f"k{k}"] = (route, cap,
                            draw(st.integers(min_value=1, max_value=3)))
    orders = [draw(st.permutations(list(classes))) for _ in range(4)]
    return classes, orders


@given(shuffled_problems())
@settings(max_examples=300, deadline=None)
def test_solvers_are_order_free(problem):
    """The same class multiset listed in any order gets the same rates,
    bit for bit, from both entry points — so a solve can be memoized
    on the multiset alone."""
    classes, orders = problem

    def fill(order):
        return progressive_fill(
            {c: classes[c][0] for c in order},
            {c: min(classes[c][1] or math.inf,
                    min(l.bandwidth for l in classes[c][0]) * 0.92)
             for c in order},
            {c: classes[c][2] for c in order},
            bandwidth_factor=0.92,
        )

    def grouped(order):
        return maxmin_grouped(
            {c: classes[c][0] for c in order},
            {c: classes[c][1] for c in order
             if classes[c][1] is not None},
            {c: classes[c][2] for c in order},
            bandwidth_factor=0.92,
        )

    first = orders[0]
    for order in orders[1:]:
        assert fill(order) == fill(first)
        assert grouped(order) == grouped(first)
