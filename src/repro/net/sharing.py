"""Max-min fair bandwidth allocation (progressive filling).

Given a set of flows, each crossing an ordered list of directed links
and optionally capped at a per-flow maximum rate (TCP window / NIC),
compute the max-min fair rate vector:

* no link carries more than its capacity;
* every flow is *bottlenecked*: it is either at its rate cap, or it
  crosses some saturated link on which no other flow gets more.

This is the sharing model used by SimGrid's fluid network engine and
is what dPerf relies on for communication-time estimation.

Two entry points:

* :func:`maxmin_allocation` — the classic per-flow interface (one
  route per flow id), used by the tests and by callers that do not
  batch.
* :func:`maxmin_grouped` — the replay hot path.  Flows with an
  *identical* (route, rate-cap) pair — interned per (src, dst) by the
  fluid engine — are solved as one *class* with a multiplicity, so the
  solver's work scales with the number of distinct routes in the
  active set, not the number of flows.  By symmetry every member of a
  class receives the same max-min rate, so the grouped solution equals
  the per-flow one.

Both run the same progressive-filling core, which freezes *batches*
per round: every capped class whose cap is at or below the current
bottleneck share freezes in one pass (freezing a flow at a rate no
larger than any crossed link's fair share can only raise the remaining
shares, so ascending-cap batch freezing is sound), then the bottleneck
link freezes all classes crossing it.  The pre-optimization solver
froze one capped flow per round, which made window/RTT-capped
platforms (xDSL) pay one full link scan per flow per reshare.

Both are *order-free*: the result is a function of the multiset of
(route, cap, multiplicity) classes, bit for bit, not of the order the
mappings list them in.  The solvers enumerate classes in one
canonical order — link names along the route, then cap, then
multiplicity — before any float work, and classes with equal keys
cross the same links with the same cap and size, so they run the same
operations whichever comes first.  Link names are unique within a
topology, so the order never depends on object identity and serial,
parallel and fleet runs agree; the fluid engine relies on it to key
its solve cache on the multiset alone.
"""

from __future__ import annotations

import heapq
import math
from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

from .links import Link

FlowId = Hashable


def maxmin_grouped(
    class_routes: Mapping[FlowId, Sequence[Link]],
    class_caps: Mapping[FlowId, float] | None = None,
    class_sizes: Mapping[FlowId, int] | None = None,
    bandwidth_factor: float = 1.0,
) -> Dict[FlowId, float]:
    """Max-min fair *per-flow* rate for each class of identical flows.

    ``class_sizes[cid]`` flows share the route ``class_routes[cid]``
    and the optional per-flow cap ``class_caps[cid]``; the returned
    rate is what **each** member of the class receives.  A missing
    size means 1.  Classes with an empty route get ``inf`` (same-host;
    the caller treats those as latency-only).
    """
    caps = class_caps or {}
    sizes = class_sizes or {}
    allocation: Dict[FlowId, float] = {}

    # Constraint reduction: fold each flow's narrowest-link bandwidth
    # into its rate cap (a flow alone can never exceed it), then drop
    # every link whose flows cannot collectively reach its capacity
    # even at those ceilings — such a link never binds, whatever the
    # allocation.  On the paper's platforms this prunes the entire
    # backbone (a 100 Gbps core link carrying a few MB/s of last-mile
    # flows is not a constraint), leaving a residual problem of a
    # handful of access links with one or two flows each.
    eff_cap: Dict[FlowId, float] = {}
    for cid, route in class_routes.items():
        if not route:
            allocation[cid] = math.inf
            continue
        eff_cap[cid] = min(
            caps.get(cid, math.inf),
            min(link.bandwidth for link in route) * bandwidth_factor,
        )
    # sum ceiling loads in canonical order, so the binding test below
    # is order-free too
    order = _canonical_order(class_routes, eff_cap, sizes)
    ceiling_load: Dict[Link, float] = {}
    for cid in order:
        total = eff_cap[cid] * sizes.get(cid, 1)
        for link in class_routes[cid]:
            ceiling_load[link] = ceiling_load.get(link, 0.0) + total
    binding = {
        link
        for link, load in ceiling_load.items()
        if load > link.bandwidth * bandwidth_factor * (1 + BINDING_EPS)
    }
    if not binding:
        # No link can saturate: every flow runs at its ceiling.
        allocation.update(eff_cap)
        return allocation

    residual_routes: Dict[FlowId, List[Link]] = {}
    for cid in order:
        constrained = [link for link in class_routes[cid] if link in binding]
        if not constrained:
            # every crossed link was pruned: the cap is the binding
            # constraint
            allocation[cid] = eff_cap[cid]
            continue
        residual_routes[cid] = constrained
    allocation.update(
        progressive_fill(
            residual_routes,
            {cid: eff_cap[cid] for cid in residual_routes},
            sizes,
            bandwidth_factor,
        )
    )
    return allocation


#: Relative slack on the "can this link ever saturate" test; shared by
#: the stateless solver and the fluid engine's incremental bookkeeping
#: so both reduce to the same residual problem.
BINDING_EPS = 1e-9


def _canonical_order(
    class_routes: Mapping[FlowId, Sequence[Link]],
    class_caps: Mapping[FlowId, float],
    sizes: Mapping[FlowId, int],
) -> List[FlowId]:
    """The classes of ``class_caps`` sorted by (link names along the
    route, cap, multiplicity): the history-free order every solver
    pass enumerates classes in.  Ties are interchangeable classes."""
    return sorted(class_caps, key=lambda cid: (
        tuple([link.name for link in class_routes[cid]]),
        class_caps[cid],
        sizes.get(cid, 1),
    ))


def progressive_fill(
    class_routes: Mapping[FlowId, Sequence[Link]],
    class_caps: Mapping[FlowId, float],
    class_sizes: Mapping[FlowId, int] | None = None,
    bandwidth_factor: float = 1.0,
) -> Dict[FlowId, float]:
    """Progressive filling on an already-reduced constraint set.

    Every class must have a non-empty route and a finite per-flow cap
    (callers fold the narrowest-link bandwidth into the cap).  Freezes
    *batches* per round: every capped class at or below the round's
    bottleneck share freezes in one ascending-cap pass (each freeze
    only raises remaining shares, so the whole batch stays valid),
    then the bottleneck link freezes all classes crossing it.
    """
    sizes = class_sizes or {}
    if all(len(route) == 1 for route in class_routes.values()):
        # One constrained link per class (the replay steady state:
        # each halo pair shares one access link, a collective splits
        # the root's link): links are independent, water-fill each.
        return _fill_single_links(
            class_routes, class_caps, sizes, bandwidth_factor
        )
    allocation: Dict[FlowId, float] = {}
    remaining_cap: Dict[Link, float] = {}
    link_classes: Dict[Link, List[FlowId]] = {}
    # live count of unassigned *flows* per link, maintained
    # incrementally so each filling round scans links once
    unassigned_n: Dict[Link, int] = {}
    unassigned: Dict[FlowId, Tuple[Sequence[Link], int]] = {}
    cap_heap: List[Tuple[float, int, FlowId]] = []

    # canonical class order: the heap's tie-breaking sequence numbers,
    # each link's class list and the link scan order follow from it
    order = _canonical_order(class_routes, class_caps, sizes)
    for seq, cid in enumerate(order):
        route = class_routes[cid]
        m = sizes.get(cid, 1)
        unassigned[cid] = (route, m)
        cap_heap.append((class_caps[cid], seq, cid))
        for link in route:
            if link not in remaining_cap:
                remaining_cap[link] = link.bandwidth * bandwidth_factor
                link_classes[link] = []
                unassigned_n[link] = 0
            link_classes[link].append(cid)
            unassigned_n[link] += m
    heapq.heapify(cap_heap)

    def freeze(cid: FlowId, rate: float) -> None:
        allocation[cid] = rate
        route, m = unassigned.pop(cid)
        total = rate * m
        for link in route:
            left = remaining_cap[link] - total
            remaining_cap[link] = left if left > 0.0 else 0.0
            unassigned_n[link] -= m

    while unassigned:
        bottleneck_link: Link | None = None
        bottleneck_share = math.inf
        for link, n in unassigned_n.items():
            if n == 0:
                continue
            share = remaining_cap[link] / n
            if share < bottleneck_share - 1e-15:
                bottleneck_share = share
                bottleneck_link = link

        froze_caps = False
        while cap_heap and cap_heap[0][0] <= bottleneck_share + 1e-15:
            cap, _seq, cid = heapq.heappop(cap_heap)
            if cid in unassigned:
                freeze(cid, max(0.0, cap))
                froze_caps = True
        if froze_caps:
            continue

        if bottleneck_link is None:  # pragma: no cover - defensive
            for cid in list(unassigned):
                allocation[cid] = class_caps[cid]
            break

        rate = max(0.0, bottleneck_share)
        bound = [c for c in link_classes[bottleneck_link] if c in unassigned]
        for cid in bound:
            freeze(cid, rate)

    return allocation


def _fill_single_links(
    class_routes: Mapping[FlowId, Sequence[Link]],
    class_caps: Mapping[FlowId, float],
    sizes: Mapping[FlowId, int],
    bandwidth_factor: float,
) -> Dict[FlowId, float]:
    """Water-fill independent single-link groups (ascending (cap,
    multiplicity) order: a cap at or below the even share freezes, the
    rest split what is left equally).  Links are independent, so their
    order does not matter."""
    allocation: Dict[FlowId, float] = {}
    by_link: Dict[Link, List[FlowId]] = {}
    for cid, route in class_routes.items():
        by_link.setdefault(route[0], []).append(cid)
    for link, cids in by_link.items():
        remaining = link.bandwidth * bandwidth_factor
        n = sum(sizes.get(c, 1) for c in cids)
        order = sorted(cids, key=lambda c: (class_caps[c],
                                            sizes.get(c, 1))) \
            if len(cids) > 1 else cids
        for i, cid in enumerate(order):
            share = remaining / n
            cap = class_caps[cid]
            m = sizes.get(cid, 1)
            if cap <= share + 1e-15:
                allocation[cid] = max(0.0, cap)
                remaining = max(0.0, remaining - cap * m)
                n -= m
            else:
                # sorted: every remaining cap exceeds the even share —
                # equal split of what is left
                rate = max(0.0, share)
                for other in order[i:]:
                    allocation[other] = rate
                break
    return allocation


def maxmin_allocation(
    flow_routes: Mapping[FlowId, Sequence[Link]],
    rate_caps: Mapping[FlowId, float] | None = None,
    bandwidth_factor: float = 1.0,
) -> Dict[FlowId, float]:
    """Return the max-min fair rate (bytes/s) for every flow.

    ``bandwidth_factor`` scales every link capacity (protocol
    efficiency, e.g. 0.92 for TCP).  Flows with an empty route (same
    host) get ``inf`` — the caller treats those as latency-only.
    """
    return maxmin_grouped(
        flow_routes, class_caps=rate_caps, bandwidth_factor=bandwidth_factor
    )


def validate_allocation(
    flow_routes: Mapping[FlowId, Sequence[Link]],
    allocation: Mapping[FlowId, float],
    bandwidth_factor: float = 1.0,
    tol: float = 1e-6,
) -> None:
    """Raise ``AssertionError`` if the allocation oversubscribes a link.

    Used by property-based tests and available for debugging.
    """
    load: Dict[Link, float] = {}
    for fid, route in flow_routes.items():
        rate = allocation[fid]
        if math.isinf(rate):
            continue
        for link in route:
            load[link] = load.get(link, 0.0) + rate
    for link, used in load.items():
        cap = link.bandwidth * bandwidth_factor
        if used > cap * (1 + tol):
            raise AssertionError(
                f"link {link.name} oversubscribed: {used:.6g} > {cap:.6g}"
            )
