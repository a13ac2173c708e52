"""Byte-identity of SLO queries against a golden fixture.

``tests/data/query_golden.json`` holds, per query, its
``query_hash()``, the canonical JSON of its ``to_dict()`` wire form
(sorted keys, compact separators — the bytes a client sends), and the
name and ``spec_hash()`` of every seed-pool member.  A query hash that
moves orphans every on-disk answer, and a pool spec hash that moves
orphans every cached scenario result a query resolves through, so
both are pinned here independently of how ``QuerySpec`` is built.

Regenerate (only when a semantic change is intended)::

    PYTHONPATH=src python tests/test_query_golden.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.scenarios.spec import PlatformPlan, WorkloadPlan
from repro.serve.query import SERVE_SCHEMA_VERSION, QuerySpec

FIXTURE = Path(__file__).parent / "data" / "query_golden.json"

#: the TINY query of tests/test_serve.py
TINY = {
    "deadline": 1.0,
    "percentile": 90.0,
    "pool": 3,
    "n_peers": 2,
    "workload": {"app": "heat", "n": 64, "nit": 20, "level": "O1"},
    "platform": {"kind": "cluster", "n_hosts": 8},
}


def _queries():
    return {
        "default": QuerySpec(deadline=1.0),
        "tiny": QuerySpec.from_dict(TINY),
        # every compound field off its default: tuple-of-events,
        # tuple-of-pairs, nested zone groups
        "compound": QuerySpec.from_dict(dict(
            TINY,
            churn=[{"time": 0.5, "kind": "tracker"},
                   {"time": 1.5, "kind": "peer", "target": "peer-1"}],
            failure_history=[["peer-3", 2], ["peer-0", 1]],
            deploy_peers=4, n_zones=2,
            fault_plan={"loss": 0.05, "partition_duration": 2.0,
                        "partition_zones": [[0], [1]]},
        )),
        # the flat keywords perfbench's serve-restart workload builds with
        "flat-keywords": QuerySpec(
            deadline=0.0125, percentile=99.0, pool=4, seed_base=2011,
            workload=WorkloadPlan(app="heat", n=64, nit=20, level="O3"),
            platform=PlatformPlan(kind="cluster", n_hosts=8), n_peers=2,
        ),
    }


def _pin(query: QuerySpec):
    return {
        "query_hash": query.query_hash(),
        "wire": json.dumps(query.to_dict(), sort_keys=True,
                           separators=(",", ":")),
        "pool": [[s.name, s.spec_hash()] for s in query.scenario_specs()],
    }


@pytest.mark.parametrize("name", sorted(_queries()))
def test_matches_query_golden(name):
    want = json.loads(FIXTURE.read_text())[name]
    query = _queries()[name]
    got = _pin(query)
    assert got["query_hash"] == want["query_hash"]
    assert got["wire"] == want["wire"]
    assert got["pool"] == want["pool"]
    # the wire form rebuilds the very same query
    again = QuerySpec.from_dict(json.loads(want["wire"]))
    assert again == query and _pin(again) == want


def test_serve_schema_version_is_unchanged():
    # a bump would re-salt every query hash pinned above
    assert SERVE_SCHEMA_VERSION == 1


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    FIXTURE.parent.mkdir(exist_ok=True)
    golden = {name: _pin(q) for name, q in _queries().items()}
    FIXTURE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} queries to {FIXTURE}")
