"""S2 — reference-path benchmark: the churn grids' execution cost.

``test_reference_grids`` executes every point of the two recovery
grids serially (the churn-grid inner loop every sweep pays) and
prints the wall time per grid for information.  The *enforced*
regression guard is machine-independent: the total ``sim_events``
over each grid must equal :data:`SIM_EVENTS_TOTAL` exactly — the
reference fast core (tuple agenda, reshare solve cache, deployment
template cache, persistent trace cache) must never change which
events execute.  Timing claims for this path come from
``perfbench/``'s ``sweep-recovery`` workload.

``test_shard_merge_smoke`` runs a tiny sweep as two shards, each in
its own cache dir, through the real CLI; one ``sweep --from-cache``
per shard dir then executes nothing and writes a manifest
byte-identical to the unsharded one — the cross-machine workflow of
docs/sharding.md in miniature.
"""

import time

from repro.analysis import format_table
from repro.scenarios import SCENARIOS
from repro.scenarios.runner import run_scenario

#: Total ``sim_events`` per grid — the determinism pin.
SIM_EVENTS_TOTAL = {
    "coordinator-grid": 251355,
    "recovery-grid": 229202,
}


def test_reference_grids():
    rows = []
    for grid, pinned in SIM_EVENTS_TOTAL.items():
        specs = SCENARIOS[grid].points()
        run_scenario(specs[0])  # warm the workload calibration
        t0 = time.perf_counter()
        results = [run_scenario(spec) for spec in specs]
        wall = time.perf_counter() - t0
        events = int(sum(r.metrics.get("sim_events", 0) for r in results))
        rows.append([grid, str(len(specs)), f"{wall:.2f}", str(events)])
        # the machine-independent contract: the fast core must not
        # change which events execute
        assert events == pinned, (
            f"{grid}: sim_events drifted from the pinned total "
            f"({events} != {pinned}) — the reference fast core "
            f"changed simulation behaviour"
        )
    print(format_table(["grid", "points", "wall [s]", "sim events"], rows))


def test_shard_merge_smoke(tmp_path, capsys):
    from repro.scenarios.cli import main
    from repro.scenarios.runner import clear_memo

    sets = [
        "--set", "workload.app=heat", "--set", "workload.n=64",
        "--set", "workload.nit=30", "--set", "workload.level=O0,O1",
        "--set", "n_peers=2,4",
    ]

    def sweep(cache, *extra):
        return main(["sweep", "fig10-cluster-o3", "--workers", "1",
                     "--label", "tiny", "--cache-dir", str(cache)]
                    + sets + list(extra))

    plain = tmp_path / "plain"
    assert sweep(plain) == 0
    shards = []
    for i in range(2):
        clear_memo()
        shards.append(tmp_path / f"shard{i}")
        assert sweep(shards[-1], "--shard", f"{i}/2") == 0
    clear_memo()  # the re-run must be served from the unioned disk
    capsys.readouterr()
    merged = tmp_path / "merged"
    assert sweep(merged, "--from-cache", str(shards[0]),
                 "--from-cache", str(shards[1])) == 0
    assert "4 from cache, 0 executed" in capsys.readouterr().out
    assert ((merged / "sweeps" / "tiny.json").read_bytes()
            == (plain / "sweeps" / "tiny.json").read_bytes()), \
        "shard-union manifest is not byte-identical"
