"""Fig. 9 — Stage-1 reference execution time for all optimization levels.

Paper: obstacle problem under P2PDC on the Bordeplage cluster; 2, 4,
8, 16, 32 peers; GCC levels 0/1/2/3/s.  Expected shape: strong scaling
in the peer count, O0 ≈ 40 s at 2 peers far above the tight
O1/O2/O3/Os cluster.
"""

from conftest import emit

from repro.analysis import format_series
from repro.experiments import Stage1Config, run_stage1


def test_fig9_reference_all_levels(benchmark):
    config = Stage1Config()  # full: 5 peer counts × 5 levels

    result = benchmark.pedantic(run_stage1, args=(config,),
                                rounds=1, iterations=1)

    series = {
        f"optimization level {lvl[1:]}": result.reference_series(lvl)
        for lvl in config.levels
    }
    emit("fig9", format_series(
        "Fig. 9 — Stage-1 reference execution time t_normal_execution [s]",
        "number of peers", series,
    ))

    # shape assertions: strong scaling + the level family ordering
    o0 = result.reference_series("O0")
    print("O0 by peer count (bound: strictly decreasing): "
          + ", ".join(f"{n}: {o0[n]:.3f} s" for n in sorted(o0)))
    assert o0[2] > o0[4] > o0[8] > o0[16] > o0[32]
    print(f"O0 at 2 peers: {o0[2]:.3f} s (bound 30-50 s)")
    assert 30.0 < o0[2] < 50.0  # paper ≈ 42 s
    for n in config.peer_counts:
        cluster = [result.reference[(n, lvl)] for lvl in ("O1", "O2", "Os")]
        print(f"{n} peers: O0 / max(O1, O2, Os) "
              f"{result.reference[(n, 'O0')] / max(cluster):.3f} "
              f"(bound > 1.8), O3 / min(O1, O2, Os) "
              f"{result.reference[(n, 'O3')] / min(cluster):.4f} "
              f"(bound <= 1.05)")
        assert result.reference[(n, "O0")] > 1.8 * max(cluster)
        assert result.reference[(n, "O3")] <= min(cluster) * 1.05
