"""Fig. 11 — reference vs predictions for Grid5000, xDSL and LAN (O0).

Paper: the same traces replayed on three platform descriptions.  The
xDSL desktop grid is far slower and degrades as peers are added ("the
necessary time to exchange data tends to increase ... with the number
of peers"), the LAN sits slightly above the cluster.
"""

from conftest import emit

from repro.analysis import format_series
from repro.experiments import Stage2Config, run_stage2


def test_fig11_three_platforms(benchmark):
    config = Stage2Config()  # full peer counts, level O0

    result = benchmark.pedantic(run_stage2, args=(config,),
                                rounds=1, iterations=1)

    emit("fig11", format_series(
        "Fig. 11 — reference vs predicted time, Grid5000 / xDSL / LAN, O0 [s]",
        "number of peers", result.series(),
    ))

    g5k = result.predicted["grid5000"]
    lan = result.predicted["lan"]
    xdsl = result.predicted["xdsl"]
    for n in config.peer_counts:
        # ordering: xDSL ≫ LAN ≥ Grid5000
        print(f"{n} peers: xDSL/LAN {xdsl[n] / lan[n]:.3f} (bound > 1.3), "
              f"LAN/G5K {lan[n] / g5k[n]:.5f} (bound >= 0.999)")
        assert xdsl[n] > 1.3 * lan[n]
        assert lan[n] >= g5k[n] * 0.999
    # "the necessary time to exchange data tends to increase with the
    # number of peers, while the computation load per peer decreases":
    # exchange time ≈ t_xdsl − t_cluster (compute is platform-invariant)
    comm = {n: xdsl[n] - g5k[n] for n in config.peer_counts}
    print(f"exchange time: {comm[32]:.3f} s at 32 peers "
          f"(bound > {comm[2]:.3f} s at 2 peers)")
    assert comm[32] > comm[2]
    # scaling on xDSL is hopeless: 16× more peers buy < 3× speedup
    print(f"xDSL speedup 2 -> 32 peers: {xdsl[2] / xdsl[32]:.3f} "
          f"(bound < 3.0)")
    assert xdsl[2] / xdsl[32] < 3.0
    # reference (cluster) tracks the Grid5000 prediction
    for n in config.peer_counts:
        error = abs(result.reference[n] - g5k[n]) / result.reference[n]
        print(f"{n} peers: reference vs G5K prediction {error:.2%} "
              f"(bound < 5%)")
        assert abs(result.reference[n] - g5k[n]) / result.reference[n] < 0.05
