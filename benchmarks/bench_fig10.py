"""Fig. 10 — Stage-1 reference vs dPerf prediction (GCC level 3).

Paper: "the reference time and the prediction calculated with dPerf
are very close" — the two curves nearly coincide at every peer count.
"""

from conftest import emit

from repro.analysis import format_series
from repro.experiments import Stage1Config, run_stage1


def test_fig10_prediction_vs_reference(benchmark):
    config = Stage1Config()  # shares the cached full Stage-1 run

    result = benchmark.pedantic(run_stage1, args=(config,),
                                rounds=1, iterations=1)

    ref = result.reference_series("O3")
    pred = result.predicted_series("O3")
    emit("fig10", format_series(
        "Fig. 10 — reference vs dPerf prediction, GCC O3 [s]",
        "number of peers",
        {"reference time": ref, "prediction with dPerf": pred},
    ) + f"\n\naccuracy: {result.accuracy('O3')}")

    # the paper's claim: accurate at every point (we require < 5%)
    report = result.accuracy("O3")
    print(f"O3: MAPE {report.mape:.2%} (bound < 5%), "
          f"max |error| {report.max_abs_pct:.2%} (bound < 10%)")
    assert report.mape < 0.05
    assert report.max_abs_pct < 0.10
    # accurate at all levels, not only O3 (paper: "prediction is
    # accurate at all optimization levels")
    for lvl in config.levels:
        print(f"{lvl}: MAPE {result.accuracy(lvl).mape:.2%} (bound < 5%)")
        assert result.accuracy(lvl).mape < 0.05
